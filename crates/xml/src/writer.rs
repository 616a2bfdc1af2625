//! Serialization of the document tree back to XML text.

use crate::escape::{escape_attr, escape_text};
use crate::tree::{Element, Node};

/// Options controlling XML serialization.
///
/// Use [`WriteOptions::compact`] for machine-to-machine exchange (the
/// default of `Element::to_string`) and [`WriteOptions::pretty`] for
/// human-facing output such as `virsh dumpxml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOptions {
    indent: Option<String>,
    declaration: bool,
}

impl WriteOptions {
    /// No inserted whitespace, no XML declaration.
    pub fn compact() -> Self {
        WriteOptions {
            indent: None,
            declaration: false,
        }
    }

    /// Two-space indentation, trailing newline, no declaration.
    pub fn pretty() -> Self {
        WriteOptions {
            indent: Some("  ".to_string()),
            declaration: false,
        }
    }

    /// Emits `<?xml version="1.0" encoding="UTF-8"?>` before the root.
    pub fn with_declaration(mut self) -> Self {
        self.declaration = true;
        self
    }
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions::compact()
    }
}

pub(crate) fn write_element(root: &Element, options: &WriteOptions) -> String {
    let mut out = String::new();
    if options.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if options.indent.is_some() {
            out.push('\n');
        }
    }
    write_rec(root, options, 0, &mut out);
    if options.indent.is_some() {
        out.push('\n');
    }
    out
}

fn write_rec(el: &Element, options: &WriteOptions, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| {
        if let Some(indent) = &options.indent {
            for _ in 0..depth {
                out.push_str(indent);
            }
        }
    };

    out.push('<');
    out.push_str(el.name());
    for (name, value) in el.attrs() {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        escape_attr(value, out);
        out.push('"');
    }

    if el.nodes().is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    // Any element containing text (mixed content included) is written
    // fully inline even in pretty mode: inserting indentation around text
    // would change the document's character data.
    let inline = el.nodes().iter().any(|n| matches!(n, Node::Text(_)));

    for node in el.nodes() {
        match node {
            Node::Text(text) => escape_text(text, out),
            Node::Comment(comment) => {
                if !inline && options.indent.is_some() {
                    out.push('\n');
                    pad(out, depth + 1);
                }
                out.push_str("<!--");
                out.push_str(comment);
                out.push_str("-->");
            }
            Node::Element(child) => {
                if !inline && options.indent.is_some() {
                    out.push('\n');
                    pad(out, depth + 1);
                }
                write_rec(child, options, depth + 1, out);
            }
        }
    }

    if !inline && options.indent.is_some() {
        out.push('\n');
        pad(out, depth);
    }
    out.push_str("</");
    out.push_str(el.name());
    out.push('>');
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl WriteOptions {
    /// Uses the given string as one level of indentation.
    fn with_indent(mut self, indent: impl Into<String>) -> Self {
        self.indent = Some(indent.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Element, Node};

    #[test]
    fn empty_element_is_self_closing() {
        assert_eq!(Element::new("on_reboot").to_string(), "<on_reboot/>");
    }

    #[test]
    fn attributes_are_double_quoted_and_escaped() {
        let mut el = Element::new("e");
        el.set_attr("v", "a\"b<c>&");
        assert_eq!(el.to_string(), r#"<e v="a&quot;b&lt;c&gt;&amp;"/>"#);
    }

    #[test]
    fn text_is_escaped() {
        let el = Element::with_text("t", "1 < 2 && 3 > 2");
        assert_eq!(el.to_string(), "<t>1 &lt; 2 &amp;&amp; 3 &gt; 2</t>");
    }

    #[test]
    fn pretty_output_indents_children() {
        let mut root = Element::new("domain");
        root.push_child(Element::with_text("name", "vm"));
        let mut devices = Element::new("devices");
        devices.push_child(Element::new("disk"));
        root.push_child(devices);
        let expected =
            "<domain>\n  <name>vm</name>\n  <devices>\n    <disk/>\n  </devices>\n</domain>\n";
        assert_eq!(root.to_pretty_string(), expected);
    }

    #[test]
    fn declaration_option_prepends_header() {
        let el = Element::new("a");
        let out = el.write(&WriteOptions::compact().with_declaration());
        assert_eq!(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    }

    #[test]
    fn comments_round_trip_compact() {
        let mut el = Element::new("r");
        el.push_node(Node::Comment(" hi ".into()));
        assert_eq!(el.to_string(), "<r><!-- hi --></r>");
    }

    #[test]
    fn custom_indent_is_used() {
        let mut root = Element::new("a");
        root.push_child(Element::new("b"));
        let out = root.write(&WriteOptions::compact().with_indent("\t"));
        assert_eq!(out, "<a>\n\t<b/>\n</a>\n");
    }

    #[test]
    fn compact_write_then_parse_round_trips() {
        let mut root = Element::new("domain");
        root.set_attr("type", "qemu");
        root.push_child(Element::with_text("name", "r&d <vm>"));
        let text = root.to_string();
        let reparsed = Element::parse(&text).expect("own output parses");
        assert_eq!(reparsed, root);
    }

    #[test]
    fn attr_newline_survives_round_trip() {
        let mut el = Element::new("e");
        el.set_attr("v", "line1\nline2\ttab");
        let reparsed = Element::parse(&el.to_string()).expect("parse");
        assert_eq!(reparsed.attr("v"), Some("line1\nline2\ttab"));
    }
}
