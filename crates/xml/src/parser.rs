//! `Element::parse`: the owned tree, built from the tokenizer's events.

use std::borrow::Cow;

use crate::error::ParseXmlError;
use crate::tokenizer::{tokenize, Sink};
use crate::tree::{Element, Node};

/// Parses a complete document, returning its root element.
pub(crate) fn parse_document(input: &str) -> Result<Element, ParseXmlError> {
    let mut tree = TreeSink {
        open: Vec::new(),
        root: None,
    };
    tokenize(input, &mut tree)?;
    Ok(tree.root.expect("the tokenizer accepts only a closed root"))
}

/// Builds the tree bottom-up: an element joins its parent when it closes.
struct TreeSink {
    open: Vec<Element>,
    root: Option<Element>,
}

impl TreeSink {
    fn innermost(&mut self) -> &mut Element {
        self.open
            .last_mut()
            .expect("events arrive inside an element")
    }
}

impl<'a> Sink<'a> for TreeSink {
    fn start_element(&mut self, name: &'a str) {
        self.open.push(Element::new(name));
    }

    fn attribute(&mut self, name: &'a str, value: Cow<'a, str>) {
        // The tokenizer has already refused duplicates.
        self.innermost().push_attr(name, value);
    }

    /// Merges with a preceding text node so that adjacent runs (e.g. text +
    /// CDATA) form one node, matching what a re-parse would yield.
    fn text(&mut self, text: Cow<'a, str>) {
        let element = self.innermost();
        if let Some(Node::Text(prev)) = element.nodes_mut().last_mut() {
            prev.push_str(&text);
            return;
        }
        element.push_node(Node::Text(text.into_owned()));
    }

    fn comment(&mut self, body: &'a str) {
        self.innermost().push_node(Node::Comment(body.to_string()));
    }

    fn end_element(&mut self) {
        let element = self.open.pop().expect("a close follows an open");
        match self.open.last_mut() {
            Some(parent) => {
                parent.push_child(element);
            }
            None => self.root = Some(element),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseXmlErrorKind;

    #[test]
    fn parses_empty_element() {
        let el = parse_document("<a/>").unwrap();
        assert_eq!(el.name(), "a");
        assert!(el.is_empty());
    }

    #[test]
    fn parses_element_with_close_tag() {
        let el = parse_document("<a></a>").unwrap();
        assert_eq!(el.name(), "a");
        assert_eq!(el.nodes().len(), 0);
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let el = parse_document(r#"<disk type="file" bus='virtio'/>"#).unwrap();
        assert_eq!(el.attr("type"), Some("file"));
        assert_eq!(el.attr("bus"), Some("virtio"));
    }

    #[test]
    fn parses_nested_children_and_text() {
        let el = parse_document("<domain><name>vm</name><memory unit='MiB'>512</memory></domain>")
            .unwrap();
        let children: Vec<_> = el.children().collect();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].text(), "vm");
        assert_eq!(children[1].attr("unit"), Some("MiB"));
        assert_eq!(children[1].text(), "512");
    }

    #[test]
    fn resolves_entities_in_text_and_attributes() {
        let el = parse_document(r#"<e a="&lt;&amp;&gt;">&quot;x&apos; &#65;&#x42;</e>"#).unwrap();
        assert_eq!(el.attr("a"), Some("<&>"));
        assert_eq!(el.text(), "\"x' AB");
    }

    #[test]
    fn skips_declaration_and_comments_around_root() {
        let el =
            parse_document("<?xml version=\"1.0\"?>\n<!-- head --><r/><!-- tail -->\n").unwrap();
        assert_eq!(el.name(), "r");
    }

    #[test]
    fn keeps_comments_inside_elements() {
        let el = parse_document("<r><!-- note --><a/></r>").unwrap();
        assert!(matches!(el.nodes()[0], Node::Comment(ref c) if c == " note "));
    }

    #[test]
    fn cdata_becomes_text() {
        let el = parse_document("<s><![CDATA[a <raw> & b]]></s>").unwrap();
        assert_eq!(el.text(), "a <raw> & b");
    }

    #[test]
    fn adjacent_text_and_cdata_merge() {
        let el = parse_document("<s>x<![CDATA[y]]>z</s>").unwrap();
        assert_eq!(el.nodes().len(), 1);
        assert_eq!(el.text(), "xyz");
    }

    #[test]
    fn mismatched_close_tag_is_rejected() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::MismatchedTag);
    }

    #[test]
    fn duplicate_attribute_is_rejected() {
        let err = parse_document("<a x='1' x='2'/>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::DuplicateAttribute);
    }

    #[test]
    fn unclosed_element_reports_eof() {
        let err = parse_document("<a><b/>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_content_is_rejected() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::TrailingContent);
    }

    #[test]
    fn empty_input_reports_missing_root() {
        let err = parse_document("   \n ").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::MissingRoot);
    }

    #[test]
    fn unquoted_attribute_value_is_rejected() {
        let err = parse_document("<a x=1/>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::UnexpectedChar);
    }

    #[test]
    fn bad_name_start_is_rejected() {
        let err = parse_document("<1a/>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::InvalidName);
    }

    #[test]
    fn whitespace_in_close_tag_is_tolerated() {
        let el = parse_document("<a></a >").unwrap();
        assert_eq!(el.name(), "a");
    }

    #[test]
    fn deeply_nested_structure_parses() {
        let mut doc = String::new();
        for _ in 0..200 {
            doc.push_str("<n>");
        }
        doc.push_str("leaf");
        for _ in 0..200 {
            doc.push_str("</n>");
        }
        let el = parse_document(&doc).unwrap();
        assert_eq!(el.name(), "n");
    }

    #[test]
    fn unicode_names_and_text() {
        let el = parse_document("<éléments attr='ü'>Grüße 🦀</éléments>").unwrap();
        assert_eq!(el.name(), "éléments");
        assert_eq!(el.attr("attr"), Some("ü"));
        assert_eq!(el.text(), "Grüße 🦀");
    }

    #[test]
    fn lone_ampersand_is_invalid() {
        let err = parse_document("<a>x & y</a>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::InvalidEntity);
    }

    #[test]
    fn lt_in_attribute_is_invalid() {
        let err = parse_document("<a x='<'/>").unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::UnexpectedChar);
    }
}
