//! Property tests: every generated document survives write → parse
//! unchanged, in both compact and pretty form — and in any spelling the
//! subset allows (quote styles, whitespace inside tags, CDATA, character
//! references, a prolog). The borrowed view and the owned tree agree on
//! every one of those documents and on every single-byte mutation of them.

use proptest::prelude::*;
use virt_xml::{Document, Element, Node, WriteOptions};

/// Strategy for XML names (subset of what the parser accepts), non-ASCII
/// letters included.
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_\u{e9}\u{df}\u{3bb}\u{540d}][A-Za-z0-9_.\u{e9}\u{df}\u{3bb}\u{540d}-]{0,11}"
}

/// Strategy for attribute values and text including characters that need
/// escaping.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z').prop_map(|c| c.to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("&".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just(" ".to_string()),
            Just("\n".to_string()),
            Just("  \t ".to_string()),
            Just("\r\n".to_string()),
            Just("]]>".to_string()),
            Just(";".to_string()),
            Just("#".to_string()),
            Just("ß".to_string()),
            Just("🦀".to_string()),
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat())
}

/// Recursive element strategy: up to 3 levels deep, 4 children wide.
fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (
        name_strategy(),
        proptest::collection::vec((name_strategy(), value_strategy()), 0..3),
    )
        .prop_map(|(name, attrs)| {
            let mut el = Element::new(name);
            for (k, v) in attrs {
                el.set_attr(k, v);
            }
            el
        });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), value_strategy()), 0..3),
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(Node::Element),
                    value_strategy()
                        .prop_filter("non-empty text", |s| !s.is_empty())
                        .prop_map(Node::Text),
                    "[a-z <>&'\"\u{e9}]{0,8}".prop_map(Node::Comment),
                ],
                0..4,
            ),
        )
            .prop_map(|(name, attrs, children)| {
                let mut el = Element::new(name);
                for (k, v) in attrs {
                    el.set_attr(k, v);
                }
                let mut last_was_text = false;
                for node in children {
                    // Adjacent text nodes merge on parse, so only emit a text
                    // node when the previous child was not text; this keeps
                    // the tree in the canonical shape the parser produces.
                    match &node {
                        Node::Text(_) if last_was_text => continue,
                        Node::Text(_) => last_was_text = true,
                        _ => last_was_text = false,
                    }
                    el.push_node(node);
                }
                el
            })
    })
}

/// Stylistic choices for [`spell`], consumed one at a time and reused
/// cyclically.
struct Style<'c> {
    choices: &'c [u8],
    next: usize,
}

impl Style<'_> {
    /// The next choice, in `0..n`.
    fn pick(&mut self, n: u8) -> u8 {
        let choice = self.choices[self.next % self.choices.len()];
        self.next += 1;
        choice % n
    }

    fn whitespace(&mut self, required: bool) -> &'static str {
        match (self.pick(4), required) {
            (0, false) => "",
            (0, true) | (1, _) => " ",
            (2, _) => "\n  ",
            _ => " \t\r\n",
        }
    }
}

/// Writes `text` the way a person might: markup characters escaped by name
/// or by number, the odd harmless character as a reference too.
fn spell_chars(text: &str, quote: Option<char>, style: &mut Style<'_>, out: &mut String) {
    for ch in text.chars() {
        let must_escape = ch == '<' || ch == '&' || Some(ch) == quote;
        if !must_escape && style.pick(8) != 0 {
            out.push(ch);
            continue;
        }
        let named = match ch {
            '<' => Some("&lt;"),
            '>' => Some("&gt;"),
            '&' => Some("&amp;"),
            '"' => Some("&quot;"),
            '\'' => Some("&apos;"),
            _ => None,
        };
        match (named, style.pick(3)) {
            (Some(entity), 0) => out.push_str(entity),
            (_, 1) => out.push_str(&format!("&#{};", ch as u32)),
            (_, 2) => out.push_str(&format!("&#x{:x};", ch as u32)),
            _ => out.push_str(&format!("&#X{:X};", ch as u32)),
        }
    }
}

/// Writes `el` in one of the many spellings that parse back to it.
fn spell(el: &Element, style: &mut Style<'_>, out: &mut String) {
    out.push('<');
    out.push_str(el.name());
    for (name, value) in el.attrs() {
        out.push_str(style.whitespace(true));
        out.push_str(name);
        out.push_str(style.whitespace(false));
        out.push('=');
        out.push_str(style.whitespace(false));
        let quote = if style.pick(2) == 0 { '"' } else { '\'' };
        out.push(quote);
        spell_chars(value, Some(quote), style, out);
        out.push(quote);
    }
    out.push_str(style.whitespace(false));
    if el.nodes().is_empty() && style.pick(2) == 0 {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for node in el.nodes() {
        match node {
            Node::Element(child) => spell(child, style, out),
            Node::Comment(body) => {
                out.push_str("<!--");
                out.push_str(body);
                out.push_str("-->");
            }
            Node::Text(text) if !text.contains("]]>") && style.pick(3) == 0 => {
                // One text node may be spelled as several adjacent runs.
                let cut = (0..=text.len())
                    .filter(|&i| text.is_char_boundary(i))
                    .nth(style.pick(4) as usize)
                    .unwrap_or(0);
                spell_chars(&text[..cut], None, style, out);
                out.push_str("<![CDATA[");
                out.push_str(&text[cut..]);
                out.push_str("]]>");
                if style.pick(2) == 0 {
                    out.push_str("<![CDATA[]]>");
                }
            }
            Node::Text(text) => spell_chars(text, None, style, out),
        }
    }
    out.push_str("</");
    out.push_str(el.name());
    out.push_str(style.whitespace(false));
    out.push('>');
}

/// A whole document: an optional declaration, comments and whitespace
/// around the root.
fn spell_document(el: &Element, choices: &[u8]) -> String {
    let mut style = Style { choices, next: 0 };
    let mut out = String::new();
    out.push_str(style.whitespace(false));
    if style.pick(3) == 0 {
        out.push_str("<?xml version='1.0' encoding=\"UTF-8\"?>");
    }
    if style.pick(3) == 0 {
        out.push_str("\n<!-- head -->\n");
    }
    spell(el, &mut style, &mut out);
    if style.pick(3) == 0 {
        out.push_str("<!-- tail -->");
    }
    out.push_str(style.whitespace(false));
    out
}

/// Both consumers of the tokenizer answer `input` alike: the same tree, or
/// the same kind of error at the same byte.
fn sinks_agree(input: &str) {
    let tree = Element::parse(input);
    let view = Document::parse(input).map(|doc| doc.root().to_element());
    assert_eq!(view, tree, "on {input:?}");
}

/// Bytes that mean something to the tokenizer, plus two that do not.
const MUTATIONS: &[u8] = b"<>&\"'/=!-[];#? a0";

proptest! {
    /// Every document, and every document one byte away from it — each
    /// byte deleted, and replaced by each byte of the markup alphabet.
    #[test]
    fn view_and_tree_agree_on_documents_and_their_single_byte_mutations(
        el in element_strategy(),
        choices in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let text = spell_document(&el, &choices);
        sinks_agree(&text);
        sinks_agree(&el.to_string());
        let bytes = text.as_bytes();
        for at in 0..bytes.len() {
            let mut damaged = bytes.to_vec();
            damaged.remove(at);
            // A mutation that leaves no UTF-8 cannot reach the parser.
            if let Ok(damaged) = String::from_utf8(damaged) {
                sinks_agree(&damaged);
            }
            for &byte in MUTATIONS.iter().filter(|&&b| b != bytes[at]) {
                let mut damaged = bytes.to_vec();
                damaged[at] = byte;
                if let Ok(damaged) = String::from_utf8(damaged) {
                    sinks_agree(&damaged);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn any_spelling_parses_to_the_same_tree(
        el in element_strategy(),
        choices in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let text = spell_document(&el, &choices);
        let reparsed = Element::parse(&text);
        prop_assert_eq!(reparsed.as_ref(), Ok(&el), "spelled as {:?}", text);
        let doc = Document::parse(&text).expect("the view accepts what the tree accepts");
        prop_assert_eq!(doc.root().to_element(), el);
    }

    #[test]
    fn view_and_tree_agree_on_arbitrary_input(input in "\\PC*") {
        sinks_agree(&input);
    }

    #[test]
    fn view_and_tree_agree_on_tag_soup(input in "[<>&;a-z'\"= /!\\[\\]-]{0,64}") {
        sinks_agree(&input);
    }

    #[test]
    fn compact_roundtrip(el in element_strategy()) {
        let text = el.to_string();
        let reparsed = Element::parse(&text).expect("own compact output must parse");
        prop_assert_eq!(reparsed, el);
    }

    #[test]
    fn attribute_values_roundtrip(value in value_strategy()) {
        let mut el = Element::new("e");
        el.set_attr("v", value.clone());
        let reparsed = Element::parse(&el.to_string()).expect("parse");
        prop_assert_eq!(reparsed.attr("v"), Some(value.as_str()));
    }

    #[test]
    fn pretty_output_parses_to_equivalent_structure(el in element_strategy()) {
        // Pretty-printing inserts whitespace text nodes, so equality is
        // checked on a whitespace-normalized view: names, attrs and
        // trimmed text must match.
        let pretty = el.write(&WriteOptions::pretty().with_declaration());
        let reparsed = Element::parse(&pretty).expect("own pretty output must parse");
        prop_assert!(structurally_equal(&el, &reparsed));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC*") {
        let _ = Element::parse(&input);
    }

    #[test]
    fn parser_never_panics_on_tag_soup(input in "[<>&;a-z'\"= /!\\[\\]-]{0,64}") {
        let _ = Element::parse(&input);
    }
}

fn structurally_equal(a: &Element, b: &Element) -> bool {
    if a.name() != b.name() {
        return false;
    }
    let attrs_a: Vec<_> = a.attrs().collect();
    let attrs_b: Vec<_> = b.attrs().collect();
    if attrs_a != attrs_b {
        return false;
    }
    let children_a: Vec<_> = a.children().collect();
    let children_b: Vec<_> = b.children().collect();
    if children_a.len() != children_b.len() {
        return false;
    }
    // Text comparison is lossy under pretty-printing only when elements
    // also have element children (indentation joins the text runs), so
    // compare the concatenated text with whitespace collapsed.
    let norm = |e: &Element| e.text().split_whitespace().collect::<Vec<_>>().join(" ");
    if norm(a) != norm(b) {
        return false;
    }
    children_a
        .iter()
        .zip(children_b.iter())
        .all(|(x, y)| structurally_equal(x, y))
}
