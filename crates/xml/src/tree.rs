//! The document tree: [`Element`] and [`Node`].

use std::fmt;

use crate::error::ParseXmlError;
use crate::parser;
use crate::writer::{self, WriteOptions};

/// A child node of an [`Element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A run of character data (entities already resolved).
    Text(String),
    /// A comment (`<!-- ... -->`). Preserved for round-tripping but ignored
    /// by all queries.
    Comment(String),
}

impl Node {
    /// Returns the contained element, if this node is one.
    fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(el) => Some(el),
            _ => None,
        }
    }

    /// Returns the contained text, if this node is character data.
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            _ => None,
        }
    }
}

impl From<Element> for Node {
    fn from(el: Element) -> Self {
        Node::Element(el)
    }
}

/// An XML element: a name, ordered attributes, and ordered child nodes.
///
/// `Element` is the single structural type of this crate — a parsed document
/// is simply its root element. Attribute order is preserved, which keeps
/// writing deterministic and makes round-trip testing exact.
///
/// # Examples
///
/// Building a document programmatically:
///
/// ```
/// use virt_xml::Element;
///
/// let mut disk = Element::new("disk");
/// disk.set_attr("type", "file");
/// disk.push_child(Element::with_text("source", "/var/lib/images/a.img"));
/// assert_eq!(disk.to_string(), r#"<disk type="file"><source>/var/lib/images/a.img</source></disk>"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an element with the given name and no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates an element containing a single text child.
    ///
    /// ```
    /// use virt_xml::Element;
    /// let el = Element::with_text("name", "demo");
    /// assert_eq!(el.text(), "demo");
    /// ```
    pub fn with_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        let mut el = Element::new(name);
        el.push_node(Node::Text(text.into()));
        el
    }

    /// Parses an XML document and returns its root element.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseXmlError`] when the input is not well-formed with
    /// respect to the supported subset (see the crate documentation), nests
    /// deeper than [`MAX_DEPTH`](crate::MAX_DEPTH) or puts more than
    /// [`MAX_ATTRIBUTES`](crate::MAX_ATTRIBUTES) on one element.
    ///
    /// Code that only reads a document — decodes it into its own types and
    /// drops it — wants [`Document::parse`](crate::Document::parse), which
    /// accepts exactly the same inputs and copies nothing.
    pub fn parse(input: &str) -> Result<Element, ParseXmlError> {
        parser::parse_document(input)
    }

    /// The element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, replacing any existing value for the same name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
        self
    }

    /// Appends an attribute the caller knows is not present yet.
    pub(crate) fn push_attr(&mut self, name: &str, value: impl Into<String>) {
        self.attrs.push((name.to_string(), value.into()));
    }

    /// Removes an attribute, returning its previous value.
    #[cfg(test)]
    pub(crate) fn remove_attr(&mut self, name: &str) -> Option<String> {
        let idx = self.attrs.iter().position(|(k, _)| k == name)?;
        Some(self.attrs.remove(idx).1)
    }

    /// Iterates over `(name, value)` attribute pairs in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of attributes.
    pub(crate) fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Appends a child node.
    pub fn push_node(&mut self, node: Node) -> &mut Self {
        self.children.push(node);
        self
    }

    /// Appends a child element. Convenience wrapper over [`push_node`].
    ///
    /// [`push_node`]: Element::push_node
    pub fn push_child(&mut self, child: Element) -> &mut Self {
        self.push_node(Node::Element(child))
    }

    /// Appends a text node.
    pub(crate) fn push_text(&mut self, text: impl Into<String>) -> &mut Self {
        self.push_node(Node::Text(text.into()))
    }

    /// All child nodes in document order.
    pub fn nodes(&self) -> &[Node] {
        &self.children
    }

    /// Mutable access to the child nodes.
    pub(crate) fn nodes_mut(&mut self) -> &mut Vec<Node> {
        &mut self.children
    }

    /// Iterates over child *elements* only.
    pub fn children(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Concatenation of all direct text children.
    ///
    /// Whitespace is preserved exactly as parsed; callers that want a
    /// trimmed value can call `.trim()` on the result.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// `true` when the element has neither attributes nor children.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.children.is_empty()
    }

    /// Serializes the element with the given options.
    pub fn write(&self, options: &WriteOptions) -> String {
        writer::write_element(self, options)
    }

    /// Serializes the element with indentation, for human consumption.
    ///
    /// ```
    /// use virt_xml::Element;
    /// let doc = Element::parse("<a><b/></a>").unwrap();
    /// assert_eq!(doc.to_pretty_string(), "<a>\n  <b/>\n</a>\n");
    /// ```
    pub fn to_pretty_string(&self) -> String {
        self.write(&WriteOptions::pretty())
    }
}

impl fmt::Display for Element {
    /// Serializes compactly (no added whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.write(&WriteOptions::compact()))
    }
}

impl std::str::FromStr for Element {
    type Err = ParseXmlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Element::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_element_is_empty() {
        let el = Element::new("devices");
        assert_eq!(el.name(), "devices");
        assert!(el.is_empty());
        assert_eq!(el.text(), "");
    }

    #[test]
    fn set_attr_replaces_existing_value() {
        let mut el = Element::new("disk");
        el.set_attr("type", "file");
        el.set_attr("type", "block");
        assert_eq!(el.attr("type"), Some("block"));
        assert_eq!(el.attr_count(), 1);
    }

    #[test]
    fn remove_attr_returns_previous_value() {
        let mut el = Element::new("disk");
        el.set_attr("bus", "virtio");
        assert_eq!(el.remove_attr("bus"), Some("virtio".to_string()));
        assert_eq!(el.remove_attr("bus"), None);
    }

    #[test]
    fn attrs_preserve_insertion_order() {
        let mut el = Element::new("e");
        el.set_attr("b", "2");
        el.set_attr("a", "1");
        let collected: Vec<_> = el.attrs().collect();
        assert_eq!(collected, vec![("b", "2"), ("a", "1")]);
    }

    #[test]
    fn children_iterator_skips_text_and_comments() {
        let mut el = Element::new("root");
        el.push_text("hello");
        el.push_child(Element::new("a"));
        el.push_node(Node::Comment("note".into()));
        el.push_child(Element::new("b"));
        let names: Vec<_> = el.children().map(Element::name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn text_concatenates_direct_text_children_only() {
        let mut inner = Element::new("inner");
        inner.push_text("hidden");
        let mut el = Element::new("root");
        el.push_text("a");
        el.push_child(inner);
        el.push_text("b");
        assert_eq!(el.text(), "ab");
    }

    #[test]
    fn from_str_parses() {
        let el: Element = "<x a='1'/>".parse().expect("parse");
        assert_eq!(el.attr("a"), Some("1"));
    }

    #[test]
    fn node_conversions() {
        let node: Node = Element::new("n").into();
        assert!(node.as_element().is_some());
        assert!(node.as_text().is_none());
        let text = Node::Text("t".into());
        assert_eq!(text.as_text(), Some("t"));
        assert!(text.as_element().is_none());
    }

    #[test]
    fn with_text_constructor() {
        let el = Element::with_text("name", "vm-1");
        assert_eq!(el.name(), "name");
        assert_eq!(el.text(), "vm-1");
        assert!(!el.is_empty());
    }
}
