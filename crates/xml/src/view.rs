//! A borrowed, read-only view of a document: [`Document`] and [`ElemRef`].
//!
//! [`Element`] owns every name, value and text run, which is what a builder
//! or an editor needs. A decoder needs none of it: it asks a few questions
//! of a document, keeps its answers in its own types and drops the rest.
//! [`Document::parse`] serves that reader. It is fed by the same tokenizer
//! as [`Element::parse`] — same inputs accepted, same errors — but names,
//! attribute values and text stay `&str` slices of the input (owned only
//! where an entity was resolved) and all nodes live in one arena.

use std::borrow::Cow;

use crate::error::ParseXmlError;
use crate::tokenizer::{tokenize, Sink};
use crate::tree::{Element, Node};

/// One arena slot. An element is followed by its attributes, then by its
/// content in document order; `end` is the slot after its last descendant.
#[derive(Debug)]
enum Slot<'a> {
    Element {
        name: &'a str,
        attrs: usize,
        end: usize,
        parent: usize,
    },
    Attr(&'a str, Cow<'a, str>),
    Text(Cow<'a, str>),
    Comment(&'a str),
}

/// A parsed document that borrows from its input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), virt_xml::ParseXmlError> {
/// use virt_xml::Document;
///
/// let doc = Document::parse("<domain type='qemu'><name>demo</name><devices><disk/></devices></domain>")?;
/// let root = doc.root();
/// assert_eq!(root.name(), "domain");
/// assert_eq!(root.attr("type"), Some("qemu"));
/// assert_eq!(root.child_text("name"), Some("demo"));
/// assert_eq!(root.find("devices/disk").map(|d| d.name()), Some("disk"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Document<'a> {
    /// The root element is slot 0.
    slots: Vec<Slot<'a>>,
}

impl<'a> Document<'a> {
    /// Parses an XML document without copying it.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Element::parse`].
    pub fn parse(input: &'a str) -> Result<Document<'a>, ParseXmlError> {
        // Compact resource descriptions run at 14-16 bytes per slot; room
        // for twice that keeps the arena from regrowing, and the cap keeps
        // a large input from reserving more than it may turn out to need.
        let mut arena = ArenaSink {
            slots: Vec::with_capacity((input.len() / 8).min(4096)),
            open: NONE,
            text_open: false,
        };
        tokenize(input, &mut arena)?;
        Ok(Document { slots: arena.slots })
    }

    /// The document element.
    pub fn root(&self) -> ElemRef<'_> {
        ElemRef { doc: self, at: 0 }
    }

    fn push_tree(&mut self, el: &'a Element, parent: usize) {
        let at = self.slots.len();
        self.slots.push(Slot::Element {
            name: el.name(),
            attrs: el.attr_count(),
            end: 0,
            parent,
        });
        for (name, value) in el.attrs() {
            self.slots.push(Slot::Attr(name, Cow::Borrowed(value)));
        }
        for node in el.nodes() {
            match node {
                Node::Element(child) => self.push_tree(child, at),
                Node::Text(text) => self.slots.push(Slot::Text(Cow::Borrowed(text))),
                Node::Comment(body) => self.slots.push(Slot::Comment(body)),
            }
        }
        let after = self.slots.len();
        if let Slot::Element { end, .. } = &mut self.slots[at] {
            *end = after;
        }
    }
}

impl<'a> From<&'a Element> for Document<'a> {
    /// Views an owned tree, so that code written against [`ElemRef`] reads
    /// either.
    fn from(root: &'a Element) -> Self {
        let mut doc = Document { slots: Vec::new() };
        doc.push_tree(root, NONE);
        doc
    }
}

/// "No open element" / "no parent".
const NONE: usize = usize::MAX;

struct ArenaSink<'a> {
    slots: Vec<Slot<'a>>,
    /// The innermost open element.
    open: usize,
    /// Whether the last slot is a text node of the innermost open element,
    /// so that the next run continues it.
    text_open: bool,
}

impl<'a> Sink<'a> for ArenaSink<'a> {
    fn start_element(&mut self, name: &'a str) {
        self.text_open = false;
        let parent = std::mem::replace(&mut self.open, self.slots.len());
        self.slots.push(Slot::Element {
            name,
            attrs: 0,
            end: 0,
            parent,
        });
    }

    fn attribute(&mut self, name: &'a str, value: Cow<'a, str>) {
        if let Slot::Element { attrs, .. } = &mut self.slots[self.open] {
            *attrs += 1;
        }
        self.slots.push(Slot::Attr(name, value));
    }

    fn text(&mut self, text: Cow<'a, str>) {
        match self.slots.last_mut() {
            Some(Slot::Text(prev)) if self.text_open => prev.to_mut().push_str(&text),
            _ => self.slots.push(Slot::Text(text)),
        }
        self.text_open = true;
    }

    fn comment(&mut self, body: &'a str) {
        self.text_open = false;
        self.slots.push(Slot::Comment(body));
    }

    fn end_element(&mut self) {
        self.text_open = false;
        let after = self.slots.len();
        if let Slot::Element { end, parent, .. } = &mut self.slots[self.open] {
            *end = after;
            self.open = *parent;
        }
    }
}

/// An element of a [`Document`]: a `Copy` handle offering the read-only
/// queries of [`Element`]. Everything it returns borrows from the document.
#[derive(Debug, Clone, Copy)]
pub struct ElemRef<'d> {
    doc: &'d Document<'d>,
    at: usize,
}

impl<'d> ElemRef<'d> {
    /// `(name, attribute count, slot after the last descendant)`.
    fn header(self) -> (&'d str, usize, usize) {
        match self.doc.slots[self.at] {
            Slot::Element {
                name, attrs, end, ..
            } => (name, attrs, end),
            _ => unreachable!("an ElemRef points at an element slot"),
        }
    }

    /// The slots of the element's content: child nodes and their subtrees.
    fn content(self) -> std::ops::Range<usize> {
        let (_, attrs, end) = self.header();
        self.at + 1 + attrs..end
    }

    /// The element name.
    pub fn name(self) -> &'d str {
        self.header().0
    }

    /// Iterates over `(name, value)` attribute pairs in document order.
    pub fn attrs(self) -> impl Iterator<Item = (&'d str, &'d str)> {
        let first = self.at + 1;
        self.doc.slots[first..first + self.header().1]
            .iter()
            .filter_map(|slot| match slot {
                Slot::Attr(name, value) => Some((*name, value.as_ref())),
                _ => None,
            })
    }

    /// Looks up an attribute value by name.
    pub fn attr(self, name: &str) -> Option<&'d str> {
        self.attrs().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Iterates over child *elements* only.
    pub fn children(self) -> impl Iterator<Item = ElemRef<'d>> {
        let doc = self.doc;
        let mut content = self.content();
        std::iter::from_fn(move || {
            while content.start < content.end {
                let at = content.start;
                match doc.slots[at] {
                    Slot::Element { end, .. } => {
                        content.start = end;
                        return Some(ElemRef { doc, at });
                    }
                    _ => content.start += 1,
                }
            }
            None
        })
    }

    /// First child element with the given name.
    pub fn child(self, name: &str) -> Option<ElemRef<'d>> {
        self.children().find(|c| c.name() == name)
    }

    /// Text content of the first child with the given name, if present.
    ///
    /// Returns the raw (untrimmed) text; an element present but empty
    /// yields `Some("")`, one with anything but a single run of text `None`.
    pub fn child_text(self, name: &str) -> Option<&'d str> {
        let content = self.child(name)?.content();
        match &self.doc.slots[content] {
            [Slot::Text(text)] => Some(text),
            [] => Some(""),
            _ => None,
        }
    }

    /// Concatenation of all direct text children, whitespace preserved.
    pub fn text(self) -> Cow<'d, str> {
        let mut out = Cow::Borrowed("");
        let mut content = self.content();
        while content.start < content.end {
            match &self.doc.slots[content.start] {
                Slot::Element { end, .. } => {
                    content.start = *end;
                    continue;
                }
                Slot::Text(text) if out.is_empty() => out = Cow::Borrowed(text.as_ref()),
                Slot::Text(text) => out.to_mut().push_str(text),
                _ => {}
            }
            content.start += 1;
        }
        out
    }

    /// Finds the first descendant matching a `/`-separated path of child
    /// element names, like [`Element::find`].
    pub fn find(self, path: &str) -> Option<ElemRef<'d>> {
        let mut current = self;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            current = current.child(segment)?;
        }
        (current.at != self.at).then_some(current)
    }

    /// Copies the element and everything below it into an owned tree.
    pub fn to_element(self) -> Element {
        let mut el = Element::new(self.name());
        for (name, value) in self.attrs() {
            el.push_attr(name, value);
        }
        let mut content = self.content();
        while content.start < content.end {
            let at = content.start;
            content.start += 1;
            match &self.doc.slots[at] {
                Slot::Element { end, .. } => {
                    content.start = *end;
                    el.push_child(ElemRef { doc: self.doc, at }.to_element());
                }
                Slot::Text(text) => {
                    el.push_text(text.as_ref());
                }
                Slot::Comment(body) => {
                    el.push_node(Node::Comment(body.to_string()));
                }
                Slot::Attr(..) => unreachable!("attributes precede the content"),
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<domain type='qemu' id=\"&lt;7&gt;\">\
           <name>vm&amp;0</name>\
           <!-- c -->\
           <empty/>\
           <mixed>a<b/>c</mixed>\
           <devices>\
             <disk dev='vda'><source file='/a.img'/></disk>\
             <disk dev='vdb'/>\
           </devices>\
           tail<![CDATA[ <raw> ]]>\
         </domain>";

    #[test]
    fn queries_answer_like_the_owned_tree() {
        let doc = Document::parse(DOC).unwrap();
        let tree = Element::parse(DOC).unwrap();
        let root = doc.root();
        assert_eq!(root.name(), tree.name());
        assert_eq!(
            root.attrs().collect::<Vec<_>>(),
            tree.attrs().collect::<Vec<_>>()
        );
        assert_eq!(root.attr("id"), Some("<7>"));
        assert_eq!(root.attr("nope"), None);
        assert_eq!(
            root.children().map(ElemRef::name).collect::<Vec<_>>(),
            tree.children().map(Element::name).collect::<Vec<_>>()
        );
        for name in ["name", "empty", "mixed", "devices", "nope"] {
            assert_eq!(root.child_text(name), tree.child_text(name), "{name}");
            assert_eq!(
                root.child(name).map(ElemRef::name),
                tree.child(name).map(Element::name)
            );
        }
        assert_eq!(root.text(), tree.text());
        assert_eq!(root.child("mixed").unwrap().text(), "ac");
        assert_eq!(root.child("empty").unwrap().text(), "");
    }

    #[test]
    fn find_descends_and_refuses_the_empty_path() {
        let doc = Document::parse(DOC).unwrap();
        let root = doc.root();
        let source = root.find("devices/disk/source").expect("path exists");
        assert_eq!(source.attr("file"), Some("/a.img"));
        assert!(root.find("devices/controller").is_none());
        assert!(root.find("").is_none());
        assert!(root.find("/").is_none());
    }

    #[test]
    fn unresolved_runs_are_slices_of_the_input() {
        let input = DOC.to_string();
        let doc = Document::parse(&input).unwrap();
        let within = |s: &str| input.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let root = doc.root();
        assert!(within(root.name()));
        assert!(within(root.attr("type").unwrap()));
        assert!(within(
            root.find("devices/disk").unwrap().attr("dev").unwrap()
        ));
        // An entity forces a copy; nothing else does.
        assert!(!within(root.attr("id").unwrap()));
        assert!(!within(root.child_text("name").unwrap()));
    }

    #[test]
    fn converts_to_the_tree_element_parse_builds() {
        let doc = Document::parse(DOC).unwrap();
        assert_eq!(doc.root().to_element(), Element::parse(DOC).unwrap());
    }

    #[test]
    fn views_an_owned_tree() {
        let tree = Element::parse(DOC).unwrap();
        let doc = Document::from(&tree);
        assert_eq!(doc.root().to_element(), tree);
        assert_eq!(doc.root().child_text("name"), Some("vm&0"));
        assert_eq!(
            doc.root().find("devices/disk").unwrap().attr("dev"),
            Some("vda")
        );
    }

    #[test]
    fn text_after_a_closed_child_does_not_join_the_childs_text() {
        let doc = Document::parse("<a><b>x</b>y<![CDATA[z]]></a>").unwrap();
        assert_eq!(doc.root().child_text("b"), Some("x"));
        assert_eq!(doc.root().text(), "yz");
        assert_eq!(
            doc.root().to_element(),
            Element::parse("<a><b>x</b>y<![CDATA[z]]></a>").unwrap()
        );
    }

    #[test]
    fn rejects_what_element_parse_rejects() {
        for bad in ["", "<a>", "<a x='1' x='2'/>", "<a/><b/>", "<a>&nbsp;</a>"] {
            let view = Document::parse(bad).unwrap_err();
            let tree = Element::parse(bad).unwrap_err();
            assert_eq!(view, tree, "{bad:?}");
        }
    }
}
