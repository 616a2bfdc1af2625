//! The tokenizer: one pass over the bytes of a document.
//!
//! This is the only code in the crate that recognises `<`, names,
//! attributes, entities, comments and CDATA. It does not build anything:
//! what it finds goes to a [`Sink`] — the owned [`Element`](crate::Element)
//! tree of `parser.rs` or the borrowed arena of `view.rs` — as slices of
//! the input wherever the input already holds the bytes (names always; text
//! and attribute values unless an entity had to be resolved).
//!
//! Markup is ASCII, so runs of text, attribute values, whitespace and ASCII
//! names are scanned bytewise; a non-ASCII byte inside a name falls back to
//! decoding one `char`. Nesting is tracked on an explicit stack, so neither
//! the scan nor anything built from it recurses deeper than [`MAX_DEPTH`].

use std::borrow::Cow;

use crate::error::{ParseXmlError, ParseXmlErrorKind};
use crate::escape::resolve_entity;

/// Deepest accepted element nesting (the root element is level 1).
///
/// Trees are dropped, written and converted recursively; bounding what is
/// accepted bounds all of them.
pub const MAX_DEPTH: usize = 256;

/// Most attributes accepted on one element. The duplicate check compares
/// each attribute with the ones before it on the same start tag.
pub(crate) const MAX_ATTRIBUTES: usize = 1024;

/// Receives the contents of the root element, in document order. Comments
/// and the declaration around the root are not reported.
pub(crate) trait Sink<'a> {
    /// A start tag was opened; its attributes follow.
    fn start_element(&mut self, name: &'a str);
    /// An attribute of the element opened last, entities resolved.
    fn attribute(&mut self, name: &'a str, value: Cow<'a, str>);
    /// A non-empty run of character data or a CDATA section. Adjacent runs
    /// are reported separately and belong to one text node.
    fn text(&mut self, text: Cow<'a, str>);
    /// A comment inside the root element.
    fn comment(&mut self, body: &'a str);
    /// The innermost open element was closed.
    fn end_element(&mut self);
}

/// Scans a complete document into `sink`.
pub(crate) fn tokenize<'a>(input: &'a str, sink: &mut impl Sink<'a>) -> Result<(), ParseXmlError> {
    let mut cur = Cursor {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    cur.skip_misc(true)?;
    if cur.eof() {
        return Err(cur.err(ParseXmlErrorKind::MissingRoot, "no root element"));
    }
    if !cur.eat(b'<') {
        return Err(cur.err(ParseXmlErrorKind::UnexpectedChar, "expected '<'"));
    }
    // Names of the open elements, and of the attributes seen so far on
    // the current start tag.
    let mut open: Vec<&'a str> = Vec::new();
    let mut seen: Vec<&'a str> = Vec::new();
    'element: loop {
        // Just past the '<' of a start tag.
        if open.len() == MAX_DEPTH {
            return Err(cur.err(
                ParseXmlErrorKind::TooDeep,
                format!("elements nest deeper than {MAX_DEPTH}"),
            ));
        }
        let Some(name) = cur.name() else {
            return Err(cur.invalid_name());
        };
        sink.start_element(name);
        if cur.attributes(&mut seen, sink)? {
            sink.end_element();
        } else {
            open.push(name);
        }
        // Content, until the next start tag or the end of the root.
        while let Some(&name) = open.last() {
            match (cur.peek(), cur.bytes.get(cur.pos + 1)) {
                (Some(b'<'), Some(b'/')) => {
                    cur.pos += 2;
                    let Some(close) = cur.name() else {
                        return Err(cur.invalid_name());
                    };
                    if close != name {
                        return Err(cur.err(
                            ParseXmlErrorKind::MismatchedTag,
                            format!("expected </{name}>, found </{close}>"),
                        ));
                    }
                    cur.skip_whitespace();
                    if !cur.eat(b'>') {
                        return Err(cur.err(
                            ParseXmlErrorKind::UnexpectedChar,
                            "expected '>' in close tag",
                        ));
                    }
                    open.pop();
                    sink.end_element();
                }
                (Some(b'<'), Some(b'!')) if cur.at("<!--") => sink.comment(cur.comment()?),
                (Some(b'<'), Some(b'!')) if cur.at("<![CDATA[") => {
                    let body = cur.cdata()?;
                    if !body.is_empty() {
                        sink.text(Cow::Borrowed(body));
                    }
                }
                (Some(b'<'), _) => {
                    cur.pos += 1;
                    continue 'element;
                }
                (Some(_), _) => sink.text(cur.run(None)?),
                (None, _) => {
                    return Err(cur.err(
                        ParseXmlErrorKind::UnexpectedEof,
                        format!("element <{name}> is never closed"),
                    ))
                }
            }
        }
        break;
    }
    cur.skip_misc(false)?;
    if !cur.eof() {
        return Err(cur.err(
            ParseXmlErrorKind::TrailingContent,
            "only whitespace and comments may follow the root element",
        ));
    }
    Ok(())
}

struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Whether the input continues with `prefix`.
    fn at(&self, prefix: &str) -> bool {
        self.bytes[self.pos..].starts_with(prefix.as_bytes())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> bool {
        let found = self.peek() == Some(expected);
        self.pos += usize::from(found);
        found
    }

    fn err(&self, kind: ParseXmlErrorKind, context: impl Into<String>) -> ParseXmlError {
        ParseXmlError::new(kind, self.pos, context)
    }

    fn invalid_name(&self) -> ParseXmlError {
        self.err(
            ParseXmlErrorKind::InvalidName,
            "a name must start with a letter, '_' or ':'",
        )
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, and (when `allow_decl`) one XML
    /// declaration — the "misc" that may surround the root element.
    fn skip_misc(&mut self, allow_decl: bool) -> Result<(), ParseXmlError> {
        let mut decl_allowed = allow_decl;
        loop {
            self.skip_whitespace();
            if self.at("<?") {
                if !decl_allowed {
                    return Err(self.err(
                        ParseXmlErrorKind::UnexpectedChar,
                        "processing instruction not allowed here",
                    ));
                }
                match self.rest().find("?>") {
                    Some(end) => self.pos += end + 2,
                    None => {
                        return Err(
                            self.err(ParseXmlErrorKind::UnexpectedEof, "unterminated '<?...?>'")
                        )
                    }
                }
                decl_allowed = false;
            } else if self.at("<!--") {
                self.comment()?;
            } else {
                return Ok(());
            }
        }
    }

    /// The body between `open` (which the cursor is at) and the next `close`.
    fn delimited(
        &mut self,
        open: &str,
        close: &str,
        unterminated: &str,
    ) -> Result<&'a str, ParseXmlError> {
        debug_assert!(self.at(open));
        self.pos += open.len();
        let rest = self.rest();
        match rest.find(close) {
            Some(end) => {
                self.pos += end + close.len();
                Ok(&rest[..end])
            }
            None => Err(self.err(ParseXmlErrorKind::UnexpectedEof, unterminated)),
        }
    }

    fn comment(&mut self) -> Result<&'a str, ParseXmlError> {
        self.delimited("<!--", "-->", "unterminated comment")
    }

    fn cdata(&mut self) -> Result<&'a str, ParseXmlError> {
        self.delimited("<![CDATA[", "]]>", "unterminated CDATA section")
    }

    /// The name at the cursor, or `None` (cursor unmoved) when what is
    /// there cannot start one: a letter, `_` or `:`, then also digits, `-`
    /// and `.`.
    fn name(&mut self) -> Option<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let len = if b.is_ascii() {
                let part_of_name = b.is_ascii_alphabetic()
                    || b == b'_'
                    || b == b':'
                    || (self.pos > start && (b.is_ascii_digit() || b == b'-' || b == b'.'));
                if !part_of_name {
                    break;
                }
                1
            } else {
                match self.rest().chars().next() {
                    Some(c) if c.is_alphabetic() => c.len_utf8(),
                    _ => break,
                }
            };
            self.pos += len;
        }
        (self.pos > start).then(|| &self.input[start..self.pos])
    }

    /// The attributes of a start tag, up to and including its `>` or `/>`.
    /// Returns whether the tag closed itself.
    fn attributes(
        &mut self,
        seen: &mut Vec<&'a str>,
        sink: &mut impl Sink<'a>,
    ) -> Result<bool, ParseXmlError> {
        seen.clear();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if !self.eat(b'>') {
                        return Err(
                            self.err(ParseXmlErrorKind::UnexpectedChar, "expected '>' after '/'")
                        );
                    }
                    return Ok(true);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(_) => {}
                None => return Err(self.err(ParseXmlErrorKind::UnexpectedEof, "in start tag")),
            }
            let Some(name) = self.name() else {
                return Err(self.err(ParseXmlErrorKind::UnexpectedChar, "in start tag"));
            };
            self.skip_whitespace();
            if !self.eat(b'=') {
                return Err(self.err(
                    ParseXmlErrorKind::UnexpectedChar,
                    format!("expected '=' after attribute '{name}'"),
                ));
            }
            self.skip_whitespace();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => {
                    return Err(self.err(
                        ParseXmlErrorKind::UnexpectedChar,
                        "attribute value must be quoted",
                    ))
                }
            };
            self.pos += 1;
            let value = self.run(Some(quote))?;
            if seen.contains(&name) {
                return Err(self.err(
                    ParseXmlErrorKind::DuplicateAttribute,
                    format!("attribute '{name}' appears twice"),
                ));
            }
            if seen.len() == MAX_ATTRIBUTES {
                return Err(self.err(
                    ParseXmlErrorKind::TooManyAttributes,
                    format!("more than {MAX_ATTRIBUTES} attributes on one element"),
                ));
            }
            seen.push(name);
            sink.attribute(name, value);
        }
    }

    /// A run of character data with its entities resolved: text up to the
    /// next `<` or the end of input, or — with `quote` — an attribute value
    /// up to and including its closing quote. Borrowed from the input
    /// unless an entity was resolved.
    fn run(&mut self, quote: Option<u8>) -> Result<Cow<'a, str>, ParseXmlError> {
        let mut resolved: Option<String> = None;
        let mut from = self.pos;
        loop {
            let end = quote.unwrap_or(b'<');
            self.pos = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'<' || b == b'&' || b == end)
                .map_or(self.bytes.len(), |offset| self.pos + offset);
            match (self.peek(), quote) {
                (Some(b'&'), _) => {
                    let text = resolved.get_or_insert_with(String::new);
                    text.push_str(&self.input[from..self.pos]);
                    self.pos += 1;
                    let (ch, consumed) = resolve_entity(self.rest(), self.pos)?;
                    text.push(ch);
                    self.pos += consumed;
                    from = self.pos;
                }
                (Some(b'<'), Some(_)) => {
                    return Err(self.err(
                        ParseXmlErrorKind::UnexpectedChar,
                        "'<' is not allowed in attribute values",
                    ))
                }
                (None, Some(_)) => {
                    return Err(self.err(ParseXmlErrorKind::UnexpectedEof, "in attribute value"))
                }
                _ => {
                    let tail = &self.input[from..self.pos];
                    if quote.is_some() {
                        self.pos += 1;
                    }
                    return Ok(match resolved {
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                        None => Cow::Borrowed(tail),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Document, Element};

    fn nested(levels: usize) -> String {
        let mut doc = "<n>".repeat(levels);
        doc.push_str("leaf");
        doc.push_str(&"</n>".repeat(levels));
        doc
    }

    #[test]
    fn nesting_is_accepted_up_to_the_bound_and_not_beyond() {
        assert!(Element::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Document::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Element::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::TooDeep);
        // Reported at the name of the element that went too deep.
        assert_eq!(err.position(), 3 * MAX_DEPTH + 1);
        assert_eq!(Document::parse(&nested(MAX_DEPTH + 1)).unwrap_err(), err);
    }

    #[test]
    fn siblings_do_not_count_as_depth() {
        let doc = format!("<r>{}</r>", "<a><b/></a>".repeat(10 * MAX_DEPTH));
        assert_eq!(
            Element::parse(&doc).unwrap().children().count(),
            10 * MAX_DEPTH
        );
    }

    #[test]
    fn a_document_nested_a_million_deep_is_an_error_not_a_stack_overflow() {
        // Never closed, as a peer that wants the most depth per byte
        // would send it. A small stack: the scan must not recurse.
        let doc = "<a>".repeat(1_000_000);
        let kind = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || {
                let tree = Element::parse(&doc).unwrap_err();
                let view = Document::parse(&doc).unwrap_err();
                assert_eq!(tree, view);
                tree.kind()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(kind, ParseXmlErrorKind::TooDeep);
    }

    #[test]
    fn attributes_are_accepted_up_to_the_bound_and_not_beyond() {
        let tag = |attrs: usize| {
            let mut doc = String::from("<e");
            for i in 0..attrs {
                doc.push_str(&format!(" a{i}='{i}'"));
            }
            doc.push_str("/>");
            doc
        };
        let el = Element::parse(&tag(MAX_ATTRIBUTES)).unwrap();
        assert_eq!(el.attr_count(), MAX_ATTRIBUTES);
        assert_eq!(el.attr("a1023"), Some("1023"));
        let doc = tag(MAX_ATTRIBUTES + 1);
        let err = Element::parse(&doc).unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::TooManyAttributes);
        assert_eq!(Document::parse(&doc).unwrap_err(), err);
        // The count is per start tag.
        let many = format!("<r>{}</r>", tag(MAX_ATTRIBUTES).repeat(3));
        assert!(Element::parse(&many).is_ok());
    }

    #[test]
    fn a_duplicate_is_found_among_many_attributes() {
        let mut doc = String::from("<e");
        for i in 0..100 {
            doc.push_str(&format!(" a{i}='{i}'"));
        }
        doc.push_str(" a37=''/>");
        let err = Element::parse(&doc).unwrap_err();
        assert_eq!(err.kind(), ParseXmlErrorKind::DuplicateAttribute);
        assert_eq!(err.position(), doc.len() - 2);
    }

    #[test]
    fn runs_without_entities_are_borrowed() {
        struct Runs(Vec<bool>);
        impl<'a> Sink<'a> for Runs {
            fn start_element(&mut self, _: &'a str) {}
            fn attribute(&mut self, _: &'a str, value: Cow<'a, str>) {
                self.0.push(matches!(value, Cow::Borrowed(_)));
            }
            fn text(&mut self, text: Cow<'a, str>) {
                self.0.push(matches!(text, Cow::Borrowed(_)));
            }
            fn comment(&mut self, _: &'a str) {}
            fn end_element(&mut self) {}
        }
        let mut runs = Runs(Vec::new());
        tokenize(
            "<a p='plain' q='a&amp;b'>text<b/>a&lt;b<![CDATA[<raw>]]></a>",
            &mut runs,
        )
        .unwrap();
        assert_eq!(runs.0, [true, false, true, false, true]);
    }
}
