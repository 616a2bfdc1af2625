//! Error type for XML parsing.

use std::error::Error;
use std::fmt;

/// The category of an XML parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ParseXmlErrorKind {
    /// Input ended while more content was required.
    UnexpectedEof,
    /// A character that is not allowed at this position.
    UnexpectedChar,
    /// An element or attribute name is empty or contains invalid characters.
    InvalidName,
    /// A closing tag does not match the open element.
    MismatchedTag,
    /// The same attribute appears twice on one element.
    DuplicateAttribute,
    /// An entity or character reference could not be resolved.
    InvalidEntity,
    /// Content found after the document element closed.
    TrailingContent,
    /// The document contains no root element.
    MissingRoot,
    /// Elements nest deeper than [`MAX_DEPTH`](crate::MAX_DEPTH).
    TooDeep,
    /// One element carries more than
    /// [`MAX_ATTRIBUTES`](crate::MAX_ATTRIBUTES) attributes.
    TooManyAttributes,
}

impl fmt::Display for ParseXmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ParseXmlErrorKind::UnexpectedEof => "unexpected end of input",
            ParseXmlErrorKind::UnexpectedChar => "unexpected character",
            ParseXmlErrorKind::InvalidName => "invalid name",
            ParseXmlErrorKind::MismatchedTag => "mismatched closing tag",
            ParseXmlErrorKind::DuplicateAttribute => "duplicate attribute",
            ParseXmlErrorKind::InvalidEntity => "invalid entity reference",
            ParseXmlErrorKind::TrailingContent => "content after document element",
            ParseXmlErrorKind::MissingRoot => "document has no root element",
            ParseXmlErrorKind::TooDeep => "element nesting too deep",
            ParseXmlErrorKind::TooManyAttributes => "too many attributes",
        };
        f.write_str(msg)
    }
}

/// An error produced while parsing an XML document.
///
/// Carries the failure [`kind`](ParseXmlError::kind), the byte
/// [`position`](ParseXmlError::position) in the input where it was detected,
/// and a short human-readable context fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    kind: ParseXmlErrorKind,
    position: usize,
    context: String,
}

impl ParseXmlError {
    pub(crate) fn new(
        kind: ParseXmlErrorKind,
        position: usize,
        context: impl Into<String>,
    ) -> Self {
        ParseXmlError {
            kind,
            position,
            context: context.into(),
        }
    }

    /// The category of the failure.
    pub fn kind(&self) -> ParseXmlErrorKind {
        self.kind
    }

    /// Byte offset into the input at which the failure was detected.
    pub fn position(&self) -> usize {
        self.position
    }

    /// A short fragment of context describing what the parser expected.
    pub fn context(&self) -> &str {
        &self.context
    }
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.position)?;
        if !self.context.is_empty() {
            write!(f, " ({})", self.context)?;
        }
        Ok(())
    }
}

impl Error for ParseXmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_position_and_context() {
        let err = ParseXmlError::new(ParseXmlErrorKind::InvalidName, 12, "in start tag");
        let text = err.to_string();
        assert!(text.contains("invalid name"));
        assert!(text.contains("12"));
        assert!(text.contains("in start tag"));
    }

    #[test]
    fn display_omits_empty_context() {
        let err = ParseXmlError::new(ParseXmlErrorKind::UnexpectedEof, 3, "");
        assert_eq!(err.to_string(), "unexpected end of input at byte 3");
    }

    #[test]
    fn accessors_return_constructor_values() {
        let err = ParseXmlError::new(ParseXmlErrorKind::MismatchedTag, 7, "expected </a>");
        assert_eq!(err.kind(), ParseXmlErrorKind::MismatchedTag);
        assert_eq!(err.position(), 7);
        assert_eq!(err.context(), "expected </a>");
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseXmlError>();
    }
}
