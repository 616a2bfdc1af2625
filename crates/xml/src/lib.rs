//! A minimal, dependency-free XML subset parser and writer.
//!
//! The virt toolkit describes every managed resource — domains, storage
//! pools, volumes and virtual networks — as an XML document, exactly like
//! libvirt does. This crate implements the small, well-defined subset of
//! XML those descriptions need:
//!
//! - elements with attributes and text content,
//! - comments and CDATA sections (parsed; CDATA is preserved as text),
//! - an optional leading XML declaration (`<?xml ...?>`),
//! - the five predefined entities (`&lt; &gt; &amp; &apos; &quot;`) plus
//!   numeric character references (`&#..;`, `&#x..;`).
//!
//! One tokenizer reads all of it, in one pass over the bytes, and feeds two
//! consumers. [`Element::parse`] builds the owned, mutable tree that
//! builders, editors and writers work on. [`Document::parse`] builds a
//! borrowed, read-only view for code that decodes a document into its own
//! types: names, attribute values and text stay slices of the input and
//! the nodes live in one arena. Both accept exactly the same inputs, and
//! both refuse documents nested deeper than [`MAX_DEPTH`] or with more than
//! [`MAX_ATTRIBUTES`] attributes on one element, so a hostile document can
//! exhaust neither the stack nor a CPU.
//!
//! It deliberately does **not** implement namespaces, DTDs, or processing
//! instructions beyond the declaration; none of the resource formats use
//! them.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use virt_xml::Element;
//!
//! let doc = Element::parse("<domain type='qemu'><name>demo</name></domain>")?;
//! assert_eq!(doc.name(), "domain");
//! assert_eq!(doc.attr("type"), Some("qemu"));
//! assert_eq!(doc.child_text("name"), Some("demo"));
//! # Ok(())
//! # }
//! ```

mod error;
mod escape;
mod parser;
mod query;
mod tokenizer;
mod tree;
mod view;
mod writer;

pub use error::ParseXmlError;
pub use tokenizer::MAX_DEPTH;
pub use tree::{Element, Node};
pub use view::{Document, ElemRef};
pub use writer::WriteOptions;
