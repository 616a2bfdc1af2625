//! An XDR (RFC 4506) subset encoder/decoder.
//!
//! XDR is the on-wire data representation of the remote protocol, as in
//! libvirt. The rules implemented here:
//!
//! - every item occupies a multiple of 4 bytes, big-endian;
//! - `bool` is a `u32` 0/1;
//! - strings and variable opaque data carry a `u32` length followed by the
//!   bytes, zero-padded to a 4-byte boundary;
//! - arrays carry a `u32` element count followed by the encoded elements;
//! - optional data is a `bool` discriminant followed by the value.
//!
//! Decoding is strict: bad padding, non-UTF-8 strings, over-long lengths
//! and trailing garbage are all errors — a deserializer that silently
//! tolerates malformed input masks protocol bugs.

use std::error::Error;
use std::fmt;

/// Maximum byte length accepted for strings and opaques. Prevents a
/// hostile peer from forcing enormous allocations; arrays have their own
/// cap, [`MAX_LIST_LEN`].
pub const MAX_ITEM_LEN: u32 = 16 * 1024 * 1024;

/// An XDR decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XdrError {
    /// Input ended before the item was complete.
    UnexpectedEnd {
        /// Bytes needed beyond what was available.
        needed: usize,
    },
    /// A length field exceeded [`MAX_ITEM_LEN`].
    LengthTooLarge(u32),
    /// String bytes were not valid UTF-8.
    InvalidUtf8,
    /// A bool discriminant was neither 0 nor 1.
    InvalidBool(u32),
    /// Padding bytes were non-zero.
    BadPadding,
    /// An enum discriminant had no corresponding variant.
    InvalidDiscriminant(u32),
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::UnexpectedEnd { needed } => {
                write!(f, "unexpected end of XDR data ({needed} more bytes needed)")
            }
            XdrError::LengthTooLarge(len) => write!(f, "XDR length {len} exceeds limit"),
            XdrError::InvalidUtf8 => f.write_str("XDR string is not valid UTF-8"),
            XdrError::InvalidBool(v) => write!(f, "XDR bool discriminant {v} is not 0 or 1"),
            XdrError::BadPadding => f.write_str("XDR padding bytes are non-zero"),
            XdrError::InvalidDiscriminant(v) => write!(f, "XDR discriminant {v} has no variant"),
        }
    }
}

impl Error for XdrError {}

/// A read cursor over encoded XDR data.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` when all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEnd {
                needed: n - self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_padding(&mut self, data_len: usize) -> Result<(), XdrError> {
        let pad = (4 - data_len % 4) % 4;
        let bytes = self.take(pad)?;
        if bytes.iter().any(|&b| b != 0) {
            return Err(XdrError::BadPadding);
        }
        Ok(())
    }

    /// Reads one XDR string as a slice of the input, with no allocation.
    /// This is the string decoder: `String::decode` is this plus a copy,
    /// so both apply the same length, UTF-8 and padding checks in the
    /// same order. For decoders that can avoid owning the text — e.g. a
    /// field name drawn from a known vocabulary.
    ///
    /// # Errors
    ///
    /// [`XdrError::LengthTooLarge`], [`XdrError::UnexpectedEnd`],
    /// [`XdrError::InvalidUtf8`] or [`XdrError::BadPadding`].
    pub fn read_str(&mut self) -> Result<&'a str, XdrError> {
        let len = u32::decode(self)?;
        if len > MAX_ITEM_LEN {
            return Err(XdrError::LengthTooLarge(len));
        }
        let bytes = self.take(len as usize)?;
        let s = std::str::from_utf8(bytes).map_err(|_| XdrError::InvalidUtf8)?;
        self.take_padding(len as usize)?;
        Ok(s)
    }
}

/// Types encodable to XDR.
pub trait XdrEncode {
    /// Appends the XDR encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_xdr(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types decodable from XDR.
pub trait XdrDecode: Sized {
    /// Reads one value from the cursor.
    ///
    /// # Errors
    ///
    /// Any [`XdrError`] on malformed input.
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError>;

    /// Convenience: decodes a value that must occupy the whole buffer.
    ///
    /// # Errors
    ///
    /// [`XdrError::BadPadding`] if trailing bytes remain (treated as
    /// framing corruption).
    fn from_xdr(data: &[u8]) -> Result<Self, XdrError> {
        let mut cursor = Cursor::new(data);
        let value = Self::decode(&mut cursor)?;
        if !cursor.is_exhausted() {
            return Err(XdrError::BadPadding);
        }
        Ok(value)
    }
}

fn pad_to_4(out: &mut Vec<u8>, data_len: usize) {
    let pad = (4 - data_len % 4) % 4;
    out.extend(std::iter::repeat_n(0u8, pad));
}

impl XdrEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl XdrDecode for u32 {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let bytes = cursor.take(4)?;
        Ok(u32::from_be_bytes(bytes.try_into().expect("4 bytes")))
    }
}

impl XdrEncode for i32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl XdrDecode for i32 {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let bytes = cursor.take(4)?;
        Ok(i32::from_be_bytes(bytes.try_into().expect("4 bytes")))
    }
}

impl XdrEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl XdrDecode for u64 {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let bytes = cursor.take(8)?;
        Ok(u64::from_be_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl XdrEncode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl XdrDecode for i64 {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let bytes = cursor.take(8)?;
        Ok(i64::from_be_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl XdrEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl XdrDecode for f64 {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let bytes = cursor.take(8)?;
        Ok(f64::from_be_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl XdrEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
}

impl XdrDecode for bool {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        match u32::decode(cursor)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(XdrError::InvalidBool(other)),
        }
    }
}

impl XdrEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl XdrEncode for &str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
        pad_to_4(out, self.len());
    }
}

impl XdrDecode for String {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        cursor.read_str().map(str::to_string)
    }
}

/// Variable-length opaque data.
impl XdrEncode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
        pad_to_4(out, self.len());
    }
}

impl XdrDecode for Vec<u8> {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let len = u32::decode(cursor)?;
        if len > MAX_ITEM_LEN {
            return Err(XdrError::LengthTooLarge(len));
        }
        let bytes = cursor.take(len as usize)?.to_vec();
        cursor.take_padding(len as usize)?;
        Ok(bytes)
    }
}

/// Fixed 16-byte opaque (UUIDs). No length prefix, no padding needed.
impl XdrEncode for [u8; 16] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl XdrDecode for [u8; 16] {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let bytes = cursor.take(16)?;
        Ok(bytes.try_into().expect("16 bytes"))
    }
}

/// Optional-data: bool discriminant + value.
impl<T: XdrEncode> XdrEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(value) => {
                true.encode(out);
                value.encode(out);
            }
            None => false.encode(out),
        }
    }
}

impl<T: XdrDecode> XdrDecode for Option<T> {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        if bool::decode(cursor)? {
            Ok(Some(T::decode(cursor)?))
        } else {
            Ok(None)
        }
    }
}

/// Most elements a decoded array may declare.
const MAX_LIST_LEN: u32 = 1_000_000;

/// Variable-length arrays: a `u32` element count, then the elements. The
/// one list codec of both programs — every list reply is a `Vec` of its
/// record type.
///
/// Note: `Vec<u8>` is opaque data (above), not an array of `u8` items —
/// `u8` has no XDR form of its own, which is what keeps the two impls
/// apart.
impl<T: XdrEncode> XdrEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: XdrDecode> XdrDecode for Vec<T> {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let len = u32::decode(cursor)?;
        if len > MAX_LIST_LEN {
            return Err(XdrError::LengthTooLarge(len));
        }
        // A declared length alone reserves no more than 4096 elements.
        let mut items = Vec::with_capacity((len as usize).min(4096));
        for _ in 0..len {
            items.push(T::decode(cursor)?);
        }
        Ok(items)
    }
}

/// A 3-tuple is its fields in order, as a struct's are.
impl<A: XdrEncode, B: XdrEncode, C: XdrEncode> XdrEncode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: XdrDecode, B: XdrDecode, C: XdrDecode> XdrDecode for (A, B, C) {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        Ok((A::decode(cursor)?, B::decode(cursor)?, C::decode(cursor)?))
    }
}

/// XDR impls for a struct defined elsewhere: its fields in wire order.
///
/// For an API record that is its own wire form — the struct stays where
/// its API lives and the protocol file states the layout in one line:
///
/// ```
/// use virt_rpc::xdr::{XdrDecode, XdrEncode};
/// use virt_rpc::xdr_fields;
///
/// #[derive(Debug, PartialEq)]
/// pub struct Record {
///     pub id: u32,
///     pub name: String,
/// }
///
/// xdr_fields!(Record { name, id });
///
/// let rec = Record { id: 9, name: "x".into() };
/// assert_eq!(rec.to_xdr(), [0, 0, 0, 1, b'x', 0, 0, 0, 0, 0, 0, 9]);
/// assert_eq!(Record::from_xdr(&rec.to_xdr()).unwrap(), rec);
/// ```
#[macro_export]
macro_rules! xdr_fields {
    ($name:ty { $($field:ident),* $(,)? }) => {
        impl $crate::xdr::XdrEncode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::xdr::XdrEncode::encode(&self.$field, out);)*
            }
        }

        impl $crate::xdr::XdrDecode for $name {
            fn decode(cursor: &mut $crate::xdr::Cursor<'_>) -> Result<Self, $crate::xdr::XdrError> {
                Ok(Self {
                    $($field: $crate::xdr::XdrDecode::decode(cursor)?,)*
                })
            }
        }
    };
}

/// XDR impls for wire enums (see `virt_metrics::wire_enum!`): the `u32`
/// of `as_u32` on the wire, decoded through the type's `From<u32>` — its
/// rule for a number this build does not know, which falls back to a
/// variant rather than failing the whole record.
///
/// ```
/// use virt_rpc::xdr::{XdrDecode, XdrEncode};
///
/// virt_metrics::wire_enum! {
///     /// A demo enum.
///     #[derive(Debug, Clone, Copy, PartialEq, Default)]
///     pub enum Mode {
///         /// Unknown numbers land here.
///         #[default]
///         Off = 0 => "off",
///         /// On.
///         On = 1 => "on",
///     }
/// }
///
/// impl From<u32> for Mode {
///     fn from(number: u32) -> Self {
///         Mode::from_u32(number).unwrap_or_default()
///     }
/// }
///
/// virt_rpc::xdr_as_u32!(Mode);
///
/// assert_eq!(Mode::On.to_xdr(), [0, 0, 0, 1]);
/// assert_eq!(Mode::from_xdr(&[0, 0, 0, 9]).unwrap(), Mode::Off);
/// ```
#[macro_export]
macro_rules! xdr_as_u32 {
    ($($name:ty),* $(,)?) => {$(
        impl $crate::xdr::XdrEncode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::xdr::XdrEncode::encode(&self.as_u32(), out);
            }
        }

        impl $crate::xdr::XdrDecode for $name {
            fn decode(cursor: &mut $crate::xdr::Cursor<'_>) -> Result<Self, $crate::xdr::XdrError> {
                <u32 as $crate::xdr::XdrDecode>::decode(cursor).map(<$name>::from)
            }
        }
    )*};
}

/// Defines a wire struct and derives its tuple-style encoding: fields in
/// declaration order.
///
/// Used by the protocol message definitions in `virt-core` and `virtd`:
///
/// ```
/// use virt_rpc::xdr::{XdrDecode, XdrEncode};
/// use virt_rpc::xdr_struct;
///
/// xdr_struct! {
///     /// A demo record.
///     pub struct Record {
///         pub name: String,
///         pub id: u32,
///     }
/// }
///
/// let rec = Record { name: "x".into(), id: 9 };
/// let decoded = Record::from_xdr(&rec.to_xdr()).unwrap();
/// assert_eq!(decoded.id, 9);
/// ```
#[macro_export]
macro_rules! xdr_struct {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident : $ftype:ty),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ftype,)*
        }

        $crate::xdr_fields!($name { $($field),* });
    };
}

/// The unit payload for procedures with no arguments or results.
impl XdrEncode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl XdrDecode for () {
    fn decode(_cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(value: T) {
        let encoded = value.to_xdr();
        assert_eq!(
            encoded.len() % 4,
            0,
            "XDR items are 4-byte aligned: {value:?}"
        );
        let decoded = T::from_xdr(&encoded).expect("decode");
        assert_eq!(decoded, value);
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(-1i32);
        round_trip(i32::MIN);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(std::f64::consts::PI);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn scalars_are_big_endian() {
        assert_eq!(1u32.to_xdr(), vec![0, 0, 0, 1]);
        assert_eq!((-1i32).to_xdr(), vec![0xff, 0xff, 0xff, 0xff]);
        assert_eq!(1u64.to_xdr(), vec![0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(true.to_xdr(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn string_round_trips_with_padding() {
        for s in ["", "a", "ab", "abc", "abcd", "abcde", "čau 🦀"] {
            round_trip(s.to_string());
        }
    }

    #[test]
    fn string_encoding_layout() {
        // "abc" -> len 3, bytes, 1 pad byte.
        assert_eq!("abc".to_xdr(), vec![0, 0, 0, 3, b'a', b'b', b'c', 0]);
    }

    #[test]
    fn opaque_round_trips() {
        round_trip(Vec::<u8>::new());
        round_trip(vec![1u8, 2, 3]);
        round_trip((0u8..=255).collect::<Vec<u8>>());
    }

    #[test]
    fn fixed_16_byte_opaque() {
        let uuid = [7u8; 16];
        let encoded = uuid.to_xdr();
        assert_eq!(encoded.len(), 16);
        round_trip(uuid);
    }

    #[test]
    fn option_round_trips() {
        round_trip(Option::<u32>::None);
        round_trip(Some(42u32));
        round_trip(Some("x".to_string()));
    }

    #[test]
    fn typed_arrays_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec!["a".to_string(), "bb".to_string()]);
        round_trip(vec![-5i64, 5]);
    }

    #[test]
    fn truncated_input_errors() {
        let err = u64::from_xdr(&[0, 0, 0]).unwrap_err();
        assert!(matches!(err, XdrError::UnexpectedEnd { .. }));
        let err = String::from_xdr(&[0, 0, 0, 10, b'a']).unwrap_err();
        assert!(matches!(err, XdrError::UnexpectedEnd { .. }));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        (MAX_ITEM_LEN + 1).encode(&mut buf);
        let err = String::from_xdr(&buf).unwrap_err();
        assert!(matches!(err, XdrError::LengthTooLarge(_)));
        let err = Vec::<u8>::from_xdr(&buf).unwrap_err();
        assert!(matches!(err, XdrError::LengthTooLarge(_)));
        let err = Vec::<u32>::from_xdr(&buf).unwrap_err();
        assert!(matches!(err, XdrError::LengthTooLarge(_)));
    }

    #[test]
    fn list_length_is_capped_whatever_the_element() {
        let over = (MAX_LIST_LEN + 1).to_xdr();
        assert_eq!(
            Vec::<u64>::from_xdr(&over).unwrap_err(),
            XdrError::LengthTooLarge(MAX_LIST_LEN + 1)
        );
        assert_eq!(
            Vec::<Sample>::from_xdr(&over).unwrap_err(),
            XdrError::LengthTooLarge(MAX_LIST_LEN + 1)
        );
        // At the cap the declared length is believed only as far as the
        // bytes behind it go.
        let err = Vec::<Sample>::from_xdr(&MAX_LIST_LEN.to_xdr()).unwrap_err();
        assert!(matches!(err, XdrError::UnexpectedEnd { .. }));
    }

    #[test]
    fn lists_of_structs_and_of_opaques_round_trip() {
        let sample = Sample {
            name: "a".to_string(),
            id: 1,
            tags: vec![],
            uuid: [3; 16],
            maybe: None,
        };
        round_trip(vec![sample.clone(), sample]);
        round_trip(Vec::<Sample>::new());
        // A list of opaques is a list; a lone `Vec<u8>` stays opaque data.
        round_trip(vec![vec![1u8, 2, 3], vec![]]);
        assert_eq!(
            vec![vec![9u8]].to_xdr(),
            [0, 0, 0, 1, 0, 0, 0, 1, 9, 0, 0, 0]
        );
        assert_eq!(vec![9u8].to_xdr(), [0, 0, 0, 1, 9, 0, 0, 0]);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe, 0, 0]);
        assert_eq!(String::from_xdr(&buf).unwrap_err(), XdrError::InvalidUtf8);
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        buf.extend_from_slice(&[b'a', 1, 2, 3]); // padding should be zeros
        assert_eq!(String::from_xdr(&buf).unwrap_err(), XdrError::BadPadding);
    }

    #[test]
    fn bad_bool_rejected() {
        let mut buf = Vec::new();
        7u32.encode(&mut buf);
        assert_eq!(bool::from_xdr(&buf).unwrap_err(), XdrError::InvalidBool(7));
    }

    #[test]
    fn trailing_garbage_rejected_by_from_xdr() {
        let mut buf = 1u32.to_xdr();
        buf.extend_from_slice(&[0, 0, 0, 0]);
        assert!(u32::from_xdr(&buf).is_err());
    }

    #[test]
    fn triples_are_their_fields_in_order() {
        round_trip((7u32, 8u32, u64::MAX));
        assert_eq!(
            (1u32, true, 2u64).to_xdr(),
            [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]
        );
    }

    #[test]
    fn unit_is_empty() {
        assert!(().to_xdr().is_empty());
        <()>::from_xdr(&[]).unwrap();
    }

    xdr_struct! {
        /// Test struct exercising the macro with mixed field types.
        pub struct Sample {
            pub name: String,
            pub id: u64,
            pub tags: Vec<String>,
            pub uuid: [u8; 16],
            pub maybe: Option<u32>,
        }
    }

    #[test]
    fn struct_macro_round_trips() {
        let sample = Sample {
            name: "domain-1".to_string(),
            id: 99,
            tags: vec!["a".to_string(), "b".to_string()],
            uuid: [9; 16],
            maybe: Some(5),
        };
        round_trip(sample);
    }

    #[test]
    fn struct_decoding_is_order_sensitive() {
        let sample = Sample {
            name: "x".to_string(),
            id: 1,
            tags: vec![],
            uuid: [0; 16],
            maybe: None,
        };
        let mut encoded = sample.to_xdr();
        // Corrupt the first field's length to something huge.
        encoded[3] = 0xff;
        encoded[2] = 0xff;
        assert!(Sample::from_xdr(&encoded).is_err());
    }

    #[test]
    fn cursor_tracks_position() {
        let buf = [0u8, 0, 0, 1, 0, 0, 0, 2];
        let mut cursor = Cursor::new(&buf);
        assert_eq!(cursor.remaining(), 8);
        u32::decode(&mut cursor).unwrap();
        assert_eq!(cursor.position(), 4);
        assert!(!cursor.is_exhausted());
        u32::decode(&mut cursor).unwrap();
        assert!(cursor.is_exhausted());
    }
}
