//! Typed parameters.
//!
//! Public function signatures can never change once released, so APIs that
//! may grow new knobs take a list of name-tagged, dynamically typed
//! parameters instead of fixed structs — libvirt's `virTypedParameter`
//! pattern. The same encoding travels over the RPC wire unchanged, which
//! is what keeps old daemons compatible with new clients.
//!
//! Field names are `Cow<'static, str>`: almost every parameter in flight
//! is one of a few well-known names (a 1000-domain bulk-stats reply
//! repeats the five of [`stats_field`] a thousand times), so constructors
//! borrow the `&'static str` they are given and the decoder borrows the
//! constant for a name in that vocabulary, allocating only for a name it
//! does not know. Comparison, display and the wire form are those of the
//! string either way.

use std::borrow::Cow;
use std::fmt;

use virt_rpc::xdr::{Cursor, XdrDecode, XdrEncode, XdrError};

use crate::error::{ErrorCode, VirtError, VirtResult};

/// The value of a typed parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Signed 32-bit.
    Int(i32),
    /// Unsigned 32-bit.
    UInt(u32),
    /// Signed 64-bit.
    LLong(i64),
    /// Unsigned 64-bit.
    ULLong(u64),
    /// Double-precision float.
    Double(f64),
    /// Boolean.
    Boolean(bool),
    /// UTF-8 string.
    Str(String),
}

impl ParamValue {
    fn discriminant(&self) -> u32 {
        match self {
            ParamValue::Int(_) => 1,
            ParamValue::UInt(_) => 2,
            ParamValue::LLong(_) => 3,
            ParamValue::ULLong(_) => 4,
            ParamValue::Double(_) => 5,
            ParamValue::Boolean(_) => 6,
            ParamValue::Str(_) => 7,
        }
    }

    /// The type's name, for error messages.
    fn type_name(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::UInt(_) => "uint",
            ParamValue::LLong(_) => "llong",
            ParamValue::ULLong(_) => "ullong",
            ParamValue::Double(_) => "double",
            ParamValue::Boolean(_) => "boolean",
            ParamValue::Str(_) => "string",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::UInt(v) => write!(f, "{v}"),
            ParamValue::LLong(v) => write!(f, "{v}"),
            ParamValue::ULLong(v) => write!(f, "{v}"),
            ParamValue::Double(v) => write!(f, "{v}"),
            ParamValue::Boolean(v) => write!(f, "{}", if *v { "yes" } else { "no" }),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// The field names of a bulk-stats record
/// (`virConnectGetAllDomainStats`), declared once: the composer, the
/// embedded drivers' bulk pass, the fleet inventory and the decoder all
/// name stats fields through these constants.
pub mod stats_field {
    /// Lifecycle state, [`crate::driver::DomainState::as_u32`] (uint).
    pub const STATE: &str = "state.state";
    /// vCPU time consumed, nanoseconds (ullong).
    pub(crate) const CPU_TIME: &str = "cpu.time";
    /// Current memory, MiB (ullong).
    pub const BALLOON_CURRENT: &str = "balloon.current";
    /// Memory ceiling, MiB (ullong).
    pub const BALLOON_MAXIMUM: &str = "balloon.maximum";
    /// vCPU count (uint).
    pub const VCPU_CURRENT: &str = "vcpu.current";
    /// Kind of the current or most recent job (string); the `job.*`
    /// fields are present only for a domain with job history.
    pub const JOB_KIND: &str = "job.kind";
    /// State of that job (string).
    pub(crate) const JOB_STATE: &str = "job.state";
    /// Completion estimate of that job, percent (uint).
    pub(crate) const JOB_PROGRESS: &str = "job.progress";

    /// Every name above — what the decoder recognises.
    pub const ALL: [&str; 8] = [
        STATE,
        CPU_TIME,
        BALLOON_CURRENT,
        BALLOON_MAXIMUM,
        VCPU_CURRENT,
        JOB_KIND,
        JOB_STATE,
        JOB_PROGRESS,
    ];
}

/// The field name to store for a decoded `name`: the vocabulary's own
/// constant when it is one of [`stats_field::ALL`], an owned copy
/// otherwise.
fn intern_field(name: &str) -> Cow<'static, str> {
    match stats_field::ALL.iter().find(|known| **known == name) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(name.to_string()),
    }
}

/// One named, typed parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedParam {
    /// The field name the receiver dispatches on.
    pub field: Cow<'static, str>,
    /// The value.
    pub value: ParamValue,
}

impl TypedParam {
    /// Creates a parameter. A `&'static str` name is borrowed, a `String`
    /// is taken over; a borrowed name that is not `'static` needs
    /// `.to_string()`.
    pub fn new(field: impl Into<Cow<'static, str>>, value: ParamValue) -> Self {
        TypedParam {
            field: field.into(),
            value,
        }
    }

    /// Convenience constructor for unsigned 32-bit values.
    pub fn uint(field: impl Into<Cow<'static, str>>, value: u32) -> Self {
        TypedParam::new(field, ParamValue::UInt(value))
    }

    /// Convenience constructor for unsigned 64-bit values.
    pub fn ullong(field: impl Into<Cow<'static, str>>, value: u64) -> Self {
        TypedParam::new(field, ParamValue::ULLong(value))
    }

    /// Convenience constructor for strings.
    pub fn string(field: impl Into<Cow<'static, str>>, value: impl Into<String>) -> Self {
        TypedParam::new(field, ParamValue::Str(value.into()))
    }

    /// Convenience constructor for booleans.
    pub fn boolean(field: impl Into<Cow<'static, str>>, value: bool) -> Self {
        TypedParam::new(field, ParamValue::Boolean(value))
    }

    /// Bytes [`XdrEncode::encode`] appends for this parameter.
    fn encoded_len(&self) -> usize {
        let value = match &self.value {
            ParamValue::Int(_) | ParamValue::UInt(_) | ParamValue::Boolean(_) => 4,
            ParamValue::LLong(_) | ParamValue::ULLong(_) | ParamValue::Double(_) => 8,
            ParamValue::Str(v) => xdr_str_len(v),
        };
        xdr_str_len(&self.field) + 4 + value
    }
}

/// Encoded size of an XDR string: length word plus the bytes padded to
/// a 4-byte boundary.
pub(crate) fn xdr_str_len(s: &str) -> usize {
    4 + s.len().next_multiple_of(4)
}

/// Smallest encoding of one parameter: an empty name, the type word and
/// a 4-byte value. Bounds what a declared list length can make the
/// decoder reserve.
const MIN_PARAM_ENCODED_LEN: usize = 12;

impl XdrEncode for TypedParam {
    fn encode(&self, out: &mut Vec<u8>) {
        Placed::grow(out, self.encoded_len()).param(self);
    }
}

impl XdrDecode for TypedParam {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let field = intern_field(cursor.read_str()?);
        let value = match u32::decode(cursor)? {
            1 => ParamValue::Int(i32::decode(cursor)?),
            2 => ParamValue::UInt(u32::decode(cursor)?),
            3 => ParamValue::LLong(i64::decode(cursor)?),
            4 => ParamValue::ULLong(u64::decode(cursor)?),
            5 => ParamValue::Double(f64::decode(cursor)?),
            6 => ParamValue::Boolean(bool::decode(cursor)?),
            7 => ParamValue::Str(String::decode(cursor)?),
            other => return Err(XdrError::InvalidDiscriminant(other)),
        };
        Ok(TypedParam { field, value })
    }
}

/// Appends the XDR array encoding of `params` — the one encoder behind
/// [`TypedParamList`] and the bulk-stats reply.
pub(crate) fn encode_params(params: &[TypedParam], out: &mut Vec<u8>) {
    Placed::grow(out, params_encoded_len(params)).params(params);
}

/// Bytes [`encode_params`] appends for `params`.
pub(crate) fn params_encoded_len(params: &[TypedParam]) -> usize {
    4 + params.iter().map(TypedParam::encoded_len).sum::<usize>()
}

/// Writes XDR into room already made at the end of a buffer:
/// [`Placed::grow`] zero-extends the buffer by the exact encoded length
/// and the writes fill it front to back. A bulk-stats reply is some
/// 12 000 short strings and words, and this makes one capacity check per
/// record instead of one per piece; the zeros are the strings' padding.
/// The length must be exact: a short one panics, a long one leaves zeros
/// behind.
pub(crate) struct Placed<'a>(&'a mut [u8]);

impl<'a> Placed<'a> {
    /// Makes room for `len` bytes at the end of `out`.
    pub(crate) fn grow(out: &'a mut Vec<u8>, len: usize) -> Self {
        let start = out.len();
        out.resize(start + len, 0);
        Placed(&mut out[start..])
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = tail;
    }

    fn u32(&mut self, value: u32) {
        self.bytes(&value.to_be_bytes());
    }

    /// An XDR string: length, bytes, zero padding to 4.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
        let padding = xdr_str_len(s) - 4 - s.len();
        self.0 = &mut std::mem::take(&mut self.0)[padding..];
    }

    fn param(&mut self, param: &TypedParam) {
        self.str(&param.field);
        self.u32(param.value.discriminant());
        match &param.value {
            ParamValue::Int(v) => self.bytes(&v.to_be_bytes()),
            ParamValue::UInt(v) => self.u32(*v),
            ParamValue::LLong(v) => self.bytes(&v.to_be_bytes()),
            ParamValue::ULLong(v) => self.bytes(&v.to_be_bytes()),
            ParamValue::Double(v) => self.bytes(&v.to_be_bytes()),
            ParamValue::Boolean(v) => self.u32(u32::from(*v)),
            ParamValue::Str(v) => self.str(v),
        }
    }

    /// An XDR array of parameters: count, then each one.
    pub(crate) fn params(&mut self, params: &[TypedParam]) {
        self.u32(params.len() as u32);
        for param in params {
            self.param(param);
        }
    }
}

/// A wire-encodable list of typed parameters (newtype over `Vec` because
/// the XDR traits live in another crate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TypedParamList(pub Vec<TypedParam>);

impl XdrEncode for TypedParamList {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_params(&self.0, out);
    }
}

impl XdrDecode for TypedParamList {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let mut params = Vec::new();
        decode_params_into(cursor, &mut params)?;
        Ok(TypedParamList(params))
    }
}

/// Decodes an XDR parameter array into `params`, replacing what was
/// there — the one decoder behind [`TypedParamList`] and the bulk-stats
/// reader, which reuses one buffer for every record.
pub(crate) fn decode_params_into(
    cursor: &mut Cursor<'_>,
    params: &mut Vec<TypedParam>,
) -> Result<(), XdrError> {
    let len = u32::decode(cursor)?;
    if len > 4096 {
        return Err(XdrError::LengthTooLarge(len));
    }
    params.clear();
    // Sized once from the declared length, but never for more parameters
    // than the bytes that are actually there could hold.
    params.reserve((len as usize).min(cursor.remaining() / MIN_PARAM_ENCODED_LEN));
    for _ in 0..len {
        params.push(TypedParam::decode(cursor)?);
    }
    Ok(())
}

/// Helpers over parameter lists.
pub trait TypedParams {
    /// Finds a parameter by field name.
    fn find(&self, field: &str) -> Option<&TypedParam>;

    /// Extracts an unsigned 32-bit value.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] when present with a different type;
    /// `Ok(None)` when absent.
    fn get_uint(&self, field: &str) -> VirtResult<Option<u32>>;

    /// Extracts a string value (same contract as [`TypedParams::get_uint`]).
    fn get_string(&self, field: &str) -> VirtResult<Option<&str>>;

    /// Rejects duplicate fields and fields outside `allowed`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] describing the offending field.
    fn validate_fields(&self, allowed: &[&str]) -> VirtResult<()>;
}

impl TypedParams for [TypedParam] {
    fn find(&self, field: &str) -> Option<&TypedParam> {
        self.iter().find(|p| p.field == field)
    }

    fn get_uint(&self, field: &str) -> VirtResult<Option<u32>> {
        match self.find(field) {
            None => Ok(None),
            Some(TypedParam {
                value: ParamValue::UInt(v),
                ..
            }) => Ok(Some(*v)),
            Some(other) => Err(VirtError::new(
                ErrorCode::InvalidArg,
                format!(
                    "parameter '{field}' must be uint, got {}",
                    other.value.type_name()
                ),
            )),
        }
    }

    fn get_string(&self, field: &str) -> VirtResult<Option<&str>> {
        match self.find(field) {
            None => Ok(None),
            Some(TypedParam {
                value: ParamValue::Str(v),
                ..
            }) => Ok(Some(v)),
            Some(other) => Err(VirtError::new(
                ErrorCode::InvalidArg,
                format!(
                    "parameter '{field}' must be string, got {}",
                    other.value.type_name()
                ),
            )),
        }
    }

    fn validate_fields(&self, allowed: &[&str]) -> VirtResult<()> {
        for (i, param) in self.iter().enumerate() {
            if !allowed.contains(&&*param.field) {
                return Err(VirtError::new(
                    ErrorCode::InvalidArg,
                    format!("unknown parameter '{}'", param.field),
                ));
            }
            if self[..i].iter().any(|p| p.field == param.field) {
                return Err(VirtError::new(
                    ErrorCode::InvalidArg,
                    format!("duplicate parameter '{}'", param.field),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> Vec<TypedParam> {
        vec![
            TypedParam::new("a", ParamValue::Int(-5)),
            TypedParam::uint("b", 7),
            TypedParam::new("c", ParamValue::LLong(-9_000_000_000)),
            TypedParam::ullong("d", 18_000_000_000),
            TypedParam::new("e", ParamValue::Double(2.5)),
            TypedParam::boolean("f", true),
            TypedParam::string("g", "hello"),
        ]
    }

    #[test]
    fn every_value_type_round_trips_xdr() {
        let params = TypedParamList(sample_params());
        let decoded = TypedParamList::from_xdr(&params.to_xdr()).unwrap();
        assert_eq!(decoded, params);
    }

    #[test]
    fn bad_discriminant_rejected() {
        let mut buf = Vec::new();
        "field".encode(&mut buf);
        99u32.encode(&mut buf);
        assert!(matches!(
            TypedParam::from_xdr(&buf).unwrap_err(),
            XdrError::InvalidDiscriminant(99)
        ));
    }

    #[test]
    fn oversized_list_rejected() {
        let mut buf = Vec::new();
        5000u32.encode(&mut buf);
        assert!(matches!(
            TypedParamList::from_xdr(&buf).unwrap_err(),
            XdrError::LengthTooLarge(5000)
        ));
    }

    #[test]
    fn get_uint_checks_type() {
        let params = sample_params();
        assert_eq!(params.get_uint("b").unwrap(), Some(7));
        assert_eq!(params.get_uint("zz").unwrap(), None);
        let err = params.get_uint("g").unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArg);
        assert!(err.message().contains("string"));
    }

    #[test]
    fn get_string_checks_type() {
        let params = sample_params();
        assert_eq!(params.get_string("g").unwrap(), Some("hello"));
        assert_eq!(params.get_string("zz").unwrap(), None);
        assert!(params.get_string("b").is_err());
    }

    #[test]
    fn validate_fields_rejects_unknown_and_duplicates() {
        let params = [
            TypedParam::uint("minWorkers", 5),
            TypedParam::uint("maxWorkers", 20),
        ];
        params
            .validate_fields(&["minWorkers", "maxWorkers"])
            .unwrap();

        let unknown = [TypedParam::uint("weird", 1)];
        assert!(unknown.validate_fields(&["minWorkers"]).is_err());

        let dup = [
            TypedParam::uint("minWorkers", 5),
            TypedParam::uint("minWorkers", 6),
        ];
        let err = dup.validate_fields(&["minWorkers"]).unwrap_err();
        assert!(err.message().contains("duplicate"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ParamValue::Boolean(true).to_string(), "yes");
        assert_eq!(ParamValue::Int(-3).to_string(), "-3");
        assert_eq!(ParamValue::Str("x".into()).to_string(), "x");
        assert_eq!(ParamValue::Double(1.5).to_string(), "1.5");
    }

    #[test]
    fn type_names() {
        for (value, name) in [
            (ParamValue::Int(0), "int"),
            (ParamValue::UInt(0), "uint"),
            (ParamValue::LLong(0), "llong"),
            (ParamValue::ULLong(0), "ullong"),
            (ParamValue::Double(0.0), "double"),
            (ParamValue::Boolean(false), "boolean"),
            (ParamValue::Str(String::new()), "string"),
        ] {
            assert_eq!(value.type_name(), name);
        }
    }
}
