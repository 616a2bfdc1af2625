//! Property tests for the XDR codec: round-trips for every supported
//! type, 4-byte alignment, and decoder robustness on arbitrary bytes.

use proptest::prelude::*;
use virt_rpc::xdr::{Cursor, XdrDecode, XdrEncode, XdrError, MAX_ITEM_LEN};
use virt_rpc::xdr_struct;

fn assert_round_trip<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(value: T) {
    let encoded = value.to_xdr();
    assert_eq!(encoded.len() % 4, 0, "alignment of {value:?}");
    let decoded = T::from_xdr(&encoded).expect("decode");
    assert_eq!(decoded, value);
}

proptest! {
    #[test]
    fn u32_round_trips(v: u32) { assert_round_trip(v); }

    #[test]
    fn i32_round_trips(v: i32) { assert_round_trip(v); }

    #[test]
    fn u64_round_trips(v: u64) { assert_round_trip(v); }

    #[test]
    fn i64_round_trips(v: i64) { assert_round_trip(v); }

    #[test]
    fn f64_round_trips(v in proptest::num::f64::NORMAL | proptest::num::f64::ZERO) {
        assert_round_trip(v);
    }

    #[test]
    fn bool_round_trips(v: bool) { assert_round_trip(v); }

    #[test]
    fn string_round_trips(v in "\\PC{0,200}") { assert_round_trip(v); }

    #[test]
    fn opaque_round_trips(v in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_round_trip(v);
    }

    #[test]
    fn uuid_round_trips(v: [u8; 16]) { assert_round_trip(v); }

    #[test]
    fn option_round_trips(v in proptest::option::of(any::<u64>())) {
        assert_round_trip(v);
    }

    #[test]
    fn string_array_round_trips(v in proptest::collection::vec("\\PC{0,20}", 0..16)) {
        assert_round_trip(v);
    }

    #[test]
    fn u32_array_round_trips(v in proptest::collection::vec(any::<u32>(), 0..64)) {
        assert_round_trip(v);
    }

    /// The decoder must never panic, whatever bytes arrive.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = String::from_xdr(&bytes);
        let _ = Vec::<u8>::from_xdr(&bytes);
        let _ = Vec::<String>::from_xdr(&bytes);
        let _ = bool::from_xdr(&bytes);
        let _ = Option::<u64>::from_xdr(&bytes);
        let mut cursor = Cursor::new(&bytes);
        while !cursor.is_exhausted() {
            if u32::decode(&mut cursor).is_err() {
                break;
            }
        }
    }

    /// Truncating a valid encoding always errors (never mis-decodes).
    #[test]
    fn truncation_is_detected(v in "\\PC{1,64}", cut in 1usize..4) {
        let encoded = v.to_xdr();
        let truncated = &encoded[..encoded.len().saturating_sub(cut)];
        // Either the error is reported or the padding happened to absorb
        // the cut — in which case from_xdr's exhaustion check fires.
        prop_assert!(String::from_xdr(truncated).is_err() || !truncated.len().is_multiple_of(4));
    }

    /// A string cut at ANY byte offset short of its full encoding must
    /// report an error — and must never panic.
    #[test]
    fn string_truncation_at_every_offset_errors(v in "\\PC{1,64}") {
        let encoded = v.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(
                String::from_xdr(&encoded[..cut]).is_err(),
                "string decode of {cut}/{} bytes must fail", encoded.len()
            );
        }
    }

    /// Opaque data cut at any byte offset errors, never panics.
    #[test]
    fn opaque_truncation_at_every_offset_errors(
        v in proptest::collection::vec(any::<u8>(), 1..128)
    ) {
        let encoded = v.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(Vec::<u8>::from_xdr(&encoded[..cut]).is_err());
        }
    }

    /// Typed arrays cut at any byte offset error, never panic.
    #[test]
    fn array_truncation_at_every_offset_errors(
        strings in proptest::collection::vec("\\PC{0,12}", 1..8),
        words in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let encoded = strings.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(Vec::<String>::from_xdr(&encoded[..cut]).is_err());
        }
        let encoded = words.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(Vec::<u64>::from_xdr(&encoded[..cut]).is_err());
        }
    }

    /// Scalars and fixed opaques share the same guarantee.
    #[test]
    fn scalar_truncation_at_every_offset_errors(a: u64, b: [u8; 16]) {
        let encoded = a.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(u64::from_xdr(&encoded[..cut]).is_err());
        }
        let encoded = b.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(<[u8; 16]>::from_xdr(&encoded[..cut]).is_err());
        }
    }
}

xdr_struct! {
    /// Composite struct mirroring a realistic protocol record.
    pub struct Composite {
        pub name: String,
        pub uuid: [u8; 16],
        pub id: i64,
        pub tags: Vec<String>,
        pub payload: Vec<u8>,
        pub maybe: Option<u32>,
        pub flag: bool,
    }
}

fn composite_strategy() -> impl Strategy<Value = Composite> {
    (
        "\\PC{0,40}",
        any::<[u8; 16]>(),
        any::<i64>(),
        proptest::collection::vec("\\PC{0,10}", 0..8),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
    )
        .prop_map(|(name, uuid, id, tags, payload, maybe, flag)| Composite {
            name,
            uuid,
            id,
            tags,
            payload,
            maybe,
            flag,
        })
}

proptest! {
    #[test]
    fn composite_struct_round_trips(v in composite_strategy()) {
        assert_round_trip(v);
    }

    /// A composite struct cut at any byte offset errors, never panics.
    /// This is the exact shape the framed decode path sees when a peer's
    /// frame is short — correctness locked in before the buffer-pool
    /// rewrite of that path.
    #[test]
    fn composite_truncation_at_every_offset_errors(v in composite_strategy()) {
        let encoded = v.to_xdr();
        for cut in 0..encoded.len() {
            prop_assert!(Composite::from_xdr(&encoded[..cut]).is_err());
        }
    }

    /// Concatenated values decode back in order (streaming framing).
    #[test]
    fn sequential_decoding(a: u32, b in "\\PC{0,20}", c: u64) {
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        c.encode(&mut buf);
        let mut cursor = Cursor::new(&buf);
        prop_assert_eq!(u32::decode(&mut cursor).unwrap(), a);
        prop_assert_eq!(String::decode(&mut cursor).unwrap(), b);
        prop_assert_eq!(u64::decode(&mut cursor).unwrap(), c);
        prop_assert!(cursor.is_exhausted());
    }
}

// ---------------------------------------------------------------------------
// The borrowed string read
// ---------------------------------------------------------------------------

/// `String::decode` as it was before it was expressed through
/// [`Cursor::read_str`], spelled out over public pieces only: the
/// reference the borrowed read must agree with, check for check.
fn reference_string_decode(data: &[u8]) -> Result<(String, usize), XdrError> {
    let mut cursor = Cursor::new(data);
    let len = u32::decode(&mut cursor)?;
    if len > MAX_ITEM_LEN {
        return Err(XdrError::LengthTooLarge(len));
    }
    let len = len as usize;
    let rest = &data[4..];
    if rest.len() < len {
        return Err(XdrError::UnexpectedEnd {
            needed: len - rest.len(),
        });
    }
    let text = std::str::from_utf8(&rest[..len])
        .map_err(|_| XdrError::InvalidUtf8)?
        .to_string();
    let pad = (4 - len % 4) % 4;
    let tail = &rest[len..];
    if tail.len() < pad {
        return Err(XdrError::UnexpectedEnd {
            needed: pad - tail.len(),
        });
    }
    if tail[..pad].iter().any(|&b| b != 0) {
        return Err(XdrError::BadPadding);
    }
    Ok((text, 4 + len + pad))
}

fn read_str_at_start(data: &[u8]) -> Result<(String, usize), XdrError> {
    let mut cursor = Cursor::new(data);
    let text = cursor.read_str()?.to_string();
    Ok((text, cursor.position()))
}

fn string_decode_at_start(data: &[u8]) -> Result<(String, usize), XdrError> {
    let mut cursor = Cursor::new(data);
    let text = String::decode(&mut cursor)?;
    Ok((text, cursor.position()))
}

proptest! {
    /// Any string — empty, multi-byte, every padding width — reads back
    /// borrowed, consuming exactly its encoding and leaving the cursor on
    /// the next item.
    #[test]
    fn read_str_round_trips_and_borrows(v in "\\PC{0,40}", next: u32) {
        let mut encoded = v.to_xdr();
        next.encode(&mut encoded);
        let mut cursor = Cursor::new(&encoded);
        let text = cursor.read_str().expect("read_str");
        prop_assert_eq!(text, v.as_str());
        // Borrowed from the input, not copied.
        let input = encoded.as_ptr_range();
        prop_assert!(v.is_empty() || input.contains(&text.as_ptr()));
        prop_assert_eq!(cursor.position(), encoded.len() - 4);
        prop_assert_eq!(u32::decode(&mut cursor).unwrap(), next);
    }

    /// On arbitrary bytes the borrowed read, `String::decode` and the
    /// spelled-out reference agree: same text and position, or the same
    /// error variant.
    #[test]
    fn read_str_agrees_with_string_decode_on_arbitrary_bytes(
        len in 0u32..24,
        body in proptest::collection::vec(any::<u8>(), 0..28),
    ) {
        let mut data = Vec::new();
        len.encode(&mut data);
        data.extend_from_slice(&body);
        let expected = reference_string_decode(&data);
        prop_assert_eq!(read_str_at_start(&data), expected.clone());
        prop_assert_eq!(string_decode_at_start(&data), expected);
    }

    /// Every way a string encoding can be damaged is rejected with the
    /// variant `String::decode` has always returned for it.
    #[test]
    fn read_str_rejects_damaged_encodings(v in "\\PC{1,40}", junk in 1u8..=255) {
        let encoded = v.to_xdr();
        let pad = encoded.len() - 4 - v.len();

        // Truncated anywhere: UnexpectedEnd, never a short read.
        for cut in 0..encoded.len() {
            prop_assert!(matches!(
                read_str_at_start(&encoded[..cut]),
                Err(XdrError::UnexpectedEnd { .. })
            ));
        }
        // Non-zero padding (when there is any).
        for i in 0..pad {
            let mut damaged = encoded.clone();
            let at = damaged.len() - 1 - i;
            damaged[at] = junk;
            prop_assert_eq!(read_str_at_start(&damaged), Err(XdrError::BadPadding));
            prop_assert_eq!(string_decode_at_start(&damaged), Err(XdrError::BadPadding));
        }
        // Invalid UTF-8: 0xff never appears in well-formed text.
        let mut damaged = encoded.clone();
        damaged[4] = 0xff;
        prop_assert_eq!(read_str_at_start(&damaged), Err(XdrError::InvalidUtf8));
        prop_assert_eq!(string_decode_at_start(&damaged), Err(XdrError::InvalidUtf8));
        // Over-long: rejected on the length word alone, before any bytes
        // are looked at.
        let mut damaged = encoded.clone();
        damaged[..4].copy_from_slice(&(MAX_ITEM_LEN + 1).to_be_bytes());
        prop_assert_eq!(
            read_str_at_start(&damaged),
            Err(XdrError::LengthTooLarge(MAX_ITEM_LEN + 1))
        );
        prop_assert_eq!(
            string_decode_at_start(&damaged),
            Err(XdrError::LengthTooLarge(MAX_ITEM_LEN + 1))
        );
    }
}
