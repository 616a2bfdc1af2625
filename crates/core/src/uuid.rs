//! UUIDs in RFC 4122 canonical form.
//!
//! Every managed object (domain, pool, network) carries a 128-bit UUID
//! that is stable across renames and daemon restarts.

use std::fmt;
use std::str::FromStr;

use rand::Rng;
use virt_rpc::xdr::{Cursor, XdrDecode, XdrEncode, XdrError};

use crate::error::{ErrorCode, VirtError};

/// A 128-bit universally unique identifier.
///
/// # Examples
///
/// ```
/// use virt_core::Uuid;
///
/// let uuid: Uuid = "6ba7b810-9dad-41d1-80b4-00c04fd430c8".parse().unwrap();
/// assert_eq!(uuid.to_string(), "6ba7b810-9dad-41d1-80b4-00c04fd430c8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Uuid([u8; 16]);

impl Uuid {
    /// The all-zero UUID (never assigned to real objects).
    pub const NIL: Uuid = Uuid([0; 16]);

    /// Generates a random version-4 UUID.
    pub fn generate() -> Uuid {
        let mut bytes = [0u8; 16];
        rand::thread_rng().fill(&mut bytes);
        bytes[6] = (bytes[6] & 0x0f) | 0x40;
        bytes[8] = (bytes[8] & 0x3f) | 0x80;
        Uuid(bytes)
    }

    /// Wraps raw bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Uuid {
        Uuid(bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Consumes into raw bytes.
    pub(crate) fn into_bytes(self) -> [u8; 16] {
        self.0
    }

    /// `true` for the all-zero UUID.
    #[cfg(test)]
    pub(crate) fn is_nil(&self) -> bool {
        self.0 == [0; 16]
    }
}

/// On the wire a UUID is its 16 bytes, as a fixed opaque.
impl XdrEncode for Uuid {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl XdrDecode for Uuid {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        <[u8; 16]>::decode(cursor).map(Uuid)
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}{:02x}{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}{:02x}{:02x}{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]
        )
    }
}

impl FromStr for Uuid {
    type Err = VirtError;

    /// Parses the canonical hyphenated form (case-insensitive).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] on wrong length, misplaced hyphens, or
    /// non-hex characters.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || VirtError::new(ErrorCode::InvalidArg, format!("malformed uuid '{s}'"));
        if s.len() != 36 {
            return Err(bad());
        }
        let chars: Vec<char> = s.chars().collect();
        for (i, ch) in chars.iter().enumerate() {
            let is_hyphen_pos = matches!(i, 8 | 13 | 18 | 23);
            if is_hyphen_pos != (*ch == '-') {
                return Err(bad());
            }
        }
        let hex: String = chars.iter().filter(|c| **c != '-').collect();
        let mut bytes = [0u8; 16];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let pair = std::str::from_utf8(chunk).map_err(|_| bad())?;
            bytes[i] = u8::from_str_radix(pair, 16).map_err(|_| bad())?;
        }
        Ok(Uuid(bytes))
    }
}

impl From<[u8; 16]> for Uuid {
    fn from(bytes: [u8; 16]) -> Self {
        Uuid(bytes)
    }
}

impl From<Uuid> for [u8; 16] {
    fn from(uuid: Uuid) -> Self {
        uuid.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        let uuid = Uuid::from_bytes([
            0x6b, 0xa7, 0xb8, 0x10, 0x9d, 0xad, 0x41, 0xd1, 0x80, 0xb4, 0x00, 0xc0, 0x4f, 0xd4,
            0x30, 0xc8,
        ]);
        let text = uuid.to_string();
        assert_eq!(text, "6ba7b810-9dad-41d1-80b4-00c04fd430c8");
        assert_eq!(text.parse::<Uuid>().unwrap(), uuid);
    }

    #[test]
    fn parse_is_case_insensitive() {
        let lower: Uuid = "6ba7b810-9dad-41d1-80b4-00c04fd430c8".parse().unwrap();
        let upper: Uuid = "6BA7B810-9DAD-41D1-80B4-00C04FD430C8".parse().unwrap();
        assert_eq!(lower, upper);
    }

    #[test]
    fn malformed_uuids_rejected() {
        for bad in [
            "",
            "6ba7b810",
            "6ba7b810-9dad-41d1-80b4-00c04fd430c", // too short
            "6ba7b810-9dad-41d1-80b4-00c04fd430c8a", // too long
            "6ba7b8109dad-41d1-80b4-00c04fd430c8aa", // hyphen misplaced
            "6ba7b810-9dad-41d1-80b4-00c04fd430zz", // non-hex
            "6ba7b810_9dad_41d1_80b4_00c04fd430c8", // wrong separators
        ] {
            let err = bad.parse::<Uuid>().unwrap_err();
            assert_eq!(err.code(), ErrorCode::InvalidArg, "{bad:?}");
        }
    }

    #[test]
    fn generate_produces_v4_and_distinct() {
        let a = Uuid::generate();
        let b = Uuid::generate();
        assert_ne!(a, b);
        assert_eq!(a.as_bytes()[6] >> 4, 4);
        assert_eq!(a.as_bytes()[8] >> 6, 0b10);
        assert!(!a.is_nil());
    }

    #[test]
    fn nil_uuid() {
        assert!(Uuid::NIL.is_nil());
        assert_eq!(
            Uuid::NIL.to_string(),
            "00000000-0000-0000-0000-000000000000"
        );
        assert_eq!(Uuid::default(), Uuid::NIL);
    }

    #[test]
    fn byte_conversions() {
        let bytes = [7u8; 16];
        let uuid: Uuid = bytes.into();
        let back: [u8; 16] = uuid.into();
        assert_eq!(back, bytes);
        assert_eq!(uuid.into_bytes(), bytes);
    }
}
