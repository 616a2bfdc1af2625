//! The packet format of the remote protocol.
//!
//! Every message on the wire is a 4-byte big-endian length prefix (length
//! of everything *after* the prefix) followed by an XDR-encoded
//! [`Header`] and the XDR-encoded payload. Replies carry the serial of
//! the call they answer; events carry serial 0 and arrive unrequested.

use std::error::Error;
use std::fmt;

use crate::xdr::{Cursor, XdrDecode, XdrEncode, XdrError};

/// Program number of the main (hypervisor) protocol.
pub const REMOTE_PROGRAM: u32 = 0x2000_8086;
/// Program number of the administration protocol.
pub const ADMIN_PROGRAM: u32 = 0x0690_0690;
/// Program number of the keepalive protocol.
pub const KEEPALIVE_PROGRAM: u32 = 0x6b65_6570;
/// Protocol version spoken by this implementation.
const PROTOCOL_VERSION: u32 = 1;

/// Maximum accepted packet body length (64 MiB, as in libvirt's
/// `VIR_NET_MESSAGE_MAX`-style cap).
pub const MAX_PACKET_LEN: u32 = 64 * 1024 * 1024;

virt_metrics::wire_enum! {
    /// Kind of message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MessageType {
        /// A client request.
        Call = 0 => "call",
        /// A server response to a call.
        Reply = 1 => "reply",
        /// An unsolicited server-to-client notification.
        Event = 2 => "event",
    }
}

virt_metrics::wire_enum! {
    /// Status carried by replies.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MessageStatus {
        /// The payload is the procedure's result.
        Ok = 0 => "ok",
        /// The payload is an encoded [`RpcError`].
        Error = 1 => "error",
    }
}

/// Reads a header enum: a number this build does not know is
/// [`XdrError::InvalidDiscriminant`].
fn discriminant<T>(cursor: &mut Cursor<'_>, from_u32: fn(u32) -> Option<T>) -> Result<T, XdrError> {
    let number = u32::decode(cursor)?;
    from_u32(number).ok_or(XdrError::InvalidDiscriminant(number))
}

/// The fixed header preceding every payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Which protocol the procedure belongs to.
    pub program: u32,
    /// Protocol version.
    pub version: u32,
    /// Procedure number within the program.
    pub procedure: u32,
    /// Call, reply, or event.
    pub mtype: MessageType,
    /// Matches replies to calls. Events use 0.
    pub serial: u32,
    /// Ok or error (meaningful on replies).
    pub status: MessageStatus,
    /// Tracing: the request's trace id, 0 when the call is untraced.
    /// Carried in the fixed header so every program (remote, admin,
    /// keepalive) propagates it without per-payload changes.
    pub trace_id: u64,
    /// Tracing: the sender's span id, the parent for spans opened on the
    /// receiving side. 0 when untraced.
    pub parent_span: u64,
}

impl Header {
    /// Builds a call header (untraced; set the trace fields afterwards
    /// to attach the call to a trace).
    pub fn call(program: u32, procedure: u32, serial: u32) -> Self {
        Header {
            program,
            version: PROTOCOL_VERSION,
            procedure,
            mtype: MessageType::Call,
            serial,
            status: MessageStatus::Ok,
            trace_id: 0,
            parent_span: 0,
        }
    }

    /// Builds the success-reply header for this call.
    pub fn reply_ok(&self) -> Self {
        Header {
            mtype: MessageType::Reply,
            status: MessageStatus::Ok,
            ..*self
        }
    }

    /// Builds the error-reply header for this call.
    pub fn reply_error(&self) -> Self {
        Header {
            mtype: MessageType::Reply,
            status: MessageStatus::Error,
            ..*self
        }
    }

    /// Builds an event header.
    pub fn event(program: u32, procedure: u32) -> Self {
        Header {
            program,
            version: PROTOCOL_VERSION,
            procedure,
            mtype: MessageType::Event,
            serial: 0,
            status: MessageStatus::Ok,
            trace_id: 0,
            parent_span: 0,
        }
    }
}

impl XdrEncode for Header {
    fn encode(&self, out: &mut Vec<u8>) {
        self.program.encode(out);
        self.version.encode(out);
        self.procedure.encode(out);
        self.mtype.as_u32().encode(out);
        self.serial.encode(out);
        self.status.as_u32().encode(out);
        self.trace_id.encode(out);
        self.parent_span.encode(out);
    }
}

impl XdrDecode for Header {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        Ok(Header {
            program: u32::decode(cursor)?,
            version: u32::decode(cursor)?,
            procedure: u32::decode(cursor)?,
            mtype: discriminant(cursor, MessageType::from_u32)?,
            serial: u32::decode(cursor)?,
            status: discriminant(cursor, MessageStatus::from_u32)?,
            trace_id: u64::decode(cursor)?,
            parent_span: u64::decode(cursor)?,
        })
    }
}

/// A complete protocol message: header + raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The message header.
    pub header: Header,
    /// XDR-encoded procedure arguments / results / error.
    pub payload: Vec<u8>,
}

impl Packet {
    /// Builds a packet from a header and an encodable payload value.
    pub fn new(header: Header, payload: &impl XdrEncode) -> Self {
        Packet {
            header,
            payload: payload.to_xdr(),
        }
    }

    /// Serializes to the framed wire form (length prefix included).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(4 + 40 + self.payload.len());
        self.encode_frame_into(&mut frame);
        frame
    }

    /// Appends the framed wire form (length prefix + header + payload)
    /// to `out` without intermediate allocations. `out` is cleared
    /// first — pass a pooled buffer and send the result with
    /// [`crate::transport::Transport::send_framed`].
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&[0u8; 4]);
        self.header.encode(out);
        out.extend_from_slice(&self.payload);
        finish_frame(out);
    }

    /// Splits a frame *body* (the bytes after the length prefix, as
    /// delivered by a transport) into its decoded header and the payload
    /// bytes, borrowed in place.
    ///
    /// # Errors
    ///
    /// [`XdrError`] when the header is malformed.
    pub fn split_body(body: &[u8]) -> Result<(Header, &[u8]), XdrError> {
        let mut cursor = Cursor::new(body);
        let header = Header::decode(&mut cursor)?;
        Ok((header, &body[cursor.position()..]))
    }

    /// Parses an owned packet from a frame body: [`Packet::split_body`]
    /// plus a copy of the payload.
    ///
    /// # Errors
    ///
    /// [`XdrError`] when the header is malformed.
    pub fn from_body(body: &[u8]) -> Result<Packet, XdrError> {
        let (header, payload) = Packet::split_body(body)?;
        Ok(Packet {
            header,
            payload: payload.to_vec(),
        })
    }

    /// Decodes the payload as the given type, consuming it fully.
    ///
    /// # Errors
    ///
    /// [`XdrError`] on malformed or trailing data.
    pub fn decode_payload<T: XdrDecode>(&self) -> Result<T, XdrError> {
        T::from_xdr(&self.payload)
    }
}

/// Encodes a complete framed message — length prefix, header, and the
/// XDR encoding of `payload` — into `out` (cleared first) with no
/// intermediate buffers. This is the zero-copy send path: callers
/// encode straight into a pooled buffer and hand it to
/// [`crate::transport::Transport::send_framed`] as one write.
pub fn encode_frame(header: &Header, payload: &impl XdrEncode, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    header.encode(out);
    payload.encode(out);
    finish_frame(out);
}

/// Backfills the 4-byte big-endian length prefix at the front of a frame
/// whose body has been appended after a 4-byte placeholder.
fn finish_frame(out: &mut [u8]) {
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_be_bytes());
}

/// The error record carried by error replies.
///
/// `code` is a protocol-level error number (the management layer maps it
/// onto its public error codes); `message` is human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcError {
    /// Numeric error code, preserved across the wire.
    pub code: u32,
    /// Human-readable context.
    pub message: String,
}

impl RpcError {
    /// Creates an error record.
    pub fn new(code: u32, message: impl Into<String>) -> Self {
        RpcError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpc error {}: {}", self.code, self.message)
    }
}

impl Error for RpcError {}

impl XdrEncode for RpcError {
    fn encode(&self, out: &mut Vec<u8>) {
        self.code.encode(out);
        self.message.encode(out);
    }
}

impl XdrDecode for RpcError {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        Ok(RpcError {
            code: u32::decode(cursor)?,
            message: String::decode(cursor)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let header = Header::call(REMOTE_PROGRAM, 17, 42);
        let decoded = Header::from_xdr(&header.to_xdr()).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(header.to_xdr().len(), 40);
    }

    #[test]
    fn reply_builders_preserve_identity() {
        let call = Header::call(ADMIN_PROGRAM, 3, 7);
        let ok = call.reply_ok();
        assert_eq!(ok.mtype, MessageType::Reply);
        assert_eq!(ok.status, MessageStatus::Ok);
        assert_eq!(ok.serial, 7);
        assert_eq!(ok.procedure, 3);
        let err = call.reply_error();
        assert_eq!(err.status, MessageStatus::Error);
    }

    #[test]
    fn event_header_has_zero_serial() {
        let ev = Header::event(REMOTE_PROGRAM, 99);
        assert_eq!(ev.serial, 0);
        assert_eq!(ev.mtype, MessageType::Event);
    }

    #[test]
    fn packet_frame_round_trips() {
        let packet = Packet::new(Header::call(REMOTE_PROGRAM, 5, 1), &"hello".to_string());
        let frame = packet.to_frame();
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let parsed = Packet::from_body(&frame[4..]).unwrap();
        assert_eq!(parsed, packet);
        assert_eq!(parsed.decode_payload::<String>().unwrap(), "hello");
    }

    #[test]
    fn split_body_borrows_the_payload_in_place() {
        let packet = Packet::new(Header::call(REMOTE_PROGRAM, 5, 1), &"hello".to_string());
        let frame = packet.to_frame();
        let (header, payload) = Packet::split_body(&frame[4..]).unwrap();
        assert_eq!(header, packet.header);
        assert_eq!(payload, &packet.payload[..]);
        assert!(std::ptr::eq(payload.as_ptr(), frame[4 + 40..].as_ptr()));
        assert!(Packet::split_body(&frame[4..20]).is_err());
    }

    #[test]
    fn empty_payload_packet() {
        let packet = Packet::new(Header::call(REMOTE_PROGRAM, 1, 1), &());
        assert!(packet.payload.is_empty());
        let parsed = Packet::from_body(&packet.to_frame()[4..]).unwrap();
        parsed.decode_payload::<()>().unwrap();
    }

    #[test]
    fn bad_message_type_rejected() {
        let mut bytes = Header::call(REMOTE_PROGRAM, 1, 1).to_xdr();
        bytes[15] = 9; // mtype field
        assert!(Header::from_xdr(&bytes).is_err());
    }

    #[test]
    fn bad_status_rejected() {
        let mut bytes = Header::call(REMOTE_PROGRAM, 1, 1).to_xdr();
        bytes[23] = 9; // status field
        assert!(Header::from_xdr(&bytes).is_err());
    }

    #[test]
    fn rpc_error_round_trips_and_displays() {
        let err = RpcError::new(42, "no such domain 'web'");
        let decoded = RpcError::from_xdr(&err.to_xdr()).unwrap();
        assert_eq!(decoded, err);
        assert_eq!(err.to_string(), "rpc error 42: no such domain 'web'");
    }

    #[test]
    fn decode_payload_rejects_trailing_bytes() {
        let mut packet = Packet::new(Header::call(REMOTE_PROGRAM, 1, 1), &7u32);
        packet.payload.extend_from_slice(&[0, 0, 0, 0]);
        assert!(packet.decode_payload::<u32>().is_err());
    }

    #[test]
    fn truncated_header_errors() {
        assert!(Packet::from_body(&[0, 1, 2]).is_err());
    }
}
