//! The remote protocol substrate of the virt toolkit.
//!
//! libvirt's client and daemon exchange XDR-encoded, length-prefixed
//! messages over a pluggable transport, and the daemon executes requests
//! on a dynamically sized worker pool with dedicated priority workers.
//! This crate reproduces that stack from scratch:
//!
//! - [`xdr`] — an RFC 4506 (XDR) subset encoder/decoder,
//! - [`message`] — the packet format: 4-byte length prefix + header
//!   (program, version, procedure, type, serial, status) + payload,
//! - [`framebuf`] — the one frame splitter: buffered stream bytes in,
//!   whole frames out, shared by the socket transports and the daemon's
//!   event loop,
//! - [`transport`] — in-process (socketpair), Unix-socket, TCP and simulated-TLS
//!   transports behind one object-safe trait,
//! - [`pool`] — the worker pool with min/max limits and priority workers,
//! - [`client`] — a concurrent call client with serial matching, in
//!   which the caller reads its own reply off the socket (no reader
//!   thread), and event delivery,
//! - [`keepalive`] — the ping/pong liveness protocol,
//! - [`retry`] — the one capped, seeded-jitter backoff formula,
//! - [`reconnect`] — a self-healing client that re-dials, replays the
//!   session handshake, and retries idempotent calls, as one pure state
//!   machine (the session) decides.
//!
//! The daemon side (connection acceptance, dispatch tables, client
//! tracking) lives in the `virtd` crate; stateless drivers and the remote
//! driver in `virt-core` use [`client::CallClient`] directly.
//!
//! # Examples
//!
//! Encoding and decoding with XDR:
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use virt_rpc::xdr::{XdrDecode, XdrEncode};
//!
//! let mut buf = Vec::new();
//! 42u32.encode(&mut buf);
//! "domain".to_string().encode(&mut buf);
//!
//! let mut cursor = virt_rpc::xdr::Cursor::new(&buf);
//! assert_eq!(u32::decode(&mut cursor)?, 42);
//! assert_eq!(String::decode(&mut cursor)?, "domain");
//! # Ok(())
//! # }
//! ```

mod baton;
pub mod bufpool;
pub mod client;
mod clock;
pub mod fanout;
#[cfg(test)]
mod fault;
pub mod framebuf;
mod handoff;
pub mod keepalive;
pub mod message;
pub mod poll;
pub mod pool;
pub mod reconnect;
pub mod retry;
mod session;
pub mod transport;
pub mod xdr;

pub use bufpool::{BufferPool, PooledBuf};
pub use client::CallClient;
pub use fanout::run_bounded;
pub use framebuf::FrameBuf;
pub use message::{Header, MessageStatus, MessageType, Packet, RpcError};
pub use poll::{Events, PollEvent, Poller};
pub use pool::{PoolBatch, PoolLimits, PoolStats, WorkerPool};
pub use reconnect::{ReconnectConfig, ReconnectMetrics, ReconnectingClient};
pub use retry::BackoffSchedule;
pub use transport::{memory_pair, Readiness, Transport, TransportKind};

/// The process-wide registry for client-side RPC metrics
/// (`rpc.reconnect.*`, `rpc.retry.*`, `rpc.late_replies`,
/// `rpc.client.*`, `rpc.buf_pool.*`). Counters aggregate across every connection and
/// pool in the process; the daemon's admin metrics procedures merge it
/// into their listings.
pub fn process_metrics() -> &'static std::sync::Arc<virt_metrics::Registry> {
    static PROCESS_METRICS: std::sync::OnceLock<std::sync::Arc<virt_metrics::Registry>> =
        std::sync::OnceLock::new();
    PROCESS_METRICS.get_or_init(|| std::sync::Arc::new(virt_metrics::Registry::new()))
}

/// FNV-1a 64-bit, the toolkit's one non-cryptographic hash: the TLS-sim
/// record MAC (where its per-byte arithmetic is part of the cost model —
/// see [`transport::TlsSimTransport`] — so do not make it cheaper), the
/// state-file header checksum (an on-disk format) and the per-actor
/// jitter seed.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
