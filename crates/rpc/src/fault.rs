//! Deterministic fault injection at the transport layer.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and misbehaves on cue —
//! the transport-level sibling of `hypersim`'s operation fault plans.
//! The client's unit tests flip the shared [`FaultControl`] mid-stream to
//! simulate a connection dying at an exact, reproducible point (after N
//! bytes, after N sends) rather than "sometime around when the daemon
//! died".

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::transport::{Readiness, ReadyNotifier, Transport, TransportKind};

/// What a [`FaultyTransport`] does to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultMode {
    /// Pass traffic through untouched.
    None,
    /// Hard-close the connection once `n` payload bytes have been sent.
    DropAfterBytes(u64),
    /// Swallow sends silently; the peer never sees them (a black hole —
    /// the sender believes everything is fine).
    BlackHole,
    /// Let `n` more sends through, then fail each send with
    /// `ConnectionReset`.
    ErrorOnSend(u64),
    /// Let `n` more receives through, then reset the connection on the
    /// next receive.
    ResetOnRecv(u64),
}

struct ControlInner {
    mode: Mutex<FaultMode>,
    sent_bytes: AtomicU64,
    sends: AtomicU64,
    recvs: AtomicU64,
}

/// Shared handle that retunes a [`FaultyTransport`] while it is in use.
#[derive(Clone)]
pub(crate) struct FaultControl {
    inner: Arc<ControlInner>,
}

impl FaultControl {
    fn new() -> Self {
        FaultControl {
            inner: Arc::new(ControlInner {
                mode: Mutex::new(FaultMode::None),
                sent_bytes: AtomicU64::new(0),
                sends: AtomicU64::new(0),
                recvs: AtomicU64::new(0),
            }),
        }
    }

    /// Switches the fault mode; counters keep running across switches.
    pub(crate) fn set(&self, mode: FaultMode) {
        *self.inner.mode.lock() = mode;
    }

    /// Payload bytes sent through (or swallowed by) the wrapper so far.
    pub(crate) fn sent_bytes(&self) -> u64 {
        self.inner.sent_bytes.load(Ordering::Relaxed)
    }

    /// Frames sent through the wrapper so far.
    pub(crate) fn sends(&self) -> u64 {
        self.inner.sends.load(Ordering::Relaxed)
    }

    /// Frames received through the wrapper so far.
    pub(crate) fn recvs(&self) -> u64 {
        self.inner.recvs.load(Ordering::Relaxed)
    }
}

fn reset_err(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected fault: {what}"),
    )
}

/// A [`Transport`] wrapper that injects faults per the shared
/// [`FaultControl`].
pub(crate) struct FaultyTransport {
    inner: Arc<dyn Transport>,
    control: FaultControl,
}

impl FaultyTransport {
    /// Wraps `inner`; the returned control steers the faults.
    pub(crate) fn new(inner: Arc<dyn Transport>) -> (Self, FaultControl) {
        let control = FaultControl::new();
        (
            FaultyTransport {
                inner,
                control: control.clone(),
            },
            control,
        )
    }

    /// Counts a receive (a bounded one that times out included) and
    /// resets the connection if the plan says this one fails.
    fn before_recv(&self) -> io::Result<()> {
        let mode = *self.control.inner.mode.lock();
        let recvs = self.control.inner.recvs.fetch_add(1, Ordering::Relaxed);
        if let FaultMode::ResetOnRecv(n) = mode {
            if recvs >= n {
                let _ = self.inner.shutdown();
                return Err(reset_err("connection reset on receive"));
            }
        }
        Ok(())
    }
}

impl Transport for FaultyTransport {
    fn send_frame(&self, body: &[u8]) -> io::Result<()> {
        let mode = *self.control.inner.mode.lock();
        let sent = self
            .control
            .inner
            .sent_bytes
            .fetch_add(body.len() as u64, Ordering::Relaxed)
            + body.len() as u64;
        let sends = self.control.inner.sends.fetch_add(1, Ordering::Relaxed);
        match mode {
            FaultMode::None | FaultMode::ResetOnRecv(_) => self.inner.send_frame(body),
            FaultMode::DropAfterBytes(n) => {
                if sent > n {
                    let _ = self.inner.shutdown();
                    Err(reset_err("connection dropped after byte budget"))
                } else {
                    self.inner.send_frame(body)
                }
            }
            FaultMode::BlackHole => Ok(()),
            FaultMode::ErrorOnSend(n) => {
                if sends >= n {
                    Err(reset_err("send failed"))
                } else {
                    self.inner.send_frame(body)
                }
            }
        }
    }

    fn recv_frame(&self) -> io::Result<Vec<u8>> {
        self.before_recv()?;
        self.inner.recv_frame()
    }

    fn recv_frame_until(&self, buf: &mut Vec<u8>, deadline: Option<Instant>) -> io::Result<usize> {
        self.before_recv()?;
        self.inner.recv_frame_until(buf, deadline)
    }

    /// A look at the connection is not a receive of the fault plan: it
    /// passes through uncounted.
    fn try_recv_frame(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.try_recv_frame()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn peer(&self) -> String {
        format!("faulty:{}", self.inner.peer())
    }

    fn shutdown(&self) -> io::Result<()> {
        self.inner.shutdown()
    }

    // What a client needs to watch the connection passes through, so a
    // listener on a faulty transport is the listener on the inner one.

    fn readiness(&self) -> Readiness {
        self.inner.readiness()
    }

    fn set_ready_notifier(&self, notifier: Option<ReadyNotifier>) {
        self.inner.set_ready_notifier(notifier);
    }

    fn watch_fd(&self) -> Option<i32> {
        self.inner.watch_fd()
    }

    fn has_buffered_frame(&self) -> bool {
        self.inner.has_buffered_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::memory_pair;

    #[test]
    fn passes_traffic_through_by_default() {
        let (a, b) = memory_pair();
        let (faulty, control) = FaultyTransport::new(Arc::new(a));
        faulty.send_frame(b"hello").unwrap();
        assert_eq!(b.recv_frame().unwrap(), b"hello");
        b.send_frame(b"world").unwrap();
        assert_eq!(faulty.recv_frame().unwrap(), b"world");
        assert_eq!(control.sent_bytes(), 5);
        assert_eq!(control.sends(), 1);
        assert_eq!(control.recvs(), 1);
    }

    #[test]
    fn drop_after_bytes_kills_the_connection() {
        let (a, b) = memory_pair();
        let (faulty, control) = FaultyTransport::new(Arc::new(a));
        control.set(FaultMode::DropAfterBytes(6));
        faulty.send_frame(b"four").unwrap();
        let err = faulty.send_frame(b"more!").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The peer observes the shutdown too.
        assert_eq!(b.recv_frame().unwrap(), b"four");
        assert!(b.recv_frame().is_err());
    }

    #[test]
    fn black_hole_swallows_sends_silently() {
        let (a, b) = memory_pair();
        let (faulty, control) = FaultyTransport::new(Arc::new(a));
        control.set(FaultMode::BlackHole);
        faulty.send_frame(b"into the void").unwrap();
        control.set(FaultMode::None);
        faulty.send_frame(b"real").unwrap();
        // Only the post-black-hole frame arrives.
        assert_eq!(b.recv_frame().unwrap(), b"real");
    }

    #[test]
    fn error_on_send_counts_down_deterministically() {
        let (a, _b) = memory_pair();
        let (faulty, control) = FaultyTransport::new(Arc::new(a));
        control.set(FaultMode::ErrorOnSend(2));
        faulty.send_frame(b"1").unwrap();
        faulty.send_frame(b"2").unwrap();
        assert!(faulty.send_frame(b"3").is_err());
        assert!(faulty.send_frame(b"4").is_err());
    }

    #[test]
    fn reset_on_recv_counts_down_deterministically() {
        let (a, b) = memory_pair();
        let (faulty, control) = FaultyTransport::new(Arc::new(a));
        control.set(FaultMode::ResetOnRecv(1));
        b.send_frame(b"ok").unwrap();
        assert_eq!(faulty.recv_frame().unwrap(), b"ok");
        let err = faulty.recv_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }
}
