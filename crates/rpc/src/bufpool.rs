//! Reusable frame buffers for the RPC hot path.
//!
//! Every call used to allocate two fresh `Vec<u8>`s (packet body, then
//! framed copy) on send and one on receive. Under heavy traffic that is
//! pure allocator churn: frames are small, short-lived, and all the same
//! shape. A [`BufferPool`] keeps a bounded freelist of retired buffers;
//! the send path encodes the length prefix, header and payload into one
//! pooled buffer and hands it to the transport as a single pre-framed
//! write, and the receive path refills a pooled buffer in place. In
//! steady state the framed send/recv path performs **zero** heap
//! allocations — asserted by the `framing_hotpath` counting-allocator
//! test.
//!
//! Observability: `rpc.buf_pool.hits` / `rpc.buf_pool.misses` count
//! checkouts served from (or missing) the freelist, and
//! `rpc.buf_pool.resident_bytes` gauges the capacity currently parked in
//! it.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// Retired buffers kept for reuse. The freelist is bounded both in entry
/// count and per-buffer capacity so a single giant frame (e.g. a bulk
/// stats reply) cannot pin megabytes forever.
struct FreeList {
    bufs: Vec<Vec<u8>>,
    resident: u64,
}

/// A bounded pool of reusable byte buffers.
pub struct BufferPool {
    free: Mutex<FreeList>,
    /// Maximum number of buffers parked in the freelist.
    max_pooled: usize,
    /// Buffers whose capacity grew beyond this are dropped on return.
    max_buf_capacity: usize,
    metrics: BufPoolMetrics,
}

virt_metrics::metric_set! {
    /// A pool's checkout counters; the global pool's live in
    /// [`crate::process_metrics`] under `rpc.buf_pool.*`.
    struct BufPoolMetrics {
        hits: Counter = "hits", "Buffer checkouts served from the freelist";
        misses: Counter = "misses", "Buffer checkouts that had to allocate";
        resident_bytes: Gauge = "resident_bytes", "Capacity currently parked in the freelist";
    }
}

/// Freelist entry cap: enough for every reader/writer thread of a busy
/// daemon plus headroom, small enough to be invisible in RSS.
const DEFAULT_MAX_POOLED: usize = 256;
/// Per-buffer capacity cap (64 KiB): covers every control-plane frame;
/// oversized one-offs are returned to the allocator.
const DEFAULT_MAX_BUF_CAPACITY: usize = 64 * 1024;
/// Capacity cap (256 KiB) of the one record buffer a TLS-sim session
/// parks outside the pool between sends: large enough that a session
/// serving 1000-domain bulk-stats replies (~156 kB) stops allocating,
/// small enough that a one-off giant record is returned to the
/// allocator rather than pinned by a session that then sits idle.
pub(crate) const MAX_PARKED_RECORD_CAPACITY: usize = 256 * 1024;

impl BufferPool {
    /// A pool with the default bounds and detached (unregistered)
    /// metrics.
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_POOLED, DEFAULT_MAX_BUF_CAPACITY)
    }

    /// A pool with explicit bounds and detached metrics.
    fn with_limits(max_pooled: usize, max_buf_capacity: usize) -> Self {
        BufferPool {
            free: Mutex::new(FreeList {
                bufs: Vec::with_capacity(max_pooled.min(64)),
                resident: 0,
            }),
            max_pooled,
            max_buf_capacity,
            metrics: BufPoolMetrics::new(),
        }
    }

    /// The process-wide pool shared by every client and server in this
    /// process, its metrics in [`crate::process_metrics`].
    pub fn global() -> &'static Arc<BufferPool> {
        static GLOBAL: OnceLock<Arc<BufferPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mut pool = BufferPool::new();
            pool.metrics = pool
                .metrics
                .attach(crate::process_metrics(), "rpc.buf_pool.");
            Arc::new(pool)
        })
    }

    /// Checks out an empty buffer, reusing a retired one when available.
    pub fn get(self: &Arc<Self>) -> PooledBuf {
        let reused = {
            let mut free = self.free.lock();
            let buf = free.bufs.pop();
            if let Some(b) = &buf {
                free.resident -= b.capacity() as u64;
                self.metrics.resident_bytes.set(free.resident);
            }
            buf
        };
        let buf = match reused {
            Some(mut b) => {
                self.metrics.hits.inc();
                b.clear();
                b
            }
            None => {
                self.metrics.misses.inc();
                Vec::new()
            }
        };
        PooledBuf {
            buf,
            pool: Arc::clone(self),
        }
    }

    fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_buf_capacity {
            return;
        }
        let mut free = self.free.lock();
        if free.bufs.len() >= self.max_pooled {
            return;
        }
        free.resident += buf.capacity() as u64;
        free.bufs.push(buf);
        self.metrics.resident_bytes.set(free.resident);
    }

    /// (hits, misses, resident bytes) — for tests and diagnostics.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.metrics.hits.get(),
            self.metrics.misses.get(),
            self.metrics.resident_bytes.get(),
        )
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses, resident) = self.stats();
        f.debug_struct("BufferPool")
            .field("hits", &hits)
            .field("misses", &misses)
            .field("resident_bytes", &resident)
            .finish()
    }
}

/// A checked-out buffer; returns to its pool on drop. Dereferences to
/// `Vec<u8>` so encoding appends straight into it.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Arc<BufferPool>,
}

impl PooledBuf {
    /// Empties the buffer and hands the allocator back whatever capacity
    /// its pool would not park, so a buffer a backlog outgrew goes back
    /// to the freelist when dropped instead of being freed (and another
    /// allocated for the next checkout).
    pub fn shrink_to_parked(&mut self) {
        self.buf.clear();
        self.buf.shrink_to(self.pool.max_buf_capacity);
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

// Lets generic buffer holders (`FrameBuf`) take either a plain `Vec<u8>`
// or a pooled one.
impl std::borrow::Borrow<Vec<u8>> for PooledBuf {
    fn borrow(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::borrow::BorrowMut<Vec<u8>> for PooledBuf {
    fn borrow_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.buf.len())
            .field("capacity", &self.buf.capacity())
            .finish()
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl PooledBuf {
    /// Detaches the buffer from the pool, keeping its contents.
    fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_and_counted() {
        let pool = Arc::new(BufferPool::new());
        {
            let mut a = pool.get();
            a.extend_from_slice(&[1, 2, 3, 4]);
        } // returned
        let (hits, misses, resident) = pool.stats();
        assert_eq!((hits, misses), (0, 1));
        assert!(resident >= 4);

        let b = pool.get();
        assert!(b.is_empty(), "reused buffer must come back cleared");
        assert!(b.capacity() >= 4, "capacity survives the round trip");
        let (hits, misses, resident) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(resident, 0, "checked-out capacity is not resident");
    }

    #[test]
    fn freelist_is_bounded_in_count_and_capacity() {
        let pool = Arc::new(BufferPool::with_limits(2, 64));
        // Three buffers returned; only two may be parked.
        let (mut a, mut b, mut c) = (pool.get(), pool.get(), pool.get());
        a.push(1);
        b.push(1);
        c.push(1);
        drop((a, b, c));
        assert_eq!(pool.free.lock().bufs.len(), 2);

        // An oversized buffer is dropped, not pooled.
        let mut big = pool.get();
        big.extend_from_slice(&[0u8; 4096]);
        let resident_before = pool.stats().2;
        drop(big);
        assert_eq!(pool.stats().2, resident_before);
    }

    #[test]
    fn into_vec_detaches_without_refilling_the_pool() {
        let pool = Arc::new(BufferPool::new());
        let mut buf = pool.get();
        buf.extend_from_slice(b"keep");
        let v = buf.into_vec();
        assert_eq!(v, b"keep");
        assert_eq!(pool.stats().2, 0);
    }

    #[test]
    fn concurrent_checkouts_do_not_lose_buffers() {
        let pool = Arc::new(BufferPool::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        let mut b = p.get();
                        b.extend_from_slice(&i.to_be_bytes());
                        assert_eq!(b.len(), 4);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (hits, misses, _) = pool.stats();
        assert_eq!(hits + misses, 4000);
        assert!(misses <= 8, "steady state must reuse: {misses} misses");
    }
}
