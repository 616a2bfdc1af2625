//! Daemon-wide observability: a lock-free metrics registry and request-id
//! tracing.
//!
//! The paper's headline claim is that the management layer adds only
//! µs-scale overhead to ms-scale hypervisor operations. This crate lets the
//! daemon measure that about itself, continuously, instead of relying on
//! client-side benchmarks alone:
//!
//! - [`Counter`] / [`Gauge`] — single atomic u64s,
//! - [`Histogram`] — fixed log₂ buckets with µs resolution, recorded from a
//!   nanosecond clock, so sub-µs through minute-scale latencies land in
//!   distinguishable buckets,
//! - [`Registry`] — a named collection of the above. Registration and
//!   snapshots take a lock; the **record path never does**. Instrumented
//!   code resolves its handles once (an `Arc` per metric) and afterwards
//!   only touches atomics.
//! - [`metric_set!`] — a set of metrics declared once, one row per
//!   metric (field, kind, name, help), attached to a registry in one call.
//! - [`wire_enum!`] — a C-like wire enum declared once, one row per
//!   variant (doc, variant, wire number, name), with its number and name
//!   conversions generated from the rows.
//! - [`trace`] — a request-id (client id + RPC serial) carried through
//!   dispatch so log records written while serving an RPC can be correlated
//!   with the per-procedure latency histograms.
//! - [`span`] / [`recorder`] — end-to-end request tracing: span contexts
//!   carried over the wire, typed stages recorded as begin/end events
//!   into a process-wide lock-free ring (the flight recorder).
//!
//! Snapshots serialize over the admin protocol and render as either a
//! human-readable table or Prometheus text exposition format
//! ([`prometheus_text`]).

pub mod prometheus;
pub mod recorder;
pub mod span;
pub mod trace;

mod metric_set;
mod wire_enum;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use prometheus::prometheus_text;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic gauge holding a current (non-negative) level, e.g. a queue
/// depth or a connected-client count.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn dec(&self) {
        // Saturating: a mismatched dec must not wrap to u64::MAX.
        self.value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            })
            .ok();
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        // Saturating: a mismatched sub must not wrap to u64::MAX.
        self.value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            })
            .ok();
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds sub-µs samples, bucket `i`
/// (1 ≤ i < 27) holds samples in `[2^(i-1), 2^i)` µs, and the final bucket
/// collects everything from 2^26 µs (~67 s) up.
const BUCKET_COUNT: usize = 28;

/// Upper bound (exclusive, in µs) of bucket `index`, or `None` for the
/// overflow bucket.
pub fn bucket_upper_bound_us(index: usize) -> Option<u64> {
    if index + 1 < BUCKET_COUNT {
        Some(1u64 << index)
    } else {
        None
    }
}

/// A fixed-bucket log₂ latency histogram over µs with a running count and
/// nanosecond sum. All updates are relaxed atomics; there is no lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a sample of `ns` nanoseconds.
    #[inline]
    fn bucket_index(ns: u64) -> usize {
        let us = ns / 1_000;
        if us == 0 {
            0
        } else {
            // floor(log2(us)) + 1: us in [2^(i-1), 2^i) lands in bucket i.
            (64 - us.leading_zeros() as usize).min(BUCKET_COUNT - 1)
        }
    }

    #[inline]
    pub(crate) fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos() as u64);
    }

    /// Starts a timer that records into this histogram when dropped.
    pub fn start_timer(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            histogram: self,
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_ns: self.sum_ns(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Times a region of code with a nanosecond clock; records on drop.
pub struct HistogramTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl HistogramTimer<'_> {
    /// Stops the timer early, returning the measured duration.
    pub fn stop(self) -> Duration {
        let elapsed = self.start.elapsed();
        self.histogram.record(elapsed);
        std::mem::forget(self);
        elapsed
    }
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed());
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    /// One entry per bucket, `BUCKET_COUNT` long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample in µs, or `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_ns as f64 / 1_000.0 / self.count as f64)
        }
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) in µs by locating the
    /// bucket holding the target rank and interpolating linearly inside
    /// it. Log₂ buckets bound the error to the bucket width — good
    /// enough to tell a 100 µs p99 from a 10 ms one, which is what the
    /// human-readable output needs. `None` when empty or `q` is out of
    /// range.
    fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                cumulative += bucket;
                continue;
            }
            let next = cumulative + bucket;
            if (next as f64) >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                // The overflow bucket has no upper bound; assume one
                // octave, the same width every other bucket has.
                let upper = bucket_upper_bound_us(i).unwrap_or(lower * 2);
                let into = (rank - cumulative as f64) / bucket as f64;
                return Some(lower as f64 + into * (upper - lower) as f64);
            }
            cumulative = next;
        }
        // Unreachable when count matches the buckets, but a racy
        // snapshot copy may undercount; clamp to the top bound.
        Some((1u64 << (BUCKET_COUNT - 1)) as f64)
    }

    /// Median estimate in µs.
    pub fn p50_us(&self) -> Option<f64> {
        self.quantile_us(0.50)
    }

    /// 90th-percentile estimate in µs.
    pub fn p90_us(&self) -> Option<f64> {
        self.quantile_us(0.90)
    }

    /// 99th-percentile estimate in µs.
    pub fn p99_us(&self) -> Option<f64> {
        self.quantile_us(0.99)
    }
}

/// The value of a metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

/// A named metric captured from a [`Registry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    pub name: String,
    pub help: String,
    pub value: MetricValue,
}

/// A kind of metric a [`Registry`] holds: [`Counter`], [`Gauge`] or
/// [`Histogram`].
pub trait Kind: sealed::Held {}

mod sealed {
    use super::{Arc, Counter, Gauge, Histogram};

    pub enum Metric {
        Counter(Arc<Counter>),
        Gauge(Arc<Gauge>),
        Histogram(Arc<Histogram>),
    }

    /// How a kind goes into, and comes back out of, a registry entry.
    pub trait Held: Sized {
        fn wrap(handle: Arc<Self>) -> Metric;
        fn held(metric: &Metric) -> Option<&Arc<Self>>;
    }

    macro_rules! held {
        ($($kind:ident),*) => {$(
            impl Held for $kind {
                fn wrap(handle: Arc<Self>) -> Metric {
                    Metric::$kind(handle)
                }
                fn held(metric: &Metric) -> Option<&Arc<Self>> {
                    match metric {
                        Metric::$kind(handle) => Some(handle),
                        _ => None,
                    }
                }
            }
            impl super::Kind for $kind {}
        )*};
    }
    held!(Counter, Gauge, Histogram);
}

use sealed::Metric;

struct Registered {
    help: String,
    metric: Metric,
}

/// A named collection of metrics.
///
/// The registry map is behind a mutex, but that lock is only taken to
/// register a metric or take a snapshot. Instrumented code keeps the
/// returned `Arc` handle and records through it without ever touching the
/// registry again — the hot path is atomics only.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Registered>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Registered>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `handle` under `name` and returns the handle the
    /// registry holds for that name: `handle` itself when the name is
    /// new, the one registered earlier otherwise (its help text stays).
    ///
    /// # Panics
    ///
    /// When `name` is registered as a different kind of metric.
    pub fn adopt<K: Kind>(&self, name: &str, help: &str, handle: &Arc<K>) -> Arc<K> {
        let mut metrics = self.lock();
        if let Some(existing) = metrics.get(name) {
            return match K::held(&existing.metric) {
                Some(held) => Arc::clone(held),
                None => panic!("metric '{name}' already registered with a different type"),
            };
        }
        metrics.insert(
            name.to_string(),
            Registered {
                help: help.to_string(),
                metric: K::wrap(Arc::clone(handle)),
            },
        );
        Arc::clone(handle)
    }

    /// Returns the counter named `name`, creating it if needed.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.adopt(name, help, &Arc::default())
    }

    /// Returns the gauge named `name`, creating it if needed.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.adopt(name, help, &Arc::default())
    }

    /// Returns the histogram named `name`, creating it if needed.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.adopt(name, help, &Arc::default())
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Captures every metric whose name starts with `prefix` (empty prefix
    /// captures everything), sorted by name.
    pub fn snapshot(&self, prefix: &str) -> Vec<MetricSnapshot> {
        self.lock()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, registered)| MetricSnapshot {
                name: name.clone(),
                help: registered.help.clone(),
                value: match &registered.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // would underflow; must saturate at 0
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    /// Bucket boundaries: bucket 0 is sub-µs; bucket i covers
    /// [2^(i-1), 2^i) µs; the last bucket absorbs everything else.
    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Sub-µs samples.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(999), 0);
        // Exactly 1 µs starts bucket 1.
        assert_eq!(Histogram::bucket_index(1_000), 1);
        assert_eq!(Histogram::bucket_index(1_999), 1);
        // 2 µs starts bucket 2: [2, 4) µs.
        assert_eq!(Histogram::bucket_index(2_000), 2);
        assert_eq!(Histogram::bucket_index(3_999), 2);
        assert_eq!(Histogram::bucket_index(4_000), 3);
        // Every power of two lands at the *start* of its bucket.
        for i in 1..(BUCKET_COUNT - 1) {
            let us = 1u64 << (i - 1);
            assert_eq!(Histogram::bucket_index(us * 1_000), i, "2^{} µs", i - 1);
            // One ns before the boundary stays in the previous bucket.
            assert_eq!(
                Histogram::bucket_index(us * 1_000 - 1),
                i - 1,
                "just below 2^{} µs",
                i - 1
            );
        }
        // Overflow bucket.
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKET_COUNT - 1);
        let overflow_us = 1u64 << (BUCKET_COUNT - 2);
        assert_eq!(
            Histogram::bucket_index(overflow_us * 1_000),
            BUCKET_COUNT - 1
        );
    }

    #[test]
    fn bucket_upper_bounds_match_indexing() {
        for i in 0..BUCKET_COUNT {
            match bucket_upper_bound_us(i) {
                Some(upper) => {
                    // A sample 1ns below `upper` µs is in bucket <= i, and
                    // a sample at `upper` µs is in bucket i+1.
                    assert_eq!(Histogram::bucket_index(upper * 1_000 - 1), i);
                    assert!(Histogram::bucket_index(upper * 1_000) > i);
                }
                None => assert_eq!(i, BUCKET_COUNT - 1),
            }
        }
    }

    #[test]
    fn histogram_accumulates_count_and_sum() {
        let h = Histogram::new();
        h.record_ns(500);
        h.record_ns(1_500);
        h.record_ns(3_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_ns, 3_002_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 3);
        assert_eq!(snap.mean_us(), Some(3_002_000.0 / 3_000.0));
    }

    #[test]
    fn timer_records_into_histogram() {
        let h = Histogram::new();
        {
            let _timer = h.start_timer();
        }
        let elapsed = h.start_timer().stop();
        assert_eq!(h.count(), 2);
        assert!(h.sum_ns() >= elapsed.as_nanos() as u64);
    }

    /// Concurrent increments from many threads must sum exactly — no lost
    /// updates anywhere on the record path.
    #[test]
    fn concurrent_increments_sum_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;

        let registry = Arc::new(Registry::new());
        let counter = registry.counter("test.hits", "test counter");
        let histogram = registry.histogram("test.lat", "test histogram");

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let counter = Arc::clone(&counter);
                let histogram = Arc::clone(&histogram);
                thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.inc();
                        // Spread samples over many buckets.
                        histogram.record_ns((t as u64 + 1) * 250 * (i % 64 + 1));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(counter.get(), total);
        let snap = histogram.snapshot();
        assert_eq!(snap.count, total);
        assert_eq!(snap.buckets.iter().sum::<u64>(), total);
    }

    #[test]
    fn registry_returns_same_handle_for_same_name() {
        let registry = Registry::new();
        let a = registry.counter("x", "");
        let b = registry.counter("x", "");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_filters_by_prefix_and_sorts() {
        let registry = Registry::new();
        registry.counter("b.two", "").inc();
        registry.gauge("a.one", "").set(5);
        registry.histogram("b.three", "").record_ns(10);
        let all = registry.snapshot("");
        assert_eq!(
            all.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            vec!["a.one", "b.three", "b.two"]
        );
        let b_only = registry.snapshot("b.");
        assert_eq!(b_only.len(), 2);
        assert_eq!(b_only[1].value, MetricValue::Counter(1));
    }

    #[test]
    fn quantile_estimates_land_in_the_right_buckets() {
        let h = Histogram::new();
        // 100 samples at ~3 µs (bucket [2,4)), 10 at ~100 µs (bucket
        // [64,128)), 1 at ~5 ms (bucket [4096,8192)).
        for _ in 0..100 {
            h.record_ns(3_000);
        }
        for _ in 0..10 {
            h.record_ns(100_000);
        }
        h.record_ns(5_000_000);
        let snap = h.snapshot();
        let p50 = snap.p50_us().unwrap();
        assert!((2.0..4.0).contains(&p50), "p50 {p50}");
        let p90 = snap.p90_us().unwrap();
        assert!((2.0..4.0).contains(&p90), "p90 {p90} (100/111 ≈ 0.90)");
        let p99 = snap.p99_us().unwrap();
        assert!((64.0..128.0).contains(&p99), "p99 {p99}");
        // q = 1.0 interpolates all the way to the bucket's upper bound.
        let p100 = snap.quantile_us(1.0).unwrap();
        assert!((4096.0..=8192.0).contains(&p100), "max {p100}");
    }

    #[test]
    fn quantiles_reject_empty_and_out_of_range() {
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.p50_us(), None);
        let h = Histogram::new();
        h.record_ns(1_000);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_us(0.0), None);
        assert_eq!(snap.quantile_us(1.5), None);
        assert_eq!(snap.quantile_us(-0.5), None);
        assert!(snap.p99_us().is_some());
    }

    #[test]
    fn quantile_interpolates_monotonically() {
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record_ns(i * 10_000); // 0 µs .. 10 ms spread
        }
        let snap = h.snapshot();
        let (p50, p90, p99) = (
            snap.p50_us().unwrap(),
            snap.p90_us().unwrap(),
            snap.p99_us().unwrap(),
        );
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    }

    #[test]
    fn registered_instances_are_shared() {
        let registry = Registry::new();
        let mine = Arc::new(Counter::new());
        mine.add(3);
        let held = registry.adopt("pool.completed", "jobs", &mine);
        assert!(Arc::ptr_eq(&held, &mine));
        mine.inc();
        match &registry.snapshot("pool.")[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 4),
            other => panic!("wrong type: {other:?}"),
        }
    }

    crate::metric_set! {
        struct CacheMetrics {
            hits: Counter = "hits", "Lookups answered from the cache";
            entries: Gauge = "entries", "Entries held right now";
            fill_us: Histogram = "fill_us", "Time taken to fill one miss";
        }
    }

    #[test]
    fn sets_attached_under_one_prefix_share_the_first_ones_handles() {
        let registry = Registry::new();
        let first = CacheMetrics::new();
        let second = CacheMetrics::new();
        let a = first.attach(&registry, "cache.");
        let b = second.attach(&registry, "cache.");
        assert!(
            Arc::ptr_eq(&a.hits, &first.hits),
            "the first set's own handles"
        );
        assert!(Arc::ptr_eq(&b.hits, &first.hits));
        assert!(Arc::ptr_eq(&b.entries, &first.entries));
        assert!(Arc::ptr_eq(&b.fill_us, &first.fill_us));
        assert!(!Arc::ptr_eq(&b.hits, &second.hits));
        b.hits.inc();
        a.hits.inc();
        assert_eq!(registry.counter("cache.hits", "").get(), 2);
        // A second prefix is a second set of names.
        let other = second.attach(&registry, "other.");
        assert!(Arc::ptr_eq(&other.hits, &second.hits));
        assert_eq!(registry.names().len(), 6);
    }

    #[test]
    fn counts_recorded_before_attach_are_visible_through_the_registry() {
        let registry = Registry::new();
        let set = CacheMetrics::new();
        set.hits.add(5);
        set.entries.set(3);
        set.fill_us.record_ns(2_000);
        set.attach(&registry, "cache.");
        let values: Vec<(String, MetricValue)> = registry
            .snapshot("cache.")
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(
            values[0],
            ("cache.entries".to_string(), MetricValue::Gauge(3))
        );
        assert!(matches!(&values[1].1, MetricValue::Histogram(h) if h.count == 1));
        assert_eq!(
            values[2],
            ("cache.hits".to_string(), MetricValue::Counter(5))
        );
        assert_eq!(
            registry.snapshot("cache.hits")[0].help,
            "Lookups answered from the cache"
        );
    }

    #[test]
    #[should_panic(expected = "metric 'cache.hits' already registered with a different type")]
    fn a_kind_clash_panics() {
        let registry = Registry::new();
        registry.gauge("cache.hits", "a gauge of the same name");
        CacheMetrics::new().attach(&registry, "cache.");
    }
}
