//! Harness-side spans for the `--trace 1` pass: recorded in memory
//! around the calls into each layer, written out as JSON when the run
//! ends. Spans inside the program are a later change; these come from
//! the benchmark's own files only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Spans of one unit of work share `trace_id`;
/// `parent` is the `span_id` of the enclosing span, 0 for a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Every `every`-th unit is traced so the
/// spans cover the whole traced window without growing with the
/// workload's rate (the pipelined workload completes ~100 k units/s).
pub struct Tracer {
    origin: Instant,
    every: u64,
    units: u64,
    /// High bits of every id, so recorders of different threads never
    /// hand out the same id.
    tag: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for client thread `thread`, sampling one unit in
    /// `every`, with times measured from `origin`.
    pub fn new(origin: Instant, thread: u64, every: u64) -> Tracer {
        Tracer {
            origin,
            every: every.max(1),
            units: 0,
            tag: (thread + 1) << 48,
            next_id: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next unit of work; returns its trace id when this unit
    /// is one of the sampled ones.
    pub fn begin_unit(&mut self) -> Option<u64> {
        self.units += 1;
        self.units
            .is_multiple_of(self.every)
            .then(|| self.fresh_id())
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.tag | self.next_id
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span_id = self.fresh_id();
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        span_id
    }

    /// Runs `f` under a span when `trace` names a sampled unit.
    pub fn span<T>(
        tracer: &mut Option<Tracer>,
        trace: Option<(u64, u64)>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        match (tracer, trace) {
            (Some(tracer), Some((trace_id, parent))) => {
                let start = tracer.now();
                let value = f();
                let end = tracer.now();
                tracer.record(trace_id, parent, name, start, end);
                value
            }
            _ => f(),
        }
    }

    /// Reserves the id of a parent span whose end is not yet known.
    pub fn reserve(&mut self) -> u64 {
        self.fresh_id()
    }

    /// Records a span under an id obtained from [`Tracer::reserve`].
    pub fn record_reserved(
        &mut self,
        span_id: u64,
        trace_id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            trace_id,
            span_id,
            parent: 0,
            name,
            start_ns,
            end_ns,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: how many were recorded and their summed *self* time —
/// a span's duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let covered = children.get(&span.span_id).copied().unwrap_or(0);
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += (span.end_ns - span.start_ns).saturating_sub(covered);
    }
    totals
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"trace_id\": {}, \"span_id\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            s.trace_id, s.span_id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_one_unit_in_every() {
        let mut tracer = Tracer::new(Instant::now(), 0, 3);
        let sampled: Vec<bool> = (0..6).map(|_| tracer.begin_unit().is_some()).collect();
        assert_eq!(sampled, [false, false, true, false, false, true]);
    }

    #[test]
    fn ids_of_two_threads_never_collide() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0, 1);
        let mut b = Tracer::new(origin, 1, 1);
        assert_ne!(a.begin_unit(), b.begin_unit());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(Instant::now(), 0, 1);
        let trace = tracer.begin_unit().unwrap();
        let root = tracer.reserve();
        tracer.record(trace, root, "child", 10, 40);
        tracer.record(trace, root, "child", 50, 60);
        tracer.record_reserved(root, trace, "root", 0, 100);
        let spans = tracer.into_spans();
        let totals = self_times(&spans);
        assert_eq!(totals["root"], (1, 60));
        assert_eq!(totals["child"], (2, 40));
        let json = to_json(&spans);
        assert_eq!(json.matches("\"name\": \"child\"").count(), 2);
        assert!(json.starts_with("[\n{\"trace_id\""));
        assert!(json.trim_end().ends_with("}\n]") || json.trim_end().ends_with(']'));
    }
}
