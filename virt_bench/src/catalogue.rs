//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repository root is `virt_bench manifest` verbatim (a test keeps
//! the two identical), and every run is checked against this catalogue
//! before it prints a result.

use std::fmt::Write as _;

use crate::workloads::Kind;

/// Seconds one run measures (`run_seconds`): six slices of four seconds.
/// The issue asked for 6 × 5 s; the driver's cap on the whole series
/// (92 runs with their set-up and two builds inside 3420 s) leaves room
/// for 24.
pub const RUN_SECONDS: u64 = 24;

/// Slices the timed window is cut into.
pub const SLICES: usize = 6;

/// Why each workload exists (one line each, for `BENCHMARK.json`).
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::SmallCallUnix => {
            "One client, one small call at a time over a unix socket, 3 inline procedures to 1 \
             pooled: the per-call price of the client stub, socket wake-ups and thread hops (T2/F1)."
        }
        Kind::PipelinedCallUnix => {
            "One raw connection keeping 8 calls in flight: wake-ups amortised, so frame decode, \
             dispatch, driver lookup and reply encode dominate; bypasses the client stub."
        }
        Kind::LifecycleUnix => {
            "Two clients cycling define-start-suspend-resume-destroy-undefine, one subscribed to \
             events: writes beside reads - pooled dispatch, XML parse on define, driver locks, event push."
        }
        Kind::LifecycleDurableUnix => {
            "The same cycle against a state directory: statestore group commit; flush-bound, so \
             not listed in BENCHMARK.json (follows the host's storage, not the program)."
        }
        Kind::BulkStatsTls => {
            "One client fetching the stats of 1000 domains per call over TLS-sim on TCP: bytes not \
             messages - typed-param XDR, record layer, reader-thread path, big buffers."
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The same five on every workload. The issue listed a sixth, `p99_us`,
/// and bounds of 10-15 %. On the reference machine the interquartile
/// spread of the time-based metrics over ten seeds is 2-9 % of the
/// median in a quiet spell and up to 17 % when workloads alternate, so
/// they carry the contract's ceiling of 25 % (the 5-6 MiB resident set,
/// spread up to 5.5 %, carries 20 %); the tail would not even
/// hold that (`small_call_unix` p99: spread 10 %, 15 %, 21 % and 39 % in
/// four series of eight to ten runs), and by the issue's own rule a metric that
/// cannot hold its bound is demoted to the per-layer list
/// (`bench.p99_us`), not widened. See "Noise" in README.md.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. Which end-to-end metric
/// each should move, and on which workload, is tabulated in README.md.
pub type Layer = (&'static str, &'static str, &'static str);

/// Measured from the harness around each layer's public functions
/// (`layers.rs`); the same on every workload.
pub const MICRO_LAYERS: &[Layer] = &[
    ("xml.parse_us", "us", "lower"),
    ("xml.write_us", "us", "lower"),
    ("core.xmlfmt.from_xml_us", "us", "lower"),
    ("core.xmlfmt.to_xml_us", "us", "lower"),
    ("rpc.message.encode_small_ns", "ns", "lower"),
    ("rpc.message.decode_small_ns", "ns", "lower"),
    ("rpc.message.allocs_per_small_roundtrip", "count", "lower"),
    ("rpc.message.bulk_reply_bytes", "B", "lower"),
    ("rpc.message.encode_bulk_us", "us", "lower"),
    ("rpc.message.decode_bulk_us", "us", "lower"),
    ("rpc.transport.memory_rtt_us", "us", "lower"),
    ("rpc.transport.unix_rtt_us", "us", "lower"),
    ("rpc.transport.tcp_rtt_us", "us", "lower"),
    ("rpc.transport.tls_rtt_us", "us", "lower"),
    ("rpc.transport.tcp_bulk_mib_per_s", "MiB/s", "higher"),
    ("rpc.transport.tls_bulk_mib_per_s", "MiB/s", "higher"),
    ("rpc.client.stub_overhead_us", "us", "lower"),
    ("rpc.client.open_close_us", "us", "lower"),
    ("rpc.pool.submit_to_run_us", "us", "lower"),
    ("daemon.dispatch.memory_call_us", "us", "lower"),
    ("core.embedded.lookup_ns", "ns", "lower"),
    ("core.embedded.set_autostart_ns", "ns", "lower"),
    ("core.embedded.bulk_stats_us", "us", "lower"),
    ("core.embedded.lifecycle_cycle_us", "us", "lower"),
    ("hypersim.define_us", "us", "lower"),
    ("hypersim.start_us", "us", "lower"),
    ("core.statestore.put_durable_us", "us", "lower"),
    ("core.statestore.put_durable_2w_us", "us", "lower"),
    ("core.statestore.commits_per_put_2w", "ratio", "lower"),
    ("core.statestore.put_behind_ns", "ns", "lower"),
    ("core.statestore.flush_us", "us", "lower"),
    ("core.statestore.load_all_ms_per_1k", "ms", "lower"),
    ("core.event.dispatch_1sub_ns", "ns", "lower"),
    ("core.event.dispatch_8sub_ns", "ns", "lower"),
    ("fleet.refresh_ms", "ms", "lower"),
    ("fleet.place_us", "us", "lower"),
    ("fleet.list_us", "us", "lower"),
    ("metrics.counter_inc_ns", "ns", "lower"),
    ("metrics.span_disabled_ns", "ns", "lower"),
];

/// Read from the daemon child (admin-socket counters, `/proc/<pid>`) and
/// from the harness itself over the traced run's window; they describe
/// the workload that was run. A value the workload does not exercise
/// (say, statestore commits on a daemon without a state directory)
/// reads 0.
pub const WORKLOAD_LAYERS: &[Layer] = &[
    ("rpc.client.cpu_us_per_op", "us", "lower"),
    ("rpc.client.vcsw_per_op", "count", "lower"),
    ("rpc.pool.wait_p50_us", "us", "lower"),
    ("rpc.pool.wait_p99_us", "us", "lower"),
    ("rpc.bufpool.hit_ratio", "ratio", "higher"),
    ("daemon.eventloop.wakeups_per_op", "count", "lower"),
    ("daemon.eventloop.ready_events_per_op", "count", "lower"),
    ("daemon.vcsw_per_op", "count", "lower"),
    ("daemon.rw_syscalls_per_op", "count", "lower"),
    ("daemon.dispatch.proc_p50_us.lookup", "us", "lower"),
    ("daemon.dispatch.proc_p50_us.set_autostart", "us", "lower"),
    ("daemon.dispatch.proc_p50_us.define", "us", "lower"),
    ("daemon.dispatch.proc_p50_us.start", "us", "lower"),
    ("daemon.dispatch.proc_p50_us.bulk_stats", "us", "lower"),
    ("daemon.recovery_ms_per_domain", "ms", "lower"),
    ("core.statestore.group_commits_per_op", "count", "lower"),
    ("core.statestore.coalesced_per_op", "count", "higher"),
    ("core.statestore.deduped_per_op", "count", "higher"),
    ("core.statestore.sync_p50_us", "us", "lower"),
    ("core.event.events_per_cycle", "count", "lower"),
    ("bench.p99_us", "us", "lower"),
    ("bench.slice_spread_pct", "%", "lower"),
    ("bench.slice_units_min", "count", "higher"),
    ("bench.steal_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Every per-layer metric, in output order.
pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    MICRO_LAYERS.iter().chain(WORKLOAD_LAYERS)
}

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer().find(|l| l.0 == name).map(|l| l.1))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"virt_bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"virt_bench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, kind) in Kind::GATED.iter().enumerate() {
        let comma = if i + 1 == Kind::GATED.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            kind.name(),
            why(*kind)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<&Layer> = per_layer().collect();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `virt_bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for kind in Kind::ALL {
            assert!(well_formed(kind.name(), 64, "_.-") && seen.insert(kind.name()));
            assert!(
                why(kind).len() <= 200 && !why(kind).contains(['"', '\n']),
                "{}",
                kind.name()
            );
        }
        for m in &END_TO_END {
            assert!(
                well_formed(m.name, 64, "_.-") && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        let layers: Vec<_> = per_layer().collect();
        assert!((1..=128).contains(&layers.len()));
        for (name, unit, better) in layers {
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(name, 64, "_.-") && seen.insert(name), "{name}");
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
            assert!(["lower", "higher"].contains(better));
        }
        assert!(manifest().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
