//! Prometheus text exposition format (version 0.0.4) for metric snapshots.
//!
//! Metric names in the registry use dots as separators (`rpc.calls`,
//! `pool.rpc.wait_us`); exposition sanitizes them to the Prometheus name
//! charset. Histograms emit cumulative `_bucket` series with `le` labels in
//! µs (matching the `_us` unit suffix of the histogram names), plus `_sum`
//! (also µs) and `_count`.

use crate::{bucket_upper_bound_us, HistogramSnapshot, MetricSnapshot, MetricValue};
use std::fmt::Write;

/// Maps an arbitrary registry name onto the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a HELP line per the text-format spec: backslash and newline
/// must be escaped (a literal newline would start a new exposition
/// line); double quotes are escaped too so the same text is safe to
/// reuse inside a label value.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('"', "\\\"")
}

/// Escapes a label value per the text-format spec: `\`, `\n` and `"`
/// would otherwise terminate or corrupt the quoted value.
fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('"', "\\\"")
}

fn write_histogram(out: &mut String, name: &str, help: &str, snapshot: &HistogramSnapshot) {
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    }
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, bucket) in snapshot.buckets.iter().enumerate() {
        cumulative += bucket;
        match bucket_upper_bound_us(i) {
            Some(upper) => {
                let le = escape_label_value(&upper.to_string());
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            None => {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
    }
    // `le` is in µs, so the sum must be too.
    let sum_us = snapshot.sum_ns as f64 / 1_000.0;
    let _ = writeln!(out, "{name}_sum {sum_us}");
    let _ = writeln!(out, "{name}_count {}", snapshot.count);
}

/// Renders `snapshots` in Prometheus text exposition format.
pub fn prometheus_text(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for snapshot in snapshots {
        let name = sanitize_name(&snapshot.name);
        match &snapshot.value {
            MetricValue::Counter(v) => {
                if !snapshot.help.is_empty() {
                    let _ = writeln!(out, "# HELP {name} {}", escape_help(&snapshot.help));
                }
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                if !snapshot.help.is_empty() {
                    let _ = writeln!(out, "# HELP {name} {}", escape_help(&snapshot.help));
                }
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => write_histogram(&mut out, &name, &snapshot.help, h),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            sanitize_name("rpc.proc.2.latency_us"),
            "rpc_proc_2_latency_us"
        );
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn counters_and_gauges_render() {
        let registry = Registry::new();
        registry.counter("rpc.calls", "Total RPC calls").add(3);
        registry.gauge("pool.depth", "Queue depth").set(2);
        let text = prometheus_text(&registry.snapshot(""));
        assert!(text.contains("# TYPE pool_depth gauge\npool_depth 2\n"));
        assert!(text.contains("# HELP rpc_calls Total RPC calls\n"));
        assert!(text.contains("# TYPE rpc_calls counter\nrpc_calls 3\n"));
    }

    #[test]
    fn help_text_is_escaped() {
        let registry = Registry::new();
        registry
            .counter("c", "path \\tmp, a \"quoted\" word\nsecond line")
            .inc();
        let text = prometheus_text(&registry.snapshot(""));
        assert!(
            text.contains("# HELP c path \\\\tmp, a \\\"quoted\\\" word\\nsecond line\n"),
            "{text}"
        );
        // The literal newline must not have survived into the HELP line.
        assert!(!text.contains("word\nsecond"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b \"c\"\nd"), "a\\\\b \\\"c\\\"\\nd");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let registry = Registry::new();
        let h = registry.histogram("lat_us", "Latency");
        h.record_ns(500); // bucket 0 (<1µs)
        h.record_ns(1_500); // bucket 1 ([1,2)µs)
        h.record_ns(1_500);
        let text = prometheus_text(&registry.snapshot(""));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_us_count 3\n"));
        assert!(text.contains("lat_us_sum 3.5\n"));
    }
}
