//! The metric catalogue, pinned: name, kind and help text of every metric
//! three registries hold — a statedir daemon with default hosts after one
//! remote connection, the process registry of client-side RPC metrics,
//! and a one-host fleet manager's registry.
//!
//! `golden/metric_catalogue.txt` was captured before the metric sets
//! became `metric_set!` tables (only the two `keepalive_pings` help lines
//! were reworded since), so a change that renames a metric, moves it
//! between registries, changes its kind or rewords its help fails here
//! and prints the catalogue the current code produces. The second test
//! holds `docs/observability.md` to the same catalogue: every family of
//! metrics in it has a row in the metrics table.

use virt_core::metrics::{MetricValue, Registry};
use virt_core::Connect;
use virt_fleet::FleetManager;
use virtd::{Virtd, VirtdConfig};

const GOLDEN: &str = include_str!("golden/metric_catalogue.txt");
const OBSERVABILITY: &str = include_str!("../docs/observability.md");

/// One line per metric: `<registry> <name> <kind> <help>`, by name.
fn dump(label: &str, registry: &Registry, out: &mut Vec<String>) {
    for metric in registry.snapshot("") {
        let kind = match metric.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        out.push(format!("{label} {} {kind} {}", metric.name, metric.help));
    }
}

fn catalogue() -> Vec<String> {
    let name = format!("catalogue-{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("{name}-state"));
    let daemon = Virtd::builder(&name)
        .with_default_hosts()
        .config(VirtdConfig::new().statedir(&dir))
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let uri = format!("qemu+memory://{name}/system");
    let conn = Connect::builder(&uri).open().unwrap();
    conn.hostname().unwrap();
    let fleet = FleetManager::builder().host("h1", &uri).build().unwrap();

    let mut out = Vec::new();
    dump("daemon", daemon.metrics(), &mut out);
    dump("process", virt_core::client_metrics(), &mut out);
    dump("fleet", fleet.metrics(), &mut out);

    conn.close();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn every_metric_matches_the_golden_catalogue() {
    let current = catalogue();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    if current != golden {
        let first = current
            .iter()
            .zip(&golden)
            .position(|(c, g)| c != g)
            .unwrap_or(current.len().min(golden.len()));
        println!("{}", current.join("\n"));
        panic!(
            "metric catalogue differs from tests/golden/metric_catalogue.txt at line {} \
             ({} lines now, {} golden); the current catalogue is printed above",
            first + 1,
            current.len(),
            golden.len()
        );
    }
}

/// A metric name with its per-instance segments abstracted: procedure
/// numbers become `<n>`, the server of `server.*`/`pool.*` `<server>`,
/// the scheme of `driver.*` `<scheme>`, the member of `fleet.host.*`
/// `<host>`.
fn family(name: &str) -> Vec<String> {
    let segments: Vec<&str> = name.split('.').collect();
    segments
        .iter()
        .enumerate()
        .map(|(i, segment)| {
            match (segments[0], segments.get(1).copied(), i) {
                ("server" | "pool", _, 1) => "<server>",
                ("driver", _, 1) => "<scheme>",
                ("fleet", Some("host"), 2) => "<host>",
                _ if segment.bytes().all(|b| b.is_ascii_digit()) => "<n>",
                _ => segment,
            }
            .to_string()
        })
        .collect()
}

/// Expands every `{a,b}` group of a documented name pattern.
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("unbalanced brace");
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| {
            expand(&format!(
                "{}{alt}{}",
                &pattern[..open],
                &pattern[close + 1..]
            ))
        })
        .collect()
}

/// Whether a documented pattern covers a family: `<...>` stands for one
/// segment, a trailing `*` for one or more.
fn covers(pattern: &str, family: &[String]) -> bool {
    let segments: Vec<&str> = pattern.split('.').collect();
    let (fixed, open_ended) = match segments.split_last() {
        Some((&"*", fixed)) => (fixed, true),
        _ => (&segments[..], false),
    };
    let lengths_fit = if open_ended {
        family.len() > fixed.len()
    } else {
        family.len() == fixed.len()
    };
    lengths_fit
        && fixed
            .iter()
            .zip(family)
            .all(|(p, f)| p == f || p.starts_with('<'))
}

/// The backquoted names in the first column of the metrics table.
fn documented_patterns() -> Vec<String> {
    let section = OBSERVABILITY
        .split("## Metrics")
        .nth(1)
        .expect("docs/observability.md has a Metrics section");
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .flat_map(expand)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn every_family_in_the_catalogue_has_a_row_in_the_metrics_table() {
    let patterns = documented_patterns();
    let mut missing: Vec<String> = GOLDEN
        .lines()
        .map(|line| family(line.split(' ').nth(1).expect("a name column")))
        .filter(|family| !patterns.iter().any(|p| covers(p, family)))
        .map(|family| family.join("."))
        .collect();
    missing.sort();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "metric families with no row in docs/observability.md's metrics table:\n{}",
        missing.join("\n")
    );
}
