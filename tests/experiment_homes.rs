//! Every experiment in `EXPERIMENTS.md` has a home, named in the **Home**
//! cell of its *Summary* row, and each home resolves:
//!
//! - `ledger: <name>` — a per-layer or end-to-end metric, or a workload,
//!   declared in `BENCHMARK.json` (so `virt_bench` prints it);
//! - `test: <path>::<fn>` — the file exists and defines `fn <fn>`;
//! - `history: <sha>` — the commit whose tree last produced the table.
//!
//! And no document, script or build note points at the experiment
//! harness that these homes replaced.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(relative: &str) -> String {
    std::fs::read_to_string(root().join(relative)).unwrap_or_else(|e| panic!("{relative}: {e}"))
}

/// Every `"name"` in the benchmark manifest: its workloads, end-to-end
/// metrics and per-layer ledger rows.
fn ledger_names(manifest: &str) -> Vec<String> {
    manifest
        .split("\"name\":")
        .skip(1)
        .filter_map(|rest| {
            let quoted = rest.trim_start().strip_prefix('"')?;
            Some(quoted.split('"').next()?.to_string())
        })
        .collect()
}

/// Checks one `kind: target` entry of a Home cell.
fn check_home(entry: &str, ledger: &[String]) -> Result<(), String> {
    let (kind, target) = entry
        .split_once(':')
        .ok_or_else(|| format!("`{entry}` is not `kind: target`"))?;
    let target = target.trim();
    match kind.trim() {
        "ledger" if ledger.iter().any(|name| name == target) => Ok(()),
        "ledger" => Err(format!("BENCHMARK.json declares no `{target}`")),
        "test" => {
            let (path, name) = target
                .rsplit_once("::")
                .ok_or_else(|| format!("`{target}` is not `<path>::<fn>`"))?;
            let source =
                std::fs::read_to_string(root().join(path)).map_err(|e| format!("{path}: {e}"))?;
            if source.contains(&format!("fn {name}(")) {
                Ok(())
            } else {
                Err(format!("{path} defines no `fn {name}`"))
            }
        }
        "history"
            if (7..=40).contains(&target.len())
                && target.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            Ok(())
        }
        "history" => Err(format!("`{target}` is not a 7–40 digit commit id")),
        other => Err(format!("unknown home kind `{other}`")),
    }
}

/// The *Summary* table's rows as `(experiment, home cell)`.
fn summary_homes(experiments: &str) -> Vec<(String, String)> {
    let table: Vec<Vec<&str>> = experiments
        .split("\n## Summary\n")
        .nth(1)
        .expect("EXPERIMENTS.md has a Summary section")
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            line.trim()
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect()
        })
        .collect();
    let home = table[0]
        .iter()
        .position(|&heading| heading == "Home")
        .expect("the Summary table has a Home column");
    table[2..]
        .iter()
        .map(|row| (row[0].to_string(), row.get(home).unwrap_or(&"").to_string()))
        .collect()
}

#[test]
fn every_summary_row_has_a_home_that_resolves() {
    let ledger = ledger_names(&read("BENCHMARK.json"));
    let rows = summary_homes(&read("EXPERIMENTS.md"));
    assert!(rows.len() >= 17, "only {} Summary rows", rows.len());
    let mut problems = Vec::new();
    for (experiment, cell) in &rows {
        let entries: Vec<&str> = cell
            .split(';')
            .map(|entry| entry.trim().trim_matches('`'))
            .filter(|entry| !entry.is_empty())
            .collect();
        if entries.is_empty() {
            problems.push(format!("{experiment}: no home"));
        }
        for entry in entries {
            if let Err(why) = check_home(entry, &ledger) {
                problems.push(format!("{experiment}: {why}"));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn a_home_naming_nothing_is_refused() {
    let ledger = ledger_names(&read("BENCHMARK.json"));
    assert!(check_home("ledger: small_call_unix", &ledger).is_ok());
    assert!(check_home("ledger: rpc.transport.tls_rtt_us", &ledger).is_ok());
    assert!(check_home("ledger: rpc.transport.carrier_pigeon_us", &ledger).is_err());
    let this_file = "tests/experiment_homes.rs";
    assert!(check_home(
        &format!("test: {this_file}::a_home_naming_nothing_is_refused"),
        &ledger
    )
    .is_ok());
    assert!(check_home(&format!("test: {this_file}::no_such_test"), &ledger).is_err());
    assert!(check_home("test: tests/no_such_file.rs::anything", &ledger).is_err());
    assert!(check_home("history: d265f30", &ledger).is_ok());
    assert!(check_home("history: d265f3", &ledger).is_err());
    assert!(check_home("history: main", &ledger).is_err());
    assert!(check_home("bench: f4", &ledger).is_err());
}

#[test]
fn no_document_or_script_points_at_the_retired_harness() {
    const STALE: [&str; 3] = ["expt_", "-p virt-bench", "docs/results"];
    let mut files = vec![root().join("README.md"), root().join("DESIGN.md")];
    let mut dirs = vec![root().join("docs"), root().join("scripts")];
    // The hidden directories hold the build-and-run notes.
    for entry in std::fs::read_dir(root()).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with('.') && name != ".git" && path.is_dir() {
            dirs.push(path);
        }
    }
    while let Some(dir) = dirs.pop() {
        // A build cache (cargo tags its target directories) is not a document.
        if dir.join("CACHEDIR.TAG").exists() {
            continue;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    let mut hits = Vec::new();
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        for (n, line) in text.lines().enumerate() {
            if STALE.iter().any(|stale| line.contains(stale)) {
                hits.push(format!("{}:{}: {line}", file.display(), n + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "stale harness references:\n{}",
        hits.join("\n")
    );
}
