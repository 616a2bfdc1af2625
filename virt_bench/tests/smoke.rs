//! Keeps the harness from rotting: runs all five workloads in `--smoke`
//! mode (one set-up, a tenth of the warm-up, a 2 s window) plus one
//! per-layer pass, and holds each result line to the catalogue that
//! `virt_bench manifest` prints. Nothing here is a measurement.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_virt_bench");

const WORKLOADS: [&str; 5] = [
    "small_call_unix",
    "pipelined_call_unix",
    "lifecycle_unix",
    "bulk_stats_tls",
    "lifecycle_durable_unix",
];

/// The last stdout line of one smoke run.
fn smoke(workload: &str, trace: &str) -> String {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("virt_bench runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// `(name, unit)` of every metric in one section of the manifest.
fn manifest_section(section: &str) -> Vec<(String, String)> {
    let output = Command::new(BIN)
        .arg("manifest")
        .output()
        .expect("manifest");
    let text = String::from_utf8(output.stdout).expect("utf-8 manifest");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section exists");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

/// Checks the envelope and that exactly the expected metrics are there,
/// each a finite number with its unit.
fn check(line: &str, expected: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.ends_with("}}"),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    assert_eq!(
        line.matches("\"value\": ").count(),
        expected.len(),
        "{line}"
    );
    for (name, unit) in expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let rest = &line[line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {line}"))
            + key.len()..];
        let (value, tail) = rest
            .split_once(", ")
            .expect("value is followed by its unit");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: {tail}"
        );
    }
}

#[test]
fn smoke_matrix_prints_every_promised_metric() {
    let end_to_end = manifest_section("end_to_end");
    let per_layer = manifest_section("per_layer");
    assert_eq!(end_to_end.len(), 5);
    assert!(per_layer.len() > 40);
    for workload in WORKLOADS {
        check(&smoke(workload, "0"), &end_to_end);
    }
    // The durable workload touches the most layers; one traced pass of it
    // exercises every per-layer code path.
    check(&smoke("lifecycle_durable_unix", "1"), &per_layer);
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("virt_bench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
