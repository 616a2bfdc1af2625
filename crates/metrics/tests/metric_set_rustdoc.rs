//! A `metric_set!` row's help text is its field's rustdoc.
//!
//! rustdoc runs on a temporary crate that includes the macro's source beside
//! stand-ins for the types it names through `$crate`; the rendered page of
//! the generated struct must show each row's help text under its field.

use std::path::{Path, PathBuf};
use std::process::Command;

const TEMP_CRATE: &str = r#"
#![allow(rustdoc::broken_intra_doc_links)]
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct Counter;
#[derive(Debug, Default)]
pub struct Gauge;
pub struct Registry;

impl Registry {
    pub fn adopt<K>(&self, _name: &str, _help: &str, handle: &Arc<K>) -> Arc<K> {
        Arc::clone(handle)
    }
}

include!(MACRO_SOURCE);

metric_set! {
    /// A set with two rows.
    pub struct DemoMetrics {
        hits: Counter = "hits", "Lookups answered from the cache";
        depth: Gauge = "depth", "Jobs waiting in the queue right now";
    }
}
"#;

/// rustdoc from the toolchain that runs this test, else from `PATH`.
fn rustdoc() -> PathBuf {
    std::env::var_os("CARGO")
        .map(|cargo| Path::new(&cargo).with_file_name("rustdoc"))
        .filter(|path| path.exists())
        .unwrap_or_else(|| PathBuf::from("rustdoc"))
}

#[test]
fn a_generated_fields_rustdoc_is_its_help_text() {
    let dir = std::env::temp_dir().join(format!("metric-set-rustdoc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/metric_set.rs");
    let lib = dir.join("lib.rs");
    std::fs::write(
        &lib,
        TEMP_CRATE.replace(
            "MACRO_SOURCE",
            &format!("{:?}", source.display().to_string()),
        ),
    )
    .unwrap();

    let output = Command::new(rustdoc())
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "lib",
            "--crate-name",
            "demo",
            "-o",
        ])
        .arg(&dir)
        .arg(&lib)
        .output()
        .expect("running rustdoc");
    assert!(
        output.status.success(),
        "rustdoc failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let page = std::fs::read_to_string(dir.join("demo/struct.DemoMetrics.html")).unwrap();
    for (field, help) in [
        ("hits", "Lookups answered from the cache"),
        ("depth", "Jobs waiting in the queue right now"),
    ] {
        let anchor = format!("id=\"structfield.{field}\"");
        let at = page
            .find(&anchor)
            .unwrap_or_else(|| panic!("no field {field}"));
        let section = &page[at + anchor.len()..];
        let section = &section[..section.find("id=\"structfield.").unwrap_or(section.len())];
        assert!(
            section.contains(help),
            "field {field} is not documented by its help text {help:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
