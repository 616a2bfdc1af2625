//! The public surface is what something outside its crate uses.
//!
//! Every `pub` item a product crate declares under `src/` must be named
//! outside that crate's library: by another product crate, a binary, an
//! integration test, an example, a doctest or the benchmark harness. An
//! item only its own crate uses is `pub(crate)`, and one nothing uses is
//! deleted, so the surface cannot grow back unnoticed. An item that stays
//! `pub` with no outside name is listed in [`NAMED_NOWHERE_ELSE`] with the
//! reason it must stay public.
//!
//! Names are matched as identifiers, so a method shares its fate with
//! every item of the same name: the check is exact for types, traits,
//! free functions and constants, and lenient for methods with common
//! names. `xdr_struct!` records (whose grammar requires `pub`),
//! `macro_rules!` bodies and everything after a file's `#[cfg(test)]` are
//! not surface.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// `(crate directory, item, why it is public)` for the `pub` items that
/// no code outside their crate names.
#[rustfmt::skip] // one row per item
const NAMED_NOWHERE_ELSE: &[(&str, &str, &str)] = &[
    ("core", "ConnectBuilder", "reached through a public signature"),
    ("core", "EventFilter", "reached through a public signature"),
    ("core", "GuardEngine", "reached through a public signature"),
    ("core", "JobHandle", "reached through a public signature"),
    ("core", "JobManager", "reached through a public signature"),
    ("core", "JobMetrics", "reached through a public signature"),
    ("core", "LogFilter", "reached through a public signature"),
    ("core", "LogRecord", "reached through a public signature"),
    ("core", "NetworkRecord", "reached through a public signature"),
    ("core", "RecoveryReport", "reached through a public signature"),
    ("core", "StoragePool", "reached through a public signature"),
    ("core", "StoreFault", "the persister runs its fault hook in every build; goes behind a DiskOps seam (ROADMAP 4(a))"),
    ("core", "StoreOp", "reached through a public signature"),
    ("core", "inject_fault", "the persister runs its fault hook in every build; goes behind a DiskOps seam (ROADMAP 4(a))"),
    ("daemon", "ClientIdentity", "reached through a public signature"),
    ("daemon", "ServeHandle", "reached through a public signature"),
    ("daemon", "VirtdBuilder", "reached through a public signature"),
    ("fleet", "DomainSummary", "reached through a public signature"),
    ("fleet", "EvacuationReport", "reached through a public signature"),
    ("fleet", "FleetBuilder", "reached through a public signature"),
    ("fleet", "HostCapacity", "reached through a public signature"),
    ("fleet", "HostStatus", "reached through a public signature"),
    ("fleet", "PlacementPolicy", "reached through a public signature"),
    ("fleet", "Reconciliation", "reached through a public signature"),
    ("hypersim", "DomainStatsView", "reached through a public signature"),
    ("hypersim", "HostInfo", "reached through a public signature"),
    ("hypersim", "Lease", "reached through a public signature"),
    ("hypersim", "MigrationOutcome", "reached through a public signature"),
    ("hypersim", "MonitorCommand", "reached through a public signature"),
    ("hypersim", "Round", "reached through a public signature"),
    ("hypersim", "SimNetwork", "reached through a public signature"),
    ("hypersim", "SimPool", "reached through a public signature"),
    ("hypersim", "SimTime", "reached through a public signature"),
    ("hypersim", "SimVolume", "reached through a public signature"),
    ("hypersim", "VirtKind", "reached through a public signature"),
    ("metrics", "ContextGuard", "reached through a public signature"),
    ("metrics", "Held", "sealed plumbing behind the public metrics::Kind trait"),
    ("metrics", "HistogramTimer", "reached through a public signature"),
    ("metrics", "Metric", "sealed plumbing behind the public metrics::Kind trait"),
    ("metrics", "OwnedSpan", "reached through a public signature"),
    ("metrics", "RequestSpan", "reached through a public signature"),
    ("metrics", "SpanContext", "reached through a public signature"),
    ("metrics", "StageSpan", "reached through a public signature"),
    ("rpc", "MemoryListener", "reached through a public signature"),
    ("xml", "ParseXmlErrorKind", "reached through a public signature"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|entry| entry.path()) {
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The product crate whose library holds `path` (relative to the root);
/// `None` for tests, examples, the benchmark and binaries (`main.rs`,
/// `*_main.rs`), which use a library from outside.
fn owning_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    let file = rest.strip_prefix("src/")?;
    let binary = file == "main.rs" || file.ends_with("_main.rs");
    (!binary).then_some(krate)
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The identifiers a file's code names, and those its doctests name (a
/// doctest is compiled outside its crate).
fn names(text: &str) -> (HashSet<&str>, HashSet<&str>) {
    let (mut code, mut doctests) = (HashSet::new(), HashSet::new());
    let mut in_doctest = false;
    for line in text.lines() {
        let line = line.trim_start();
        match line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        {
            Some(doc) if doc.trim_start().starts_with("```") => in_doctest = !in_doctest,
            Some(doc) if in_doctest => doctests.extend(identifiers(doc)),
            Some(_) => {}
            None => code.extend(identifiers(line.split("//").next().unwrap_or_default())),
        }
    }
    (code, doctests)
}

/// The name a line declares `pub`, if it declares one.
fn declared(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let kinds = [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const fn ",
        "const ",
        "static ",
        "mod ",
    ];
    let rest = kinds.iter().find_map(|kind| rest.strip_prefix(kind))?;
    identifiers(rest).next()
}

/// `(line, name)` of every `pub` declaration of one library file.
fn declarations(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skipped_depth = 0i64;
    for (index, line) in text.lines().enumerate() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let braces = line.matches('{').count() as i64 - line.matches('}').count() as i64;
        if skipped_depth > 0 {
            skipped_depth += braces;
        } else if line.contains("macro_rules!") || line.contains("xdr_struct!") {
            skipped_depth = braces;
        } else if let Some(name) = declared(line) {
            out.push((index + 1, name));
        }
    }
    out
}

/// Every `pub` item no code outside its crate names, as `crate::item` →
/// where it is declared.
fn named_nowhere_else(files: &[(String, String)]) -> BTreeMap<String, String> {
    let mut named_by: HashMap<&str, HashSet<Option<&str>>> = HashMap::new();
    for (path, text) in files {
        let (code, doctests) = names(text);
        for name in code {
            named_by.entry(name).or_default().insert(owning_crate(path));
        }
        for name in doctests {
            named_by.entry(name).or_default().insert(None);
        }
    }
    let mut unnamed = BTreeMap::new();
    for (path, text) in files {
        let Some(krate) = owning_crate(path) else {
            continue;
        };
        for (line, name) in declarations(text) {
            let named_outside = named_by
                .get(name)
                .is_some_and(|owners| owners.iter().any(|owner| *owner != Some(krate)));
            if !named_outside {
                unnamed.insert(format!("{krate}::{name}"), format!("{path}:{line}"));
            }
        }
    }
    unnamed
}

fn workspace_files() -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for dir in [
        "crates",
        "tests",
        "examples",
        "src",
        "virt_bench/src",
        "virt_bench/tests",
    ] {
        rust_files(&root().join(dir), &mut paths);
    }
    // This file lists the surface; it does not use it.
    paths.retain(|path| !path.ends_with(file!()));
    paths
        .iter()
        .map(|path| {
            let relative = path.strip_prefix(root()).expect("under the root");
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (relative.to_string_lossy().into_owned(), text)
        })
        .collect()
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let unnamed = named_nowhere_else(&workspace_files());
    let listed: BTreeMap<String, &str> = NAMED_NOWHERE_ELSE
        .iter()
        .map(|(krate, item, why)| (format!("{krate}::{item}"), *why))
        .collect();
    let unlisted: Vec<String> = unnamed
        .iter()
        .filter(|(item, _)| !listed.contains_key(*item))
        .map(|(item, at)| format!("{item} ({at})"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "pub items no code outside their crate names: make each pub(crate) or delete it, \
         or list why it must stay public in NAMED_NOWHERE_ELSE\n  {}",
        unlisted.join("\n  ")
    );
    let stale: Vec<&String> = listed
        .keys()
        .filter(|item| !unnamed.contains_key(*item))
        .collect();
    assert!(
        stale.is_empty(),
        "NAMED_NOWHERE_ELSE lists items that outside code names, or that are gone: {stale:?}"
    );
}

#[test]
fn an_item_only_its_own_crate_names_is_reported() {
    let lib = "pub struct Used;\n\
               pub fn lonely() {}\n\
               pub(crate) fn inner() {}\n\
               /// ```\n\
               /// demo::shown();\n\
               /// ```\n\
               pub fn shown() {}\n\
               pub fn run() {}\n\
               macro_rules! m {\n    () => { pub fn generated() {} };\n}\n\
               #[cfg(test)]\n\
               pub fn helper() {}\n";
    let files = [
        ("crates/demo/src/lib.rs", lib),
        ("crates/demo/src/main.rs", "fn main() { demo::run() }\n"),
        ("tests/demo.rs", "use demo::Used; // lonely\n"),
    ]
    .map(|(path, text)| (path.to_string(), text.to_string()));
    let unnamed = named_nowhere_else(&files);
    assert_eq!(unnamed.keys().collect::<Vec<_>>(), ["demo::lonely"]);
    assert_eq!(unnamed["demo::lonely"], "crates/demo/src/lib.rs:2");
}
