//! Allocation audit of the define path's XML decode (release mode, like
//! `bulk_stats_allocs`). Counts, not time: they hold on a loaded machine.
//!
//! `DOMAIN_DEFINE_XML` hands the daemon a domain description; what the
//! daemon keeps of it is a `DomainConfig`. The decode reads a borrowed view
//! of the request (`virt_xml::Document`), so it allocates the strings and
//! vectors the config keeps plus a small constant for the view's arena and
//! the tokenizer's two stacks — nothing is built to be thrown away.
//!
//! Before the tokenizer (commit 344efce) the same call went through an
//! owned `Element` tree that was dropped on return: on the 4-disk workload
//! document below `DomainConfig::from_xml_str` allocated 198 times, 175 of
//! them in `Element::parse` for a config that keeps 14 strings. The second
//! test holds `Element::parse` itself — still the way to get a tree — to no
//! more than it cost then (it costs 127 now: each name is allocated once,
//! no close tag allocates, and text arrives as one run).

use virt_core::xmlfmt::{DiskConfig, DomainConfig};
use virt_xml::Element;

#[path = "support/counting.rs"]
mod counting;
use counting::count_allocations;

const DISKS: usize = 4;
/// What the config keeps: its name and type, three strings per disk, and
/// the disk and interface vectors.
const KEPT: u64 = 2 + 3 * DISKS as u64 + 2;
/// What the decode may allocate on top: the arena, the tokenizer's stack
/// of open names and its list of attribute names on the current tag, and
/// room for one regrowth of each.
const ARENA: u64 = 8;
/// `Element::parse` of the same document at commit 344efce.
const TREE_BEFORE: u64 = 175;

/// The 4-disk document of `virt_bench`'s `lifecycle_unix` ring.
fn workload_document() -> (DomainConfig, String) {
    let name = "c0-1a2b-0003";
    let mut config = DomainConfig::new(name, 64, 1);
    for i in 0..DISKS {
        config.disks.push(DiskConfig {
            target: format!("vd{i}"),
            source: format!("/var/lib/virt/images/{name}-disk-{i}.qcow2"),
            capacity_mib: 1024,
            bus: "virtio".to_string(),
        });
    }
    let document = config.to_xml_string();
    (config, document)
}

#[test]
fn define_decode_allocates_what_the_config_keeps() {
    let (config, document) = workload_document();
    assert_eq!(document.len(), 880, "the workload's 4-disk document");
    let (decoded, allocations) = count_allocations(|| DomainConfig::from_xml_str(&document));
    assert_eq!(decoded.expect("own document decodes"), config);
    assert!(
        allocations <= KEPT + ARENA,
        "decoding the {}-byte document allocated {allocations} times \
         (budget {KEPT} kept + {ARENA}); something is built to be thrown away again",
        document.len()
    );
}

#[test]
fn the_owned_tree_costs_no_more_than_it_did() {
    let (_, document) = workload_document();
    let (tree, allocations) = count_allocations(|| Element::parse(&document));
    assert_eq!(tree.expect("own document parses").children().count(), 6);
    assert!(
        allocations <= TREE_BEFORE,
        "Element::parse allocated {allocations} times, {TREE_BEFORE} before the tokenizer"
    );
}
