//! Allocation audit of the bulk-stats path (release mode, like
//! `virt-rpc`'s `framing_hotpath`).
//!
//! A daemon answers a bulk-stats call by writing each domain's row into
//! the reply while the embedded driver visits its host's table: the
//! parameters are built on the stack and no record is kept, so the
//! allocations of a reply do not grow with the domain count. (A reply
//! built from a record per domain costs at least two allocations each:
//! the name and the parameter `Vec`.)
//!
//! Collecting records is what the record shape demands: one name and one
//! parameter `Vec` per record when they are composed or decoded, and
//! nothing on encode beyond the one output buffer.

use std::sync::Arc;

use hypersim::personality::QemuLike;
use hypersim::{DomainSpec, LatencyModel, SimHost};
use virt_core::driver::{DomainRecord, DomainState, DomainStatsRecord, HypervisorConnection};
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::job::JobStats;
use virt_core::protocol::{DomainStatsReply, StatsListWriter, WireDomainStatsList};
use virt_core::Uuid;
use virt_rpc::xdr::{XdrDecode, XdrEncode};

#[path = "support/counting.rs"]
mod counting;
use counting::count_allocations;

const RECORDS: usize = 1000;
/// One-off allocations tolerated on top of the per-record budget (the
/// output buffer, the list itself, lazily initialised runtime state).
const SLACK: u64 = 16;

/// A quiet host of `domains` domains, 48 of them running, none with job
/// history — the benchmark's monitoring host, at any size.
fn embedded_host(domains: usize) -> Arc<EmbeddedConnection> {
    let host = SimHost::builder("allocs")
        .personality(QemuLike)
        .cpus(64)
        .memory_mib(1 << 22)
        .latency(LatencyModel::zero())
        .seed(1)
        .build();
    for i in 0..domains {
        let name = format!("vm-{i:04}-{}", "x".repeat(i % 7));
        host.define_domain(DomainSpec::new(&name).memory_mib(64).vcpus(1))
            .unwrap();
        if i < 48 {
            host.start_domain(&name).unwrap();
        }
    }
    EmbeddedConnection::new(host, "qemu:///system")
}

/// One reply the way the daemon writes it: reserved at the length of the
/// last one, then filled by the driver's visitor through the stats-list
/// writer.
fn daemon_reply(conn: &EmbeddedConnection, last_len: usize) -> Vec<u8> {
    let mut reply = Vec::with_capacity(last_len);
    let mut list = StatsListWriter::new(&mut reply);
    conn.for_each_domain_stats(&mut |name, params| list.push(name, params))
        .unwrap();
    list.finish();
    reply
}

#[test]
fn a_daemon_reply_allocates_nothing_per_domain() {
    let mut allocations = Vec::new();
    for domains in [100, RECORDS] {
        let conn = embedded_host(domains);
        // The first reply finds the fault plan's counters and the reply
        // length still to be learnt, as a daemon's first one does.
        let first = daemon_reply(&conn, 0);
        let (reply, n) = count_allocations(|| daemon_reply(&conn, first.len()));
        assert_eq!(reply, first);
        assert_eq!(
            reply,
            DomainStatsReply(&conn.get_all_domain_stats().unwrap()).to_xdr()
        );
        assert!(
            n <= SLACK,
            "a {domains}-domain reply allocated {n} times; rows are meant to go \
             straight into the reserved reply"
        );
        allocations.push(n);
    }
    assert_eq!(
        allocations[0], allocations[1],
        "a reply's allocations grew with the domain count (100 vs {RECORDS} domains)"
    );
}

#[test]
fn collecting_from_the_visitor_allocates_at_most_twice_per_record() {
    let conn = embedded_host(RECORDS);
    conn.get_all_domain_stats().unwrap();
    let (records, n) = count_allocations(|| conn.get_all_domain_stats().unwrap());
    assert_eq!(records.len(), RECORDS);
    let budget = 2 * RECORDS as u64 + SLACK;
    assert!(
        n <= budget,
        "collecting {RECORDS} records allocated {n} times (budget {budget})"
    );
}

#[test]
fn bulk_stats_codec_allocates_at_most_twice_per_record() {
    let idle = JobStats::default();
    let records: Vec<DomainStatsRecord> = (0..RECORDS)
        .map(|i| {
            let domain = DomainRecord {
                name: format!("vm-{i:04}-{}", "x".repeat(i % 7)),
                uuid: Uuid::from_bytes([7; 16]),
                id: None,
                state: DomainState::Shutoff,
                memory_mib: 64,
                max_memory_mib: 64,
                vcpus: 1,
                persistent: true,
                has_managed_save: false,
                autostart: false,
                cpu_time_ns: 0,
            };
            DomainStatsRecord::compose(&domain, &idle)
        })
        .collect();

    let (payload, encode_allocations) = count_allocations(|| DomainStatsReply(&records).to_xdr());
    assert!(
        encode_allocations <= SLACK,
        "encoding {RECORDS} records allocated {encode_allocations} times; \
         the reply buffer is meant to be reserved once"
    );

    let (decoded, decode_allocations) =
        count_allocations(|| WireDomainStatsList::from_xdr(&payload).expect("decode"));
    assert_eq!(decoded.0.len(), RECORDS);
    assert_eq!(decoded.0[17].params.0, records[17].params);
    let budget = 2 * RECORDS as u64 + SLACK;
    assert!(
        encode_allocations + decode_allocations <= budget,
        "encode + decode of {RECORDS} records allocated {} times (budget {budget}); \
         a per-parameter allocation is back",
        encode_allocations + decode_allocations
    );
}
