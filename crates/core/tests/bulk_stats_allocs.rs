//! Allocation audit of the bulk-stats codec (release mode, like
//! `virt-rpc`'s `framing_hotpath`).
//!
//! A 1000-domain reply used to cost ~9 allocations per record on the
//! daemon and ~8 on the client, nearly all of them field-name `String`s.
//! With borrowed field names what is left is what the record shape
//! demands: per record, one name and one parameter `Vec` on decode, and
//! nothing on encode beyond the one output buffer.

use virt_core::driver::{DomainRecord, DomainState, DomainStatsRecord};
use virt_core::job::JobStats;
use virt_core::protocol::{DomainStatsReply, WireDomainStatsList};
use virt_core::Uuid;
use virt_rpc::xdr::{XdrDecode, XdrEncode};

#[path = "support/counting.rs"]
mod counting;
use counting::count_allocations;

const RECORDS: usize = 1000;
/// One-off allocations tolerated on top of the per-record budget (the
/// output buffer, the list itself, lazily initialised runtime state).
const SLACK: u64 = 16;

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
