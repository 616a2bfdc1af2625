//! The embedded driver's one-pass bulk-stats visitor against the
//! reference it replaces (`compose_all_domain_stats`: list, then query
//! each domain's job stats), and the remote driver against the embedded
//! one.
//!
//! The visitor is a faster way to produce *the same answer at the same
//! simulated price*: identical rows in identical order — the reply a
//! daemon writes from it is byte for byte the reply of the reference's
//! records — and an identical charge to the host's virtual clock and
//! fault plan, its batched `QueryDomain` charge included. Each case
//! builds the same host three times from one script, runs the reference,
//! the visitor into the daemon's stats-list writer, and the collecting
//! `get_all_domain_stats` on one copy each, and compares everything.

use std::sync::Arc;
use std::time::Duration;

use hypersim::latency::OpCost;
use hypersim::personality::{EsxLike, LxcLike, QemuLike, XenLike};
use hypersim::{DomainSpec, FaultAction, FaultPlan, LatencyModel, OpKind, SimHost};
use proptest::prelude::*;
use virt_core::driver::{compose_all_domain_stats, DomainStatsRecord, HypervisorConnection};
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::job::{JobKind, JobProgress, JobTicket};
use virt_core::protocol::{DomainStatsReply, StatsListWriter, WireDomainStatsList};
use virt_core::typedparam::stats_field;
use virt_core::{Connect, VirtResult};
use virt_rpc::xdr::{XdrDecode, XdrEncode};

const PERSONALITIES: [&str; 4] = ["qemu", "xen", "lxc", "esx"];

/// Where the script leaves one domain.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Defined,
    Running,
    Paused,
    Saved,
    Transient,
}

/// Job history the script gives a domain.
#[derive(Debug, Clone, Copy)]
enum History {
    None,
    Completed,
    Failed,
    Running,
}

#[derive(Debug, Clone)]
struct DomainScript {
    shape: Shape,
    memory_mib: u64,
    vcpus: u32,
    history: History,
}

fn domain_script() -> impl Strategy<Value = DomainScript> {
    (
        prop_oneof![
            Just(Shape::Defined),
            Just(Shape::Running),
            Just(Shape::Paused),
            Just(Shape::Saved),
            Just(Shape::Transient),
        ],
        1u64..64,
        1u32..4,
        // Job history is rare on a real host; one domain in five here.
        prop_oneof![
            Just(History::None),
            Just(History::None),
            Just(History::None),
            Just(History::None),
            prop_oneof![
                Just(History::Completed),
                Just(History::Failed),
                Just(History::Running),
            ],
        ],
    )
        .prop_map(|(shape, memory, vcpus, history)| DomainScript {
            shape,
            memory_mib: memory * 16,
            vcpus,
            history,
        })
}

/// One built copy of the scripted host. Tickets of running jobs are held
/// so they stay running for the comparison.
struct Built {
    host: SimHost,
    conn: Arc<EmbeddedConnection>,
    _running: Vec<JobTicket>,
}

fn build(
    personality: &str,
    latency: LatencyModel,
    faults: FaultPlan,
    script: &[DomainScript],
) -> Built {
    let builder = SimHost::builder("equiv")
        .cpus(64)
        .memory_mib(1 << 20)
        .latency(latency)
        .faults(faults)
        .seed(7);
    let host = match personality {
        "qemu" => builder.personality(QemuLike),
        "xen" => builder.personality(XenLike),
        "lxc" => builder.personality(LxcLike),
        _ => builder.personality(EsxLike),
    }
    .build();
    let conn = EmbeddedConnection::new(host.clone(), format!("{personality}:///system"));
    let mut running = Vec::new();
    for (i, domain) in script.iter().enumerate() {
        // Reverse-numbered names: definition order is not name order.
        let name = format!("vm-{:02}", script.len() - i);
        let spec = DomainSpec::new(&name)
            .memory_mib(domain.memory_mib)
            .vcpus(domain.vcpus);
        // A personality may refuse a step (no save on some); the domain
        // then stays where the previous step left it — on both copies.
        match domain.shape {
            Shape::Defined => {
                host.define_domain(spec).unwrap();
            }
            Shape::Running | Shape::Paused | Shape::Saved => {
                host.define_domain(spec).unwrap();
                host.start_domain(&name).unwrap();
                if matches!(domain.shape, Shape::Paused) {
                    let _ = host.suspend_domain(&name);
                }
                if matches!(domain.shape, Shape::Saved) {
                    let _ = host.save_domain(&name);
                }
            }
            Shape::Transient => {
                host.create_domain(spec.transient()).unwrap();
            }
        }
        let begin = |kind| {
            let ticket = conn.jobs().begin(&name, kind).unwrap();
            ticket.update(JobProgress {
                elapsed_ms: 40 + i as u64,
                total_mib: domain.memory_mib,
                processed_mib: domain.memory_mib / 2,
                remaining_mib: domain.memory_mib / 4,
                iterations: 2,
            });
            ticket
        };
        match domain.history {
            History::None => {}
            History::Completed => begin(JobKind::Save).complete(),
            History::Failed => begin(JobKind::Migration).fail("link dropped"),
            History::Running => running.push(begin(JobKind::Migration)),
        }
    }
    Built {
        host,
        conn,
        _running: running,
    }
}

/// What one bulk call did, as far as anything outside the driver can
/// tell: the reply payload a daemon would send, and the charges.
#[derive(Debug, PartialEq)]
struct Observed {
    reply: Result<Vec<u8>, String>,
    clock_delta: Duration,
    list_charges: u64,
    query_charges: u64,
}

impl Observed {
    fn records(&self) -> Vec<DomainStatsRecord> {
        let reply = self.reply.as_ref().expect("the bulk call succeeded");
        let list = WireDomainStatsList::from_xdr(reply).expect("the reply decodes");
        list.0
            .into_iter()
            .map(|r| DomainStatsRecord {
                name: r.name,
                params: r.params.0,
            })
            .collect()
    }
}

fn observe(
    built: &Built,
    call: impl FnOnce(&EmbeddedConnection) -> VirtResult<Vec<u8>>,
) -> Observed {
    let plan = built.host.fault_plan();
    let before = built.host.clock().now();
    let lists = plan.occurrences(OpKind::ListDomains);
    let queries = plan.occurrences(OpKind::QueryDomain);
    let reply = call(&built.conn).map_err(|e| e.to_string());
    Observed {
        reply,
        clock_delta: built.host.clock().now().saturating_duration_since(before),
        list_charges: plan.occurrences(OpKind::ListDomains) - lists,
        query_charges: plan.occurrences(OpKind::QueryDomain) - queries,
    }
}

/// The reference: the records composed from the per-domain entry
/// points, encoded as one reply.
fn reference_reply(conn: &EmbeddedConnection) -> VirtResult<Vec<u8>> {
    Ok(DomainStatsReply(&compose_all_domain_stats(conn)?).to_xdr())
}

/// What the daemon does: the driver's visitor writing each row into the
/// reply.
fn visited_reply(conn: &EmbeddedConnection) -> VirtResult<Vec<u8>> {
    let mut reply = Vec::new();
    let mut list = StatsListWriter::new(&mut reply);
    conn.for_each_domain_stats(&mut |name, params| list.push(name, params))?;
    list.finish();
    Ok(reply)
}

/// The collecting path, encoded the reference's way.
fn collected_reply(conn: &EmbeddedConnection) -> VirtResult<Vec<u8>> {
    Ok(DomainStatsReply(&conn.get_all_domain_stats()?).to_xdr())
}

/// Runs the reference, the visitor and the collecting path on a copy of
/// the host each and requires them to be indistinguishable. `faults` is
/// asked for the plan given the number of `ListDomains`/`QueryDomain`
/// charges the script itself spends, so injected occurrences can land
/// inside the bulk call.
fn assert_equivalent(
    personality: &str,
    latency: &LatencyModel,
    script: &[DomainScript],
    faults: impl Fn(u64, u64) -> FaultPlan,
) -> Observed {
    let probe = build(personality, latency.clone(), FaultPlan::new(), script);
    let lists = probe.host.fault_plan().occurrences(OpKind::ListDomains);
    let queries = probe.host.fault_plan().occurrences(OpKind::QueryDomain);

    let twin = || build(personality, latency.clone(), faults(lists, queries), script);
    let expected = observe(&twin(), reference_reply);
    let visited = observe(&twin(), visited_reply);
    let collected = observe(&twin(), collected_reply);
    assert_eq!(
        visited, expected,
        "visitor: {personality} host, script {script:?}"
    );
    assert_eq!(
        collected, expected,
        "collect: {personality} host, script {script:?}"
    );
    visited
}

/// A model where every charge is visible on the clock, with jitter so the
/// *order* of samples matters too.
fn costly() -> LatencyModel {
    LatencyModel::with_default(OpCost::fixed(50))
        .set(OpKind::ListDomains, OpCost::fixed(700))
        .set(OpKind::QueryDomain, OpCost::fixed(90))
        .with_jitter(20, 11)
}

proptest! {
    #[test]
    fn override_matches_the_default_on_quiet_hosts(
        script in proptest::collection::vec(domain_script(), 0..12),
    ) {
        for personality in PERSONALITIES {
            let seen = assert_equivalent(personality, &LatencyModel::zero(), &script, |_, _| {
                FaultPlan::new()
            });
            let records = seen.records();
            prop_assert_eq!(records.len(), script.len());
            prop_assert!(records.windows(2).all(|w| w[0].name < w[1].name), "name-ordered");
        }
    }

    #[test]
    fn override_charges_the_clock_and_the_fault_plan_like_the_default(
        script in proptest::collection::vec(domain_script(), 1..12),
        failed_query in 1u64..12,
        hung_query in 1u64..12,
    ) {
        for personality in PERSONALITIES {
            let seen = assert_equivalent(personality, &costly(), &script, |_, queries| {
                FaultPlan::new()
                    .fail_on(OpKind::QueryDomain, queries + failed_query)
                    .inject(
                        OpKind::QueryDomain,
                        queries + hung_query,
                        FaultAction::Hang(Duration::from_millis(3)),
                    )
            });
            // An injected query failure drops no record.
            prop_assert_eq!(seen.records().len(), script.len());
            prop_assert_eq!(seen.list_charges, 1);
            let without_history = script
                .iter()
                .filter(|d| matches!(d.history, History::None))
                .count() as u64;
            prop_assert_eq!(seen.query_charges, without_history);
            prop_assert!(seen.clock_delta >= Duration::from_micros(560), "list charge landed");
        }
    }

    /// The batched `QueryDomain` charge against single ones where only
    /// queries cost anything: every jitter draw of the host is a query's,
    /// so the batch must draw the same values in the same order, and the
    /// `Hang`s of every occurrence in the range — scheduled or `always`,
    /// scheduled first — must all land on the clock.
    #[test]
    fn batched_queries_draw_the_jitter_and_hang_like_single_ones(
        script in proptest::collection::vec(domain_script(), 1..24),
        jitter in 1u8..=100,
        seed in any::<u64>(),
        always_hang_us in prop_oneof![Just(0u64), 1u64..500],
        hangs in proptest::collection::vec((1u64..24, 1u64..5_000), 0..4),
        failed_query in 1u64..24,
    ) {
        let latency = LatencyModel::with_default(OpCost::fixed(0))
            .set(OpKind::QueryDomain, OpCost::fixed(90))
            .with_jitter(jitter, seed);
        for personality in PERSONALITIES {
            let seen = assert_equivalent(personality, &latency, &script, |_, queries| {
                let mut plan = FaultPlan::new().fail_on(OpKind::QueryDomain, queries + failed_query);
                for &(at, extra_us) in &hangs {
                    plan = plan.inject(
                        OpKind::QueryDomain,
                        queries + at,
                        FaultAction::Hang(Duration::from_micros(extra_us)),
                    );
                }
                if always_hang_us > 0 {
                    plan = plan.always(
                        OpKind::QueryDomain,
                        FaultAction::Hang(Duration::from_micros(always_hang_us)),
                    );
                }
                plan
            });
            prop_assert_eq!(seen.records().len(), script.len());
        }
    }
}

#[test]
fn a_failed_list_fails_both_the_same_way() {
    let script = [DomainScript {
        shape: Shape::Running,
        memory_mib: 64,
        vcpus: 1,
        history: History::None,
    }];
    for personality in PERSONALITIES {
        let seen = assert_equivalent(personality, &costly(), &script, |lists, _| {
            FaultPlan::new().fail_on(OpKind::ListDomains, lists + 1)
        });
        assert!(seen.reply.is_err());
        assert_eq!((seen.list_charges, seen.query_charges), (1, 0));
    }
}

#[test]
fn job_fields_appear_only_with_history() {
    let running = |history| DomainScript {
        shape: Shape::Running,
        memory_mib: 64,
        vcpus: 1,
        history,
    };
    // Scripted first is named last: vm-02 has the completed job.
    let script = [running(History::Completed), running(History::None)];
    let seen = assert_equivalent("qemu", &costly(), &script, |_, _| FaultPlan::new());
    let records = seen.records();
    let has_job = |r: &DomainStatsRecord| r.params.iter().any(|p| p.field == stats_field::JOB_KIND);
    assert_eq!(records[0].name, "vm-01");
    assert!(!has_job(&records[0]));
    assert!(has_job(&records[1]));
}

/// The remote driver reads, row for row, what the daemon's embedded
/// driver visits: an in-process daemon behind `qemu+memory://`, a host
/// with running, paused and idle domains and one with job history.
#[test]
fn the_remote_driver_reads_the_rows_the_embedded_driver_visits() {
    let endpoint = format!("bulk-stats-equivalence-{}", std::process::id());
    let daemon = virtd::Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let host = daemon.host("qemu").unwrap();
    for i in 0..40 {
        let name = format!("vm-{i:02}");
        host.define_domain(DomainSpec::new(&name).memory_mib(64 + i).vcpus(1))
            .unwrap();
        if i % 3 == 0 {
            host.start_domain(&name).unwrap();
        }
        if i % 9 == 0 {
            host.suspend_domain(&name).unwrap();
        }
    }
    let local = daemon.driver("qemu").unwrap();
    local
        .jobs()
        .begin("vm-07", JobKind::Save)
        .unwrap()
        .complete();

    let remote = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    let mut expected = Vec::new();
    local
        .for_each_domain_stats(&mut |name, params| {
            expected.push((name.to_string(), params.to_vec()));
        })
        .unwrap();
    let mut read = Vec::new();
    remote
        .for_each_domain_stats(&mut |name, params| {
            read.push((name.to_string(), params.to_vec()));
        })
        .unwrap();
    assert_eq!(read.len(), 40);
    assert_eq!(read, expected);
    let collected: Vec<_> = remote
        .get_all_domain_stats()
        .unwrap()
        .into_iter()
        .map(|r| (r.name, r.params))
        .collect();
    assert_eq!(collected, expected);
    assert!(read[7].1.iter().any(|p| p.field == stats_field::JOB_KIND));
    remote.close();
    daemon.shutdown();
}
