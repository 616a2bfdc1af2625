//! The embedded driver's one-pass `get_all_domain_stats` against the
//! trait default it replaces (`compose_all_domain_stats`: list, then
//! query each domain's job stats).
//!
//! The override is a faster way to produce *the same answer at the same
//! simulated price*: identical records in identical order, and an
//! identical charge to the host's virtual clock and fault plan. Each case
//! builds the same host twice from one script, runs the reference on one
//! copy and the override on the other, and compares everything.

use std::sync::Arc;
use std::time::Duration;

use hypersim::latency::OpCost;
use hypersim::personality::{EsxLike, LxcLike, QemuLike, XenLike};
use hypersim::{DomainSpec, FaultAction, FaultPlan, LatencyModel, OpKind, SimHost};
use proptest::prelude::*;
use virt_core::driver::{compose_all_domain_stats, DomainStatsRecord, HypervisorConnection};
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::job::{JobKind, JobProgress, JobTicket};
use virt_core::typedparam::stats_field;
use virt_core::VirtResult;

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
/// tell.
#[derive(Debug, PartialEq)]
struct Observed {
    records: Result<Vec<DomainStatsRecord>, String>,
    clock_delta: Duration,
    list_charges: u64,
    query_charges: u64,
}

fn observe(
    built: &Built,
    call: impl FnOnce(&EmbeddedConnection) -> VirtResult<Vec<DomainStatsRecord>>,
) -> Observed {
    let plan = built.host.fault_plan();
    let before = built.host.clock().now();
    let lists = plan.occurrences(OpKind::ListDomains);
    let queries = plan.occurrences(OpKind::QueryDomain);
    let records = call(&built.conn).map_err(|e| e.to_string());
    Observed {
        records,
        clock_delta: built.host.clock().now().saturating_duration_since(before),
        list_charges: plan.occurrences(OpKind::ListDomains) - lists,
        query_charges: plan.occurrences(OpKind::QueryDomain) - queries,
    }
}

/// Runs the reference on one copy and the override on another and
/// requires them to be indistinguishable. `faults` is asked for the plan
/// given the number of `ListDomains`/`QueryDomain` charges the script
/// itself spends, so injected occurrences can land inside the bulk call.
fn assert_equivalent(
    personality: &str,
    latency: &LatencyModel,
    script: &[DomainScript],
    faults: impl Fn(u64, u64) -> FaultPlan,
) -> Observed {
    let probe = build(personality, latency.clone(), FaultPlan::new(), script);
    let lists = probe.host.fault_plan().occurrences(OpKind::ListDomains);
    let queries = probe.host.fault_plan().occurrences(OpKind::QueryDomain);

    let reference = build(personality, latency.clone(), faults(lists, queries), script);
    let overridden = build(personality, latency.clone(), faults(lists, queries), script);
    let expected = observe(&reference, compose_all_domain_stats);
    let actual = observe(&overridden, HypervisorConnection::get_all_domain_stats);
    assert_eq!(actual, expected, "{personality} host, script {script:?}");
    actual
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
            let records = seen.records.unwrap();
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
            prop_assert_eq!(seen.records.unwrap().len(), script.len());
            prop_assert_eq!(seen.list_charges, 1);
            let without_history = script
                .iter()
                .filter(|d| matches!(d.history, History::None))
                .count() as u64;
            prop_assert_eq!(seen.query_charges, without_history);
            prop_assert!(seen.clock_delta >= Duration::from_micros(560), "list charge landed");
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
        assert!(seen.records.is_err());
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
    let records = seen.records.unwrap();
    let has_job = |r: &DomainStatsRecord| r.params.iter().any(|p| p.field == stats_field::JOB_KIND);
    assert_eq!(records[0].name, "vm-01");
    assert!(!has_job(&records[0]));
    assert!(has_job(&records[1]));
}
