//! One benchmark run: repeated set-up, the timed window cut into
//! slices, the end-of-run checks, and the assembly of the metrics the
//! catalogue promises.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::catalogue::{self, END_TO_END, SLICES};
use crate::child::{Metrics, Workdir};
use crate::layers;
use crate::stats::{
    last_allowed_cpu, median, sample_process, sample_steal, slice_spread_pct, slice_stats,
    ProcSample, SliceStats,
};
use crate::trace;
use crate::workloads::{Kind, Outcome, Workload};

/// Set-ups timed per run; `setup_s` is their median. The last one's
/// daemon is the one the window runs against.
const SETUP_REPETITIONS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Kind,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// The per-layer pass instead of the end-to-end one.
    pub trace: bool,
    /// One set-up with a tenth of the warm-up: keeps the harness from
    /// rotting under `cargo test`, measures nothing worth keeping.
    pub smoke: bool,
}

/// The result line of one run.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Whether every unit and every check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalogue::unit_of(name).expect("metric is in the catalogue");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where the harness keeps its scratch files: `<target>/virt_bench`,
/// found from the location of the running executable
/// (`<target>/release/virt_bench`).
fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(|profile| profile.parent())
        .map(|target| target.join("virt_bench"))
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process — and the daemon children it will spawn, which
/// inherit the mask — to one CPU: the highest-numbered one it is allowed
/// on, away from the boot CPU's interrupt load.
///
/// The reference machine is a 2-vCPU Firecracker guest. Left on both
/// CPUs, every hop between client and daemon wakes a halted vCPU, and
/// the cost of that wake-up is not the program's: it reads ~5 us for the
/// first CPU-seconds after an idle spell and ~35 us from then on, so one
/// run of `small_call_unix` reported 58 k calls/s in its first slice and
/// 11 k in the other five, a set-up took 0.18 s or 0.9 s, and between
/// runs the steady regime itself drifted by +-8 %. On one CPU a hop is a
/// context switch, nothing halts while there is work, and four runs
/// agreed within +-0.7 % (74.9 k-75.9 k calls/s) — while every workload
/// got *faster* (pipelined 110 k -> 160 k calls/s, daemon CPU per call
/// 10 -> 3.9 us), because cross-CPU wake-ups and cache traffic cost
/// more here than the second CPU gives. The price: parallel speed-up
/// and lock contention are invisible to this benchmark.
fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let cpu = last_allowed_cpu(&status).ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut mask = [0u64; 16];
    let word = mask.get_mut(cpu / 64).ok_or(format!(
        "cpu {cpu} is beyond the 1024 this harness can name"
    ))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed; the call only reads it.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Counters read on both sides of a window.
struct Snapshot {
    at: Instant,
    daemon: ProcSample,
    harness: ProcSample,
    steal: (u64, u64),
    metrics: Option<Metrics>,
}

impl Snapshot {
    fn take(workload: &dyn Workload, with_metrics: bool) -> Result<Snapshot, String> {
        Ok(Snapshot {
            metrics: with_metrics
                .then(|| workload.daemon().metrics())
                .transpose()?,
            daemon: workload.daemon().proc_sample()?,
            harness: sample_process("self").map_err(|e| format!("sample /proc/self: {e}"))?,
            steal: sample_steal(),
            at: Instant::now(),
        })
    }
}

fn describe_slices(label: &str, slices: &[SliceStats]) {
    for (i, s) in slices.iter().enumerate() {
        eprintln!(
            "virt_bench:   {label} slice {i}: {} units, {:.0} ops/s, p50 {:.1} us, p{:.0} {:.1} us \
             ({} samples beyond it)",
            s.units,
            s.ops_per_s,
            s.p50_us,
            s.tail_pct,
            s.tail_us,
            s.units - (s.tail_pct / 100.0 * s.units as f64).ceil() as usize,
        );
    }
}

fn medians(slices: &[SliceStats]) -> (f64, f64, f64) {
    let of = |f: fn(&SliceStats) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    (of(|s| s.ops_per_s), of(|s| s.p50_us), of(|s| s.tail_us))
}

/// Runs one workload once.
///
/// # Errors
///
/// The harness itself failed (daemon did not start, `/proc` unreadable,
/// a layer refused generated input). Failed units and checks are not
/// errors: they are counted in the report.
pub fn run(options: Options) -> Result<Report, String> {
    let out_dir = output_dir()?;
    let work = Workdir::enter(&out_dir)?;
    let kind = options.workload;
    // Once per process: after pinning, the parallelism left is 1.
    static PINNED: std::sync::OnceLock<Result<(usize, usize), String>> = std::sync::OnceLock::new();
    let (nproc, cpu) = PINNED
        .get_or_init(|| {
            let nproc = std::thread::available_parallelism().map_or(0, usize::from);
            pin_to_one_cpu().map(|cpu| (nproc, cpu))
        })
        .clone()?;
    // The machine facts a result is only comparable under.
    eprintln!(
        "virt_bench: {} seed {} trace {} | window {} s in {SLICES} slices | nproc {nproc}, pinned \
         to cpu {cpu} | kernel {} | {} build | state directories on {}",
        kind.name(),
        options.seed,
        u8::from(options.trace),
        options.seconds,
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        work.filesystem(),
    );

    // Set-up, timed: spawn → ready → populate → connect → fixed warm-up.
    let (repetitions, warmup_scale) = if options.smoke {
        (1, 0.1)
    } else {
        (SETUP_REPETITIONS, 1.0)
    };
    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..repetitions {
        if let Some(previous) = workload.take() {
            previous.teardown()?;
        }
        let start = Instant::now();
        workload = Some(kind.setup(&work, options.seed, warmup_scale)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    eprintln!("virt_bench:   set-ups: {setups:.3?} s");

    let window = Duration::from_secs_f64(options.seconds);
    let slice = window / SLICES as u32;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut failed);

    if options.trace {
        // Two slices untraced, two traced (their ratio is the tracing
        // overhead), and the remaining third of the time on the
        // micro-measurements. Counters are read around the four slices.
        let before = Snapshot::take(workload.as_ref(), true)?;
        let plain = workload.run(slice * 2, None);
        let traced = workload.run(slice * 2, Some(workload.trace_every()));
        let after = Snapshot::take(workload.as_ref(), true)?;
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;

        let plain_slices = slice_stats(&plain.samples, 2, slice);
        let traced_slices = slice_stats(&traced.samples, 2, slice);
        describe_slices("untraced", &plain_slices);
        describe_slices("traced", &traced_slices);
        write_trace(&out_dir, kind, &traced)?;

        let units = (plain.samples.len() + traced.samples.len()).max(1) as f64;
        workload_layers(&before, &after, units, &mut values);
        let all: Vec<SliceStats> = plain_slices.iter().chain(&traced_slices).cloned().collect();
        values.insert("bench.p99_us", medians(&plain_slices).2);
        values.insert("bench.slice_spread_pct", slice_spread_pct(&all));
        values.insert(
            "bench.slice_units_min",
            all.iter().map(|s| s.units).min().unwrap_or(0) as f64,
        );
        let (plain_rate, traced_rate) = (medians(&plain_slices).0, medians(&traced_slices).0);
        values.insert(
            "bench.trace_overhead_pct",
            100.0 * (plain_rate - traced_rate) / plain_rate.max(f64::MIN_POSITIVE),
        );
    } else {
        let before = Snapshot::take(workload.as_ref(), false)?;
        let outcome = workload.run(window, None);
        let after = Snapshot::take(workload.as_ref(), false)?;
        attempted = outcome.attempted;
        failed = outcome.failed;

        let slices = slice_stats(&outcome.samples, SLICES, slice);
        describe_slices("timed", &slices);
        let (ops_per_s, p50_us, _) = medians(&slices);
        let units = outcome.samples.len().max(1) as f64;
        values.insert("ops_per_s", ops_per_s);
        values.insert("p50_us", p50_us);
        values.insert(
            "cpu_us_per_op",
            (after.daemon.cpu_us - before.daemon.cpu_us) as f64 / units,
        );
        values.insert("peak_rss_mib", after.daemon.hwm_kib as f64 / 1024.0);
        values.insert("setup_s", median(&setups));
        eprintln!(
            "virt_bench:   slice spread {:.1} %, window overran by {:.1} ms",
            slice_spread_pct(&slices),
            (after.at - before.at).saturating_sub(window).as_secs_f64() * 1e3,
        );
    }

    let checks = workload.check()?;
    workload.teardown()?;
    attempted += checks.attempted;
    failed += checks.failed;

    let metrics = if options.trace {
        values.insert("core.event.events_per_cycle", checks.events_per_cycle);
        values.insert(
            "daemon.recovery_ms_per_domain",
            checks.recovery_ms_per_domain,
        );
        values.extend(layers::measure_all(&work, options.seed, slice * 2)?);
        catalogue::per_layer().map(|l| l.0).collect::<Vec<_>>()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
    .into_iter()
    .map(|name| match values.get(name) {
        Some(value) if value.is_finite() => Ok((name, *value)),
        other => Err(format!("metric {name} came out as {other:?}")),
    })
    .collect::<Result<Vec<_>, String>>()?;

    Ok(Report {
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

/// The per-layer values that describe the workload just run: deltas of
/// the daemon's counters and of both processes' `/proc` entries over
/// the window, per completed unit.
fn workload_layers(
    before: &Snapshot,
    after: &Snapshot,
    units: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let (then, now) = (
        before.metrics.as_ref().expect("snapshot took metrics"),
        after.metrics.as_ref().expect("snapshot took metrics"),
    );
    let per_op = |name: &str| now.delta(then, name) as f64 / units;
    let p50 = |name: &str| now.histogram_delta(then, name).p50_us().unwrap_or(0.0);

    values.insert(
        "rpc.client.cpu_us_per_op",
        (after.harness.cpu_us - before.harness.cpu_us) as f64 / units,
    );
    values.insert(
        "rpc.client.vcsw_per_op",
        after.harness.vcsw.saturating_sub(before.harness.vcsw) as f64 / units,
    );
    let wait = now.histogram_delta(then, "pool.virtd.wait_us");
    values.insert("rpc.pool.wait_p50_us", wait.p50_us().unwrap_or(0.0));
    values.insert("rpc.pool.wait_p99_us", wait.p99_us().unwrap_or(0.0));
    let (hits, misses) = (
        now.delta(then, "rpc.buf_pool.hits") as f64,
        now.delta(then, "rpc.buf_pool.misses") as f64,
    );
    values.insert("rpc.bufpool.hit_ratio", hits / (hits + misses).max(1.0));
    values.insert(
        "daemon.eventloop.wakeups_per_op",
        per_op("server.virtd.event_loop.wakeups"),
    );
    values.insert(
        "daemon.eventloop.ready_events_per_op",
        per_op("server.virtd.event_loop.ready_events"),
    );
    values.insert(
        "daemon.vcsw_per_op",
        after.daemon.vcsw.saturating_sub(before.daemon.vcsw) as f64 / units,
    );
    values.insert(
        "daemon.rw_syscalls_per_op",
        (after.daemon.rw_syscalls - before.daemon.rw_syscalls) as f64 / units,
    );
    use virt_core::protocol::proc;
    for (name, procedure) in [
        (
            "daemon.dispatch.proc_p50_us.lookup",
            proc::DOMAIN_LOOKUP_NAME,
        ),
        (
            "daemon.dispatch.proc_p50_us.set_autostart",
            proc::DOMAIN_SET_AUTOSTART,
        ),
        (
            "daemon.dispatch.proc_p50_us.define",
            proc::DOMAIN_DEFINE_XML,
        ),
        ("daemon.dispatch.proc_p50_us.start", proc::DOMAIN_START),
        (
            "daemon.dispatch.proc_p50_us.bulk_stats",
            proc::CONNECT_GET_ALL_DOMAIN_STATS,
        ),
    ] {
        values.insert(name, p50(&format!("rpc.proc.{procedure}.latency_us")));
    }
    values.insert(
        "core.statestore.group_commits_per_op",
        per_op("statestore.group_commits"),
    );
    values.insert(
        "core.statestore.coalesced_per_op",
        per_op("statestore.coalesced"),
    );
    values.insert(
        "core.statestore.deduped_per_op",
        per_op("statestore.deduped"),
    );
    values.insert("core.statestore.sync_p50_us", p50("statestore.sync_us"));
    let (steal, total) = (
        after.steal.0.saturating_sub(before.steal.0),
        after.steal.1.saturating_sub(before.steal.1),
    );
    values.insert(
        "bench.steal_pct",
        100.0 * steal as f64 / total.max(1) as f64,
    );
}

/// Writes the traced window's spans beside the build output and prints
/// the self-time summary.
fn write_trace(out_dir: &std::path::Path, kind: Kind, traced: &Outcome) -> Result<(), String> {
    let path = out_dir.join(format!("trace_{}.json", kind.name()));
    std::fs::write(&path, trace::to_json(&traced.spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "virt_bench:   {} spans -> {}",
        traced.spans.len(),
        path.display()
    );
    for (name, (count, self_ns)) in trace::self_times(&traced.spans) {
        eprintln!(
            "virt_bench:     span {name}: {count} recorded, mean self time {:.2} us",
            self_ns as f64 / count as f64 / 1e3
        );
    }
    Ok(())
}
