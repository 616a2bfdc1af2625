//! The four closed-loop workloads: seeded inputs, set-up against a
//! daemon child, the timed loops, and the correctness checks.
//!
//! Every workload is a closed loop — a client issues its next unit only
//! after the previous one completed — driven by at most `nproc` (= 2 on
//! the reference machine) client threads. A unit that errors, exceeds
//! the 5 s deadline or returns a wrong answer counts as failed and
//! contributes no latency sample.

use std::collections::HashSet;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use virt_core::protocol::{self, proc};
use virt_core::typedparam::TypedParam;
use virt_core::uuid::Uuid;
use virt_core::xmlfmt::{DiskConfig, DomainConfig};
use virt_core::{Connect, Domain, DomainState};
use virt_rpc::message::{encode_frame, Header, MessageStatus, MessageType, Packet, REMOTE_PROGRAM};
use virt_rpc::transport::{Transport, UnixTransport};
use virt_rpc::xdr::XdrEncode;

use crate::child::{Daemon, Extra, Workdir};
use crate::stats::Sample;
use crate::trace::{Span, Tracer};

/// Deadline of every call; a unit that misses it has failed.
pub const CALL_DEADLINE: Duration = Duration::from_secs(5);
/// Domains defined on the host of the read workloads.
pub const HOST_DOMAINS: usize = 1000;
/// Of those, how many run (the quiet host has 64 vCPUs).
const RUNNING_DOMAINS: usize = 48;
/// Domains defined (and, with a state directory, persisted) before the
/// lifecycle clients start cycling.
const BASE_DOMAINS: usize = 200;
/// Warm-up cycles per client of the in-memory lifecycle workload.
const LIFECYCLE_WARMUP: u64 = 5000;
/// Names each lifecycle client cycles over.
const RING: usize = 64;
/// Calls the pipelined workload keeps in flight. Not 16: at 16 the
/// prototype split into two throughput regimes (114 k–167 k ops/s).
const PIPELINE_DEPTH: usize = 8;
/// A window that has failed this often is not worth finishing.
const MAX_FAILURES: u64 = 100;

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the harness's only source of randomness, so one `--seed`
/// always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// purpose, so adding a draw to one does not shift the others).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `n` distinct domain names of one fixed length (so reply sizes do not
/// depend on the seed), in seeded order.
pub fn domain_names(rng: &mut Rng, prefix: &str, n: usize) -> Vec<String> {
    let mut names: Vec<String> = (0..n)
        .map(|i| format!("{prefix}-{:04x}-{i:04}", rng.next() & 0xffff))
        .collect();
    rng.shuffle(&mut names);
    names
}

/// A domain description with `disks` virtio disks.
pub fn domain_config(name: &str, disks: usize) -> DomainConfig {
    let mut config = DomainConfig::new(name, 64, 1);
    for i in 0..disks {
        config.disks.push(DiskConfig {
            target: format!("vd{i}"),
            source: format!("/var/lib/virt/images/{name}-disk-{i}.qcow2"),
            capacity_mib: 1024,
            bus: "virtio".to_string(),
        });
    }
    config
}

// ---------------------------------------------------------------------------
// The timed window
// ---------------------------------------------------------------------------

/// What one timed window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per completed, correct unit.
    pub samples: Vec<Sample>,
    /// Units issued.
    pub attempted: u64,
    /// Units that errored, timed out or answered wrongly.
    pub failed: u64,
    /// Harness-side spans (traced windows only).
    pub spans: Vec<Span>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.spans.extend(other.spans);
    }
}

/// One client thread's view of a window: the clock, the sample sink and
/// the optional tracer.
struct Recorder {
    start: Instant,
    deadline: Instant,
    outcome: Outcome,
    tracer: Option<Tracer>,
}

impl Recorder {
    fn new(start: Instant, window: Duration, thread: u64, trace_every: Option<u64>) -> Recorder {
        Recorder {
            start,
            deadline: start + window,
            outcome: Outcome {
                samples: Vec::with_capacity(1 << 20),
                ..Outcome::default()
            },
            tracer: trace_every.map(|every| Tracer::new(start, thread, every)),
        }
    }

    fn open(&self) -> bool {
        Instant::now() < self.deadline && self.outcome.failed < MAX_FAILURES
    }

    /// Times one unit; `unit` returns whether its answer was correct.
    fn unit(&mut self, unit: impl FnOnce(&mut Option<Tracer>, Option<(u64, u64)>) -> bool) {
        let root = self.tracer.as_mut().and_then(|t| {
            let trace = t.begin_unit()?;
            Some((trace, t.reserve()))
        });
        self.outcome.attempted += 1;
        let begin = Instant::now();
        let ok = unit(&mut self.tracer, root);
        let end = Instant::now();
        if let (Some(tracer), Some((trace, span))) = (self.tracer.as_mut(), root) {
            let ns = |t: Instant| t.duration_since(self.start).as_nanos() as u64;
            tracer.record_reserved(span, trace, "unit", ns(begin), ns(end));
        }
        if ok {
            self.outcome.samples.push(Sample {
                end_ns: end.duration_since(self.start).as_nanos() as u64,
                latency_ns: end.duration_since(begin).as_nanos() as u64,
            });
        } else {
            self.outcome.failed += 1;
        }
    }

    fn finish(mut self) -> Outcome {
        if let Some(tracer) = self.tracer.take() {
            self.outcome.spans = tracer.into_spans();
        }
        self.outcome
    }
}

/// Results of a workload's end-of-run checks, and the per-layer values
/// only the workload itself can know.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold, each with its reason on stderr.
    pub failed: u64,
    /// Events client 0 received per completed cycle (lifecycle only).
    pub events_per_cycle: f64,
    /// Recovery time per recovered domain after the kill (lifecycle only).
    pub recovery_ms_per_domain: f64,
}

impl Checks {
    fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("virt_bench: CHECK FAILED: {}", what());
        }
    }
}

/// A workload after set-up: a daemon child, populated and warmed, with
/// its clients connected.
pub trait Workload {
    /// The daemon this workload drives.
    fn daemon(&self) -> &Daemon;

    /// Runs the closed loop for `window`. With `trace_every`, every n-th
    /// unit records harness-side spans.
    fn run(&mut self, window: Duration, trace_every: Option<u64>) -> Outcome;

    /// Sampling stride of the traced pass: chosen so a traced window
    /// keeps a few tens of thousands of spans whatever the unit rate,
    /// and coprime with the op rotation so every op kind is sampled.
    fn trace_every(&self) -> u64;

    /// The end-of-run checks.
    ///
    /// # Errors
    ///
    /// The daemon stopped answering (a wrong answer is a failed check,
    /// not an error).
    fn check(&mut self) -> Result<Checks, String>;

    /// Closes the clients and stops the daemon.
    ///
    /// # Errors
    ///
    /// The daemon did not exit cleanly.
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

/// The workloads the binary can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SmallCallUnix,
    PipelinedCallUnix,
    LifecycleUnix,
    BulkStatsTls,
    LifecycleDurableUnix,
}

impl Kind {
    /// The workloads `BENCHMARK.json` lists, in its order: the ones whose
    /// end-to-end metrics are held to their bounds.
    pub const GATED: [Kind; 4] = [
        Kind::SmallCallUnix,
        Kind::PipelinedCallUnix,
        Kind::LifecycleUnix,
        Kind::BulkStatsTls,
    ];

    /// Every runnable workload: the gated four plus the durable
    /// lifecycle, which is flush-bound and follows the host's storage —
    /// over ten runs its throughput spread anywhere from 3 % to 19 % of
    /// the median, too close to the 25 % a gated metric may spread. It
    /// stays for its durability check and its statestore counters.
    pub const ALL: [Kind; 5] = [
        Kind::SmallCallUnix,
        Kind::PipelinedCallUnix,
        Kind::LifecycleUnix,
        Kind::BulkStatsTls,
        Kind::LifecycleDurableUnix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallCallUnix => "small_call_unix",
            Kind::PipelinedCallUnix => "pipelined_call_unix",
            Kind::LifecycleUnix => "lifecycle_unix",
            Kind::BulkStatsTls => "bulk_stats_tls",
            Kind::LifecycleDurableUnix => "lifecycle_durable_unix",
        }
    }

    /// Spawns, populates, connects and warms up: everything `setup_s`
    /// times. `warmup_scale` shrinks the fixed warm-up counts for the
    /// smoke mode.
    ///
    /// # Errors
    ///
    /// The daemon did not come up or refused the generated inputs.
    pub fn setup(
        self,
        work: &Workdir,
        seed: u64,
        warmup_scale: f64,
    ) -> Result<Box<dyn Workload>, String> {
        let warmup = |units: u64| ((units as f64 * warmup_scale) as u64).max(8);
        Ok(match self {
            Kind::SmallCallUnix => Box::new(SmallCall::setup(work, seed, warmup(80_000))?),
            Kind::PipelinedCallUnix => Box::new(Pipelined::setup(work, seed, warmup(200_000))?),
            Kind::LifecycleUnix => Box::new(Lifecycle::setup(
                work,
                seed,
                Extra::None,
                warmup(LIFECYCLE_WARMUP),
            )?),
            Kind::BulkStatsTls => Box::new(BulkStats::setup(work, seed, warmup(500))?),
            Kind::LifecycleDurableUnix => {
                Box::new(Lifecycle::setup(work, seed, Extra::Statedir, warmup(220))?)
            }
        })
    }
}

fn virt<T>(what: &str, result: virt_core::VirtResult<T>) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

fn connect(uri: &str) -> Result<Connect, String> {
    virt(
        "connect",
        Connect::builder(uri).call_deadline(CALL_DEADLINE).open(),
    )
}

/// A host populated with [`HOST_DOMAINS`] seeded domains,
/// [`RUNNING_DOMAINS`] of them running.
struct PopulatedHost {
    daemon: Daemon,
    conn: Connect,
    names: Vec<String>,
    domains: Vec<Domain>,
}

fn populate(work: &Workdir, seed: u64, extra: Extra) -> Result<PopulatedHost, String> {
    let daemon = Daemon::spawn(work, extra)?;
    let conn = connect(&daemon.unix_uri())?;
    let names = domain_names(&mut Rng::new(seed, 1), "vm", HOST_DOMAINS);
    let mut domains = Vec::with_capacity(names.len());
    for name in &names {
        domains.push(virt("define", conn.define_domain(&domain_config(name, 1)))?);
    }
    for domain in &domains[..RUNNING_DOMAINS] {
        virt("start", domain.start())?;
    }
    Ok(PopulatedHost {
        daemon,
        conn,
        names,
        domains,
    })
}

// ---------------------------------------------------------------------------
// small_call_unix
// ---------------------------------------------------------------------------

/// One `Connect` over a Unix socket issuing one small call at a time.
struct SmallCall {
    host: PopulatedHost,
    uuids: Vec<Uuid>,
    /// Which domains this client has already marked autostart, so every
    /// `autostart()` reply can be checked.
    autostart: Vec<bool>,
    keys: Rng,
    /// Position in the op rotation; never reset, so warm-up and windows
    /// continue one sequence.
    turn: u64,
}

impl SmallCall {
    fn setup(work: &Workdir, seed: u64, warmup: u64) -> Result<SmallCall, String> {
        let host = populate(work, seed, Extra::None)?;
        let mut this = SmallCall {
            uuids: host.domains.iter().map(Domain::uuid).collect(),
            autostart: vec![false; host.names.len()],
            keys: Rng::new(seed, 2),
            turn: 0,
            host,
        };
        for _ in 0..warmup {
            if !this.call(&mut None, None) {
                return Err("small_call_unix: a warm-up call failed".to_string());
            }
        }
        Ok(this)
    }

    /// One call of the 3 : 1 rotation: three high-priority procedures
    /// (dispatched inline on the daemon's loop thread) to one that takes
    /// the worker-pool hop.
    fn call(&mut self, tracer: &mut Option<Tracer>, trace: Option<(u64, u64)>) -> bool {
        let conn = &self.host.conn;
        let key = self.keys.below(self.host.names.len());
        let turn = self.turn;
        self.turn += 1;
        match turn % 4 {
            0 => {
                let name = &self.host.names[key];
                Tracer::span(tracer, trace, "core.conn.domain_lookup_by_name", || {
                    conn.domain_lookup_by_name(name)
                })
                .is_ok_and(|d| d.name() == name && d.uuid() == self.uuids[key])
            }
            1 => {
                let uuid = self.uuids[key];
                Tracer::span(tracer, trace, "core.conn.domain_lookup_by_uuid", || {
                    conn.domain_lookup_by_uuid(uuid)
                })
                .is_ok_and(|d| d.uuid() == uuid && d.name() == self.host.names[key])
            }
            2 => {
                let domain = &self.host.domains[key];
                Tracer::span(tracer, trace, "core.domain.autostart", || {
                    domain.autostart()
                })
                .is_ok_and(|flag| flag == self.autostart[key])
            }
            _ => {
                let domain = &self.host.domains[key];
                let ok = Tracer::span(tracer, trace, "core.domain.set_autostart", || {
                    domain.set_autostart(true)
                })
                .is_ok();
                self.autostart[key] |= ok;
                ok
            }
        }
    }
}

impl Workload for SmallCall {
    fn daemon(&self) -> &Daemon {
        &self.host.daemon
    }

    fn run(&mut self, window: Duration, trace_every: Option<u64>) -> Outcome {
        let mut rec = Recorder::new(Instant::now(), window, 0, trace_every);
        while rec.open() {
            rec.unit(|tracer, trace| self.call(tracer, trace));
        }
        rec.finish()
    }

    fn trace_every(&self) -> u64 {
        5
    }

    fn check(&mut self) -> Result<Checks, String> {
        let mut checks = Checks::default();
        let listed = virt("list", self.host.conn.list_domain_names())?;
        let expected: HashSet<&str> = self.host.names.iter().map(String::as_str).collect();
        checks.expect(
            listed.len() == expected.len() && listed.iter().all(|n| expected.contains(n.as_str())),
            || {
                format!(
                    "host lists {} domains, not the {} seeded",
                    listed.len(),
                    expected.len()
                )
            },
        );
        Ok(checks)
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        self.host.conn.close();
        self.host.daemon.stop()
    }
}

// ---------------------------------------------------------------------------
// pipelined_call_unix
// ---------------------------------------------------------------------------

/// A hand-driven connection below the client stub: frames encoded,
/// sent, received and decoded by the harness itself.
pub struct RawConn {
    transport: UnixTransport,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    serial: u32,
}

impl RawConn {
    /// Connects and performs the `OPEN` handshake by hand.
    ///
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn open(socket: &str) -> Result<RawConn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("raw connect: {e}"))?;
        stream
            .set_read_timeout(Some(CALL_DEADLINE))
            .map_err(|e| format!("raw connect: {e}"))?;
        let transport =
            UnixTransport::from_stream(stream, socket).map_err(|e| format!("raw connect: {e}"))?;
        let mut conn = RawConn {
            transport,
            send_buf: Vec::with_capacity(256),
            recv_buf: Vec::with_capacity(4096),
            serial: 0,
        };
        let args = protocol::OpenArgs {
            uri: "qemu:///system".to_string(),
            readonly: false,
        };
        let serial = conn.encode(proc::OPEN, &args);
        conn.send().map_err(|e| format!("raw OPEN: {e}"))?;
        conn.recv().map_err(|e| format!("raw OPEN: {e}"))?;
        let reply = conn.decode().map_err(|e| format!("raw OPEN: {e}"))?;
        if reply.header.serial != serial || reply.header.status != MessageStatus::Ok {
            return Err("raw OPEN was refused".to_string());
        }
        Ok(conn)
    }

    /// Encodes the next call into the send buffer; returns its serial.
    pub fn encode(&mut self, procedure: u32, args: &impl XdrEncode) -> u32 {
        self.serial += 1;
        let header = Header::call(REMOTE_PROGRAM, procedure, self.serial);
        encode_frame(&header, args, &mut self.send_buf);
        self.serial
    }

    /// Sends the encoded call.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn send(&mut self) -> std::io::Result<()> {
        self.transport.send_framed(&self.send_buf)
    }

    /// Receives one frame into the receive buffer.
    ///
    /// # Errors
    ///
    /// Socket errors, including the read timeout.
    pub fn recv(&mut self) -> std::io::Result<()> {
        self.transport.recv_frame_into(&mut self.recv_buf).map(drop)
    }

    /// Decodes the received frame.
    ///
    /// # Errors
    ///
    /// A malformed or non-reply frame.
    pub fn decode(&self) -> Result<Packet, String> {
        let packet = Packet::from_body(&self.recv_buf).map_err(|e| format!("bad frame: {e}"))?;
        if packet.header.mtype != MessageType::Reply {
            return Err("unexpected non-reply frame".to_string());
        }
        Ok(packet)
    }

    /// One blocking `DOMAIN_LOOKUP_NAME` round trip (depth 1).
    ///
    /// # Errors
    ///
    /// Socket errors, an error reply, or the wrong domain.
    pub fn lookup(&mut self, name: &str) -> Result<(), String> {
        let serial = self.encode(proc::DOMAIN_LOOKUP_NAME, &name);
        self.send().map_err(|e| e.to_string())?;
        self.recv().map_err(|e| e.to_string())?;
        let reply = self.decode()?;
        let domain: protocol::WireDomain = reply
            .decode_payload()
            .map_err(|e| format!("bad reply: {e}"))?;
        if reply.header.serial == serial && domain.name == name {
            Ok(())
        } else {
            Err("lookup answered for another call".to_string())
        }
    }

    fn close(self) {
        let _ = self.transport.shutdown();
    }
}

/// What a call in flight is waiting to check.
struct InFlight {
    serial: u32,
    sent: Instant,
    /// Index of the domain looked up; `None` for a set-autostart call.
    lookup: Option<usize>,
    /// `(trace id, root span, end of send)` when this call is traced.
    trace: Option<(u64, u64, u64)>,
}

/// One raw connection keeping [`PIPELINE_DEPTH`] calls in flight.
struct Pipelined {
    host: PopulatedHost,
    raw: RawConn,
    keys: Rng,
    /// Seeded order in which set-autostart visits distinct domains.
    writes: Vec<usize>,
    issued: u64,
}

impl Pipelined {
    fn setup(work: &Workdir, seed: u64, warmup: u64) -> Result<Pipelined, String> {
        let host = populate(work, seed, Extra::None)?;
        let raw = RawConn::open(&host.daemon.socket())?;
        let mut writes: Vec<usize> = (0..host.names.len()).collect();
        let mut keys = Rng::new(seed, 3);
        keys.shuffle(&mut writes);
        let mut this = Pipelined {
            host,
            raw,
            keys,
            writes,
            issued: 0,
        };
        let mut rec = Recorder::new(Instant::now(), CALL_DEADLINE * 4, 0, None);
        this.pump(&mut rec, Some(warmup));
        let warm = rec.finish();
        if warm.failed > 0 || warm.attempted < warmup {
            return Err("pipelined_call_unix: a warm-up call failed".to_string());
        }
        Ok(this)
    }

    /// Issues the next call of the 3 : 1 mix.
    fn issue(&mut self, rec: &mut Recorder) -> std::io::Result<InFlight> {
        let turn = self.issued;
        self.issued += 1;
        let trace = rec.tracer.as_mut().and_then(|t| {
            let trace = t.begin_unit()?;
            Some((trace, t.reserve(), t.now()))
        });
        let lookup = (turn % 4 != 3).then(|| self.keys.below(self.host.names.len()));
        let serial = match lookup {
            Some(key) => self
                .raw
                .encode(proc::DOMAIN_LOOKUP_NAME, &self.host.names[key].as_str()),
            None => {
                // Distinct domains, so pooled replies may complete in any
                // order without changing the outcome.
                let key = self.writes[(turn / 4) as usize % self.writes.len()];
                let args = protocol::NameBoolArgs {
                    name: self.host.names[key].clone(),
                    value: true,
                };
                self.raw.encode(proc::DOMAIN_SET_AUTOSTART, &args)
            }
        };
        let sent = Instant::now();
        let mut traced = None;
        if let (Some(tracer), Some((trace, root, begin))) = (rec.tracer.as_mut(), trace) {
            let encoded = tracer.now();
            tracer.record(trace, root, "rpc.message.encode", begin, encoded);
            self.raw.send()?;
            let done = tracer.now();
            tracer.record(trace, root, "rpc.transport.send", encoded, done);
            traced = Some((trace, root, done));
        } else {
            self.raw.send()?;
        }
        rec.outcome.attempted += 1;
        Ok(InFlight {
            serial,
            sent,
            lookup,
            trace: traced,
        })
    }

    /// Keeps the pipeline full until the recorder's deadline (or until
    /// `limit` calls were issued), then drains it.
    fn pump(&mut self, rec: &mut Recorder, limit: Option<u64>) {
        let mut in_flight: Vec<InFlight> = Vec::with_capacity(PIPELINE_DEPTH);
        let mut budget = limit.unwrap_or(u64::MAX);
        let more = |rec: &Recorder, budget: u64| budget > 0 && rec.open();
        loop {
            while in_flight.len() < PIPELINE_DEPTH && more(rec, budget) {
                match self.issue(rec) {
                    Ok(call) => in_flight.push(call),
                    Err(_) => {
                        rec.outcome.failed += MAX_FAILURES;
                        return;
                    }
                }
                budget -= 1;
            }
            if in_flight.is_empty() {
                return;
            }
            let recv_begin = rec.tracer.as_ref().map(Tracer::now);
            if self.raw.recv().is_err() {
                // Timed out or disconnected: everything in flight failed.
                rec.outcome.failed += MAX_FAILURES.max(in_flight.len() as u64);
                return;
            }
            let recv_end = rec.tracer.as_ref().map(Tracer::now);
            let reply = self.raw.decode();
            let done = Instant::now();
            let Some(slot) = reply
                .as_ref()
                .ok()
                .and_then(|r| in_flight.iter().position(|c| c.serial == r.header.serial))
            else {
                rec.outcome.failed += 1;
                continue;
            };
            let call = in_flight.swap_remove(slot);
            let reply = reply.expect("matched a decoded reply");
            let ok = reply.header.status == MessageStatus::Ok
                && match call.lookup {
                    Some(key) => reply
                        .decode_payload::<protocol::WireDomain>()
                        .is_ok_and(|d| d.name == self.host.names[key]),
                    None => reply.decode_payload::<()>().is_ok(),
                };
            if let (Some(tracer), Some((trace, root, sent_ns))) = (rec.tracer.as_mut(), call.trace)
            {
                let (r0, r1) = (recv_begin.unwrap_or(sent_ns), recv_end.unwrap_or(sent_ns));
                let decoded = tracer.now();
                tracer.record(trace, root, "wait", sent_ns, r0.max(sent_ns));
                tracer.record(trace, root, "rpc.transport.recv", r0.max(sent_ns), r1);
                tracer.record(trace, root, "rpc.message.decode", r1, decoded);
                let begin = call.sent.duration_since(rec.start).as_nanos() as u64;
                tracer.record_reserved(root, trace, "unit", begin, decoded);
            }
            if ok {
                rec.outcome.samples.push(Sample {
                    end_ns: done.duration_since(rec.start).as_nanos() as u64,
                    latency_ns: done.duration_since(call.sent).as_nanos() as u64,
                });
            } else {
                rec.outcome.failed += 1;
            }
        }
    }
}

impl Workload for Pipelined {
    fn daemon(&self) -> &Daemon {
        &self.host.daemon
    }

    fn run(&mut self, window: Duration, trace_every: Option<u64>) -> Outcome {
        let mut rec = Recorder::new(Instant::now(), window, 0, trace_every);
        self.pump(&mut rec, None);
        rec.finish()
    }

    fn trace_every(&self) -> u64 {
        61
    }

    fn check(&mut self) -> Result<Checks, String> {
        let mut checks = Checks::default();
        // Every domain a set-autostart call was acknowledged for must now
        // report the flag; spot-check the first and last written.
        let written = ((self.issued / 4) as usize).min(self.writes.len());
        for &key in self.writes[..written]
            .iter()
            .take(1)
            .chain(self.writes[..written].last())
        {
            let flag = virt("autostart", self.host.domains[key].autostart())?;
            checks.expect(flag, || {
                format!("{} lost its autostart flag", self.host.names[key])
            });
        }
        Ok(checks)
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        self.raw.close();
        self.host.conn.close();
        self.host.daemon.stop()
    }
}

// ---------------------------------------------------------------------------
// lifecycle_durable_unix
// ---------------------------------------------------------------------------

/// One lifecycle client: its connection and its ring of descriptions.
struct Cycler {
    conn: Connect,
    /// `(name, XML)` ring; disk counts are a seeded permutation of a
    /// fixed multiset, so the parse work per lap is seed-independent.
    ring: Vec<(String, String)>,
    next: usize,
    cycles: u64,
}

impl Cycler {
    /// define → start → suspend → resume → destroy → undefine.
    fn cycle(&mut self, tracer: &mut Option<Tracer>, trace: Option<(u64, u64)>) -> bool {
        let (_, xml) = &self.ring[self.next % self.ring.len()];
        self.next += 1;
        let conn = &self.conn;
        let Ok(domain) = Tracer::span(tracer, trace, "core.conn.define_domain_xml", || {
            conn.define_domain_xml(xml)
        }) else {
            return false;
        };
        let ok = Tracer::span(tracer, trace, "core.domain.start", || domain.start()).is_ok()
            && Tracer::span(tracer, trace, "core.domain.suspend", || domain.suspend()).is_ok()
            && Tracer::span(tracer, trace, "core.domain.resume", || domain.resume()).is_ok()
            && Tracer::span(tracer, trace, "core.domain.destroy", || domain.destroy()).is_ok()
            && Tracer::span(tracer, trace, "core.domain.undefine", || domain.undefine()).is_ok();
        self.cycles += u64::from(ok);
        ok
    }
}

/// Two clients cycling domains through their lifecycle, against a daemon
/// with all state in memory (`lifecycle_unix`) or with a state directory
/// (`lifecycle_durable_unix`).
struct Lifecycle {
    daemon: Daemon,
    durable: bool,
    base: Vec<String>,
    clients: Vec<Cycler>,
    /// Lifecycle events delivered to client 0's subscription.
    events: Arc<AtomicU64>,
}

impl Lifecycle {
    fn setup(work: &Workdir, seed: u64, extra: Extra, warmup: u64) -> Result<Lifecycle, String> {
        let daemon = Daemon::spawn(work, extra)?;
        let mut rng = Rng::new(seed, 4);
        let base = domain_names(&mut rng, "base", BASE_DOMAINS);
        let mut clients = Vec::new();
        for client in 0..2 {
            let conn = connect(&daemon.unix_uri())?;
            let names = domain_names(&mut rng, &format!("c{client}"), RING);
            let mut disks: Vec<usize> = (0..RING).map(|i| i % 8).collect();
            rng.shuffle(&mut disks);
            let ring = names
                .into_iter()
                .zip(disks)
                .map(|(name, disks)| {
                    let xml = domain_config(&name, disks).to_xml_string();
                    (name, xml)
                })
                .collect();
            clients.push(Cycler {
                conn,
                ring,
                next: 0,
                cycles: 0,
            });
        }
        for name in &base {
            virt(
                "define base",
                clients[0].conn.define_domain(&domain_config(name, 1)),
            )?;
        }
        let events = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&events);
        virt(
            "event subscription",
            clients[0].conn.register_event_callback(move |_event| {
                counter.fetch_add(1, Ordering::Relaxed);
            }),
        )?;
        let mut this = Lifecycle {
            daemon,
            durable: extra == Extra::Statedir,
            base,
            clients,
            events,
        };
        let warm = this.run_until(None, Some(warmup), None);
        if warm.failed > 0 {
            return Err("lifecycle: a warm-up cycle failed".to_string());
        }
        Ok(this)
    }

    /// Runs both clients, each on its own thread, for `window` or for
    /// `limit` cycles each.
    fn run_until(
        &mut self,
        window: Option<Duration>,
        limit: Option<u64>,
        trace_every: Option<u64>,
    ) -> Outcome {
        let start = Instant::now();
        let window = window.unwrap_or(CALL_DEADLINE * 60);
        let mut outcome = Outcome::default();
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(thread, client)| {
                    scope.spawn(move || {
                        let mut rec = Recorder::new(start, window, thread as u64, trace_every);
                        let mut left = limit.unwrap_or(u64::MAX);
                        while left > 0 && rec.open() {
                            rec.unit(|tracer, trace| client.cycle(tracer, trace));
                            left -= 1;
                        }
                        rec.finish()
                    })
                })
                .collect();
            for thread in threads {
                outcome.merge(thread.join().expect("client thread panicked"));
            }
        });
        outcome
    }
}

impl Workload for Lifecycle {
    fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    fn run(&mut self, window: Duration, trace_every: Option<u64>) -> Outcome {
        self.run_until(Some(window), None, trace_every)
    }

    fn trace_every(&self) -> u64 {
        1
    }

    fn check(&mut self) -> Result<Checks, String> {
        let mut checks = Checks::default();
        let conn = &self.clients[0].conn;

        // Every cycle ran to its undefine, so exactly the base remains.
        let as_set = |names: &[String]| names.iter().cloned().collect::<HashSet<String>>();
        let listed = virt("list", conn.list_domain_names())?;
        checks.expect(as_set(&listed) == as_set(&self.base), || {
            format!(
                "{} domains left, expected the {} base ones",
                listed.len(),
                self.base.len()
            )
        });

        // Six lifecycle events per cycle, every one delivered: pushes are
        // asynchronous, so give the last few a moment to arrive.
        let cycles: u64 = self.clients.iter().map(|c| c.cycles).sum();
        let patience = Instant::now() + Duration::from_secs(2);
        while self.events.load(Ordering::Relaxed) < 6 * cycles && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = self.events.load(Ordering::Relaxed);
        checks.events_per_cycle = events as f64 / cycles.max(1) as f64;
        checks.expect(events == 6 * cycles, || {
            format!("{events} events for {cycles} cycles, expected exactly 6 per cycle")
        });

        if !self.durable {
            return Ok(checks);
        }

        // Durability: leave one acknowledged, running definition per
        // client, SIGKILL the daemon, restart it on the same state
        // directory — the recovered set must be the acknowledged set.
        let mut acknowledged = as_set(&self.base);
        for client in &self.clients {
            let (name, xml) = &client.ring[0];
            let domain = virt("define before kill", client.conn.define_domain_xml(xml))?;
            virt("start before kill", domain.start())?;
            acknowledged.insert(name.clone());
        }
        self.daemon.kill_and_restart()?;
        for client in &self.clients {
            client.conn.close();
        }
        let conn = connect(&self.daemon.unix_uri())?;
        let recovered = as_set(&virt("list after restart", conn.list_domain_names())?);
        checks.expect(recovered == acknowledged, || {
            format!(
                "recovered {} definitions, {} were acknowledged before the kill",
                recovered.len(),
                acknowledged.len()
            )
        });
        let metrics = self.daemon.metrics()?;
        let quarantined = metrics.value("recovery.quarantined");
        checks.expect(quarantined == 0, || {
            format!("{quarantined} state files quarantined")
        });
        checks.recovery_ms_per_domain = metrics.value("recovery.duration_us") as f64
            / 1e3
            / metrics.value("recovery.recovered").max(1) as f64;
        conn.close();
        Ok(checks)
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        for client in &self.clients {
            client.conn.close();
        }
        self.daemon.stop()
    }
}

// ---------------------------------------------------------------------------
// bulk_stats_tls
// ---------------------------------------------------------------------------

/// One `Connect` over TLS-sim on TCP loopback fetching the stats of all
/// [`HOST_DOMAINS`] domains in one call.
struct BulkStats {
    host: PopulatedHost,
    tls: Connect,
    expected: HashSet<String>,
}

impl BulkStats {
    fn setup(work: &Workdir, seed: u64, warmup: u64) -> Result<BulkStats, String> {
        let host = populate(work, seed, Extra::Tls)?;
        let tls = connect(&host.daemon.tls_uri())?;
        let this = BulkStats {
            expected: host.names.iter().cloned().collect(),
            host,
            tls,
        };
        for _ in 0..warmup {
            if !this.call(&mut None, None) {
                return Err("bulk_stats_tls: a warm-up call failed".to_string());
            }
        }
        Ok(this)
    }

    fn call(&self, tracer: &mut Option<Tracer>, trace: Option<(u64, u64)>) -> bool {
        Tracer::span(tracer, trace, "core.conn.get_all_domain_stats", || {
            self.tls.get_all_domain_stats()
        })
        .is_ok_and(|records| {
            records.len() == self.expected.len()
                && records.iter().all(|r| self.expected.contains(&r.name))
        })
    }
}

impl Workload for BulkStats {
    fn daemon(&self) -> &Daemon {
        &self.host.daemon
    }

    fn run(&mut self, window: Duration, trace_every: Option<u64>) -> Outcome {
        let mut rec = Recorder::new(Instant::now(), window, 0, trace_every);
        while rec.open() {
            rec.unit(|tracer, trace| self.call(tracer, trace));
        }
        rec.finish()
    }

    fn trace_every(&self) -> u64 {
        1
    }

    fn check(&mut self) -> Result<Checks, String> {
        let mut checks = Checks::default();
        // The bulk reply must agree with the per-domain view.
        let records = virt("bulk stats", self.tls.get_all_domain_stats())?;
        let is_running = TypedParam::uint("state.state", DomainState::Running.as_u32());
        let running = records
            .iter()
            .filter(|r| r.params.contains(&is_running))
            .count();
        checks.expect(running == RUNNING_DOMAINS, || {
            format!("bulk stats report {running} running domains, expected {RUNNING_DOMAINS}")
        });
        Ok(checks)
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        self.tls.close();
        self.host.conn.close();
        self.host.daemon.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_input_set() {
        let a = domain_names(&mut Rng::new(7, 1), "vm", 50);
        let b = domain_names(&mut Rng::new(7, 1), "vm", 50);
        let c = domain_names(&mut Rng::new(8, 1), "vm", 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 50);
        assert!(a.iter().all(|n| n.len() == a[0].len()));
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(Rng::new(1, 1).next(), Rng::new(1, 2).next());
        let mut rng = Rng::new(3, 3);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }

    #[test]
    fn domain_descriptions_round_trip() {
        let config = domain_config("vm-x", 5);
        let parsed = DomainConfig::from_xml_str(&config.to_xml_string()).unwrap();
        assert_eq!(parsed.disks.len(), 5);
        assert_eq!(parsed.name, "vm-x");
    }
}
