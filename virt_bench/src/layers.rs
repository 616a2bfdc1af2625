//! The workload-independent half of the per-layer ledger: batch-timed
//! micro-measurements around the public functions of each layer.
//!
//! No timed interval is shorter than ~200 µs: a sub-microsecond call is
//! timed in batches sized during warm-up, and each value reported is the
//! median over the batches. (PR 11 timed 0.65 µs operations one by one
//! and could not agree with itself within 11 %.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypersim::personality::QemuLike;
use hypersim::{DomainSpec, LatencyModel, SimHost};
use virt_core::driver::{DomainRecord, DomainStatsRecord, HypervisorConnection};
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::job::JobStats;
use virt_core::metrics::span::{self, Stage};
use virt_core::metrics::Counter;
use virt_core::protocol::{self, proc};
use virt_core::statestore::{ObjectKind, StateStore};
use virt_core::typedparam::TypedParamList;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, DomainEvent, DomainEventKind, DomainState, EventBus};
use virt_fleet::{FleetManager, PlacementRequest};
use virt_rpc::message::{encode_frame, Header, Packet, REMOTE_PROGRAM};
use virt_rpc::transport::{
    memory_pair, Listener, TcpSocketListener, TcpTransport, TlsSimTransport, Transport,
    UnixTransport,
};
use virt_rpc::{PoolLimits, WorkerPool};
use virt_xml::{Element, WriteOptions};
use virtd::Virtd;

use crate::child::{Daemon, Extra, Workdir};
use crate::serve::BoxTransport;
use crate::stats::median;
use crate::workloads::{domain_config, domain_names, RawConn, Rng, HOST_DOMAINS};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Counts heap allocations while [`count_allocations`] runs; otherwise a
/// pass-through costing one relaxed load (the daemon child runs under it
/// too and never enables it).
pub struct CountingAllocator {
    enabled: AtomicBool,
    allocations: AtomicU64,
}

impl CountingAllocator {
    pub const fn new() -> Self {
        CountingAllocator {
            enabled: AtomicBool::new(false),
            allocations: AtomicU64::new(0),
        }
    }

    fn note(&self) {
        if self.enabled.load(Ordering::Relaxed) {
            self.allocations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by `f`, on any thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    let allocator = &crate::ALLOCATOR;
    let before = allocator.allocations.load(Ordering::Relaxed);
    allocator.enabled.store(true, Ordering::Relaxed);
    f();
    allocator.enabled.store(false, Ordering::Relaxed);
    allocator.allocations.load(Ordering::Relaxed) - before
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

/// Shortest interval ever put between two clock reads.
const MIN_INTERVAL: Duration = Duration::from_micros(200);

/// Calls `round` — which does its own untimed preparation and returns
/// the per-call nanoseconds it measured — until `budget` is spent, at
/// least three times, and returns the median.
fn median_of_rounds(budget: Duration, mut round: impl FnMut() -> f64) -> f64 {
    let until = Instant::now() + budget;
    let mut values = Vec::new();
    while values.len() < 3 || Instant::now() < until {
        values.push(round());
    }
    median(&values)
}

/// Median nanoseconds per call of `f`, timed in batches long enough to
/// last [`MIN_INTERVAL`]. Sizing the batch doubles as warm-up.
fn per_call_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        if start.elapsed() >= MIN_INTERVAL || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    median_of_rounds(budget, || {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        start.elapsed().as_nanos() as f64 / batch as f64
    })
}

/// One named per-layer value.
pub type Value = (&'static str, f64);

fn fail<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> Result<T, String> {
    result.map_err(|e| format!("layer {what}: {e}"))
}

// ---------------------------------------------------------------------------
// xml, core.xmlfmt
// ---------------------------------------------------------------------------

fn xml(rng: &mut Rng, share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let name = domain_names(rng, "xml", 1).remove(0);
    let config = domain_config(&name, 32);
    let document = config.to_xml_string();
    let element = fail("xml parse", Element::parse(&document))?;
    let compact = WriteOptions::compact();
    out.push((
        "xml.parse_us",
        per_call_ns(share, || {
            std::hint::black_box(Element::parse(std::hint::black_box(&document)).is_ok());
        }) / 1e3,
    ));
    out.push((
        "xml.write_us",
        per_call_ns(share, || {
            std::hint::black_box(element.write(&compact));
        }) / 1e3,
    ));
    out.push((
        "core.xmlfmt.from_xml_us",
        per_call_ns(share, || {
            std::hint::black_box(
                DomainConfig::from_xml_str(std::hint::black_box(&document)).is_ok(),
            );
        }) / 1e3,
    ));
    out.push((
        "core.xmlfmt.to_xml_us",
        per_call_ns(share, || {
            std::hint::black_box(config.to_xml_string());
        }) / 1e3,
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// rpc.message
// ---------------------------------------------------------------------------

fn sample_record(name: &str, running: bool) -> DomainRecord {
    DomainRecord {
        name: name.to_string(),
        uuid: virt_core::uuid::Uuid::from_bytes([7; 16]),
        id: running.then_some(3),
        state: if running {
            DomainState::Running
        } else {
            DomainState::Shutoff
        },
        memory_mib: 64,
        max_memory_mib: 64,
        vcpus: 1,
        persistent: true,
        has_managed_save: false,
        autostart: false,
        cpu_time_ns: 123_456_789,
    }
}

fn message(rng: &mut Rng, share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let names = domain_names(rng, "vm", HOST_DOMAINS);
    let call = Header::call(REMOTE_PROGRAM, proc::DOMAIN_LOOKUP_NAME, 7);
    let args = protocol::NameArgs {
        name: names[0].clone(),
    };
    let mut frame = Vec::with_capacity(256);
    let mut reply = Vec::new();
    let wire = protocol::WireDomain::from(&sample_record(&names[0], true));
    encode_frame(&call.reply_ok(), &wire, &mut reply);
    let decode_small = |reply: &[u8]| {
        Packet::from_body(&reply[4..])
            .ok()
            .and_then(|p| p.decode_payload::<protocol::WireDomain>().ok())
            .is_some()
    };
    if !decode_small(&reply) {
        return Err("layer rpc.message: small reply does not decode".to_string());
    }
    out.push((
        "rpc.message.encode_small_ns",
        per_call_ns(share, || {
            encode_frame(&call, std::hint::black_box(&args), &mut frame);
        }),
    ));
    out.push((
        "rpc.message.decode_small_ns",
        per_call_ns(share, || {
            std::hint::black_box(decode_small(std::hint::black_box(&reply)));
        }),
    ));
    const ROUNDTRIPS: u64 = 1000;
    let allocations = count_allocations(|| {
        for _ in 0..ROUNDTRIPS {
            encode_frame(&call, std::hint::black_box(&args), &mut frame);
            std::hint::black_box(decode_small(std::hint::black_box(&reply)));
        }
    });
    out.push((
        "rpc.message.allocs_per_small_roundtrip",
        allocations as f64 / ROUNDTRIPS as f64,
    ));

    let idle = JobStats::default();
    let bulk = protocol::WireDomainStatsList(
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let record = DomainStatsRecord::compose(&sample_record(name, i < 48), &idle);
                protocol::WireDomainStatsRecord {
                    name: record.name,
                    params: TypedParamList(record.params),
                }
            })
            .collect(),
    );
    let bulk_header =
        Header::call(REMOTE_PROGRAM, proc::CONNECT_GET_ALL_DOMAIN_STATS, 8).reply_ok();
    let mut bulk_frame = Vec::new();
    encode_frame(&bulk_header, &bulk, &mut bulk_frame);
    let decode_bulk = |frame: &[u8]| {
        Packet::from_body(&frame[4..])
            .ok()
            .and_then(|p| p.decode_payload::<protocol::WireDomainStatsList>().ok())
            .is_some_and(|list| list.0.len() == HOST_DOMAINS)
    };
    if !decode_bulk(&bulk_frame) {
        return Err("layer rpc.message: bulk reply does not decode".to_string());
    }
    out.push(("rpc.message.bulk_reply_bytes", bulk_frame.len() as f64));
    let mut scratch = Vec::with_capacity(bulk_frame.len());
    out.push((
        "rpc.message.encode_bulk_us",
        per_call_ns(share, || {
            encode_frame(&bulk_header, std::hint::black_box(&bulk), &mut scratch);
        }) / 1e3,
    ));
    out.push((
        "rpc.message.decode_bulk_us",
        per_call_ns(share, || {
            std::hint::black_box(decode_bulk(std::hint::black_box(&bulk_frame)));
        }) / 1e3,
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// rpc.transport
// ---------------------------------------------------------------------------

type BoxedTransport = Box<dyn Transport>;

/// Connected `(client, server)` ends of each socket transport. The TLS
/// ends are returned un-handshaken: the handshake needs both sides
/// running at once.
fn unix_pair() -> Result<(BoxedTransport, BoxedTransport), String> {
    let (a, b) = fail("unix pair", UnixStream::pair())?;
    Ok((
        Box::new(fail("unix pair", UnixTransport::from_stream(a, "client"))?),
        Box::new(fail("unix pair", UnixTransport::from_stream(b, "server"))?),
    ))
}

fn tcp_pair() -> Result<(BoxedTransport, BoxedTransport), String> {
    let listener = fail("tcp listen", TcpSocketListener::bind("127.0.0.1:0"))?;
    let client = fail("tcp connect", TcpTransport::connect(listener.local_addr()))?;
    let server = fail("tcp accept", listener.accept())?;
    Ok((Box::new(client), server))
}

/// Wraps both ends of a TCP pair in TLS-sim; the server half of the
/// handshake runs on the server thread, as it does in the daemon.
fn tls_server(inner: BoxedTransport) -> std::io::Result<BoxedTransport> {
    Ok(Box::new(TlsSimTransport::server(BoxTransport(inner), 2)?))
}

/// Runs `serve` on a thread of its own over `server` (after `wrap`ping
/// it there), `drive` on this one over `client`, then tears both down.
fn with_peer<T>(
    pair: (BoxedTransport, BoxedTransport),
    tls: bool,
    serve: impl FnOnce(&dyn Transport) + Send,
    drive: impl FnOnce(&dyn Transport) -> T,
) -> Result<T, String> {
    let (client, server) = pair;
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || {
            let server = if tls { tls_server(server)? } else { server };
            serve(server.as_ref());
            Ok::<(), std::io::Error>(())
        });
        let client: BoxedTransport = if tls {
            Box::new(fail(
                "tls handshake",
                TlsSimTransport::client(BoxTransport(client), 1),
            )?)
        } else {
            client
        };
        let value = drive(client.as_ref());
        let _ = client.shutdown();
        fail(
            "transport peer",
            peer.join().expect("transport peer thread panicked"),
        )?;
        Ok(value)
    })
}

/// Echo server: returns every frame until the client hangs up.
fn echo(server: &dyn Transport) {
    let mut buf = Vec::new();
    while server.recv_frame_into(&mut buf).is_ok() {
        if server.send_frame(&buf).is_err() {
            break;
        }
    }
}

/// Round trip of a 64-byte frame: the socket + wake-up floor under every
/// call (F1), with no daemon involved.
fn rtt_us(
    pair: (BoxedTransport, BoxedTransport),
    tls: bool,
    share: Duration,
) -> Result<f64, String> {
    let payload = [0x5a_u8; 64];
    with_peer(pair, tls, echo, |client| {
        let mut buf = Vec::new();
        per_call_ns(share, || {
            let ok =
                client.send_frame(&payload).is_ok() && client.recv_frame_into(&mut buf).is_ok();
            assert!(ok && buf == payload, "echo peer went away");
        }) / 1e3
    })
}

const BULK_FRAME: usize = 128 * 1024;
const BULK_GROUP: usize = 64;

/// One-way throughput of 128 KiB frames, acknowledged once per group of
/// 64 (8 MiB) so the timed interval ends when the bytes have arrived.
fn bulk_mib_per_s(
    pair: (BoxedTransport, BoxedTransport),
    tls: bool,
    share: Duration,
) -> Result<f64, String> {
    let sink = |server: &dyn Transport| {
        let mut buf = Vec::new();
        while server.recv_frame_into(&mut buf).is_ok() {
            if buf.first() == Some(&1) && server.send_frame(&[1]).is_err() {
                break;
            }
        }
    };
    with_peer(pair, tls, sink, |client| {
        let mut frame = vec![0u8; BULK_FRAME];
        let mut ack = Vec::new();
        let ns_per_group = per_call_ns(share, || {
            for i in 0..BULK_GROUP {
                frame[0] = u8::from(i + 1 == BULK_GROUP);
                assert!(client.send_frame(&frame).is_ok(), "sink peer went away");
            }
            assert!(
                client.recv_frame_into(&mut ack).is_ok(),
                "sink peer went away"
            );
        });
        let mib = (BULK_FRAME * BULK_GROUP) as f64 / (1024.0 * 1024.0);
        mib / (ns_per_group / 1e9)
    })
}

fn transport(share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let (a, b) = memory_pair();
    out.push((
        "rpc.transport.memory_rtt_us",
        rtt_us((Box::new(a), Box::new(b)), false, share)?,
    ));
    out.push((
        "rpc.transport.unix_rtt_us",
        rtt_us(unix_pair()?, false, share)?,
    ));
    out.push((
        "rpc.transport.tcp_rtt_us",
        rtt_us(tcp_pair()?, false, share)?,
    ));
    out.push((
        "rpc.transport.tls_rtt_us",
        rtt_us(tcp_pair()?, true, share)?,
    ));
    out.push((
        "rpc.transport.tcp_bulk_mib_per_s",
        bulk_mib_per_s(tcp_pair()?, false, share)?,
    ));
    out.push((
        "rpc.transport.tls_bulk_mib_per_s",
        bulk_mib_per_s(tcp_pair()?, true, share)?,
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// rpc.client, rpc.pool, daemon.dispatch
// ---------------------------------------------------------------------------

/// Client-stub costs against a daemon child: what `Connect` adds over
/// the same procedure on a raw depth-1 connection, and what opening and
/// closing a connection costs.
fn client_stub(work: &Workdir, share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let daemon = Daemon::spawn(work, Extra::None)?;
    let uri = daemon.unix_uri();
    let conn = fail("connect", Connect::builder(&uri).open())?;
    fail("define", conn.define_domain(&domain_config("probe", 1)))?;
    let stub_ns = per_call_ns(share, || {
        assert!(
            conn.domain_lookup_by_name("probe").is_ok(),
            "stub lookup failed"
        );
    });
    let mut raw = RawConn::open(&daemon.socket())?;
    let raw_ns = per_call_ns(share, || {
        assert!(raw.lookup("probe").is_ok(), "raw lookup failed");
    });
    out.push(("rpc.client.stub_overhead_us", (stub_ns - raw_ns) / 1e3));
    out.push((
        "rpc.client.open_close_us",
        per_call_ns(share, || {
            let conn = Connect::builder(&uri).open().expect("open");
            conn.close();
        }) / 1e3,
    ));
    conn.close();
    daemon.stop()
}

/// Submit → start-of-run on an idle `WorkerPool`: the hop every
/// non-high-priority procedure takes.
fn pool(share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    const BATCH: u64 = 64;
    let pool = fail("pool start", WorkerPool::start(PoolLimits::new()))?;
    let waited_ns = Arc::new(AtomicU64::new(0));
    let ran = Arc::new(AtomicU64::new(0));
    let value = median_of_rounds(share, || {
        let before = (
            waited_ns.load(Ordering::Acquire),
            ran.load(Ordering::Acquire),
        );
        for submitted in 1..=BATCH {
            let (job_waited, job_ran) = (Arc::clone(&waited_ns), Arc::clone(&ran));
            let start = Instant::now();
            pool.submit(false, move || {
                job_waited.fetch_add(start.elapsed().as_nanos() as u64, Ordering::AcqRel);
                job_ran.fetch_add(1, Ordering::AcqRel);
            });
            while ran.load(Ordering::Acquire) < before.1 + submitted {
                std::thread::yield_now();
            }
        }
        (waited_ns.load(Ordering::Acquire) - before.0) as f64 / BATCH as f64
    });
    pool.shutdown();
    out.push(("rpc.pool.submit_to_run_us", value / 1e3));
    Ok(())
}

fn unique(tag: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

/// A quiet in-process daemon with a memory endpoint and room for the
/// fleet probes' reservations.
fn memory_daemon(tag: &str) -> Result<(Virtd, String), String> {
    let endpoint = unique(tag);
    let host = big_host(&format!("{endpoint}-qemu"));
    let daemon = fail("daemon", Virtd::builder(&endpoint).host(host).build())?;
    fail("endpoint", daemon.register_memory_endpoint(&endpoint))?;
    Ok((daemon, format!("qemu+memory://{endpoint}/system")))
}

/// One lookup through `qemu+memory://` to an in-process daemon: stub,
/// dispatch and driver with no kernel socket in the path.
fn memory_call(share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let (daemon, uri) = memory_daemon("layer-mem")?;
    let conn = fail("connect", Connect::builder(&uri).open())?;
    fail("define", conn.define_domain(&domain_config("probe", 1)))?;
    out.push((
        "daemon.dispatch.memory_call_us",
        per_call_ns(share, || {
            assert!(
                conn.domain_lookup_by_name("probe").is_ok(),
                "memory lookup failed"
            );
        }) / 1e3,
    ));
    conn.close();
    daemon.shutdown();
    Ok(())
}

// ---------------------------------------------------------------------------
// core.embedded, hypersim
// ---------------------------------------------------------------------------

fn big_host(name: &str) -> SimHost {
    SimHost::builder(name)
        .cpus(64)
        .memory_mib(1024 * 1024)
        .personality(QemuLike)
        .latency(LatencyModel::zero())
        .build()
}

/// The embedded driver called directly — the work left when every
/// transport, stub and dispatch layer is taken away.
fn embedded(rng: &mut Rng, share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let driver = EmbeddedConnection::new(big_host("layer-embedded"), "qemu:///system");
    let names = domain_names(rng, "vm", HOST_DOMAINS);
    for (i, name) in names.iter().enumerate() {
        fail(
            "define",
            driver.define_domain_xml(&domain_config(name, 1).to_xml_string()),
        )?;
        if i < 48 {
            fail("start", driver.start_domain(name))?;
        }
    }
    let mut key = 0;
    let mut next = || {
        key = (key + 1) % names.len();
        &names[key]
    };
    out.push((
        "core.embedded.lookup_ns",
        per_call_ns(share, || {
            std::hint::black_box(driver.lookup_domain_by_name(next()).is_ok());
        }),
    ));
    out.push((
        "core.embedded.set_autostart_ns",
        per_call_ns(share, || {
            std::hint::black_box(driver.set_autostart(next(), true).is_ok());
        }),
    ));
    out.push((
        "core.embedded.bulk_stats_us",
        per_call_ns(share, || {
            let stats = driver.get_all_domain_stats();
            assert!(
                stats.is_ok_and(|s| s.len() == HOST_DOMAINS),
                "bulk stats failed"
            );
        }) / 1e3,
    ));
    let xml = domain_config("cycle", 4).to_xml_string();
    out.push((
        "core.embedded.lifecycle_cycle_us",
        per_call_ns(share, || {
            let ok = driver.define_domain_xml(&xml).is_ok()
                && driver.start_domain("cycle").is_ok()
                && driver.suspend_domain("cycle").is_ok()
                && driver.resume_domain("cycle").is_ok()
                && driver.destroy_domain("cycle").is_ok()
                && driver.undefine_domain("cycle").is_ok();
            assert!(ok, "embedded lifecycle cycle failed");
        }) / 1e3,
    ));
    Ok(())
}

/// `SimHost::define_domain` and `start_domain` under the zero-latency
/// model, on fresh names each round (clean-up is not timed).
fn hypersim_host(share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    const BATCH: usize = 256;
    let host = big_host("layer-hypersim");
    let names: Vec<String> = (0..BATCH).map(|i| format!("sim-{i:03}")).collect();
    let mut define_ns = Vec::new();
    let start_ns = median_of_rounds(share * 2, || {
        let specs: Vec<DomainSpec> = names
            .iter()
            .map(|n| DomainSpec::new(n.as_str()).memory_mib(64))
            .collect();
        let begin = Instant::now();
        for spec in specs {
            host.define_domain(spec).expect("define");
        }
        let defined = Instant::now();
        for name in &names {
            host.start_domain(name).expect("start");
        }
        let started = Instant::now();
        for name in &names {
            host.destroy_domain(name).expect("destroy");
            host.undefine_domain(name).expect("undefine");
        }
        define_ns.push((defined - begin).as_nanos() as f64 / BATCH as f64);
        (started - defined).as_nanos() as f64 / BATCH as f64
    });
    out.push(("hypersim.define_us", median(&define_ns) / 1e3));
    out.push(("hypersim.start_us", start_ns / 1e3));
    Ok(())
}

// ---------------------------------------------------------------------------
// core.statestore
// ---------------------------------------------------------------------------

fn statestore(work: &Workdir, share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let payload =
        |n: u64| format!("<domain type=\"qemu\"><name>s</name><serial>{n}</serial></domain>");
    // Durable puts are milliseconds each, far above MIN_INTERVAL, so
    // each is timed on its own; payloads differ so the content-dedup
    // cache never short-circuits the write.
    let durable_puts = |store: &StateStore, writer: u64, budget: Duration| {
        let until = Instant::now() + budget;
        let mut times = Vec::new();
        let mut n = writer << 32;
        while times.len() < 3 || Instant::now() < until {
            n += 1;
            let name = format!("w{writer}-{}", n % 16);
            let start = Instant::now();
            store
                .put(ObjectKind::Domain, "qemu", &name, &payload(n))
                .expect("durable put");
            times.push(start.elapsed().as_nanos() as f64);
        }
        times
    };

    let store = fail("open store", StateStore::open(work.fresh_dir()?))?;
    out.push((
        "core.statestore.put_durable_us",
        median(&durable_puts(&store, 0, share)) / 1e3,
    ));

    let commits_before = store.group_commits_total();
    let times: Vec<f64> = std::thread::scope(|scope| {
        let writers: Vec<_> = (1..=2)
            .map(|writer| {
                let store = &store;
                scope.spawn(move || durable_puts(store, writer, share))
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("store writer panicked"))
            .collect()
    });
    out.push(("core.statestore.put_durable_2w_us", median(&times) / 1e3));
    out.push((
        "core.statestore.commits_per_put_2w",
        (store.group_commits_total() - commits_before) as f64 / times.len() as f64,
    ));

    let mut n = 0u64;
    out.push((
        "core.statestore.put_behind_ns",
        per_call_ns(share, || {
            n += 1;
            let name = format!("b{}", n % 200);
            store.put_behind(ObjectKind::DomainStatus, "qemu", &name, &payload(n));
        }),
    ));
    fail("flush", store.flush())?;
    out.push((
        "core.statestore.flush_us",
        median_of_rounds(share, || {
            for i in 0..200 {
                n += 1;
                store.put_behind(
                    ObjectKind::DomainStatus,
                    "qemu",
                    &format!("b{i}"),
                    &payload(n),
                );
            }
            let start = Instant::now();
            store.flush().expect("flush");
            start.elapsed().as_nanos() as f64
        }) / 1e3,
    ));

    for i in 0..1000 {
        store.put_behind(ObjectKind::Domain, "xen", &format!("l{i}"), &payload(i));
    }
    fail("flush", store.flush())?;
    out.push((
        "core.statestore.load_all_ms_per_1k",
        per_call_ns(share, || {
            let loaded = store.load_all(ObjectKind::Domain, "xen");
            assert_eq!(loaded.len(), 1000, "load_all lost frames");
        }) / 1e6,
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// core.event, fleet, metrics
// ---------------------------------------------------------------------------

fn event_bus(share: Duration, out: &mut Vec<Value>) {
    let event = DomainEvent {
        domain: "vm".to_string(),
        uuid: virt_core::uuid::Uuid::from_bytes([9; 16]),
        kind: DomainEventKind::Started,
        trace_id: 0,
    };
    for (name, subscribers) in [
        ("core.event.dispatch_1sub_ns", 1),
        ("core.event.dispatch_8sub_ns", 8),
    ] {
        let bus = EventBus::new();
        let delivered = Arc::new(AtomicU64::new(0));
        for _ in 0..subscribers {
            let delivered = Arc::clone(&delivered);
            bus.register(Arc::new(move |_event| {
                delivered.fetch_add(1, Ordering::Relaxed);
            }));
        }
        out.push((
            name,
            per_call_ns(share, || bus.emit(std::hint::black_box(&event))),
        ));
        assert!(
            delivered.load(Ordering::Relaxed) > 0,
            "event bus delivered nothing"
        );
    }
}

/// Placement, cached listing and a full refresh over two in-process
/// members × 500 domains. None of the four workloads goes through the
/// fleet layer; recorded so the parked fleet items have a baseline.
fn fleet(rng: &mut Rng, share: Duration, out: &mut Vec<Value>) -> Result<(), String> {
    let names = domain_names(rng, "fl", HOST_DOMAINS);
    let mut members = Vec::new();
    let mut builder = FleetManager::builder();
    for (i, half) in names.chunks(HOST_DOMAINS / 2).enumerate() {
        let (daemon, uri) = memory_daemon("layer-fleet")?;
        let conn = fail("connect", Connect::builder(&uri).open())?;
        for name in half {
            fail("define", conn.define_domain(&domain_config(name, 1)))?;
        }
        conn.close();
        builder = builder.host(format!("m{i}"), uri);
        members.push(daemon);
    }
    let fleet = fail("fleet", builder.build())?;
    out.push((
        "fleet.refresh_ms",
        per_call_ns(share, || {
            assert!(
                fleet.refresh().iter().all(|(_, r)| r.is_ok()),
                "fleet refresh failed"
            );
        }) / 1e6,
    ));
    // 1 MiB per probe: `place` reserves what it grants and nothing here
    // releases it, so the members (1 TiB each) must outlast the budget.
    let request = PlacementRequest::new("probe", 1, 1);
    out.push((
        "fleet.place_us",
        per_call_ns(share, || {
            assert!(fleet.place(&request).is_ok(), "fleet placement refused");
        }) / 1e3,
    ));
    out.push((
        "fleet.list_us",
        per_call_ns(share, || {
            assert_eq!(fleet.list().len(), HOST_DOMAINS, "fleet cache lost domains");
        }) / 1e3,
    ));
    drop(fleet);
    for daemon in members {
        daemon.shutdown();
    }
    Ok(())
}

fn metrics(share: Duration, out: &mut Vec<Value>) {
    let counter = Counter::new();
    out.push((
        "metrics.counter_inc_ns",
        per_call_ns(share, || counter.inc()),
    ));
    std::hint::black_box(counter.get());
    // Tracing is off in the harness process: this is the inert path
    // every instrumented call site pays.
    out.push((
        "metrics.span_disabled_ns",
        per_call_ns(share, || {
            drop(std::hint::black_box(span::enter(Stage::Api, 0)))
        }),
    ));
}

/// Number of timed measurements [`measure_all`] makes, for sizing each
/// one's share of the time budget.
const MEASUREMENTS: u32 = 40;

/// Runs every micro-measurement, spending about `budget` in total.
///
/// # Errors
///
/// A layer refused the generated inputs.
pub fn measure_all(work: &Workdir, seed: u64, budget: Duration) -> Result<Vec<Value>, String> {
    let share = budget / MEASUREMENTS;
    let mut rng = Rng::new(seed, 9);
    let mut out = Vec::new();
    xml(&mut rng, share, &mut out)?;
    message(&mut rng, share, &mut out)?;
    transport(share, &mut out)?;
    client_stub(work, share, &mut out)?;
    pool(share, &mut out)?;
    memory_call(share, &mut out)?;
    embedded(&mut rng, share, &mut out)?;
    hypersim_host(share, &mut out)?;
    statestore(work, share, &mut out)?;
    event_bus(share, &mut out);
    fleet(&mut rng, share, &mut out)?;
    metrics(share, &mut out);
    Ok(out)
}
