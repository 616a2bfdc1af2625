//! Connection resilience end-to-end: connections killed under the client,
//! daemon restarts (in-process and real-process), retry/idempotency
//! semantics, event-callback replay after reconnect, and the circuit
//! breaker under persistent failure — all observable through the metrics
//! the admin interface exports.

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use virt_core::event::DomainEventKind;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, ObjectKind, StateStore, Uuid};
use virt_rpc::message::{MessageType, Packet, REMOTE_PROGRAM};
use virt_rpc::transport::{memory_listener, Listener, MemoryConnector, Transport};
use virt_rpc::{ReconnectConfig, ReconnectMetrics, ReconnectingClient};
use virtd::{AdminClient, Virtd, VirtdConfig};

fn unique(name: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

/// Retries patient enough to ride out a daemon restart: on the fixed
/// ladder (100 ms doubling to 5 s) ten retries span over 20 s.
const PATIENT_RETRIES: u32 = 10;

fn wait_until(pred: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// RPC layer: connections killed mid-stream under the client.
// ---------------------------------------------------------------------

/// An echo server behind a memory listener: replies to every call with
/// its own payload and answers keepalive pings.
struct EchoService {
    connector: MemoryConnector,
    /// Every connection accepted so far, server side.
    accepted: Arc<Mutex<Vec<Arc<dyn Transport>>>>,
}

impl EchoService {
    fn start() -> EchoService {
        let (listener, connector) = memory_listener();
        let accepted: Arc<Mutex<Vec<Arc<dyn Transport>>>> = Arc::default();
        let registry = Arc::clone(&accepted);
        std::thread::spawn(move || {
            while let Ok(conn) = listener.accept() {
                let conn: Arc<dyn Transport> = Arc::from(conn);
                registry.lock().unwrap().push(Arc::clone(&conn));
                std::thread::spawn(move || {
                    while let Ok(frame) = conn.recv_frame() {
                        let packet = match Packet::from_body(&frame) {
                            Ok(p) => p,
                            Err(_) => break,
                        };
                        if let Some(pong) = virt_rpc::keepalive::respond(&packet) {
                            let _ = conn.send_frame(&pong.to_frame()[4..]);
                            continue;
                        }
                        if packet.header.mtype != MessageType::Call {
                            continue;
                        }
                        let reply = Packet {
                            header: packet.header.reply_ok(),
                            payload: packet.payload.clone(),
                        };
                        let _ = conn.send_frame(&reply.to_frame()[4..]);
                    }
                });
            }
        });
        EchoService {
            connector,
            accepted,
        }
    }

    /// A client of the service that retries idempotent calls.
    fn client(&self, metrics: ReconnectMetrics) -> ReconnectingClient {
        let dialer = self.connector.clone();
        ReconnectingClient::with_transport(
            Arc::new(self.connector.connect().unwrap()),
            Box::new(move || dialer.connect().map(|t| Arc::new(t) as Arc<dyn Transport>)),
            Box::new(|_| Ok(())),
            ReconnectConfig {
                retries: PATIENT_RETRIES,
                ..ReconnectConfig::default()
            },
            metrics,
        )
        .unwrap()
    }

    /// Hangs up every connection from the server's side. The clients have
    /// answered calls on them, so they were accepted; nobody reads them
    /// between calls, so the clients have not seen the hang-up.
    fn kill(&self) {
        for conn in self.accepted.lock().unwrap().drain(..) {
            let _ = conn.shutdown();
        }
    }
}

#[test]
fn injected_mid_stream_kill_is_survived_by_idempotent_calls() {
    let service = EchoService::start();
    let client = service.client(ReconnectMetrics::new());

    let reply: String = client
        .call(REMOTE_PROGRAM, 1, true, &"warm".to_string(), None)
        .unwrap();
    assert_eq!(reply, "warm");
    assert_eq!(client.generation(), 1);

    // Kill the connection under the client: the next call finds it dead,
    // before or after sending, and is carried to a fresh connection.
    service.kill();
    let reply: String = client
        .call(REMOTE_PROGRAM, 1, true, &"again".to_string(), None)
        .expect("idempotent call transparently retried onto a fresh connection");
    assert_eq!(reply, "again");
    assert!(client.generation() >= 2, "client re-dialed");
    client.close();
}

/// Every connection of a process counts into the one `rpc.reconnect.*`
/// set of `client_metrics()`: two clients attached there hold the
/// registry's `attempts` counter, and both re-dials land in it.
#[test]
fn two_connections_share_the_process_reconnect_counters() {
    let registry = virt_core::client_metrics();
    let connect = || {
        let service = EchoService::start();
        let metrics = ReconnectMetrics::new().attach(registry, "rpc.");
        let client = service.client(metrics.clone());
        (client, service, metrics)
    };
    let first = connect();
    let second = connect();
    let attempts = registry.counter("rpc.reconnect.attempts", "");
    assert!(Arc::ptr_eq(&first.2.reconnect_attempts, &attempts));
    assert!(Arc::ptr_eq(&second.2.reconnect_attempts, &attempts));

    let before = attempts.get();
    for (client, service, _) in [&first, &second] {
        let _: String = client
            .call(REMOTE_PROGRAM, 1, true, &"warm".to_string(), None)
            .unwrap();
        service.kill();
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"again".to_string(), None)
            .expect("idempotent call retried onto a fresh connection");
        assert_eq!(reply, "again");
        assert!(client.generation() >= 2, "client re-dialed");
    }
    // Process-global: other tests may re-dial too, so at least both.
    assert!(attempts.get() >= before + 2);

    first.0.close();
    second.0.close();
}

// ---------------------------------------------------------------------
// Connection layer: daemon restart mid-workload.
// ---------------------------------------------------------------------

#[test]
fn idempotent_calls_survive_daemon_restart() {
    let endpoint = unique("resilient");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let uri = format!("qemu+memory://{endpoint}/system");

    // The breaker judges calls, not attempts: a call riding out the outage
    // on its retries is one call to it, however many re-dials fail.
    let conn = Connect::builder(&uri)
        .retries(PATIENT_RETRIES)
        .open()
        .unwrap();
    let baseline = conn.hostname().unwrap();

    // Tear the daemon down mid-workload, preserving the hypervisor (the
    // real-world libvirtd restart: state lives in the hypervisor).
    let qemu_host = daemon.host("qemu").unwrap().clone();
    daemon.shutdown();
    wait_until(|| !conn.is_alive(), "client to notice the shutdown");

    // A mutating call against the dead daemon fails cleanly — it is
    // never blindly retried.
    let err = conn
        .define_domain(&DomainConfig::new("too-soon", 64, 1))
        .unwrap_err();
    assert!(!err.message().is_empty());

    // Restart the daemon on the same endpoint once the client has failed
    // a re-dial, so the calls below really ride the retry loop across the
    // outage. (The counter is process-wide: another test's failed re-dial
    // only starts the restart sooner.)
    let redial_failures = || {
        virt_core::client_metrics()
            .counter("rpc.reconnect.failures", "")
            .get()
    };
    let failures_before = redial_failures();
    let restarter = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            wait_until(
                || redial_failures() > failures_before,
                "the client to fail a re-dial",
            );
            let daemon = Virtd::builder(&endpoint).host(qemu_host).build().unwrap();
            daemon.register_memory_endpoint(&endpoint).unwrap();
            daemon
        })
    };

    // Idempotent traffic issued while the daemon is still down rides the
    // retry loop across the restart: zero failed calls.
    for _ in 0..5 {
        assert_eq!(conn.hostname().unwrap(), baseline);
    }
    let daemon2 = restarter.join().unwrap();

    // The recovery is visible in the client-side metrics the daemon's
    // admin interface merges in (what `vadm metrics rpc.` shows).
    let admin = AdminClient::new(daemon2.admin_memory_connector().connect().unwrap());
    let reconnect = admin.metrics("rpc.reconnect.").unwrap();
    let value_of = |name: &str| {
        reconnect
            .iter()
            .find(|m| m.name == format!("rpc.reconnect.{name}"))
            .unwrap_or_else(|| panic!("rpc.reconnect.{name} missing: {reconnect:?}"))
            .value
    };
    assert!(value_of("attempts") >= 1, "re-dials were attempted");
    assert!(value_of("successes") >= 1, "a re-dial succeeded");
    let retries = admin.metrics("rpc.retry.calls").unwrap();
    assert_eq!(retries.len(), 1);
    assert!(retries[0].value >= 1, "the retry loop actually retried");

    admin.close();
    conn.close();
    daemon2.shutdown();
}

#[test]
fn event_callbacks_fire_again_after_reconnect() {
    let endpoint = unique("events-reborn");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let uri = format!("qemu+memory://{endpoint}/system");

    let watcher = Connect::builder(&uri)
        .retries(PATIENT_RETRIES)
        .open()
        .unwrap();
    let (tx, rx) = mpsc::channel();
    watcher
        .register_event_callback(move |event| {
            let _ = tx.send((event.kind, event.domain.clone()));
        })
        .unwrap();

    // Prove the subscription is live before the restart.
    let operator = Connect::builder(&uri).open().unwrap();
    operator
        .define_domain(&DomainConfig::new("before", 64, 1))
        .unwrap();
    let (kind, name) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!((kind, name.as_str()), (DomainEventKind::Defined, "before"));
    operator.close();

    // Restart the daemon around the same hypervisor.
    let qemu_host = daemon.host("qemu").unwrap().clone();
    daemon.shutdown();
    wait_until(|| !watcher.is_alive(), "watcher to notice the shutdown");
    let daemon2 = Virtd::builder(&endpoint).host(qemu_host).build().unwrap();
    daemon2.register_memory_endpoint(&endpoint).unwrap();

    // Any call triggers the lazy reconnect, which replays the session
    // setup — auth, open, and the event-callback registration.
    watcher.hostname().unwrap();

    let operator = Connect::builder(&uri).open().unwrap();
    operator
        .define_domain(&DomainConfig::new("after", 64, 1))
        .unwrap();
    let (kind, name) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!((kind, name.as_str()), (DomainEventKind::Defined, "after"));

    // The replay is counted (process-global, so only monotone-nonzero
    // assertions are safe here).
    let replayed = virt_core::client_metrics()
        .counter(
            "rpc.reconnect.callbacks_replayed",
            "event callback registrations replayed after reconnect",
        )
        .get();
    assert!(replayed >= 1, "callback registration was replayed");

    operator.close();
    watcher.close();
    daemon2.shutdown();
}

#[test]
fn breaker_opens_under_persistent_failure_and_fails_fast() {
    let endpoint = unique("breaker");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let uri = format!("qemu+memory://{endpoint}/system");

    // No retries: each failing call is exactly one dial attempt, so the
    // breaker's failure count advances deterministically.
    let conn = Connect::builder(&uri).open().unwrap();
    conn.hostname().unwrap();

    // Daemon goes away for good.
    daemon.shutdown();
    wait_until(|| !conn.is_alive(), "client to notice the shutdown");

    // Three failed calls (the session's BREAKER_THRESHOLD) trip the
    // breaker...
    for _ in 0..3 {
        assert!(conn.hostname().is_err());
    }

    // ...after which calls fail fast without touching the network.
    let started = Instant::now();
    let err = conn.hostname().unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "breaker must fail fast, took {:?}",
        started.elapsed()
    );
    assert!(
        err.message().contains("circuit"),
        "expected a circuit-breaker error, got: {err}"
    );
    conn.close();
}

// ---------------------------------------------------------------------
// Process layer: a real virtd process killed with SIGKILL and restarted.
// ---------------------------------------------------------------------

fn binary(name: &str) -> std::path::PathBuf {
    // Integration tests live in target/<profile>/deps; `cargo build` puts
    // binaries one level up. The tier-1 gate builds binaries in release
    // but runs tests in debug, so also probe the sibling profile dirs.
    let mut profile_dir = std::env::current_exe().expect("test binary path");
    profile_dir.pop();
    profile_dir.pop();
    let target_dir = profile_dir.parent().expect("target dir").to_path_buf();
    let candidates = [
        profile_dir.join(name),
        target_dir.join("release").join(name),
        target_dir.join("debug").join(name),
    ];
    for candidate in &candidates {
        if candidate.exists() {
            return candidate.clone();
        }
    }
    panic!("binary {name} not found; run `cargo build` or `cargo build --release` first (looked in {candidates:?})");
}

fn spawn_virtd(socket: &str, admin_socket: &str) -> Child {
    spawn_virtd_with(socket, admin_socket, &[])
}

fn spawn_virtd_with(socket: &str, admin_socket: &str, extra: &[&str]) -> Child {
    let child = Command::new(binary("virtd"))
        .args([
            "--name",
            "chaos",
            "--unix",
            socket,
            "--admin-unix",
            admin_socket,
            "--quiet-hosts",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("virtd binary spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(std::path::Path::new(socket).exists() && std::path::Path::new(admin_socket).exists()) {
        assert!(Instant::now() < deadline, "daemon sockets never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

#[test]
fn killed_daemon_process_recovers_after_respawn() {
    let id = unique("chaos");
    let socket = format!("/tmp/virtd-{id}.sock");
    let admin_socket = format!("/tmp/virtd-{id}-admin.sock");

    let mut child = spawn_virtd(&socket, &admin_socket);
    let conn = Connect::builder(format!("qemu+unix:///system?socket={socket}"))
        .retries(PATIENT_RETRIES)
        .open()
        .unwrap();
    let baseline = conn.hostname().unwrap();

    // SIGKILL: no goodbye, no clean shutdown — the socket just dies.
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    wait_until(|| !conn.is_alive(), "client to notice the kill");

    // Respawn on the same socket path; the client reconnects and the
    // idempotent call succeeds as if nothing happened.
    let mut child2 = spawn_virtd(&socket, &admin_socket);
    assert_eq!(conn.hostname().unwrap(), baseline);

    conn.close();
    let _ = child2.kill();
    let _ = child2.wait();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
}

// ---------------------------------------------------------------------
// Persistence layer: SIGKILL with a statedir — definitions, autostart
// and crash status must all survive the respawn.
// ---------------------------------------------------------------------

fn recovery_metric(admin_socket: &str, name: &str) -> u64 {
    let admin = AdminClient::new(
        virt_rpc::transport::UnixTransport::connect(admin_socket).expect("admin socket dials"),
    );
    let metrics = admin.metrics("recovery.").unwrap();
    let value = metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing: {metrics:?}"))
        .value;
    admin.close();
    value
}

#[test]
fn statedir_sigkill_respawn_recovers_definitions_autostart_and_crash_status() {
    let id = unique("chaos-state");
    let socket = format!("/tmp/virtd-{id}.sock");
    let admin_socket = format!("/tmp/virtd-{id}-admin.sock");
    let statedir = std::env::temp_dir().join(format!("virtd-state-{id}"));
    let statedir_arg = statedir.to_string_lossy().to_string();

    let mut child = spawn_virtd_with(&socket, &admin_socket, &["--statedir", &statedir_arg]);
    let conn = Connect::builder(format!("qemu+unix:///system?socket={socket}"))
        .retries(PATIENT_RETRIES)
        .open()
        .unwrap();

    // 20 persistent domains, autostart on the even half, the first six
    // running when the axe falls.
    for i in 0..20 {
        let domain = conn
            .define_domain(&DomainConfig::new(format!("dom{i:02}"), 64, 1))
            .unwrap();
        if i % 2 == 0 {
            domain.set_autostart(true).unwrap();
        }
        if i < 6 {
            domain.start().unwrap();
        }
    }

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    wait_until(|| !conn.is_alive(), "client to notice the kill");

    let mut child2 = spawn_virtd_with(&socket, &admin_socket, &["--statedir", &statedir_arg]);

    // 100% of persistent definitions are back, flags intact.
    for i in 0..20 {
        let name = format!("dom{i:02}");
        let info = conn.domain_lookup_by_name(&name).unwrap().info().unwrap();
        assert!(info.persistent, "{name} must be persistent after recovery");
        assert_eq!(info.autostart, i % 2 == 0, "{name} autostart flag");
        if i % 2 == 0 {
            assert!(
                info.state.is_active(),
                "autostart domain {name} must be running, is {}",
                info.state
            );
        } else if i < 6 {
            // Previously running, not autostart: its guest died with the
            // daemon, so it reports shut off (reason: crashed).
            assert!(
                !info.state.is_active(),
                "{name} must be shut off after the crash, is {}",
                info.state
            );
        } else {
            assert_eq!(info.state, virt_core::DomainState::Shutoff, "{name}");
        }
    }

    assert_eq!(recovery_metric(&admin_socket, "recovery.recovered"), 20);
    assert_eq!(recovery_metric(&admin_socket, "recovery.crashed"), 6);
    assert_eq!(recovery_metric(&admin_socket, "recovery.autostarted"), 10);
    assert_eq!(recovery_metric(&admin_socket, "recovery.quarantined"), 0);

    conn.close();
    let _ = child2.kill();
    let _ = child2.wait();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    let _ = std::fs::remove_dir_all(&statedir);
}

#[test]
fn torn_state_file_is_quarantined_not_fatal() {
    let id = unique("chaos-torn");
    let socket = format!("/tmp/virtd-{id}.sock");
    let admin_socket = format!("/tmp/virtd-{id}-admin.sock");
    let statedir = std::env::temp_dir().join(format!("virtd-state-{id}"));
    let statedir_arg = statedir.to_string_lossy().to_string();

    let mut child = spawn_virtd_with(&socket, &admin_socket, &["--statedir", &statedir_arg]);
    let conn = Connect::builder(format!("qemu+unix:///system?socket={socket}"))
        .retries(PATIENT_RETRIES)
        .open()
        .unwrap();
    for name in ["alpha", "beta", "gamma"] {
        conn.define_domain(&DomainConfig::new(name, 64, 1)).unwrap();
    }

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    wait_until(|| !conn.is_alive(), "client to notice the kill");

    // Truncate one committed definition mid-byte: the torn file a real
    // crash could leave behind without the temp-file + rename protocol.
    let victim = statedir.join("etc/domains/qemu/beta.xml");
    let bytes = std::fs::read(&victim).expect("definition file exists");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    // The daemon must boot anyway…
    let mut child2 = spawn_virtd_with(&socket, &admin_socket, &["--statedir", &statedir_arg]);

    // …serving the intact domains and quarantining the torn one.
    assert!(conn.domain_lookup_by_name("alpha").is_ok());
    assert!(conn.domain_lookup_by_name("gamma").is_ok());
    assert!(conn.domain_lookup_by_name("beta").is_err());
    assert_eq!(recovery_metric(&admin_socket, "recovery.recovered"), 2);
    assert!(recovery_metric(&admin_socket, "recovery.quarantined") >= 1);
    assert!(
        std::fs::read_dir(statedir.join("quarantine"))
            .map(|entries| entries.count() >= 1)
            .unwrap_or(false),
        "torn file preserved under quarantine/"
    );

    conn.close();
    let _ = child2.kill();
    let _ = child2.wait();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    let _ = std::fs::remove_dir_all(&statedir);
}

// ---------------------------------------------------------------------
// Persistence layer, in process: UUID identity across daemon lives.
// ---------------------------------------------------------------------

fn daemon_counter(daemon: &Virtd, name: &str) -> u64 {
    let snapshot = daemon.metrics().snapshot(name);
    match snapshot.iter().find(|m| m.name == name).map(|m| &m.value) {
        Some(virt_core::metrics::MetricValue::Counter(v)) => *v,
        other => panic!("{name}: {other:?}"),
    }
}

/// One life of a statedir daemon named `name`, served on a fresh memory
/// endpoint: builds it, runs `body` against its qemu driver, shuts it down.
fn statedir_life<T>(
    name: &str,
    statedir: &std::path::Path,
    body: impl FnOnce(&Virtd, &Connect) -> T,
) -> T {
    let daemon = Virtd::builder(name)
        .config(VirtdConfig::new().statedir(statedir))
        .with_quiet_hosts()
        .build()
        .expect("the daemon boots on the state directory");
    let endpoint = unique("uuid-life");
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    let out = body(&daemon, &conn);
    conn.close();
    daemon.shutdown();
    out
}

/// A daemon restarted under its own name replays its hosts' UUID stream,
/// and recovery re-adopts every domain with its recorded UUID. A define
/// in the new life must skip the UUIDs adopted domains hold: otherwise
/// `beta` gets `alpha`'s UUID, a UUID lookup of `beta` finds `alpha`, and
/// the third life refuses to boot on the duplicate.
#[test]
fn statedir_restart_never_reissues_a_recovered_domains_uuid() {
    let name = unique("uuid-lives");
    let statedir = std::env::temp_dir().join(format!("virtd-state-{name}"));

    let alpha = statedir_life(&name, &statedir, |_, conn| {
        conn.define_domain(&DomainConfig::new("alpha", 64, 1))
            .unwrap()
            .uuid()
    });

    let beta = statedir_life(&name, &statedir, |_, conn| {
        assert_eq!(conn.domain_lookup_by_name("alpha").unwrap().uuid(), alpha);
        let beta = conn
            .define_domain(&DomainConfig::new("beta", 64, 1))
            .unwrap()
            .uuid();
        assert_ne!(beta, alpha, "life 2 reissued alpha's UUID to beta");
        assert_eq!(conn.domain_lookup_by_uuid(beta).unwrap().name(), "beta");
        beta
    });

    statedir_life(&name, &statedir, |daemon, conn| {
        for (domain, uuid) in [("alpha", alpha), ("beta", beta)] {
            assert_eq!(conn.domain_lookup_by_name(domain).unwrap().uuid(), uuid);
            assert_eq!(conn.domain_lookup_by_uuid(uuid).unwrap().name(), domain);
        }
        assert_eq!(daemon_counter(daemon, "recovery.recovered"), 2);
        assert_eq!(daemon_counter(daemon, "recovery.quarantined"), 0);
    });
    let _ = std::fs::remove_dir_all(&statedir);
}

/// Two definitions carrying one `<uuid>` — a directory written by a daemon
/// that reissued a UUID, or a hand-copied definition. Like a corrupt file,
/// the conflict is quarantined and the daemon boots: the first definition
/// by name keeps the UUID.
#[test]
fn statedir_uuid_conflict_is_quarantined_not_fatal() {
    let name = unique("uuid-clash");
    let statedir = std::env::temp_dir().join(format!("virtd-state-{name}"));
    let uuid = Uuid::generate();
    {
        let store = StateStore::open(&statedir).unwrap();
        for domain in ["alpha", "beta"] {
            let mut config = DomainConfig::new(domain, 64, 1);
            config.uuid = Some(uuid);
            store
                .put(ObjectKind::Domain, "qemu", domain, &config.to_xml_string())
                .unwrap();
        }
    }

    statedir_life(&name, &statedir, |daemon, conn| {
        let names: Vec<String> = daemon
            .host("qemu")
            .unwrap()
            .list_domains()
            .unwrap()
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, ["alpha"]);
        assert_eq!(conn.domain_lookup_by_uuid(uuid).unwrap().name(), "alpha");
        assert_eq!(daemon_counter(daemon, "recovery.recovered"), 1);
        assert_eq!(daemon_counter(daemon, "recovery.quarantined"), 1);
    });
    let quarantined: Vec<_> = std::fs::read_dir(statedir.join("quarantine"))
        .unwrap()
        .flatten()
        .map(|entry| entry.file_name())
        .collect();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert!(!statedir.join("etc/domains/qemu/beta.xml").exists());
    let _ = std::fs::remove_dir_all(&statedir);
}

// ---------------------------------------------------------------------
// Group-commit pipeline: SIGKILL in the middle of a write-behind batch.
// ---------------------------------------------------------------------

/// SIGKILL lands right behind a burst of write-behind status records
/// (each waits up to the 2 ms coalesce window) and possibly a durable
/// batch mid-cycle. The
/// crash contract says recovery must see only whole frames — each
/// object's old frame or its new frame, never a torn hybrid — so the
/// respawn re-adopts 100% of the durably-defined domains and
/// quarantines nothing.
#[test]
fn sigkill_mid_batch_recovers_whole_frames_and_all_definitions() {
    let id = unique("chaos-batch");
    let socket = format!("/tmp/virtd-{id}.sock");
    let admin_socket = format!("/tmp/virtd-{id}-admin.sock");
    let statedir = std::env::temp_dir().join(format!("virtd-state-{id}"));
    let statedir_arg = statedir.to_string_lossy().to_string();

    let mut child = spawn_virtd_with(&socket, &admin_socket, &["--statedir", &statedir_arg]);
    let conn = Connect::builder(format!("qemu+unix:///system?socket={socket}"))
        .retries(PATIENT_RETRIES)
        .open()
        .unwrap();

    // 30 durable definitions: each blocks on the group-commit barrier,
    // so all 30 are on disk before the axe falls.
    for i in 0..30 {
        conn.define_domain(&DomainConfig::new(format!("batch{i:02}"), 64, 1))
            .unwrap();
    }
    // A burst of lifecycle flips: their status records ride the
    // write-behind path, so the SIGKILL can land with the coalescing
    // queue still dirty.
    for i in 0..10 {
        conn.domain_lookup_by_name(&format!("batch{i:02}"))
            .unwrap()
            .start()
            .unwrap();
    }

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    wait_until(|| !conn.is_alive(), "client to notice the kill");

    // Every surviving state file must be a whole frame: non-empty and
    // carrying the checksummed header the store writes first. A torn
    // tail would mean rename ran before the frame's bytes were durable.
    for sub in ["etc/domains/qemu", "run/domains/qemu"] {
        let dir = statedir.join(sub);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let bytes = std::fs::read(entry.path()).unwrap();
            assert!(
                bytes.starts_with(b"#virtstate v1 "),
                "{:?} is not a whole frame",
                entry.path()
            );
        }
    }
    // The kill rarely lands between a frame's staging and its rename, so
    // plant what that instant leaves behind: a staged temp file.
    let stray = statedir.join("etc/domains/qemu/.batch00.tmp31");
    std::fs::write(&stray, b"#virtstate v1 fnv=").unwrap();

    let mut child2 = spawn_virtd_with(&socket, &admin_socket, &["--statedir", &statedir_arg]);

    // 100% of the durably-committed definitions are re-adopted…
    for i in 0..30 {
        let name = format!("batch{i:02}");
        let info = conn.domain_lookup_by_name(&name).unwrap().info().unwrap();
        assert!(info.persistent, "{name} must survive the mid-batch kill");
    }
    assert_eq!(recovery_metric(&admin_socket, "recovery.recovered"), 30);
    // …and nothing was quarantined: the batch left no torn frames.
    assert_eq!(recovery_metric(&admin_socket, "recovery.quarantined"), 0);
    // Recovery swept the dead daemon's staged temp files. The new life
    // stages its own while a write-behind flush is in flight, so look
    // until none is left.
    let staged = || {
        ["etc/domains/qemu", "run/domains/qemu"]
            .iter()
            .flat_map(|sub| std::fs::read_dir(statedir.join(sub)).into_iter().flatten())
            .flatten()
            .any(|entry| entry.file_name().to_string_lossy().contains(".tmp"))
    };
    wait_until(|| !staged(), "staged temp files to be swept");

    conn.close();
    let _ = child2.kill();
    let _ = child2.wait();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&admin_socket);
    let _ = std::fs::remove_dir_all(&statedir);
}
