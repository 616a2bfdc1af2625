//! Remote event delivery and failure semantics: events over RPC, the
//! stateless/stateful driver distinction under restarts, host crashes,
//! and hung-hypervisor resilience via priority workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use hypersim::personality::EsxLike;
use hypersim::{FaultAction, FaultPlan, LatencyModel, OpKind, SimHost};
use virt_core::event::DomainEventKind;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{testbed, Connect, DomainState, ErrorCode};
use virt_rpc::PoolLimits;
use virtd::{Virtd, VirtdConfig};

fn unique(name: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

#[test]
fn lifecycle_events_are_pushed_over_rpc() {
    let endpoint = unique("events");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let uri = format!("qemu+memory://{endpoint}/system");

    let watcher = Connect::builder(&uri).open().unwrap();
    let (tx, rx) = mpsc::channel();
    let callback_id = watcher
        .register_event_callback(move |event| {
            let _ = tx.send((event.kind, event.domain.clone()));
        })
        .unwrap();

    // Another client does the work; the watcher only observes.
    let operator = Connect::builder(&uri).open().unwrap();
    let domain = operator
        .define_domain(&DomainConfig::new("observed", 128, 1))
        .unwrap();
    domain.start().unwrap();
    domain.suspend().unwrap();
    domain.resume().unwrap();
    domain.destroy().unwrap();
    domain.undefine().unwrap();

    let expected = [
        DomainEventKind::Defined,
        DomainEventKind::Started,
        DomainEventKind::Suspended,
        DomainEventKind::Resumed,
        DomainEventKind::Stopped,
        DomainEventKind::Undefined,
    ];
    for expected_kind in expected {
        let (kind, name) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("event arrives");
        assert_eq!(kind, expected_kind);
        assert_eq!(name, "observed");
    }

    // After unregistering, no further events arrive.
    watcher.unregister_event_callback(callback_id).unwrap();
    let d2 = operator
        .define_domain(&DomainConfig::new("silent", 128, 1))
        .unwrap();
    d2.undefine().unwrap();
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());

    operator.close();
    watcher.close();
    daemon.shutdown();
}

#[test]
fn stateful_vs_stateless_semantics_across_daemon_restart() {
    // ESX-style platforms persist state in the hypervisor: after the
    // managing daemon is torn down completely, a fresh connection still
    // sees the running domain. That's the architectural reason the ESX
    // driver can be stateless and daemon-free.
    let esx_name = unique("esx-restart");
    let esx_host = SimHost::builder(&esx_name)
        .personality(EsxLike)
        .latency(LatencyModel::zero())
        .build();
    testbed::register_host(&esx_name, esx_host);

    let esx_conn = Connect::builder(format!("esx://{esx_name}/"))
        .open()
        .unwrap();
    let esx_vm = esx_conn
        .define_domain(&DomainConfig::new("ghostrider", 256, 1))
        .unwrap();
    esx_vm.start().unwrap();
    esx_conn.close();

    // "Restart the management layer": simply reconnect — nothing was
    // daemon-resident.
    let esx_conn2 = Connect::builder(format!("esx://{esx_name}/"))
        .open()
        .unwrap();
    assert_eq!(
        esx_conn2
            .domain_lookup_by_name("ghostrider")
            .unwrap()
            .state()
            .unwrap(),
        DomainState::Running
    );
    esx_conn2.close();
    testbed::unregister_host(&esx_name);

    // For daemon-managed platforms, reconstructing the daemon around the
    // same hypervisor (the real-world libvirtd restart) also preserves
    // running domains — the state lives in the hypervisor process, the
    // daemon merely reconnects.
    let endpoint = unique("virtd-restart");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    let vm = conn
        .define_domain(&DomainConfig::new("survivor", 128, 1))
        .unwrap();
    vm.start().unwrap();
    conn.close();
    let qemu_host = daemon.host("qemu").unwrap().clone();
    daemon.shutdown();

    let daemon2 = Virtd::builder(&endpoint).host(qemu_host).build().unwrap();
    daemon2.register_memory_endpoint(&endpoint).unwrap();
    let conn2 = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    assert_eq!(
        conn2
            .domain_lookup_by_name("survivor")
            .unwrap()
            .state()
            .unwrap(),
        DomainState::Running
    );
    conn2.close();
    daemon2.shutdown();
}

#[test]
fn host_crash_surfaces_as_no_connect_and_recovers_after_reboot() {
    let endpoint = unique("crash");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();

    let vm = conn
        .define_domain(&DomainConfig::new("victim", 128, 1))
        .unwrap();
    vm.start().unwrap();
    vm.set_autostart(true).unwrap();

    daemon.host("qemu").unwrap().crash();
    let err = conn.list_domain_names().unwrap_err();
    assert_eq!(err.code(), ErrorCode::NoConnect);

    daemon.host("qemu").unwrap().restart().unwrap();
    // Autostart brought the domain back.
    assert_eq!(vm.state().unwrap(), DomainState::Running);

    conn.close();
    daemon.shutdown();
}

#[test]
fn hung_hypervisor_call_does_not_block_queries() {
    // One ordinary worker, wedged on a start that "hangs" for 30 simulated
    // minutes... because time is virtual, the hang costs nothing real, but
    // the worker is genuinely occupied while it executes. Priority-tagged
    // queries keep flowing.
    let endpoint = unique("hang");
    let clock = hypersim::SimClock::new();
    let hang_host = SimHost::builder("hang-qemu")
        .personality(hypersim::personality::QemuLike)
        .clock(clock)
        .latency(LatencyModel::zero())
        .faults(FaultPlan::new().inject(
            OpKind::Start,
            1,
            FaultAction::Hang(Duration::from_secs(1800)),
        ))
        .build();
    let daemon = Virtd::builder(&endpoint)
        .host(hang_host)
        .config(VirtdConfig::new().pool_limits(PoolLimits {
            min_workers: 1,
            max_workers: 1,
            priority_workers: 2,
        }))
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let uri = format!("qemu+memory://{endpoint}/system");

    let conn = Connect::builder(&uri).open().unwrap();
    conn.define_domain(&DomainConfig::new("sticky", 64, 1))
        .unwrap();

    // The "hung" start still completes (virtual hang), but while it runs
    // queries from another client must succeed — they ride priority
    // workers.
    let starter = {
        let uri = uri.clone();
        std::thread::spawn(move || {
            let c = Connect::builder(&uri).open().unwrap();
            let d = c.domain_lookup_by_name("sticky").unwrap();
            d.start().unwrap();
            c.close();
        })
    };

    for _ in 0..20 {
        let names = conn.list_domain_names().unwrap();
        assert_eq!(names, vec!["sticky"]);
    }
    starter.join().unwrap();

    conn.close();
    daemon.shutdown();
}

#[test]
fn injected_operation_failures_surface_with_correct_codes_over_rpc() {
    let endpoint = unique("faults");
    let faulty_host = SimHost::builder("faulty-qemu")
        .personality(hypersim::personality::QemuLike)
        .latency(LatencyModel::zero())
        .faults(FaultPlan::new().fail_on(OpKind::Start, 2))
        .build();
    let daemon = Virtd::builder(&endpoint).host(faulty_host).build().unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();

    let vm = conn
        .define_domain(&DomainConfig::new("flaky", 64, 1))
        .unwrap();
    vm.start().unwrap(); // first start OK
    vm.destroy().unwrap();
    let err = vm.start().unwrap_err(); // second injected to fail
    assert_eq!(err.code(), ErrorCode::OperationFailed);
    vm.start().unwrap(); // third OK again

    conn.close();
    daemon.shutdown();
}

#[test]
fn keepalive_pings_are_transparent_to_rpc_traffic() {
    use virt_rpc::keepalive::{is_pong, ping_packet};
    use virt_rpc::message::Packet;

    let endpoint = unique("ka");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    let connector = daemon.register_memory_endpoint(&endpoint).unwrap();

    // Raw transport: interleave keepalive pings with a real call.
    let transport = connector.connect().unwrap();
    use virt_rpc::transport::Transport;
    transport
        .send_frame(&ping_packet().to_frame()[4..])
        .unwrap();
    let frame = transport.recv_frame().unwrap();
    assert!(is_pong(&Packet::from_body(&frame).unwrap()));

    daemon.shutdown();
}

#[test]
fn active_keepalive_keeps_healthy_connections_and_kills_dead_ones() {
    // Healthy daemon: the connection survives well past interval × count.
    let endpoint = unique("ka-live");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system?keepalive=30:3"))
        .open()
        .unwrap();
    // More than `count` pings have reached the daemon: a client that had
    // not heard the pongs would have given the connection up before the
    // last of them.
    let pings = || {
        let name = "server.virtd.keepalive_pings";
        match daemon
            .metrics()
            .snapshot(name)
            .iter()
            .find(|m| m.name == name)
        {
            Some(m) => match m.value {
                virt_core::metrics::MetricValue::Counter(v) => v,
                ref other => panic!("{name}: {other:?}"),
            },
            None => panic!("{name} missing"),
        }
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pings() <= 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "the client stopped pinging"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        conn.is_alive(),
        "daemon answered pings, connection must live"
    );
    assert!(conn.hostname().is_ok());

    // Dead daemon: stop serving (shutdown closes the transport), so a
    // fresh keepalive-enabled connection to a silent peer dies.
    conn.close();
    daemon.shutdown();

    // A raw memory pair with no responder at all: connect a daemonless
    // endpoint by registering a listener nobody accepts on.
    let (listener, connector) = virt_rpc::transport::memory_listener();
    virt_core::testbed::register_daemon(unique("ka-dead"), connector.clone());
    // Hold the listener so connects succeed but nothing ever answers.
    let _parked_listener = listener;
    let transport = connector.connect().unwrap();
    use virt_rpc::transport::Transport as _;
    // Simulate the keepalive judgement directly against the silent peer:
    // the OPEN call itself can't complete, so opening a `Connect` would block on
    // its 30 s timeout — instead verify at the protocol level that pings
    // go unanswered.
    let ping = virt_rpc::keepalive::ping_packet();
    transport.send_frame(&ping.to_frame()[4..]).unwrap();
    // No pong arrives within a generous window.
    let got_reply = std::thread::spawn(move || transport.recv_frame());
    std::thread::sleep(Duration::from_millis(200));
    assert!(!got_reply.is_finished(), "nobody answered the ping");
}

#[test]
fn malformed_keepalive_param_is_rejected() {
    for bad in [
        "qemu+memory://x/system?keepalive=fast",
        "qemu+memory://x/system?keepalive=0:3",
        "qemu+memory://x/system?keepalive=5000",
    ] {
        let err = Connect::builder(bad).open().unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidUri, "{bad}");
    }
}
