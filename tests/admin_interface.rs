//! Administration interface end-to-end: runtime retuning of the daemon
//! with no restart, plus equivalence-partition coverage of the setters'
//! input domains (valid class, each invalid class, unknown/duplicate
//! fields).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use virt_core::log::LogLevel;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, ErrorCode, TypedParam};
use virt_rpc::PoolLimits;
use virtd::{AdminClient, Virtd, VirtdConfig};

fn unique(name: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn daemon_with_admin() -> (Virtd, AdminClient, String) {
    let endpoint = unique("admin");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());
    (daemon, admin, endpoint)
}

fn wait_until(pred: impl Fn() -> bool, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !pred() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn server_listing_includes_both_servers() {
    let (daemon, admin, _) = daemon_with_admin();
    assert_eq!(admin.list_servers().unwrap(), vec!["admin", "virtd"]);
    admin.close();
    daemon.shutdown();
}

#[test]
fn threadpool_info_reflects_configuration() {
    let endpoint = unique("admin-pool");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .config(VirtdConfig::new().pool_limits(PoolLimits {
            min_workers: 2,
            max_workers: 9,
            priority_workers: 3,
        }))
        .build()
        .unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());
    let stats = admin.threadpool_info("virtd").unwrap();
    assert_eq!(stats.min_workers, 2);
    assert_eq!(stats.max_workers, 9);
    assert_eq!(stats.priority_workers, 3);
    admin.close();
    daemon.shutdown();
}

#[test]
fn threadpool_set_valid_classes() {
    let (daemon, admin, _) = daemon_with_admin();
    // Single parameter.
    admin
        .threadpool_set("virtd", vec![TypedParam::uint("maxWorkers", 32)])
        .unwrap();
    assert_eq!(admin.threadpool_info("virtd").unwrap().max_workers, 32);
    // Multiple parameters; unspecified fields keep their values.
    admin
        .threadpool_set(
            "virtd",
            vec![
                TypedParam::uint("minWorkers", 8),
                TypedParam::uint("prioWorkers", 9),
            ],
        )
        .unwrap();
    let stats = admin.threadpool_info("virtd").unwrap();
    assert_eq!(stats.min_workers, 8);
    assert_eq!(stats.max_workers, 32);
    wait_until(
        || admin.threadpool_info("virtd").unwrap().priority_workers == 9,
        "priority workers grew",
    );
    admin.close();
    daemon.shutdown();
}

#[test]
fn threadpool_set_invalid_classes() {
    let (daemon, admin, _) = daemon_with_admin();

    // Unknown field.
    let err = admin
        .threadpool_set("virtd", vec![TypedParam::uint("warpWorkers", 1)])
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InvalidArg);

    // Duplicate field.
    let err = admin
        .threadpool_set(
            "virtd",
            vec![
                TypedParam::uint("maxWorkers", 10),
                TypedParam::uint("maxWorkers", 20),
            ],
        )
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InvalidArg);

    // Wrong value type.
    let err = admin
        .threadpool_set("virtd", vec![TypedParam::string("maxWorkers", "ten")])
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InvalidArg);

    // min > max (consistency violation).
    let err = admin
        .threadpool_set(
            "virtd",
            vec![
                TypedParam::uint("minWorkers", 50),
                TypedParam::uint("maxWorkers", 10),
            ],
        )
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InvalidArg);

    // Unknown server.
    let err = admin
        .threadpool_set("warp", vec![TypedParam::uint("maxWorkers", 10)])
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InvalidArg);

    // After all the failures, the pool is unchanged (defaults).
    let stats = admin.threadpool_info("virtd").unwrap();
    assert_eq!(stats.min_workers, 5);
    assert_eq!(stats.max_workers, 20);
    admin.close();
    daemon.shutdown();
}

#[test]
fn client_management_list_info_disconnect() {
    let (daemon, admin, endpoint) = daemon_with_admin();
    let uri = format!("qemu+memory://{endpoint}/system");
    let c1 = Connect::builder(&uri).open().unwrap();
    // Opt out of auto-reconnect so the admin-initiated cut stays
    // observable from the client side.
    let c2 = Connect::builder(&uri).reconnect(false).open().unwrap();
    let _ = c1.hostname().unwrap();
    let _ = c2.hostname().unwrap();

    let clients = admin.client_list("virtd").unwrap();
    assert_eq!(clients.len(), 2);
    assert!(clients.iter().all(|c| c.transport == "memory"));
    assert!(clients[0].id < clients[1].id);

    let info = admin.client_info("virtd", clients[0].id).unwrap();
    assert_eq!(info.id, clients[0].id);
    assert!(info.connected_secs > 0);

    // Disconnect the second client; it observes the cut.
    admin.client_disconnect("virtd", clients[1].id).unwrap();
    wait_until(
        || admin.client_list("virtd").unwrap().len() == 1,
        "client removed",
    );
    assert!(c2.hostname().is_err());
    // The first client is unaffected.
    assert!(c1.hostname().is_ok());

    // A default (auto-reconnect) client, by contrast, transparently
    // re-dials after the admin cuts it.
    let c3 = Connect::builder(&uri).open().unwrap();
    let _ = c3.hostname().unwrap();
    let newest = admin.client_list("virtd").unwrap().last().unwrap().id;
    admin.client_disconnect("virtd", newest).unwrap();
    wait_until(
        || admin.client_list("virtd").unwrap().len() == 1,
        "cut client removed",
    );
    // Once the client has noticed the dead transport, the next call
    // re-dials before sending — no retry policy needed.
    wait_until(|| !c3.is_alive(), "cut client notices");
    assert!(c3.hostname().is_ok(), "auto-reconnect rides out the cut");
    c3.close();

    // Errors: unknown client, unknown server.
    assert_eq!(
        admin.client_disconnect("virtd", 9999).unwrap_err().code(),
        ErrorCode::InvalidArg
    );
    assert_eq!(
        admin.client_info("warp", 1).unwrap_err().code(),
        ErrorCode::InvalidArg
    );

    c1.close();
    daemon.shutdown();
}

#[test]
fn client_limits_enforced_and_adjustable_at_runtime() {
    let endpoint = unique("admin-climit");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .config(VirtdConfig::new().max_clients(2))
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());
    let uri = format!("qemu+memory://{endpoint}/system");

    let c1 = Connect::builder(&uri).open().unwrap();
    let c2 = Connect::builder(&uri).open().unwrap();
    let _ = (c1.hostname().unwrap(), c2.hostname().unwrap());

    // Third connection is refused at the limit.
    assert!(Connect::builder(&uri).open().is_err());
    let (max, current, refused) = admin.client_limits("virtd").unwrap();
    assert_eq!((max, current), (2, 2));
    assert_eq!(refused, 1);

    // Raise the limit at runtime — the next client gets in.
    admin.set_max_clients("virtd", 5).unwrap();
    let c3 = Connect::builder(&uri).open().unwrap();
    assert!(c3.hostname().is_ok());
    let (max, current, _) = admin.client_limits("virtd").unwrap();
    assert_eq!((max, current), (5, 3));

    // Invalid: zero limit.
    assert_eq!(
        admin.set_max_clients("virtd", 0).unwrap_err().code(),
        ErrorCode::InvalidArg
    );

    c1.close();
    c2.close();
    c3.close();
    admin.close();
    daemon.shutdown();
}

#[test]
fn logging_settings_managed_remotely() {
    let (daemon, admin, _) = daemon_with_admin();

    // Defaults.
    let (level, filters, outputs) = admin.log_info().unwrap();
    assert_eq!(level, LogLevel::Error);
    assert!(filters.is_empty());
    assert_eq!(outputs, "1:stderr");

    // Valid updates.
    admin.log_set_level(LogLevel::Debug).unwrap();
    admin
        .log_set_filters("1:daemon.rpc 4:daemon.admin")
        .unwrap();
    admin.log_set_outputs("2:buffer").unwrap();
    let (level, filters, outputs) = admin.log_info().unwrap();
    assert_eq!(level, LogLevel::Debug);
    assert_eq!(filters, "1:daemon.rpc 4:daemon.admin");
    assert_eq!(outputs, "2:buffer");

    // The daemon actually logs through the new settings: an RPC-level
    // info message lands in the captured buffer.
    daemon.logger().info("daemon.rpc", "probe message");
    assert!(daemon
        .logger()
        .captured()
        .iter()
        .any(|r| r.message == "probe message"));

    // Invalid classes — each leaves previous settings untouched.
    for bad_filters in ["9:mod", "x:mod", "3:", "3:good 0:bad"] {
        assert_eq!(
            admin.log_set_filters(bad_filters).unwrap_err().code(),
            ErrorCode::InvalidArg,
            "{bad_filters:?}"
        );
    }
    for bad_outputs in ["1:tape", "0:stderr", "1:file:relative", "1:file"] {
        assert_eq!(
            admin.log_set_outputs(bad_outputs).unwrap_err().code(),
            ErrorCode::InvalidArg,
            "{bad_outputs:?}"
        );
    }
    let (level, filters, outputs) = admin.log_info().unwrap();
    assert_eq!(level, LogLevel::Debug);
    assert_eq!(filters, "1:daemon.rpc 4:daemon.admin");
    assert_eq!(outputs, "2:buffer");

    admin.close();
    daemon.shutdown();
}

#[test]
fn threadpool_resize_under_live_load() {
    // Raise maxWorkers while clients are hammering the daemon, then
    // lower it again; no request is lost.
    let (daemon, admin, endpoint) = daemon_with_admin();
    let uri = format!("qemu+memory://{endpoint}/system");

    let workers: Vec<_> = (0..4)
        .map(|i| {
            let uri = uri.clone();
            std::thread::spawn(move || {
                let conn = Connect::builder(&uri).open().unwrap();
                for j in 0..25 {
                    let name = format!("load-{i}-{j}");
                    let domain = conn
                        .define_domain(&DomainConfig::new(&name, 32, 1))
                        .unwrap();
                    domain.start().unwrap();
                    domain.destroy().unwrap();
                    domain.undefine().unwrap();
                }
                conn.close();
            })
        })
        .collect();

    admin
        .threadpool_set("virtd", vec![TypedParam::uint("maxWorkers", 40)])
        .unwrap();
    admin
        .threadpool_set(
            "virtd",
            vec![
                TypedParam::uint("maxWorkers", 6),
                TypedParam::uint("minWorkers", 2),
            ],
        )
        .unwrap();

    for worker in workers {
        worker.join().unwrap();
    }
    let check = Connect::builder(&uri).open().unwrap();
    assert!(check.list_domain_names().unwrap().is_empty());
    check.close();
    admin.close();
    daemon.shutdown();
}

#[test]
fn admin_works_while_main_pool_is_saturated() {
    // The admin server has its own pool, so daemon introspection works
    // even when every virtd worker is busy — the monitoring use case.
    let endpoint = unique("admin-sat");
    let daemon = Virtd::builder(&endpoint)
        .with_default_hosts() // realistic latencies keep workers busy
        .config(VirtdConfig::new().pool_limits(PoolLimits {
            min_workers: 1,
            max_workers: 2,
            priority_workers: 1,
        }))
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());
    let uri = format!("qemu+memory://{endpoint}/system");

    let spammers: Vec<_> = (0..3)
        .map(|i| {
            let uri = uri.clone();
            std::thread::spawn(move || {
                let conn = Connect::builder(&uri).open().unwrap();
                for j in 0..5 {
                    let name = format!("sat-{i}-{j}");
                    let d = conn
                        .define_domain(&DomainConfig::new(&name, 64, 1))
                        .unwrap();
                    d.start().unwrap();
                    d.destroy().unwrap();
                    d.undefine().unwrap();
                }
                conn.close();
            })
        })
        .collect();

    // Admin introspection stays responsive throughout.
    for _ in 0..10 {
        let stats = admin.threadpool_info("virtd").unwrap();
        assert!(stats.max_workers >= stats.min_workers);
        let _ = admin.client_list("virtd").unwrap();
    }

    for s in spammers {
        s.join().unwrap();
    }
    admin.close();
    daemon.shutdown();
}

#[test]
fn authentication_gates_open_and_identity_is_visible() {
    let endpoint = unique("auth");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .config(VirtdConfig::new().credentials(vec![
            ("alice".to_string(), "sesame".to_string()),
            ("bob".to_string(), "hunter2".to_string()),
        ]))
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());

    // No credentials → AuthFailed at open.
    let err = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::AuthFailed);

    // Wrong password → AuthFailed.
    let err = Connect::builder(format!(
        "qemu+memory://alice@{endpoint}/system?password=wrong"
    ))
    .open()
    .unwrap_err();
    assert_eq!(err.code(), ErrorCode::AuthFailed);

    // Correct credentials → works, and the admin interface sees who it is.
    let conn = Connect::builder(format!(
        "qemu+memory://alice@{endpoint}/system?password=sesame"
    ))
    .open()
    .unwrap();
    assert_eq!(conn.hostname().unwrap(), format!("{endpoint}-qemu"));
    let clients = admin.client_list("virtd").unwrap();
    let me = clients.last().unwrap();
    assert_eq!(me.username, "alice");
    assert!(!me.readonly);

    conn.close();
    admin.close();
    daemon.shutdown();
}

#[test]
fn readonly_connections_can_query_but_not_mutate() {
    let endpoint = unique("ro");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());

    // Seed a domain through a normal connection.
    let rw = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    rw.define_domain(&DomainConfig::new("observed", 128, 1))
        .unwrap();

    let ro = Connect::builder(format!("qemu+memory://{endpoint}/system?readonly"))
        .open()
        .unwrap();
    // Queries work.
    assert_eq!(ro.list_domain_names().unwrap(), vec!["observed"]);
    let domain = ro.domain_lookup_by_name("observed").unwrap();
    assert!(domain.xml_desc().unwrap().contains("observed"));
    assert!(ro.node_info().is_ok());
    assert!(ro.capabilities().is_ok());
    // Mutations are denied with AccessDenied.
    for err in [
        domain.start().unwrap_err(),
        ro.define_domain(&DomainConfig::new("new", 64, 1))
            .unwrap_err(),
        domain.set_memory(64).unwrap_err(),
        domain.undefine().unwrap_err(),
    ] {
        assert_eq!(err.code(), ErrorCode::AccessDenied);
    }
    // The admin interface reports the session as read-only.
    let clients = admin.client_list("virtd").unwrap();
    assert!(clients.iter().any(|c| c.readonly));
    // Nothing changed on the hypervisor.
    assert_eq!(rw.list_domain_names().unwrap(), vec!["observed"]);

    ro.close();
    rw.close();
    admin.close();
    daemon.shutdown();
}

#[test]
fn metrics_round_trip_over_unix_transport() {
    use virt_rpc::transport::{UnixSocketListener, UnixTransport};
    use virtd::adminproto::{METRIC_KIND_COUNTER, METRIC_KIND_HISTOGRAM};

    let endpoint = unique("metrics-unix");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let path = format!("/tmp/{}.sock", unique("metrics-admin"));
    daemon.serve_admin(Box::new(UnixSocketListener::bind(&path).unwrap()));
    let admin = AdminClient::new(UnixTransport::connect(&path).unwrap());

    // Drive real traffic so the histograms have samples.
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    let domain = conn.define_domain(&DomainConfig::new("vm", 64, 1)).unwrap();
    domain.start().unwrap();
    domain.destroy().unwrap();
    domain.undefine().unwrap();
    conn.close();

    // The name list and an unfiltered fetch agree.
    let names = admin.metrics_list().unwrap();
    let all = admin.metrics("").unwrap();
    assert_eq!(names.len(), all.len());
    for metric in &all {
        assert!(
            names.contains(&metric.name),
            "{} missing from list",
            metric.name
        );
    }

    // The traffic above is visible: total calls counted, and the
    // per-procedure histogram for DOMAIN_DEFINE_XML has exactly one
    // sample whose bucket counts sum to its count.
    let calls = all.iter().find(|m| m.name == "rpc.calls").unwrap();
    assert_eq!(calls.kind, METRIC_KIND_COUNTER);
    assert!(calls.value >= 6, "open+define+start+destroy+undefine+close");

    let define = virt_core::protocol::proc::DOMAIN_DEFINE_XML;
    let latency = all
        .iter()
        .find(|m| m.name == format!("rpc.proc.{define}.latency_us"))
        .unwrap();
    assert_eq!(latency.kind, METRIC_KIND_HISTOGRAM);
    assert_eq!(latency.hist_count, 1);
    assert_eq!(latency.hist_buckets.iter().sum::<u64>(), latency.hist_count);
    assert!(latency.hist_sum_ns > 0);

    // Driver lifecycle timing observed the same define.
    let driver_define = admin.metrics("driver.qemu.define_us").unwrap();
    assert_eq!(driver_define.len(), 1);
    assert_eq!(driver_define[0].hist_count, 1);

    // Prefix filtering narrows the set.
    let pool_only = admin.metrics("pool.virtd.").unwrap();
    assert!(!pool_only.is_empty());
    assert!(pool_only.iter().all(|m| m.name.starts_with("pool.virtd.")));

    // Transport byte counters moved on the main server.
    let bytes = admin.metrics("server.virtd.bytes_").unwrap();
    assert_eq!(bytes.len(), 2);
    assert!(bytes.iter().all(|m| m.value > 0), "{bytes:?}");

    admin.close();
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_fetch_is_one_sorted_list_like_metrics_list() {
    let (daemon, admin, endpoint) = daemon_with_admin();
    // A remote connection puts the client-side RPC metrics into the
    // process registry the daemon merges into both listings.
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    conn.hostname().unwrap();

    let names = admin.metrics_list().unwrap();
    for prefix in ["", "rpc."] {
        let fetched: Vec<String> = admin
            .metrics(prefix)
            .unwrap()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let listed: Vec<&String> = names.iter().filter(|n| n.starts_with(prefix)).collect();
        assert!(
            fetched.iter().any(|n| n.starts_with("rpc.buf_pool.")),
            "the process registry is merged in"
        );
        assert!(
            fetched.windows(2).all(|w| w[0] < w[1]),
            "metrics({prefix:?}) is not one name-sorted list: {fetched:?}"
        );
        assert_eq!(
            fetched.iter().collect::<Vec<_>>(),
            listed,
            "metrics({prefix:?})"
        );
    }

    conn.close();
    admin.close();
    daemon.shutdown();
}

#[test]
fn rpc_log_records_carry_the_request_id() {
    let endpoint = unique("trace");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();

    // Capture warnings into the in-memory buffer.
    let mut settings = (*daemon.logger().settings()).clone();
    settings.level = LogLevel::Warning;
    settings.outputs = virt_core::log::LogSettings::parse_outputs("2:buffer").unwrap();
    daemon.logger().redefine(settings).unwrap();

    // A failing RPC (unknown driver scheme) makes dispatch log a warning
    // while the request's trace span is active.
    let err = Connect::builder(format!("vbox+memory://{endpoint}/system"))
        .open()
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::NoConnect);

    let records = daemon.logger().captured();
    let failure = records
        .iter()
        .find(|r| r.message.contains("failed"))
        .expect("dispatch failure was logged");
    let id = failure.request.expect("log record carries the request id");
    // The id renders into the formatted line, correlating it with the RPC.
    assert!(format!("{failure}").contains(&format!("[c{}.s{}]", id.client, id.serial)));

    daemon.shutdown();
}

#[test]
fn client_session_age_is_monotonic_and_on_the_wire() {
    let (daemon, admin, endpoint) = daemon_with_admin();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();
    let _ = conn.hostname().unwrap();

    let clients = admin.client_list("virtd").unwrap();
    assert_eq!(clients.len(), 1);
    // Wall-clock epoch for display, monotonic age for measurement; a
    // fresh session is under a few seconds old.
    assert!(clients[0].connected_secs > 0);
    assert!(clients[0].session_secs < 5);

    let info = admin.client_info("virtd", clients[0].id).unwrap();
    assert!(info.session_secs < 5);

    conn.close();
    admin.close();
    daemon.shutdown();
}

#[test]
fn readonly_session_cannot_escalate_via_second_open() {
    use virt_rpc::message::REMOTE_PROGRAM;
    let endpoint = unique("ro-escalate");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();

    let ro = Connect::builder(format!("qemu+memory://{endpoint}/system?readonly"))
        .open()
        .unwrap();
    assert_eq!(
        ro.define_domain(&DomainConfig::new("nope", 64, 1))
            .unwrap_err()
            .code(),
        ErrorCode::AccessDenied
    );

    // Forge a second OPEN with readonly=false on the same wire session.
    let connector = virt_core::testbed::lookup_daemon(&endpoint).unwrap();
    let client = virt_rpc::CallClient::new(connector.connect().unwrap());
    client
        .call::<()>(
            REMOTE_PROGRAM,
            virt_core::protocol::proc::OPEN,
            &virt_core::protocol::OpenArgs {
                uri: "qemu:///system".into(),
                readonly: true,
            },
        )
        .unwrap();
    let err = client
        .call::<()>(
            REMOTE_PROGRAM,
            virt_core::protocol::proc::OPEN,
            &virt_core::protocol::OpenArgs {
                uri: "qemu:///system".into(),
                readonly: false,
            },
        )
        .unwrap_err();
    match err {
        virt_rpc::client::CallError::Remote(e) => {
            assert_eq!(
                ErrorCode::from_u32(e.code),
                Some(ErrorCode::OperationInvalid)
            );
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    client.close();
    ro.close();
    daemon.shutdown();
}
