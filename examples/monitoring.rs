//! Event-driven monitoring plus the daemon administration interface.
//!
//! A monitoring application subscribes to lifecycle events over the
//! remote protocol while a separate "operator" connection churns domains;
//! meanwhile the admin interface inspects the daemon itself — worker
//! pools, connected clients, logging — and retunes it at runtime, with no
//! daemon restart.
//!
//! Run with: `cargo run --example monitoring`

use std::error::Error;
use std::sync::mpsc;

use virt_core::log::LogLevel;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, TypedParam};
use virtd::{AdminClient, Virtd};

fn main() -> Result<(), Box<dyn Error>> {
    let daemon = Virtd::builder("monitored").with_default_hosts().build()?;
    daemon.register_memory_endpoint("monitored-node")?;

    // --- the monitoring application -------------------------------------
    // A long-lived watcher wants liveness probing: keepalive pings every
    // 5 s (`keepalive=interval_ms:count`) detect a silently dead daemon,
    // and auto-reconnect (the default) re-dials and re-registers the
    // event callback on the next call.
    let watcher =
        Connect::builder("qemu+memory://monitored-node/system?keepalive=5000:3").open()?;
    let (tx, rx) = mpsc::channel();
    watcher.register_event_callback(move |event| {
        let _ = tx.send(format!("{:?} {}", event.kind, event.domain));
    })?;

    // --- the operator ----------------------------------------------------
    let operator = Connect::builder("qemu+memory://monitored-node/system").open()?;
    let domain = operator.define_domain(&DomainConfig::new("churn", 512, 1))?;
    domain.start()?;
    domain.suspend()?;
    domain.resume()?;
    domain.destroy()?;
    domain.undefine()?;

    println!("events observed by the monitoring client:");
    let mut seen = 0;
    while let Ok(event) = rx.recv_timeout(std::time::Duration::from_secs(5)) {
        println!("  {event}");
        seen += 1;
        if seen == 6 {
            break;
        }
    }

    // --- the administrator -----------------------------------------------
    let admin = AdminClient::new(daemon.admin_memory_connector().connect()?);
    println!("\nservers on the daemon: {:?}", admin.list_servers()?);

    let stats = admin.threadpool_info("virtd")?;
    println!(
        "virtd worker pool: {}..{} workers ({} alive, {} free, {} priority), queue depth {}",
        stats.min_workers,
        stats.max_workers,
        stats.current_workers,
        stats.free_workers,
        stats.priority_workers,
        stats.job_queue_depth
    );

    // Scale the pool up for an anticipated load spike — at runtime.
    admin.threadpool_set(
        "virtd",
        vec![
            TypedParam::uint("maxWorkers", 40),
            TypedParam::uint("prioWorkers", 10),
        ],
    )?;
    let stats = admin.threadpool_info("virtd")?;
    println!(
        "after retuning: max={} priority={}",
        stats.max_workers, stats.priority_workers
    );

    // Who is connected right now?
    println!("\nclients on 'virtd':");
    for client in admin.client_list("virtd")? {
        println!(
            "  id {:<3} transport {:<7} peer {:<12} connected at {}",
            client.id, client.transport, client.peer, client.connected_secs
        );
    }
    let (max, current, refused) = admin.client_limits("virtd")?;
    println!("client limits: {current}/{max} connected, {refused} refused so far");

    // Turn up logging for live troubleshooting, then inspect it.
    admin.log_set_level(LogLevel::Debug)?;
    admin.log_set_filters("1:daemon.rpc 3:daemon.admin")?;
    admin.log_set_outputs("1:buffer")?;
    let (level, filters, outputs) = admin.log_info()?;
    println!("\nlogging now: level={level} filters=[{filters}] outputs=[{outputs}]");

    // Forcefully disconnect the operator (e.g. a stuck client).
    let victim = admin
        .client_list("virtd")?
        .last()
        .map(|c| c.id)
        .expect("operator is connected");
    admin.client_disconnect("virtd", victim)?;
    println!(
        "disconnected client {victim}; remaining: {}",
        admin.client_list("virtd")?.len()
    );

    admin.close();
    watcher.close();
    daemon.shutdown();
    Ok(())
}
