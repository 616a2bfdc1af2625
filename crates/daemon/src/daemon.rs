//! The daemon assembly: hosts, drivers, servers, services.

use std::collections::HashMap;
use std::sync::Arc;

use hypersim::latency::OpCost;
use hypersim::personality::{LxcLike, QemuLike, XenLike};
use hypersim::{LatencyModel, OpKind, SimClock, SimHost};

use virt_core::drivers::embedded::{EmbeddedConnection, StoreBinding};
use virt_core::error::{ErrorCode, VirtError, VirtResult};
use virt_core::log::Logger;
use virt_core::metrics::Registry;
use virt_core::statestore::StateStore;
use virt_core::testbed;
use virt_rpc::transport::{memory_listener, Listener, MemoryConnector};
use virt_rpc::PoolLimits;

use crate::admin::AdminDispatcher;
use crate::config::VirtdConfig;
use crate::dispatch::RemoteDispatcher;
use crate::server::{ServeHandle, Server};

virt_metrics::metric_set! {
    /// What the startup recovery pass of a statedir daemon brought back.
    struct RecoveryMetrics {
        recovered: Counter = "recovered",
            "Persistent objects (domains, networks, pools) reloaded at startup";
        crashed: Counter = "crashed",
            "Recovered domains marked shut-off/crashed because their guest died with the previous daemon";
        autostarted: Counter = "autostarted", "Autostart domains started during recovery";
        quarantined: Counter = "quarantined",
            "Corrupt state files moved to quarantine during recovery";
        guards: Counter = "guards", "Guard policies re-armed during recovery";
        revived: Counter = "revived",
            "Guarded domains revived during recovery because they died with the previous daemon";
        duration_us: Counter = "duration_us", "Wall-clock startup recovery time";
    }
}

/// A running management daemon.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Virtd {
    name: String,
    hosts: HashMap<String, SimHost>,
    /// The per-scheme embedded drivers; kept so shutdown can stop their
    /// guard engines (worker threads must not outlive the daemon).
    drivers: HashMap<String, Arc<EmbeddedConnection>>,
    main_server: Arc<Server>,
    admin_server: Arc<Server>,
    logger: Arc<Logger>,
    /// Daemon-wide metric registry: every layer publishes into it and
    /// the admin metrics procedures read from it.
    registry: Arc<Registry>,
    /// The shared state store, when persistence is enabled; kept so
    /// shutdown can drain the write-behind pipeline after the servers
    /// stop accepting work.
    store: Option<Arc<StateStore>>,
    /// Names registered in the global testbed, removed on shutdown.
    registered_endpoints: parking_lot::Mutex<Vec<String>>,
    /// Accept-loop handles for every attached service; shutdown closes
    /// and joins them so no accept thread outlives the daemon.
    serve_handles: parking_lot::Mutex<Vec<ServeHandle>>,
}

impl std::fmt::Debug for Virtd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Virtd")
            .field("name", &self.name)
            .field("drivers", &self.hosts.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Builder for [`Virtd`].
pub struct VirtdBuilder {
    name: String,
    config: VirtdConfig,
    hosts: HashMap<String, SimHost>,
    clock: SimClock,
}

impl VirtdBuilder {
    fn new(name: impl Into<String>) -> Self {
        VirtdBuilder {
            name: name.into(),
            config: VirtdConfig::new(),
            hosts: HashMap::new(),
            clock: SimClock::new(),
        }
    }

    /// Applies a configuration.
    pub fn config(mut self, config: VirtdConfig) -> Self {
        self.config = config;
        self
    }

    /// Shares a virtual clock across this daemon's hosts (and with other
    /// daemons, for migration timing).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a host under the driver scheme of its personality.
    pub fn host(mut self, host: SimHost) -> Self {
        self.hosts
            .insert(host.personality().name().to_string(), host);
        self
    }

    /// UUID seed base derived from the daemon name. Fixed per-scheme
    /// seeds made every daemon's qemu host emit the *same* UUID stream,
    /// so the first domain defined on any two daemons collided when one
    /// was migrated to the other. Mixing the name in keeps a single
    /// daemon deterministic while giving differently-named daemons
    /// disjoint streams.
    fn seed_base(&self) -> u64 {
        // FNV-1a over the daemon name.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Attaches default qemu/xen/lxc hosts with realistic latency models,
    /// named `<daemon>-<scheme>`.
    pub fn with_default_hosts(mut self) -> Self {
        let base = self.seed_base();
        let qemu = SimHost::builder(format!("{}-qemu", self.name))
            .personality(QemuLike)
            .clock(self.clock.clone())
            .seed(base)
            .build();
        let xen = SimHost::builder(format!("{}-xen", self.name))
            .personality(XenLike)
            .clock(self.clock.clone())
            .seed(base ^ 0x11)
            .build();
        let lxc = SimHost::builder(format!("{}-lxc", self.name))
            .personality(LxcLike)
            .clock(self.clock.clone())
            .seed(base ^ 0x22)
            .build();
        self.hosts.insert("qemu".to_string(), qemu);
        self.hosts.insert("xen".to_string(), xen);
        self.hosts.insert("lxc".to_string(), lxc);
        self
    }

    /// Attaches default hosts with **zero-latency** models (logic-focused
    /// tests).
    pub fn with_quiet_hosts(mut self) -> Self {
        let base = self.seed_base();
        for (scheme, seed) in [("qemu", base ^ 1), ("xen", base ^ 2), ("lxc", base ^ 3)] {
            let personality: Box<dyn FnOnce(hypersim::SimHostBuilder) -> hypersim::SimHostBuilder> =
                match scheme {
                    "qemu" => Box::new(|b| b.personality(QemuLike)),
                    "xen" => Box::new(|b| b.personality(XenLike)),
                    _ => Box::new(|b| b.personality(LxcLike)),
                };
            let host = personality(
                SimHost::builder(format!("{}-{scheme}", self.name))
                    .clock(self.clock.clone())
                    .seed(seed),
            )
            .latency(LatencyModel::zero())
            .build();
            self.hosts.insert(scheme.to_string(), host);
        }
        self
    }

    /// Attaches quiet hosts whose **migration transfer is the only slow
    /// operation**: 0.1 ms of virtual time per MiB moved, scaled 1:1
    /// into wall time, so a 256 MiB migration slice occupies a worker
    /// for ~25 ms of real time while every other call stays instant.
    /// This is the chaos-testing configuration — it keeps a migration
    /// genuinely in flight long enough to kill the daemon under it.
    pub fn with_slow_migration_hosts(mut self) -> Self {
        let qemu = SimHost::builder(format!("{}-qemu", self.name))
            .personality(QemuLike)
            .clock(self.clock.clone())
            .seed(self.seed_base() ^ 1)
            .latency(LatencyModel::zero().set(OpKind::MigratePage, OpCost::scaled(0, 100_000)))
            .wall_time_scale(1.0)
            .build();
        self.hosts.insert("qemu".to_string(), qemu);
        self
    }

    /// Builds and starts the daemon (servers running, no services yet).
    ///
    /// # Errors
    ///
    /// Invalid pool limits; no hosts attached.
    pub fn build(self) -> VirtResult<Virtd> {
        if self.hosts.is_empty() {
            return Err(VirtError::new(
                ErrorCode::InvalidArg,
                "daemon needs at least one host",
            ));
        }
        let logger = Arc::new(Logger::new());

        // Crash-safe persistence: with a statedir every driver mirrors
        // its definitions and live status to disk, and boot runs a
        // recovery pass over whatever the previous daemon left behind.
        let store = match &self.config.statedir {
            Some(dir) => {
                let store = StateStore::open(dir.clone())?;
                store.set_logger(Arc::clone(&logger));
                Some(store)
            }
            None => None,
        };

        let drivers: HashMap<String, Arc<EmbeddedConnection>> = self
            .hosts
            .iter()
            .map(|(scheme, host)| {
                let uri = format!("{scheme}:///system");
                let conn = match &store {
                    Some(store) => EmbeddedConnection::with_store(
                        host.clone(),
                        uri,
                        StoreBinding::new(Arc::clone(store), scheme),
                    ),
                    None => EmbeddedConnection::new(host.clone(), uri),
                };
                (scheme.clone(), conn)
            })
            .collect();

        let registry = Arc::new(Registry::new());

        let remote_dispatcher = RemoteDispatcher::new(
            drivers.clone(),
            Arc::clone(&logger),
            self.config.credentials.clone(),
        );
        remote_dispatcher.publish_metrics(&registry);
        virt_core::job::job_metrics().attach(&registry, "jobs.");
        if let Some(store) = &store {
            store.publish_metrics(&registry);
        }
        for (scheme, conn) in &drivers {
            conn.publish_metrics(&registry, scheme);
            // Job recovery: a daemon that went down mid-job cannot resume
            // it — mark any job left running on this host as failed so
            // clients polling after the restart see a terminal state
            // instead of eternal progress.
            for domain in conn
                .jobs()
                .fail_running("daemon restarted while job was running")
            {
                logger.warning(
                    "daemon",
                    &format!("recovered orphaned job on domain '{domain}': marked failed"),
                );
            }
        }

        // State recovery: reload persistent definitions, reconcile the
        // live-status records (recorded-running domains crashed with the
        // previous daemon), honor autostart, quarantine anything corrupt.
        if store.is_some() {
            let started = std::time::Instant::now();
            let recovery = RecoveryMetrics::new().attach(&registry, "recovery.");
            let mut schemes: Vec<&String> = drivers.keys().collect();
            schemes.sort();
            for scheme in schemes {
                let conn = &drivers[scheme.as_str()];
                let report = conn.recover_from_store()?;
                recovery.recovered.add(report.recovered());
                recovery.crashed.add(report.crashed);
                recovery.autostarted.add(report.autostarted);
                recovery.quarantined.add(report.quarantined);
                recovery.guards.add(report.guards);
                recovery.revived.add(report.revived);
                if report.recovered() + report.quarantined + report.guards > 0 {
                    logger.info(
                        "daemon",
                        &format!(
                            "recovery[{scheme}]: {} domains ({} crashed, {} autostarted), \
                             {} networks, {} pools, {} guards ({} revived), {} quarantined",
                            report.domains,
                            report.crashed,
                            report.autostarted,
                            report.networks,
                            report.pools,
                            report.guards,
                            report.revived,
                            report.quarantined
                        ),
                    );
                }
            }
            recovery
                .duration_us
                .add(started.elapsed().as_micros() as u64);
        }
        // Two event threads wait on one epoll instance. A lone pooled
        // call runs on the thread that read it while the other still
        // waits there, so it costs no hop to a worker; the last thread
        // waiting never takes a call that may block, and bursts and
        // surplus calls go to the worker pool, so two are enough even at
        // thousands of clients.
        let main_server = Server::new(
            "virtd",
            self.config.pool_limits,
            self.config.max_clients,
            remote_dispatcher,
            2,
        )
        .map_err(|e| VirtError::new(ErrorCode::InvalidArg, e))?;
        main_server.set_logger(Arc::clone(&logger));
        main_server.publish_metrics(&registry);

        let admin_dispatcher =
            AdminDispatcher::with_registry(Arc::clone(&logger), Arc::clone(&registry));
        // The admin plane is low-traffic: one event thread is plenty. Its
        // pool never runs a job — every admin procedure is answered inline
        // — so the limits are what `srv-threadpool-info admin` reports.
        let admin_server = Server::new(
            "admin",
            PoolLimits {
                min_workers: 1,
                max_workers: 5,
                priority_workers: 1,
            },
            self.config.max_clients,
            admin_dispatcher.clone(),
            1,
        )
        .map_err(|e| VirtError::new(ErrorCode::InvalidArg, e))?;
        admin_server.set_logger(Arc::clone(&logger));
        admin_server.publish_metrics(&registry);
        admin_dispatcher.attach_server(Arc::clone(&main_server));
        admin_dispatcher.attach_server(Arc::clone(&admin_server));

        logger.info("daemon", &format!("virtd '{}' started", self.name));

        Ok(Virtd {
            name: self.name,
            hosts: self.hosts,
            drivers,
            main_server,
            admin_server,
            logger,
            registry,
            store,
            registered_endpoints: parking_lot::Mutex::new(Vec::new()),
            serve_handles: parking_lot::Mutex::new(Vec::new()),
        })
    }
}

impl Virtd {
    /// Starts building a daemon.
    pub fn builder(name: impl Into<String>) -> VirtdBuilder {
        VirtdBuilder::new(name)
    }

    /// The daemon's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The daemon's logger.
    pub fn logger(&self) -> &Arc<Logger> {
        &self.logger
    }

    /// The daemon-wide metric registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The main (`virtd`) server.
    pub fn main_server(&self) -> &Arc<Server> {
        &self.main_server
    }

    /// The host managed by a driver scheme, if attached.
    pub fn host(&self, scheme: &str) -> Option<&SimHost> {
        self.hosts.get(scheme)
    }

    /// The embedded driver serving a scheme, if attached.
    pub fn driver(&self, scheme: &str) -> Option<&Arc<EmbeddedConnection>> {
        self.drivers.get(scheme)
    }

    /// Attaches a listener to the main server. The daemon retains the
    /// serve handle and closes + joins it at shutdown.
    pub fn serve(&self, listener: Box<dyn Listener>) {
        let handle = self.main_server.serve(listener);
        self.serve_handles.lock().push(handle);
    }

    /// Attaches a listener to the admin server (handle retained, as with
    /// [`Virtd::serve`]).
    pub fn serve_admin(&self, listener: Box<dyn Listener>) {
        let handle = self.admin_server.serve(listener);
        self.serve_handles.lock().push(handle);
    }

    /// Creates an in-memory service on the main server, registers it in
    /// the [`virt_core::testbed`] under `endpoint`, and returns the
    /// connector. After this, `scheme+memory://endpoint/...` URIs reach
    /// this daemon.
    ///
    /// # Errors
    ///
    /// None currently; fallible for future socket-backed variants.
    pub fn register_memory_endpoint(&self, endpoint: &str) -> VirtResult<MemoryConnector> {
        let (listener, connector) = memory_listener();
        self.serve(Box::new(listener));
        testbed::register_daemon(endpoint, connector.clone());
        self.registered_endpoints.lock().push(endpoint.to_string());
        Ok(connector)
    }

    /// Creates an in-memory service on the admin server and returns its
    /// connector (for [`crate::AdminClient`]).
    pub fn admin_memory_connector(&self) -> MemoryConnector {
        let (listener, connector) = memory_listener();
        self.serve_admin(Box::new(listener));
        connector
    }

    /// Stops both servers gracefully: unregisters testbed endpoints,
    /// stops accepting (joining every accept thread), lets in-flight
    /// requests finish and their replies drain to the wire, then closes
    /// all clients.
    pub fn shutdown(&self) {
        for endpoint in self.registered_endpoints.lock().drain(..) {
            testbed::unregister_daemon(&endpoint);
        }
        let handles: Vec<ServeHandle> = self.serve_handles.lock().drain(..).collect();
        for handle in handles {
            handle.join();
        }
        self.main_server.shutdown();
        self.admin_server.shutdown();
        // Guard workers hold a Weak on their connection and would exit
        // on their own once the driver drops, but a daemon shutdown must
        // leave no revival racing the teardown.
        for conn in self.drivers.values() {
            conn.guard_engine().stop();
        }
        // Drain the write-behind pipeline last: no server or guard can
        // queue new records now, so after this every status write the
        // daemon accepted is on disk.
        if let Some(store) = &self.store {
            if let Err(err) = store.flush() {
                self.logger.warning(
                    "daemon",
                    &format!("statestore drain at shutdown reported: {err}"),
                );
            }
        }
        self.logger
            .info("daemon", &format!("virtd '{}' stopped", self.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virt_core::xmlfmt::DomainConfig;
    use virt_core::Connect;

    fn unique(name: &str) -> String {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        format!(
            "{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        )
    }

    #[test]
    fn builder_requires_hosts() {
        let err = Virtd::builder("d").build().unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArg);
    }

    #[test]
    fn default_hosts_cover_three_schemes() {
        let daemon = Virtd::builder("d").with_quiet_hosts().build().unwrap();
        assert!(daemon.host("qemu").is_some());
        assert!(daemon.host("xen").is_some());
        assert!(daemon.host("lxc").is_some());
        assert!(daemon.host("esx").is_none());
        daemon.shutdown();
    }

    #[test]
    fn remote_client_manages_domains_end_to_end() {
        let endpoint = unique("virtd-e2e");
        let daemon = Virtd::builder("d").with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();

        let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
            .open()
            .unwrap();
        assert_eq!(conn.hostname().unwrap(), "d-qemu");
        let domain = conn
            .define_domain(&DomainConfig::new("vm", 512, 1))
            .unwrap();
        domain.start().unwrap();
        assert!(domain.is_active().unwrap());

        // The daemon-side host observes the same domain.
        let host_view = daemon.host("qemu").unwrap().domain("vm").unwrap();
        assert_eq!(host_view.state, hypersim::DomainState::Running);

        domain.destroy().unwrap();
        domain.undefine().unwrap();
        conn.close();
        daemon.shutdown();
    }

    #[test]
    fn each_scheme_routes_to_its_own_host() {
        let endpoint = unique("virtd-schemes");
        let daemon = Virtd::builder("d").with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();

        for scheme in ["qemu", "xen", "lxc"] {
            let conn = Connect::builder(format!("{scheme}+memory://{endpoint}/system"))
                .open()
                .unwrap();
            assert_eq!(conn.hostname().unwrap(), format!("d-{scheme}"));
            assert_eq!(conn.capabilities().unwrap().hypervisor, scheme);
            conn.close();
        }
        daemon.shutdown();
    }

    #[test]
    fn unknown_scheme_is_rejected_at_open() {
        let endpoint = unique("virtd-unknown");
        let daemon = Virtd::builder("d").with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();
        let err = Connect::builder(format!("vbox+memory://{endpoint}/system"))
            .open()
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
        daemon.shutdown();
    }

    #[test]
    fn statedir_daemon_recovers_after_rebuild() {
        let dir = std::env::temp_dir().join(unique("virtd-statedir"));
        let _ = std::fs::remove_dir_all(&dir);
        let config = VirtdConfig::new().statedir(&dir);

        {
            let daemon = Virtd::builder("d")
                .config(config.clone())
                .with_quiet_hosts()
                .build()
                .unwrap();
            let endpoint = unique("virtd-persist");
            daemon.register_memory_endpoint(&endpoint).unwrap();
            let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
                .open()
                .unwrap();
            let web = conn
                .define_domain(&DomainConfig::new("web", 256, 1))
                .unwrap();
            web.set_autostart(true).unwrap();
            let db = conn
                .define_domain(&DomainConfig::new("db", 256, 1))
                .unwrap();
            db.start().unwrap();
            conn.close();
            daemon.shutdown();
            // No undefine, no destroy: state must survive on disk alone.
        }

        // Fresh daemon, fresh (empty) hosts, same statedir.
        let daemon = Virtd::builder("d2")
            .config(config)
            .with_quiet_hosts()
            .build()
            .unwrap();
        let endpoint = unique("virtd-persist2");
        daemon.register_memory_endpoint(&endpoint).unwrap();
        let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
            .open()
            .unwrap();

        let web = conn.domain_lookup_by_name("web").unwrap();
        assert!(web.autostart().unwrap());
        assert!(web.is_active().unwrap(), "autostart domain must be running");

        // `db` was running when the first daemon went away; its guest
        // died with it, so it reports shut off with reason crashed.
        let db = conn.domain_lookup_by_name("db").unwrap();
        assert!(!db.is_active().unwrap());

        let snapshot = daemon.metrics().snapshot("recovery.");
        let counter = |name: &str| match snapshot.iter().find(|m| m.name == name) {
            Some(m) => match &m.value {
                virt_core::metrics::MetricValue::Counter(v) => *v,
                other => panic!("{name} is not a counter: {other:?}"),
            },
            None => panic!("{name} not registered"),
        };
        assert_eq!(counter("recovery.recovered"), 2);
        assert_eq!(counter("recovery.crashed"), 1);
        assert_eq!(counter("recovery.autostarted"), 1);
        assert_eq!(counter("recovery.quarantined"), 0);

        conn.close();
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_unregisters_endpoints() {
        let endpoint = unique("virtd-cleanup");
        let daemon = Virtd::builder("d").with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();
        daemon.shutdown();
        let err = Connect::builder(format!("qemu+memory://{endpoint}/system"))
            .open()
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }
}
