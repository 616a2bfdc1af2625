//! Live migration orchestration.
//!
//! Implements the phase protocol libvirt's migration uses (the v3-style
//! Begin/Prepare/Perform/Finish/Confirm sequence), driven from the client
//! over any pair of connections — both embedded, both remote, or mixed:
//!
//! 1. **Begin** (source): produce the domain description to ship.
//! 2. **Prepare** (destination): validate capacity and name.
//! 3. **Perform** (source): run the pre-copy loop, moving memory while the
//!    guest keeps dirtying pages.
//! 4. **Finish** (destination): start the incoming guest.
//! 5. **Confirm** (source): forget the migrated-away guest.
//!
//! Failure at any phase rolls back so that exactly one side owns the
//! domain afterwards: before Finish succeeds the source keeps running; if
//! Confirm fails the destination copy is aborted.

use crate::conn::Connect;
use crate::domain::Domain;
use crate::driver::{MigrationOptions, MigrationReport};
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::job::JobHandle;
use crate::metrics::span::{self, Stage};

impl Domain {
    /// Starts a live migration to the host behind `dest` as a background
    /// job, returning a [`JobHandle`] to poll ([`JobHandle::stats`]),
    /// cancel ([`JobHandle::abort`]) or block on ([`JobHandle::wait`]).
    ///
    /// The Begin and Prepare phases run synchronously, so unsupported
    /// platforms, stopped domains and destination-side validation errors
    /// surface before a handle is returned. The Perform/Finish/Confirm
    /// phases — including their rollback guarantees — run on the job's
    /// worker thread.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NoSupport`] when either side lacks migration,
    /// - [`ErrorCode::OperationInvalid`] when the domain is not running
    ///   or already has an active modify job,
    /// - [`ErrorCode::DomainExists`] / capacity errors from the
    ///   destination's Prepare phase.
    pub fn migrate_start(
        &self,
        dest: &Connect,
        options: &MigrationOptions,
    ) -> VirtResult<JobHandle<MigrationReport>> {
        let source = self.connection().clone();
        let dest_conn = dest.raw().clone();
        let name = self.name().to_string();

        // One API-level span covers the whole migration, from the
        // synchronous Begin/Prepare phases through the worker-thread
        // Perform/Finish/Confirm — every RPC the phases issue becomes a
        // child of it, so the trace reads as a single connected tree.
        let api_span = span::enter(Stage::Api, 0);

        if !dest.capabilities()?.has_feature("migration") {
            return Err(VirtError::new(
                ErrorCode::NoSupport,
                "destination does not support migration",
            ));
        }

        // Phase 1: Begin.
        let xml = source.migrate_begin(&name)?;

        // Phase 2: Prepare.
        dest_conn.migrate_prepare(&xml)?;

        let options = *options;
        // The span detaches from this thread (its context slot is
        // restored now) and rides into the worker closure, where it ends
        // after Confirm — giving the trace the migration's full duration.
        let owned_span = api_span.detach();
        Ok(JobHandle::spawn(self.clone(), move || {
            let _ctx = owned_span.as_ref().map(|s| s.resume());
            // Phase 3: Perform. The guest keeps running on the source, so
            // a failure here (including an abort) needs no destination
            // rollback.
            let report = source.migrate_perform(&name, &options)?;

            // Phase 4: Finish — the destination instance starts.
            let finished = match dest_conn.migrate_finish(&xml) {
                Ok(record) => record,
                Err(err) => {
                    // Source still owns a running guest; surface the failure.
                    return Err(VirtError::new(
                        ErrorCode::MigrateFailed,
                        format!("finish phase failed, domain kept on source: {err}"),
                    ));
                }
            };

            // Phase 5: Confirm — source forgets its copy.
            if let Err(err) = source.migrate_confirm(&name) {
                // Two live copies would be a split brain; tear down the
                // destination one and report failure.
                let _ = dest_conn.migrate_abort(&finished.name);
                return Err(VirtError::new(
                    ErrorCode::MigrateFailed,
                    format!("confirm phase failed, destination rolled back: {err}"),
                ));
            }

            Ok(report)
        }))
    }

    /// Live-migrates this domain to the host behind `dest`, blocking
    /// until it completes — [`Domain::migrate_start`] plus
    /// [`JobHandle::wait`].
    ///
    /// On success the domain runs on `dest` and no longer exists on the
    /// source; the returned [`MigrationReport`] carries simulated timing
    /// (total time, downtime, iterations, bytes moved).
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NoSupport`] when either side lacks migration,
    /// - [`ErrorCode::OperationInvalid`] when the domain is not running,
    /// - [`ErrorCode::DomainExists`] / capacity errors from the
    ///   destination's Prepare phase,
    /// - [`ErrorCode::MigrateFailed`] wrapping mid-flight failures after
    ///   rollback has been applied.
    pub fn migrate_to(
        &self,
        dest: &Connect,
        options: &MigrationOptions,
    ) -> VirtResult<MigrationReport> {
        self.migrate_start(dest, options)?.wait()
    }
}

impl Connect {
    /// Confirm phase, exposed for federation-level reconciliation: make
    /// this host forget its copy of a domain that has been adopted by a
    /// migration destination.
    ///
    /// [`Domain::migrate_to`] runs Confirm itself; a fleet manager needs
    /// the phase separately when the orchestrating client (or the source
    /// daemon) died between Finish and Confirm and the destination copy
    /// is already running — the surviving copy wins and the stale source
    /// copy must be forgotten, whatever state a restart recovered it in.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when this host has no such domain; driver
    /// failures otherwise.
    pub fn confirm_outgoing_migration(&self, name: &str) -> VirtResult<()> {
        self.raw().migrate_confirm(name)
    }

    /// Abort phase, exposed for federation-level reconciliation: tear
    /// down a migration destination's half-adopted copy of `name`.
    ///
    /// Destroys the incoming instance if Finish already started it and
    /// forgets it; a destination that never saw the domain is left
    /// untouched and the call succeeds, so reconciliation can invoke it
    /// unconditionally after a failed or interrupted migration.
    ///
    /// # Errors
    ///
    /// Driver failures (an absent domain is *not* an error).
    pub fn abort_incoming_migration(&self, name: &str) -> VirtResult<()> {
        self.raw().migrate_abort(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Connect;
    use crate::driver::{DomainState, DriverRegistry, HypervisorDriver, OpenOptions};
    use crate::drivers::embedded::EmbeddedConnection;
    use crate::error::ErrorCode;
    use crate::uri::ConnectUri;
    use crate::xmlfmt::DomainConfig;
    use hypersim::personality::{LxcLike, QemuLike};
    use hypersim::{DomainSpec, FaultPlan, LatencyModel, OpKind, SimClock, SimHost};
    use std::sync::Arc;

    /// Builds two connected hosts sharing a clock and wraps them as
    /// Connect objects.
    fn pair() -> (Connect, Connect, SimHost, SimHost) {
        let clock = SimClock::new();
        let src_host = SimHost::builder("src")
            .clock(clock.clone())
            .latency(LatencyModel::zero())
            .build();
        let dst_host = SimHost::builder("dst")
            .clock(clock)
            .latency(LatencyModel::zero())
            .seed(7)
            .build();
        let src = Connect::from_driver(EmbeddedConnection::new(src_host.clone(), "qemu:///src"));
        let dst = Connect::from_driver(EmbeddedConnection::new(dst_host.clone(), "qemu:///dst"));
        (src, dst, src_host, dst_host)
    }

    fn running_domain(conn: &Connect, name: &str, memory: u64) -> Domain {
        let domain = conn
            .define_domain(&DomainConfig::new(name, memory, 1))
            .unwrap();
        domain.start().unwrap();
        domain
    }

    #[test]
    fn successful_migration_moves_the_domain() {
        let (src, dst, _sh, _dh) = pair();
        let domain = running_domain(&src, "vm", 1024);
        let report = domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap();
        assert!(report.converged);
        assert!(report.transferred_mib >= 1024);
        assert!(report.total_ms > 0);
        assert!(src.list_domain_names().unwrap().is_empty());
        let moved = dst.domain_lookup_by_name("vm").unwrap();
        assert_eq!(moved.state().unwrap(), DomainState::Running);
    }

    #[test]
    fn migration_requires_running_domain() {
        let (src, dst, _sh, _dh) = pair();
        let domain = src.define_domain(&DomainConfig::new("vm", 256, 1)).unwrap();
        let err = domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationInvalid);
    }

    #[test]
    fn migration_to_container_host_is_unsupported() {
        let (src, _dst, _sh, _dh) = pair();
        let lxc_host = SimHost::builder("lxc-host")
            .personality(LxcLike)
            .latency(LatencyModel::zero())
            .build();
        let dst = Connect::from_driver(EmbeddedConnection::new(lxc_host, "lxc:///"));
        let domain = running_domain(&src, "vm", 256);
        let err = domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoSupport);
        // Domain untouched on the source.
        assert_eq!(domain.state().unwrap(), DomainState::Running);
    }

    #[test]
    fn prepare_failure_keeps_source_running() {
        let (src, _dst, _sh, _dh) = pair();
        // Destination too small for the guest.
        let tiny = SimHost::builder("tiny")
            .memory_mib(128)
            .personality(QemuLike)
            .latency(LatencyModel::zero())
            .build();
        let dst = Connect::from_driver(EmbeddedConnection::new(tiny, "qemu:///tiny"));
        let domain = running_domain(&src, "vm", 1024);
        let err = domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InsufficientResources);
        assert_eq!(domain.state().unwrap(), DomainState::Running);
        assert!(dst.list_domain_names().unwrap().is_empty());
    }

    #[test]
    fn name_collision_on_destination_fails_prepare() {
        let (src, dst, _sh, _dh) = pair();
        running_domain(&dst, "vm", 256);
        let domain = running_domain(&src, "vm", 256);
        let err = domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::DomainExists);
        assert_eq!(domain.state().unwrap(), DomainState::Running);
    }

    #[test]
    fn finish_failure_reports_and_keeps_source() {
        // Prepare succeeds (capacity check passes) but the domain table
        // gains a colliding entry before Finish, so the import fails.
        let (src, dst, _sh, dst_host) = pair();
        let domain = running_domain(&src, "vm", 256);

        // Race in a colliding domain after prepare would require a hook;
        // simplest deterministic equivalent: fill the destination *after*
        // prepare by running the phases manually.
        let xml = src.raw().migrate_begin("vm").unwrap();
        dst.raw().migrate_prepare(&xml).unwrap();
        dst_host.define_domain(DomainSpec::new("vm")).unwrap();
        let err = dst.raw().migrate_finish(&xml).unwrap_err();
        assert_eq!(err.code(), ErrorCode::DomainExists);
        assert_eq!(domain.state().unwrap(), DomainState::Running);
    }

    #[test]
    fn perform_failure_keeps_both_sides_consistent() {
        let clock = SimClock::new();
        let src_host = SimHost::builder("src")
            .clock(clock.clone())
            .latency(LatencyModel::zero())
            .faults(FaultPlan::new().fail_on(OpKind::MigratePage, 1))
            .build();
        let dst_host = SimHost::builder("dst")
            .clock(clock)
            .latency(LatencyModel::zero())
            .seed(3)
            .build();
        let src = Connect::from_driver(EmbeddedConnection::new(src_host, "qemu:///src"));
        let dst = Connect::from_driver(EmbeddedConnection::new(dst_host, "qemu:///dst"));

        let domain = running_domain(&src, "vm", 512);
        let err = domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationFailed);
        assert_eq!(domain.state().unwrap(), DomainState::Running);
        assert!(dst.list_domain_names().unwrap().is_empty());
    }

    #[test]
    fn migration_report_scales_with_memory() {
        let (src, dst, _sh, _dh) = pair();
        let small = running_domain(&src, "small", 256);
        let small_report = small
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap();
        let large = running_domain(&src, "large", 8192);
        let large_report = large
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap();
        assert!(large_report.total_ms > small_report.total_ms * 4);
        assert!(large_report.transferred_mib > small_report.transferred_mib * 4);
    }

    #[test]
    fn high_dirty_rate_fails_to_converge_but_still_migrates() {
        let (src, dst, _sh, _dh) = pair();
        let config = {
            let mut c = DomainConfig::new("busy", 4096, 2);
            c.dirty_rate_mib_s = 5_000; // dirties far faster than the link
            c
        };
        let domain = src.define_domain(&config).unwrap();
        domain.start().unwrap();
        let options = MigrationOptions {
            bandwidth_mib_s: 1000,
            ..MigrationOptions::default()
        };
        let report = domain.migrate_to(&dst, &options).unwrap();
        assert!(!report.converged);
        assert_eq!(report.iterations, options.max_iterations);
        assert!(report.downtime_ms > options.max_downtime_ms);
        // The domain still moved (forced stop-and-copy).
        assert!(dst.domain_lookup_by_name("busy").is_ok());
    }

    /// Driver used to route `qemu://` test URIs at embedded hosts.
    #[derive(Debug)]
    struct FixedDriver(Arc<EmbeddedConnection>);

    impl HypervisorDriver for FixedDriver {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn probe(&self, _uri: &ConnectUri) -> bool {
            true
        }

        fn open(
            &self,
            _uri: &ConnectUri,
            _options: &OpenOptions,
        ) -> VirtResult<Arc<dyn crate::driver::HypervisorConnection>> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn migration_works_through_a_custom_registry() {
        let (src, _dst, _sh, dst_host) = pair();
        let mut registry = DriverRegistry::new();
        registry.register(Arc::new(FixedDriver(EmbeddedConnection::new(
            dst_host,
            "qemu:///fixed",
        ))));
        let dst = Connect::builder("qemu:///fixed")
            .registry(&registry)
            .open()
            .unwrap();
        let domain = running_domain(&src, "vm", 512);
        domain
            .migrate_to(&dst, &MigrationOptions::default())
            .unwrap();
        assert!(dst.domain_lookup_by_name("vm").is_ok());
    }
}
