//! The simulated host: a machine running one hypervisor personality.
//!
//! [`SimHost`] is the substrate the management layer's drivers talk to. It
//! owns the domain/pool/network tables, enforces the lifecycle state
//! machine and capacity accounting, charges modeled latencies to the shared
//! virtual clock, and applies the fault plan. A `SimHost` is a cheap
//! cloneable handle; clones share the same host.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::SimClock;
use crate::domain::{
    transition, DomainInfo, DomainSpec, DomainState, DomainStatsView, SimDisk, SimDomain,
};
use crate::error::{SimError, SimErrorKind, SimResult};
use crate::fault::{FaultAction, FaultPlan};
use crate::latency::{LatencyModel, OpKind};
use crate::network::{NetworkSpec, SimNetwork};
use crate::personality::{Personality, QemuLike, VirtKind};
use crate::resources::{CapacityLedger, MiB};
use crate::storage::{PoolSpec, SimPool, SimVolume, VolumeSpec};

/// A snapshot of host-level facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Host name.
    pub name: String,
    /// Hypervisor personality name (e.g. `qemu`).
    pub hypervisor: String,
    /// Guest execution model.
    pub virt_kind: VirtKind,
    /// Physical CPU count.
    pub cpus: u32,
    /// Physical memory.
    pub memory: MiB,
    /// Memory not reserved by active domains.
    pub free_memory: MiB,
    /// Number of active (running/paused) domains.
    pub active_domains: usize,
    /// Number of defined (inactive, persistent) domains.
    pub inactive_domains: usize,
    /// Whether the host is up.
    pub up: bool,
}

/// The genuinely host-global mutable state: capacity accounting, id
/// allocation, and the UUID stream. Deliberately tiny — every critical
/// section over it is a handful of arithmetic ops — and always the
/// *innermost* lock (see [`HostShared`] for the ordering).
struct HostCtl {
    ledger: CapacityLedger,
    next_domain_id: u32,
    rng: StdRng,
}

type DomainSlot = Arc<Mutex<SimDomain>>;

/// The domain index, keyed twice: by name in order (listing walks it) and
/// by UUID (a UUID lookup is one probe, as in libvirt's domain list). Both
/// keys change only through [`DomainTable::insert`] and
/// [`DomainTable::remove`], so they cannot disagree.
#[derive(Default)]
struct DomainTable {
    by_name: BTreeMap<String, DomainSlot>,
    by_uuid: HashMap<[u8; 16], DomainSlot>,
}

impl DomainTable {
    fn get(&self, name: &str) -> Option<&DomainSlot> {
        self.by_name.get(name)
    }

    fn get_by_uuid(&self, uuid: &[u8; 16]) -> Option<&DomainSlot> {
        self.by_uuid.get(uuid)
    }

    /// Name-ordered.
    fn values(&self) -> std::collections::btree_map::Values<'_, String, DomainSlot> {
        self.by_name.values()
    }

    fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Callers have checked that neither key is taken.
    fn insert(&mut self, domain: SimDomain) {
        let uuid = domain.uuid;
        let name = domain.spec.name().to_string();
        let slot = Arc::new(Mutex::new(domain));
        debug_assert!(!self.by_uuid.contains_key(&uuid) && !self.by_name.contains_key(&name));
        self.by_uuid.insert(uuid, Arc::clone(&slot));
        self.by_name.insert(name, slot);
    }

    /// Locks the removed domain for its UUID, so the caller must not hold
    /// that domain's mutex.
    fn remove(&mut self, name: &str) -> Option<DomainSlot> {
        let slot = self.by_name.remove(name)?;
        let uuid = slot.lock().uuid;
        self.by_uuid.remove(&uuid);
        Some(slot)
    }

    /// The next UUID from `rng` that no domain holds: a daemon that
    /// re-adopted its domains with their recorded UUIDs replays the same
    /// stream, so a fresh draw may already be taken.
    fn fresh_uuid(&self, rng: &mut StdRng) -> [u8; 16] {
        loop {
            let uuid = gen_uuid(rng);
            if !self.by_uuid.contains_key(&uuid) {
                return uuid;
            }
        }
    }

    /// The `DuplicateDomain` error for a spec whose name or UUID is taken.
    fn check_free(&self, name: &str, uuid: Option<&[u8; 16]>) -> SimResult<()> {
        if self.by_name.contains_key(name) {
            return Err(SimError::new(
                SimErrorKind::DuplicateDomain,
                name.to_string(),
            ));
        }
        match uuid.and_then(|uuid| Some((uuid, self.by_uuid.get(uuid)?))) {
            Some((uuid, holder)) => Err(SimError::new(
                SimErrorKind::DuplicateDomain,
                format!(
                    "uuid {} of '{name}' already held by '{}'",
                    uuid_string(uuid),
                    holder.lock().spec.name()
                ),
            )),
            None => Ok(()),
        }
    }
}

/// The 8-4-4-4-12 text form of a UUID.
fn uuid_string(uuid: &[u8; 16]) -> String {
    let hex: String = uuid.iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "{}-{}-{}-{}-{}",
        &hex[..8],
        &hex[8..12],
        &hex[12..16],
        &hex[16..20],
        &hex[20..]
    )
}

struct HostShared {
    name: String,
    /// Process-unique instance number: distinguishes hosts that happen
    /// to share a name (management layers key per-host state on it).
    instance: u64,
    personality: Arc<dyn Personality>,
    latency: LatencyModel,
    clock: SimClock,
    faults: FaultPlan,
    /// When > 0, operations also occupy the calling thread for
    /// `simulated cost × scale` of wall time (see
    /// [`SimHostBuilder::wall_time_scale`]).
    wall_scale: f64,
    /// Host liveness, checked lock-free on every operation charge.
    up: AtomicBool,
    /// Read-mostly index of per-domain locks, by name and by UUID.
    /// Queries and single-domain mutations take the read lock only long
    /// enough to clone one domain's `Arc` (one probe of either key), then
    /// work under that domain's own mutex, so a slow operation on one
    /// domain (a migration charging memory slices, a wall-scaled boot)
    /// never blocks lookups of another. Only operations that insert or
    /// remove index entries (define, undefine, create-rollback, transient
    /// stop, import, adopt, forget, restart) take the write lock.
    ///
    /// Lock order: index (read or write) → one domain mutex → `ctl`.
    /// `pools`/`networks` are never held together with any of these.
    domains: RwLock<DomainTable>,
    pools: Mutex<BTreeMap<String, SimPool>>,
    networks: Mutex<BTreeMap<String, SimNetwork>>,
    ctl: Mutex<HostCtl>,
}

/// A simulated physical host running a hypervisor.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone)]
pub struct SimHost {
    shared: Arc<HostShared>,
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost")
            .field("name", &self.shared.name)
            .field("hypervisor", &self.shared.personality.name())
            .finish_non_exhaustive()
    }
}

/// vCPUs a host may allocate per physical CPU.
const CPU_OVERCOMMIT: u32 = 8;

/// Builder for [`SimHost`].
pub struct SimHostBuilder {
    name: String,
    cpus: u32,
    memory: MiB,
    personality: Arc<dyn Personality>,
    latency: Option<LatencyModel>,
    clock: Option<SimClock>,
    faults: FaultPlan,
    seed: u64,
    wall_scale: f64,
}

impl SimHostBuilder {
    fn new(name: impl Into<String>) -> Self {
        SimHostBuilder {
            name: name.into(),
            cpus: 8,
            memory: MiB(16 * 1024),
            personality: Arc::new(QemuLike),
            latency: None,
            clock: None,
            faults: FaultPlan::new(),
            seed: 0x5eed,
            wall_scale: 0.0,
        }
    }

    /// Physical CPU count (default 8).
    pub fn cpus(mut self, cpus: u32) -> Self {
        self.cpus = cpus;
        self
    }

    /// Physical memory in MiB (default 16384).
    pub fn memory_mib(mut self, mib: u64) -> Self {
        self.memory = MiB(mib);
        self
    }

    /// Hypervisor personality (default [`QemuLike`]).
    pub fn personality(mut self, personality: impl Personality + 'static) -> Self {
        self.personality = Arc::new(personality);
        self
    }

    /// Overrides the personality's latency model (e.g. [`LatencyModel::zero`]
    /// for logic-only tests).
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Shares a clock with other hosts (required for migration timing).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Installs a fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Seeds UUID generation (hosts with different seeds generate disjoint
    /// UUID streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes operations occupy the calling thread for
    /// `simulated cost × scale` of real wall time (default 0: virtual time
    /// only). Throughput experiments use this so hypervisor work genuinely
    /// occupies daemon workers, at a tractable time scale (e.g. `1e-2`
    /// turns a 900 ms boot into 9 ms of wall time).
    pub fn wall_time_scale(mut self, scale: f64) -> Self {
        self.wall_scale = scale.max(0.0);
        self
    }

    /// Builds the host, already up, with a `default` dir pool and a
    /// `default` NAT network pre-created and started (matching a stock
    /// libvirt install).
    pub fn build(self) -> SimHost {
        let latency = self
            .latency
            .unwrap_or_else(|| self.personality.latency_model());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pools = BTreeMap::new();
        let mut default_pool = SimPool::new(
            &PoolSpec::new("default", crate::storage::PoolBackend::Dir, MiB(100 * 1024)),
            gen_uuid(&mut rng),
        );
        default_pool.active = true;
        pools.insert("default".to_string(), default_pool);

        let mut networks = BTreeMap::new();
        let mut default_net = SimNetwork::new(
            &NetworkSpec::new("default", std::net::Ipv4Addr::new(192, 168, 122, 0)),
            gen_uuid(&mut rng),
        );
        default_net.active = true;
        default_net.autostart = true;
        networks.insert("default".to_string(), default_net);

        static NEXT_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        SimHost {
            shared: Arc::new(HostShared {
                name: self.name,
                instance: NEXT_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                personality: self.personality,
                latency,
                clock: self.clock.unwrap_or_default(),
                faults: self.faults,
                wall_scale: self.wall_scale,
                up: AtomicBool::new(true),
                domains: RwLock::new(DomainTable::default()),
                pools: Mutex::new(pools),
                networks: Mutex::new(networks),
                ctl: Mutex::new(HostCtl {
                    ledger: CapacityLedger::new(self.memory, self.cpus, CPU_OVERCOMMIT),
                    next_domain_id: 1,
                    rng,
                }),
            }),
        }
    }
}

fn gen_uuid(rng: &mut StdRng) -> [u8; 16] {
    let mut uuid = [0u8; 16];
    rng.fill(&mut uuid);
    // RFC 4122 version 4, variant 1.
    uuid[6] = (uuid[6] & 0x0f) | 0x40;
    uuid[8] = (uuid[8] & 0x3f) | 0x80;
    uuid
}

impl SimHost {
    /// Starts building a host.
    pub fn builder(name: impl Into<String>) -> SimHostBuilder {
        SimHostBuilder::new(name)
    }

    /// The host name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// A process-unique id for this host instance. Clones share it; two
    /// hosts built with the same name do not. Management layers use it to
    /// key per-host state that must survive a connection being rebuilt
    /// over the same host (e.g. job recovery across a daemon restart).
    pub fn instance_id(&self) -> u64 {
        self.shared.instance
    }

    /// The hypervisor personality.
    pub fn personality(&self) -> &dyn Personality {
        self.shared.personality.as_ref()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.shared.clock
    }

    /// The fault plan this host was built with (its occurrence counters
    /// say how many operations of each kind the host has been charged).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.shared.faults
    }

    /// Host facts snapshot.
    pub fn info(&self) -> HostInfo {
        let (total, active) = {
            let domains = self.shared.domains.read();
            let active = domains
                .values()
                .filter(|d| d.lock().state.is_active())
                .count();
            (domains.len(), active)
        };
        let ctl = self.shared.ctl.lock();
        HostInfo {
            name: self.shared.name.clone(),
            hypervisor: self.shared.personality.name().to_string(),
            virt_kind: self.shared.personality.virt_kind(),
            cpus: ctl.ledger.total_cpus(),
            memory: ctl.ledger.total_memory(),
            free_memory: ctl.ledger.free_memory(),
            active_domains: active,
            inactive_domains: total - active,
            up: self.shared.up.load(Ordering::Acquire),
        }
    }

    /// Charges the modeled cost of `op` (for `memory` MiB of guest memory)
    /// to the clock and applies the fault plan.
    ///
    /// Returns the fault that fired, if any, after charging.
    fn charge(&self, op: OpKind, memory: MiB) -> SimResult<Option<FaultAction>> {
        self.admit(op)?;
        self.spend(self.shared.latency.sample(op, memory));
        match self.shared.faults.check(op) {
            Some(FaultAction::Fail) => Err(SimError::new(
                SimErrorKind::InjectedFault,
                format!("{op:?} forced to fail"),
            )),
            Some(FaultAction::Hang(extra)) => {
                self.spend(extra);
                Ok(Some(FaultAction::Hang(extra)))
            }
            other => Ok(other),
        }
    }

    /// Refuses `op` on a host that is down or whose personality lacks it.
    fn admit(&self, op: OpKind) -> SimResult<()> {
        if !self.shared.up.load(Ordering::Acquire) {
            return Err(SimError::new(
                SimErrorKind::HostDown,
                self.shared.name.clone(),
            ));
        }
        if !self.shared.personality.supports(op) {
            return Err(SimError::new(
                SimErrorKind::Unsupported,
                format!("{op:?} on {}", self.shared.personality.name()),
            ));
        }
        Ok(())
    }

    /// Advances the clock by `cost`, and sleeps its wall-scaled share.
    fn spend(&self, cost: Duration) {
        self.shared.clock.advance(cost);
        if self.shared.wall_scale > 0.0 {
            std::thread::sleep(cost.mul_f64(self.shared.wall_scale));
        }
    }

    /// Clones the per-domain lock handle for `name`, holding the index
    /// read lock only for the lookup itself.
    fn domain_arc(&self, name: &str) -> SimResult<Arc<Mutex<SimDomain>>> {
        self.shared
            .domains
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchDomain, name.to_string()))
    }

    // ---- domain lifecycle ---------------------------------------------

    /// Persists a domain definition.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::DuplicateDomain`] on a name collision and
    /// [`SimErrorKind::InvalidArgument`] on an invalid spec.
    pub fn define_domain(&self, spec: DomainSpec) -> SimResult<DomainInfo> {
        spec.validate()?;
        self.charge(OpKind::Define, MiB::ZERO)?;
        let mut domains = self.shared.domains.write();
        domains.check_free(spec.name(), None)?;
        let uuid = domains.fresh_uuid(&mut self.shared.ctl.lock().rng);
        let domain = SimDomain::new(spec, uuid);
        let info = domain.info_at(self.shared.clock.now());
        domains.insert(domain);
        Ok(info)
    }

    /// Removes a persisted definition. The domain must be inactive.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchDomain`], or [`SimErrorKind::InvalidState`]
    /// when the domain is active.
    pub fn undefine_domain(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Undefine, MiB::ZERO)?;
        let mut domains = self.shared.domains.write();
        let domain = domains
            .get(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchDomain, name.to_string()))?;
        if domain.lock().state.is_active() {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("domain '{name}' is active"),
            ));
        }
        domains.remove(name);
        Ok(())
    }

    /// Strips the persistent flag from an *active* domain: the
    /// undefine-while-running path, where the configuration is removed
    /// but the guest keeps executing as a transient domain until it
    /// stops (libvirt's `virDomainUndefine` on a running domain).
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchDomain`], or [`SimErrorKind::InvalidState`]
    /// when the domain is not active (inactive domains are undefined by
    /// removal, not demotion).
    pub fn demote_domain_to_transient(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Undefine, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        if !domain.state.is_active() {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("domain '{name}' is not active"),
            ));
        }
        domain.spec = domain.spec.clone().transient();
        Ok(())
    }

    /// Starts a defined domain.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchDomain`], [`SimErrorKind::InvalidState`] when
    /// not startable, [`SimErrorKind::InsufficientResources`] when the
    /// host cannot fit the guest.
    pub fn start_domain(&self, name: &str) -> SimResult<DomainInfo> {
        // Look up memory first so the charge scales with guest size.
        let memory = self.domain(name)?.memory;
        let fault = self.charge(OpKind::Start, memory)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        let next = transition(domain.state, OpKind::Start)?;
        let (mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
        let crash_after = matches!(fault, Some(FaultAction::CrashAfter));
        let next_id = {
            let mut ctl = self.shared.ctl.lock();
            ctl.ledger.reserve(mem, vcpus)?;
            let id = ctl.next_domain_id;
            ctl.next_domain_id += 1;
            id
        };
        domain.set_state(next, self.shared.clock.now());
        domain.id = Some(next_id);
        domain.has_managed_save = false;
        if crash_after {
            domain.set_state(DomainState::Crashed, self.shared.clock.now());
            domain.id = None;
            self.shared.ctl.lock().ledger.release(mem, vcpus);
        }
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Defines a transient domain and starts it immediately (libvirt's
    /// `virDomainCreateXML`).
    pub fn create_domain(&self, spec: DomainSpec) -> SimResult<DomainInfo> {
        let name = spec.name().to_string();
        self.define_domain(spec.transient())?;
        match self.start_domain(&name) {
            Ok(info) => Ok(info),
            Err(err) => {
                // Roll the transient definition back so a failed create
                // leaves no trace.
                self.shared.domains.write().remove(&name);
                Err(err)
            }
        }
    }

    fn stop_common(
        &self,
        name: &str,
        op: OpKind,
        final_state: DomainState,
    ) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        self.charge(op, memory)?;
        // Write lock up front: a transient domain must leave the index
        // atomically with its stop.
        let mut domains = self.shared.domains.write();
        let arc = domains
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchDomain, name.to_string()))?;
        let mut domain = arc.lock();
        let next = transition(domain.state, op)?;
        debug_assert_eq!(next, final_state);
        let was_active = domain.state.is_active();
        let (mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
        let persistent = domain.spec.is_persistent();
        domain.set_state(next, self.shared.clock.now());
        domain.id = None;
        let info = domain.info_at(self.shared.clock.now());
        if was_active {
            self.shared.ctl.lock().ledger.release(mem, vcpus);
        }
        if !persistent {
            drop(domain);
            domains.remove(name);
        }
        Ok(info)
    }

    /// Gracefully shuts a running domain down.
    pub fn shutdown_domain(&self, name: &str) -> SimResult<DomainInfo> {
        self.stop_common(name, OpKind::Shutdown, DomainState::Shutoff)
    }

    /// Hard power-off. Valid from running, paused, or crashed.
    pub fn destroy_domain(&self, name: &str) -> SimResult<DomainInfo> {
        self.stop_common(name, OpKind::Destroy, DomainState::Shutoff)
    }

    /// Kills the guest without a clean power-off, leaving the domain in
    /// [`DomainState::Crashed`] — the simulator's `virDomainCoreDump
    /// --crash` analogue, and the chaos-testing primitive the guard
    /// engine reacts to. Unlike [`SimHost::destroy_domain`] the domain
    /// stays defined (even transient ones): a crashed guest is still an
    /// object an operator — or a supervisor — can inspect and restart.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchDomain`]; [`SimErrorKind::InvalidState`]
    /// unless the domain is running or paused.
    pub fn crash_domain(&self, name: &str) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        // A forced crash is charged like a destroy: the host does no
        // guest-cooperative work, it just tears the process down.
        self.charge(OpKind::Destroy, memory)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        if !domain.state.is_active() {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("domain '{name}' is not active ({:?})", domain.state),
            ));
        }
        let (mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
        domain.set_state(DomainState::Crashed, self.shared.clock.now());
        domain.id = None;
        self.shared.ctl.lock().ledger.release(mem, vcpus);
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Pauses vCPUs.
    pub fn suspend_domain(&self, name: &str) -> SimResult<DomainInfo> {
        self.charge(OpKind::Suspend, MiB::ZERO)?;
        self.apply_simple_transition(name, OpKind::Suspend)
    }

    /// Resumes a paused domain.
    pub fn resume_domain(&self, name: &str) -> SimResult<DomainInfo> {
        self.charge(OpKind::Resume, MiB::ZERO)?;
        self.apply_simple_transition(name, OpKind::Resume)
    }

    /// Reboots a running domain.
    pub fn reboot_domain(&self, name: &str) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        self.charge(OpKind::Reboot, memory)?;
        self.apply_simple_transition(name, OpKind::Reboot)
    }

    fn apply_simple_transition(&self, name: &str, op: OpKind) -> SimResult<DomainInfo> {
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        let next = transition(domain.state, op)?;
        domain.set_state(next, self.shared.clock.now());
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Saves guest memory to storage and stops the domain (managed save).
    pub fn save_domain(&self, name: &str) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        self.charge(OpKind::Save, memory)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        let next = transition(domain.state, OpKind::Save)?;
        let (mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
        domain.set_state(next, self.shared.clock.now());
        domain.id = None;
        domain.has_managed_save = true;
        let info = domain.info_at(self.shared.clock.now());
        self.shared.ctl.lock().ledger.release(mem, vcpus);
        Ok(info)
    }

    /// Restores a saved domain to running.
    pub fn restore_domain(&self, name: &str) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        self.charge(OpKind::Restore, memory)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        let next = transition(domain.state, OpKind::Restore)?;
        let (mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
        let next_id = {
            let mut ctl = self.shared.ctl.lock();
            ctl.ledger.reserve(mem, vcpus)?;
            let id = ctl.next_domain_id;
            ctl.next_domain_id += 1;
            id
        };
        domain.set_state(next, self.shared.clock.now());
        domain.id = Some(next_id);
        domain.has_managed_save = false;
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Adjusts current memory (ballooning) of a domain.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::InvalidArgument`] when `new_memory` exceeds the
    /// domain's configured maximum; [`SimErrorKind::InsufficientResources`]
    /// when an active domain cannot grow within host capacity.
    pub fn set_domain_memory(&self, name: &str, new_memory: MiB) -> SimResult<DomainInfo> {
        self.charge(OpKind::SetResources, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        transition(domain.state, OpKind::SetResources)?;
        if new_memory > domain.spec.max_memory() {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("{new_memory} exceeds maximum {}", domain.spec.max_memory()),
            ));
        }
        if new_memory == MiB::ZERO {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "memory must be > 0",
            ));
        }
        let old = domain.spec.memory();
        let vcpus = domain.spec.vcpu_count();
        if domain.state.is_active() {
            self.shared
                .ctl
                .lock()
                .ledger
                .resize(old, new_memory, vcpus, vcpus)?;
        }
        domain.spec = domain
            .spec
            .clone()
            .memory_mib(new_memory.0)
            .max_memory_mib(domain.spec.max_memory().0);
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Adjusts the vCPU count of a domain.
    pub fn set_domain_vcpus(&self, name: &str, vcpus: u32) -> SimResult<DomainInfo> {
        self.charge(OpKind::SetResources, MiB::ZERO)?;
        if vcpus == 0 {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "vcpus must be > 0",
            ));
        }
        if vcpus > self.shared.personality.capabilities().max_vcpus {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("{vcpus} exceeds platform maximum"),
            ));
        }
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        transition(domain.state, OpKind::SetResources)?;
        let old = domain.spec.vcpu_count();
        let memory = domain.spec.memory();
        if domain.state.is_active() {
            self.shared
                .ctl
                .lock()
                .ledger
                .resize(memory, memory, old, vcpus)?;
        }
        domain.spec = domain.spec.clone().vcpus(vcpus);
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Attaches a disk to a domain.
    pub fn attach_disk(&self, name: &str, disk: SimDisk) -> SimResult<DomainInfo> {
        self.charge(OpKind::DeviceChange, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        transition(domain.state, OpKind::DeviceChange)?;
        if domain.spec.disks().iter().any(|d| d.target == disk.target) {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("target '{}' already in use", disk.target),
            ));
        }
        domain.spec = domain.spec.clone().disk(disk);
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Detaches a disk by target name.
    pub fn detach_disk(&self, name: &str, target: &str) -> SimResult<DomainInfo> {
        self.charge(OpKind::DeviceChange, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        transition(domain.state, OpKind::DeviceChange)?;
        let disks = domain.spec.disks();
        if !disks.iter().any(|d| d.target == target) {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("no disk with target '{target}'"),
            ));
        }
        let kept: Vec<SimDisk> = disks
            .iter()
            .filter(|d| d.target != target)
            .cloned()
            .collect();
        let mut rebuilt = DomainSpec::new(domain.spec.name())
            .memory_mib(domain.spec.memory().0)
            .max_memory_mib(domain.spec.max_memory().0)
            .vcpus(domain.spec.vcpu_count())
            .dirty_rate_mib_s(domain.spec.dirty_rate());
        if !domain.spec.is_persistent() {
            rebuilt = rebuilt.transient();
        }
        for d in kept {
            rebuilt = rebuilt.disk(d);
        }
        for n in domain.spec.nics() {
            rebuilt = rebuilt.nic(n.clone());
        }
        domain.spec = rebuilt;
        Ok(domain.info_at(self.shared.clock.now()))
    }

    /// Takes a named snapshot of the domain.
    pub fn snapshot_domain(&self, name: &str, snapshot: &str) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        self.charge(OpKind::Snapshot, memory)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        transition(domain.state, OpKind::Snapshot)?;
        if domain.snapshots.iter().any(|s| s.name == snapshot) {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("snapshot '{snapshot}' already exists"),
            ));
        }
        let now = self.shared.clock.now();
        let record = crate::domain::SnapshotRecord {
            name: snapshot.to_string(),
            state: domain.state,
            memory: domain.spec.memory(),
            taken_at: now,
        };
        domain.snapshots.push(record);
        Ok(domain.info_at(now))
    }

    /// Reverts a domain to a named snapshot: its lifecycle state and
    /// current memory return to their values at snapshot time, with
    /// resource accounting adjusted accordingly.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchDomain`]; [`SimErrorKind::InvalidArgument`]
    /// when the snapshot does not exist;
    /// [`SimErrorKind::InsufficientResources`] when reverting to an active
    /// snapshot no longer fits the host.
    pub fn revert_snapshot(&self, name: &str, snapshot: &str) -> SimResult<DomainInfo> {
        let memory = self.domain(name)?.memory;
        self.charge(OpKind::Snapshot, memory)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        let record = domain
            .snapshots
            .iter()
            .find(|s| s.name == snapshot)
            .cloned()
            .ok_or_else(|| {
                SimError::new(
                    SimErrorKind::InvalidArgument,
                    format!("no snapshot '{snapshot}' for domain '{name}'"),
                )
            })?;
        let was_active = domain.state.is_active();
        let will_be_active = record.state.is_active();
        let (old_mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
        // Adjust the ledger for the state/memory change before mutating.
        let fresh_id = {
            let mut ctl = self.shared.ctl.lock();
            match (was_active, will_be_active) {
                (true, false) => ctl.ledger.release(old_mem, vcpus),
                (false, true) => ctl.ledger.reserve(record.memory, vcpus)?,
                (true, true) => ctl.ledger.resize(old_mem, record.memory, vcpus, vcpus)?,
                (false, false) => {}
            }
            if will_be_active && !was_active {
                let id = ctl.next_domain_id;
                ctl.next_domain_id += 1;
                Some(id)
            } else {
                None
            }
        };
        let now = self.shared.clock.now();
        domain.spec = domain
            .spec
            .clone()
            .memory_mib(record.memory.0)
            .max_memory_mib(domain.spec.max_memory().0.max(record.memory.0));
        domain.set_state(record.state, now);
        domain.id = match (was_active, will_be_active) {
            (false, true) => fresh_id,
            (_, false) => None,
            (true, true) => domain.id,
        };
        Ok(domain.info_at(now))
    }

    /// Deletes a named snapshot.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchDomain`]; [`SimErrorKind::InvalidArgument`]
    /// when absent.
    pub fn delete_snapshot(&self, name: &str, snapshot: &str) -> SimResult<()> {
        self.charge(OpKind::Snapshot, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let mut domain = arc.lock();
        let before = domain.snapshots.len();
        domain.snapshots.retain(|s| s.name != snapshot);
        if domain.snapshots.len() == before {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("no snapshot '{snapshot}' for domain '{name}'"),
            ));
        }
        Ok(())
    }

    /// Marks a domain for autostart on host boot.
    pub fn set_autostart(&self, name: &str, autostart: bool) -> SimResult<()> {
        let arc = self.domain_arc(name)?;
        arc.lock().autostart = autostart;
        Ok(())
    }

    // ---- domain queries -------------------------------------------------

    /// Facts about one domain.
    pub fn domain(&self, name: &str) -> SimResult<DomainInfo> {
        self.charge(OpKind::QueryDomain, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let info = arc.lock().info_at(self.shared.clock.now());
        Ok(info)
    }

    /// One-lock snapshot of a domain's facts *and* full spec, for callers
    /// that need both consistently (persistence sync, XML dump, migration
    /// setup). Charges a single [`OpKind::QueryDomain`], like
    /// [`SimHost::domain`].
    pub fn domain_snapshot(&self, name: &str) -> SimResult<(DomainInfo, DomainSpec)> {
        self.charge(OpKind::QueryDomain, MiB::ZERO)?;
        let arc = self.domain_arc(name)?;
        let domain = arc.lock();
        Ok((domain.info_at(self.shared.clock.now()), domain.spec.clone()))
    }

    /// Looks a domain up by its active id.
    pub fn domain_by_id(&self, id: u32) -> SimResult<DomainInfo> {
        self.charge(OpKind::QueryDomain, MiB::ZERO)?;
        let domains = self.shared.domains.read();
        domains
            .values()
            .find_map(|d| {
                let d = d.lock();
                (d.id == Some(id)).then(|| d.info_at(self.shared.clock.now()))
            })
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchDomain, format!("id {id}")))
    }

    /// Looks a domain up by UUID: one probe of the index, then only that
    /// domain's mutex. Charges one [`OpKind::QueryDomain`].
    pub fn domain_by_uuid(&self, uuid: [u8; 16]) -> SimResult<DomainInfo> {
        self.charge(OpKind::QueryDomain, MiB::ZERO)?;
        let arc = self
            .shared
            .domains
            .read()
            .get_by_uuid(&uuid)
            .cloned()
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchDomain, uuid_string(&uuid)))?;
        let info = arc.lock().info_at(self.shared.clock.now());
        Ok(info)
    }

    /// All domains, name-ordered.
    pub fn list_domains(&self) -> SimResult<Vec<DomainInfo>> {
        self.charge(OpKind::ListDomains, MiB::ZERO)?;
        let domains = self.shared.domains.read();
        Ok(domains
            .values()
            .map(|d| d.lock().info_at(self.shared.clock.now()))
            .collect())
    }

    /// Visits every domain, name-ordered, in one pass under one index
    /// read lock — the monitoring path, where [`SimHost::list_domains`]
    /// would clone a name and a snapshot list per domain only for the
    /// caller to drop them. Costs what `list_domains` costs (one
    /// [`OpKind::ListDomains`]), and every domain's vCPU time is taken
    /// against one clock reading made right after that charge.
    ///
    /// `visit` runs with the index and one domain locked: it must not
    /// call back into this host.
    pub fn visit_domains(&self, mut visit: impl FnMut(DomainStatsView<'_>)) -> SimResult<()> {
        self.charge(OpKind::ListDomains, MiB::ZERO)?;
        let now = self.shared.clock.now();
        let domains = self.shared.domains.read();
        for domain in domains.values() {
            visit(domain.lock().stats_view_at(now));
        }
        Ok(())
    }

    /// Charges the clock and the fault plan what `count` calls to
    /// [`SimHost::domain`] cost, without looking anything up — for a
    /// caller that already has the facts from [`SimHost::visit_domains`]
    /// but whose modeled cost is still one hypervisor query per domain.
    /// Like a caller that ignores a failed query, this ignores injected
    /// failures: the occurrence is counted and the time is spent.
    ///
    /// One step for all `count`: one admission check, one pass over the
    /// fault plan (every scheduled `Hang` in the range, plus `always`),
    /// the latency samples drawn under one lock, one clock advance and
    /// one wall-scaled sleep. The virtual time, the occurrence counts and
    /// the jitter sequence are those of `count` single charges.
    pub fn charge_domain_queries(&self, count: usize) {
        let op = OpKind::QueryDomain;
        if count == 0 || self.admit(op).is_err() {
            return;
        }
        let n = count as u64;
        let latency = self.shared.latency.sample_n(op, MiB::ZERO, n);
        self.spend(latency + self.shared.faults.check_hangs(op, n));
    }

    // ---- storage ---------------------------------------------------------

    /// Defines a storage pool.
    pub fn define_pool(&self, spec: PoolSpec) -> SimResult<()> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        let mut pools = self.shared.pools.lock();
        if pools.contains_key(spec.name()) {
            return Err(SimError::new(
                SimErrorKind::DuplicatePool,
                spec.name().to_string(),
            ));
        }
        let uuid = gen_uuid(&mut self.shared.ctl.lock().rng);
        pools.insert(spec.name().to_string(), SimPool::new(&spec, uuid));
        Ok(())
    }

    /// Starts (activates) a pool.
    pub fn start_pool(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.with_pool_mut(name, |pool| {
            pool.active = true;
            Ok(())
        })
    }

    /// Stops a pool.
    pub fn stop_pool(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.with_pool_mut(name, |pool| {
            pool.active = false;
            Ok(())
        })
    }

    /// Removes an inactive pool definition.
    pub fn undefine_pool(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        let mut pools = self.shared.pools.lock();
        let pool = pools
            .get(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchPool, name.to_string()))?;
        if pool.active {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("pool '{name}' is active"),
            ));
        }
        pools.remove(name);
        Ok(())
    }

    /// Snapshot of one pool.
    pub fn pool(&self, name: &str) -> SimResult<SimPool> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.shared
            .pools
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchPool, name.to_string()))
    }

    /// Names of all pools.
    pub fn list_pools(&self) -> SimResult<Vec<String>> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        Ok(self.shared.pools.lock().keys().cloned().collect())
    }

    /// Creates a volume in a pool.
    pub fn create_volume(&self, pool: &str, spec: VolumeSpec) -> SimResult<SimVolume> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.with_pool_mut(pool, |p| {
            if !p.active {
                return Err(SimError::new(
                    SimErrorKind::InvalidState,
                    format!("pool '{}' is not active", p.name),
                ));
            }
            p.create_volume(&spec)
        })
    }

    /// Deletes a volume from a pool.
    pub fn delete_volume(&self, pool: &str, volume: &str) -> SimResult<()> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.with_pool_mut(pool, |p| p.delete_volume(volume))
    }

    /// Grows a volume.
    pub fn resize_volume(&self, pool: &str, volume: &str, new_capacity: MiB) -> SimResult<()> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.with_pool_mut(pool, |p| p.resize_volume(volume, new_capacity))
    }

    /// Clones a volume within a pool.
    pub fn clone_volume(&self, pool: &str, source: &str, new_name: &str) -> SimResult<SimVolume> {
        self.charge(OpKind::Storage, MiB::ZERO)?;
        self.with_pool_mut(pool, |p| p.clone_volume(source, new_name))
    }

    fn with_pool_mut<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut SimPool) -> SimResult<T>,
    ) -> SimResult<T> {
        let mut pools = self.shared.pools.lock();
        let pool = pools
            .get_mut(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchPool, name.to_string()))?;
        f(pool)
    }

    // ---- networks ---------------------------------------------------------

    /// Defines a virtual network.
    pub fn define_network(&self, spec: NetworkSpec) -> SimResult<()> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        let mut networks = self.shared.networks.lock();
        if networks.contains_key(spec.name()) {
            return Err(SimError::new(
                SimErrorKind::DuplicateNetwork,
                spec.name().to_string(),
            ));
        }
        let uuid = gen_uuid(&mut self.shared.ctl.lock().rng);
        networks.insert(spec.name().to_string(), SimNetwork::new(&spec, uuid));
        Ok(())
    }

    /// Starts a network.
    pub fn start_network(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        self.with_network_mut(name, |net| {
            net.active = true;
            Ok(())
        })
    }

    /// Stops a network, dropping all leases.
    pub fn stop_network(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        self.with_network_mut(name, |net| {
            net.active = false;
            net.clear_leases();
            Ok(())
        })
    }

    /// Removes an inactive network definition.
    pub fn undefine_network(&self, name: &str) -> SimResult<()> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        let mut networks = self.shared.networks.lock();
        let net = networks
            .get(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchNetwork, name.to_string()))?;
        if net.active {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("network '{name}' is active"),
            ));
        }
        networks.remove(name);
        Ok(())
    }

    /// Snapshot of one network.
    pub fn network(&self, name: &str) -> SimResult<SimNetwork> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        self.shared
            .networks
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchNetwork, name.to_string()))
    }

    /// Names of all networks.
    pub fn list_networks(&self) -> SimResult<Vec<String>> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        Ok(self.shared.networks.lock().keys().cloned().collect())
    }

    /// Acquires a DHCP-style lease on a network for a guest NIC.
    #[cfg(test)]
    pub(crate) fn acquire_lease(
        &self,
        network: &str,
        mac: &str,
        domain: &str,
    ) -> SimResult<crate::network::Lease> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        self.with_network_mut(network, |net| net.acquire_lease(mac, domain))
    }

    /// Releases the lease held by `mac` on `network`.
    #[cfg(test)]
    pub(crate) fn release_lease(
        &self,
        network: &str,
        mac: &str,
    ) -> SimResult<Option<crate::network::Lease>> {
        self.charge(OpKind::Network, MiB::ZERO)?;
        self.with_network_mut(network, |net| Ok(net.release_lease(mac)))
    }

    fn with_network_mut<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut SimNetwork) -> SimResult<T>,
    ) -> SimResult<T> {
        let mut networks = self.shared.networks.lock();
        let net = networks
            .get_mut(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchNetwork, name.to_string()))?;
        f(net)
    }

    // ---- host lifecycle & migration support -------------------------------

    /// Crashes the host: every operation fails with
    /// [`SimErrorKind::HostDown`] until [`SimHost::restart`].
    pub fn crash(&self) {
        self.shared.up.store(false, Ordering::Release);
    }

    /// Whether the host is up.
    pub fn is_up(&self) -> bool {
        self.shared.up.load(Ordering::Acquire)
    }

    /// Restarts a crashed (or running) host, modeling a reboot:
    /// all domains stop, transient domains disappear, and — when the
    /// personality persists state itself (ESX) — previously running
    /// persistent domains come back up. Domains with `autostart` restart
    /// regardless of personality.
    pub fn restart(&self) -> SimResult<()> {
        let boot_cost = Duration::from_secs(30);
        self.shared.clock.advance(boot_cost);
        let persists = self.shared.personality.hypervisor_persists_state();
        self.shared.up.store(true, Ordering::Release);
        let mut restart_names = Vec::new();
        {
            let mut domains = self.shared.domains.write();
            // Stop everything and drop transients.
            let slots: Vec<DomainSlot> = domains.values().cloned().collect();
            for arc in slots {
                let mut domain = arc.lock();
                let name = domain.spec.name().to_string();
                let was_running = domain.state == DomainState::Running;
                if domain.state.is_active() {
                    let (mem, vcpus) = (domain.spec.memory(), domain.spec.vcpu_count());
                    domain.set_state(DomainState::Shutoff, self.shared.clock.now());
                    domain.id = None;
                    self.shared.ctl.lock().ledger.release(mem, vcpus);
                }
                if !domain.spec.is_persistent() {
                    drop(domain);
                    domains.remove(&name);
                    continue;
                }
                if domain.autostart || (persists && was_running) {
                    restart_names.push(name);
                }
            }
        }
        for name in restart_names {
            self.start_domain(&name)?;
        }
        Ok(())
    }

    /// Accepts an incoming migrated domain, already running (used by the
    /// migration Finish phase). `uuid` preserves the domain's identity
    /// across the migration; `None` assigns a fresh one.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::DuplicateDomain`] on a name *or* UUID collision.
    pub fn import_running_domain(
        &self,
        spec: DomainSpec,
        uuid: Option<[u8; 16]>,
    ) -> SimResult<DomainInfo> {
        spec.validate()?;
        if !self.shared.up.load(Ordering::Acquire) {
            return Err(SimError::new(
                SimErrorKind::HostDown,
                self.shared.name.clone(),
            ));
        }
        let mut domains = self.shared.domains.write();
        domains.check_free(spec.name(), uuid.as_ref())?;
        let (uuid, next_id) = {
            let mut ctl = self.shared.ctl.lock();
            ctl.ledger.reserve(spec.memory(), spec.vcpu_count())?;
            let uuid = match uuid {
                Some(uuid) => uuid,
                None => domains.fresh_uuid(&mut ctl.rng),
            };
            let id = ctl.next_domain_id;
            ctl.next_domain_id += 1;
            (uuid, id)
        };
        let mut domain = SimDomain::new(spec, uuid);
        domain.set_state(DomainState::Running, self.shared.clock.now());
        domain.id = Some(next_id);
        let info = domain.info_at(self.shared.clock.now());
        domains.insert(domain);
        Ok(info)
    }

    /// Re-registers a domain from persisted management state — the
    /// daemon's boot-time recovery path. Unlike [`SimHost::define_domain`]
    /// this preserves the recorded identity (`uuid`), autostart marker,
    /// managed-save flag, and lifecycle `state`; active states reserve
    /// host resources and get a fresh hypervisor id, exactly as a
    /// re-adopted guest would.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::InvalidArgument`] on an invalid spec,
    /// [`SimErrorKind::DuplicateDomain`] on a name or UUID collision,
    /// [`SimErrorKind::HostDown`], and
    /// [`SimErrorKind::InsufficientResources`] when an active adoption
    /// does not fit.
    pub fn adopt_domain(
        &self,
        spec: DomainSpec,
        uuid: [u8; 16],
        autostart: bool,
        state: DomainState,
        has_managed_save: bool,
    ) -> SimResult<DomainInfo> {
        spec.validate()?;
        if !self.shared.up.load(Ordering::Acquire) {
            return Err(SimError::new(
                SimErrorKind::HostDown,
                self.shared.name.clone(),
            ));
        }
        let mut domains = self.shared.domains.write();
        domains.check_free(spec.name(), Some(&uuid))?;
        let mut domain = SimDomain::new(spec, uuid);
        if state.is_active() {
            let mut ctl = self.shared.ctl.lock();
            ctl.ledger
                .reserve(domain.spec.memory(), domain.spec.vcpu_count())?;
            domain.id = Some(ctl.next_domain_id);
            ctl.next_domain_id += 1;
        }
        domain.set_state(state, self.shared.clock.now());
        domain.autostart = autostart;
        domain.has_managed_save = has_managed_save;
        let info = domain.info_at(self.shared.clock.now());
        domains.insert(domain);
        Ok(info)
    }

    /// Removes a domain that has been migrated away (Confirm phase).
    pub fn forget_migrated_domain(&self, name: &str) -> SimResult<()> {
        let arc = self
            .shared
            .domains
            .write()
            .remove(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchDomain, name.to_string()))?;
        let domain = arc.lock();
        if domain.state.is_active() {
            self.shared
                .ctl
                .lock()
                .ledger
                .release(domain.spec.memory(), domain.spec.vcpu_count());
        }
        Ok(())
    }

    /// Charges one migration page-batch transfer of `mib` to the clock.
    pub fn charge_migration_transfer(&self, mib: MiB) -> SimResult<()> {
        self.charge(OpKind::MigratePage, mib)?;
        Ok(())
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl SimHost {
    /// Extracts a domain's spec for migration; the domain must exist.
    fn export_domain_spec(&self, name: &str) -> SimResult<DomainSpec> {
        let arc = self.domain_arc(name)?;
        let spec = arc.lock().spec.clone();
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::OpCost;
    use crate::personality::{EsxLike, LxcLike};

    fn quiet_host() -> SimHost {
        SimHost::builder("h").latency(LatencyModel::zero()).build()
    }

    #[test]
    fn builder_defaults_and_info() {
        let host = quiet_host();
        let info = host.info();
        assert_eq!(info.name, "h");
        assert_eq!(info.hypervisor, "qemu");
        assert_eq!(info.cpus, 8);
        assert_eq!(info.memory, MiB(16 * 1024));
        assert_eq!(info.free_memory, info.memory);
        assert!(info.up);
        assert_eq!(info.active_domains, 0);
    }

    #[test]
    fn default_pool_and_network_exist() {
        let host = quiet_host();
        assert_eq!(host.list_pools().unwrap(), vec!["default"]);
        assert_eq!(host.list_networks().unwrap(), vec!["default"]);
        assert!(host.pool("default").unwrap().active);
        assert!(host.network("default").unwrap().active);
    }

    #[test]
    fn define_start_stop_cycle() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm").memory_mib(1024).vcpus(2))
            .unwrap();
        let info = host.start_domain("vm").unwrap();
        assert_eq!(info.state, DomainState::Running);
        assert_eq!(info.id, Some(1));
        assert_eq!(host.info().free_memory, MiB(16 * 1024 - 1024));
        let stopped = host.shutdown_domain("vm").unwrap();
        assert_eq!(stopped.state, DomainState::Shutoff);
        assert_eq!(stopped.id, None);
        assert_eq!(host.info().free_memory, MiB(16 * 1024));
    }

    #[test]
    fn duplicate_define_rejected() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        let err = host.define_domain(DomainSpec::new("vm")).unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::DuplicateDomain);
    }

    #[test]
    fn start_charges_latency_to_shared_clock() {
        let clock = SimClock::new();
        let host = SimHost::builder("h")
            .clock(clock.clone())
            .latency(
                LatencyModel::with_default(OpCost::fixed(0))
                    .set(OpKind::Start, OpCost::fixed(1_000)),
            )
            .build();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.start_domain("vm").unwrap();
        assert_eq!(clock.now().as_micros(), 1_000);
    }

    #[test]
    fn transient_domain_disappears_on_stop() {
        let host = quiet_host();
        host.create_domain(DomainSpec::new("temp")).unwrap();
        assert_eq!(host.list_domains().unwrap().len(), 1);
        host.destroy_domain("temp").unwrap();
        assert!(host.list_domains().unwrap().is_empty());
    }

    #[test]
    fn failed_create_rolls_back_definition() {
        // Host too small for the requested domain.
        let host = SimHost::builder("h")
            .memory_mib(512)
            .latency(LatencyModel::zero())
            .build();
        let err = host
            .create_domain(DomainSpec::new("big").memory_mib(1024))
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InsufficientResources);
        assert!(host.list_domains().unwrap().is_empty());
        assert!(
            host.shared.domains.read().by_uuid.is_empty(),
            "the rollback drops the UUID key too"
        );
    }

    #[test]
    fn undefine_requires_inactive() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.start_domain("vm").unwrap();
        let err = host.undefine_domain("vm").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidState);
        host.destroy_domain("vm").unwrap();
        host.undefine_domain("vm").unwrap();
        assert!(host.list_domains().unwrap().is_empty());
    }

    #[test]
    fn suspend_resume() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.start_domain("vm").unwrap();
        assert_eq!(
            host.suspend_domain("vm").unwrap().state,
            DomainState::Paused
        );
        // Paused still holds resources.
        assert!(host.info().free_memory < MiB(16 * 1024));
        assert_eq!(
            host.resume_domain("vm").unwrap().state,
            DomainState::Running
        );
    }

    #[test]
    fn save_releases_resources_and_restore_reclaims() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm").memory_mib(2048))
            .unwrap();
        host.start_domain("vm").unwrap();
        let saved = host.save_domain("vm").unwrap();
        assert_eq!(saved.state, DomainState::Saved);
        assert!(saved.has_managed_save);
        assert_eq!(host.info().free_memory, MiB(16 * 1024));
        let restored = host.restore_domain("vm").unwrap();
        assert_eq!(restored.state, DomainState::Running);
        assert!(!restored.has_managed_save);
        assert_eq!(host.info().free_memory, MiB(16 * 1024 - 2048));
    }

    #[test]
    fn lxc_cannot_save() {
        let host = SimHost::builder("h")
            .personality(LxcLike)
            .latency(LatencyModel::zero())
            .build();
        host.define_domain(DomainSpec::new("c")).unwrap();
        host.start_domain("c").unwrap();
        let err = host.save_domain("c").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::Unsupported);
    }

    #[test]
    fn memory_ballooning_respects_maximum() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm").memory_mib(1024).max_memory_mib(2048))
            .unwrap();
        host.start_domain("vm").unwrap();
        host.set_domain_memory("vm", MiB(2048)).unwrap();
        assert_eq!(host.domain("vm").unwrap().memory, MiB(2048));
        let err = host.set_domain_memory("vm", MiB(4096)).unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
        let err = host.set_domain_memory("vm", MiB::ZERO).unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
    }

    #[test]
    fn vcpu_hotplug_and_limits() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm").vcpus(1)).unwrap();
        host.start_domain("vm").unwrap();
        host.set_domain_vcpus("vm", 4).unwrap();
        assert_eq!(host.domain("vm").unwrap().vcpus, 4);
        assert_eq!(
            host.set_domain_vcpus("vm", 0).unwrap_err().kind(),
            SimErrorKind::InvalidArgument
        );
        assert_eq!(
            host.set_domain_vcpus("vm", 100_000).unwrap_err().kind(),
            SimErrorKind::InvalidArgument
        );
    }

    #[test]
    fn disk_attach_detach() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        let disk = SimDisk {
            target: "vdb".to_string(),
            source: "/tmp/x.img".to_string(),
            capacity: MiB(100),
            bus: "virtio".to_string(),
        };
        host.attach_disk("vm", disk.clone()).unwrap();
        let err = host.attach_disk("vm", disk).unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
        host.detach_disk("vm", "vdb").unwrap();
        let err = host.detach_disk("vm", "vdb").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
    }

    #[test]
    fn snapshots_accumulate_and_reject_duplicates() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.snapshot_domain("vm", "clean").unwrap();
        host.start_domain("vm").unwrap();
        let info = host.snapshot_domain("vm", "after-boot").unwrap();
        assert_eq!(info.snapshots, vec!["clean", "after-boot"]);
        let err = host.snapshot_domain("vm", "clean").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
    }

    #[test]
    fn lookup_by_id_and_uuid() {
        let host = quiet_host();
        let defined = host.define_domain(DomainSpec::new("vm")).unwrap();
        host.start_domain("vm").unwrap();
        let by_id = host.domain_by_id(1).unwrap();
        assert_eq!(by_id.name, "vm");
        let by_uuid = host.domain_by_uuid(defined.uuid).unwrap();
        assert_eq!(by_uuid.name, "vm");
        assert!(host.domain_by_id(99).is_err());
    }

    #[test]
    fn uuid_lookup_charges_one_query_and_names_a_missing_uuid() {
        let host = quiet_host();
        for name in ["a", "b"] {
            host.define_domain(DomainSpec::new(name)).unwrap();
        }
        let c = host.define_domain(DomainSpec::new("c")).unwrap();
        let queries = || host.fault_plan().occurrences(OpKind::QueryDomain);
        let before = queries();
        assert_eq!(host.domain_by_uuid(c.uuid).unwrap().name, "c");
        assert_eq!(queries(), before + 1);
        let mut missing = [0u8; 16];
        missing[0] = 0xab;
        missing[15] = 0x01;
        let err = host.domain_by_uuid(missing).unwrap_err();
        assert_eq!(queries(), before + 2, "a miss costs the same one query");
        assert_eq!(err.kind(), SimErrorKind::NoSuchDomain);
        assert_eq!(err.detail(), "ab000000-0000-0000-0000-000000000001");
    }

    /// The index's promise: a slow operation holding one domain's mutex
    /// never blocks a lookup of another — by UUID as well as by name.
    #[test]
    fn uuid_lookup_does_not_wait_on_another_domains_lock() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("a")).unwrap();
        host.define_domain(DomainSpec::new("b")).unwrap();
        let c = host.define_domain(DomainSpec::new("c")).unwrap();
        let a = host.domain_arc("a").unwrap();
        let held = a.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let prober = host.clone();
        let lookup = std::thread::spawn(move || {
            let _ = tx.send(prober.domain_by_uuid(c.uuid).map(|info| info.name));
        });
        let found = rx.recv_timeout(Duration::from_secs(5));
        drop(held);
        lookup.join().unwrap();
        let found = found.expect("looking 'c' up by UUID waited on 'a''s mutex");
        assert_eq!(found.unwrap(), "c");
    }

    /// Two hosts with one seed replay one UUID stream — a daemon restarted
    /// under the same name does. A UUID adopted from the first must not be
    /// handed out again by the second.
    #[test]
    fn fresh_uuids_skip_adopted_ones() {
        let first = quiet_host();
        let alpha = first.define_domain(DomainSpec::new("alpha")).unwrap();
        let spare = quiet_host().define_domain(DomainSpec::new("x")).unwrap();
        assert_eq!(spare.uuid, alpha.uuid, "same seed, same stream");

        let second = quiet_host();
        second
            .adopt_domain(
                DomainSpec::new("alpha"),
                alpha.uuid,
                false,
                DomainState::Shutoff,
                false,
            )
            .unwrap();
        let beta = second.define_domain(DomainSpec::new("beta")).unwrap();
        assert_ne!(beta.uuid, alpha.uuid);
        assert_eq!(second.domain_by_uuid(beta.uuid).unwrap().name, "beta");

        let third = quiet_host();
        third
            .adopt_domain(
                DomainSpec::new("alpha"),
                alpha.uuid,
                false,
                DomainState::Shutoff,
                false,
            )
            .unwrap();
        let imported = third
            .import_running_domain(DomainSpec::new("gamma"), None)
            .unwrap();
        assert_ne!(imported.uuid, alpha.uuid);
    }

    #[test]
    fn uuid_collision_names_both_domains() {
        let host = quiet_host();
        let alpha = host.define_domain(DomainSpec::new("alpha")).unwrap();
        let err = host
            .adopt_domain(
                DomainSpec::new("beta"),
                alpha.uuid,
                false,
                DomainState::Shutoff,
                false,
            )
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::DuplicateDomain);
        assert!(
            err.detail().contains("'beta'") && err.detail().contains("'alpha'"),
            "{err}"
        );
        let err = host
            .import_running_domain(DomainSpec::new("gamma"), Some(alpha.uuid))
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::DuplicateDomain);
    }

    #[test]
    fn ids_are_never_reused_within_a_boot() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("a")).unwrap();
        host.define_domain(DomainSpec::new("b")).unwrap();
        assert_eq!(host.start_domain("a").unwrap().id, Some(1));
        host.destroy_domain("a").unwrap();
        assert_eq!(host.start_domain("b").unwrap().id, Some(2));
    }

    #[test]
    fn crash_blocks_operations_until_restart() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.crash();
        assert!(!host.is_up());
        let err = host.start_domain("vm").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::HostDown);
        host.restart().unwrap();
        assert!(host.is_up());
        host.start_domain("vm").unwrap();
    }

    #[test]
    fn restart_stops_domains_and_drops_transients() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("persistent")).unwrap();
        host.start_domain("persistent").unwrap();
        host.create_domain(DomainSpec::new("transient")).unwrap();
        host.restart().unwrap();
        let domains = host.list_domains().unwrap();
        assert_eq!(domains.len(), 1);
        assert_eq!(domains[0].name, "persistent");
        assert_eq!(domains[0].state, DomainState::Shutoff);
    }

    #[test]
    fn esx_restart_brings_running_domains_back() {
        let host = SimHost::builder("esx1")
            .personality(EsxLike)
            .latency(LatencyModel::zero())
            .build();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.start_domain("vm").unwrap();
        host.crash();
        host.restart().unwrap();
        assert_eq!(host.domain("vm").unwrap().state, DomainState::Running);
    }

    #[test]
    fn autostart_domains_restart_on_any_personality() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.set_autostart("vm", true).unwrap();
        host.start_domain("vm").unwrap();
        host.crash();
        host.restart().unwrap();
        assert_eq!(host.domain("vm").unwrap().state, DomainState::Running);
    }

    #[test]
    fn injected_start_failure() {
        let host = SimHost::builder("h")
            .latency(LatencyModel::zero())
            .faults(FaultPlan::new().fail_on(OpKind::Start, 1))
            .build();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        let err = host.start_domain("vm").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InjectedFault);
        // Second attempt succeeds.
        host.start_domain("vm").unwrap();
    }

    #[test]
    fn crash_after_start_fault_leaves_domain_crashed() {
        let host = SimHost::builder("h")
            .latency(LatencyModel::zero())
            .faults(FaultPlan::new().inject(OpKind::Start, 1, FaultAction::CrashAfter))
            .build();
        host.define_domain(DomainSpec::new("vm").memory_mib(1024))
            .unwrap();
        let info = host.start_domain("vm").unwrap();
        assert_eq!(info.state, DomainState::Crashed);
        // Crashed domains hold no resources.
        assert_eq!(host.info().free_memory, MiB(16 * 1024));
        // And can be destroyed then restarted.
        host.destroy_domain("vm").unwrap();
        host.start_domain("vm").unwrap();
    }

    #[test]
    fn hang_fault_charges_extra_latency() {
        let clock = SimClock::new();
        let host = SimHost::builder("h")
            .clock(clock.clone())
            .latency(LatencyModel::zero())
            .faults(FaultPlan::new().inject(
                OpKind::QueryDomain,
                1,
                FaultAction::Hang(Duration::from_secs(30)),
            ))
            .build();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        host.domain("vm").unwrap();
        assert_eq!(clock.now().as_secs(), 30);
    }

    #[test]
    fn migration_export_import_forget() {
        let clock = SimClock::new();
        let src = SimHost::builder("src")
            .clock(clock.clone())
            .latency(LatencyModel::zero())
            .build();
        let dst = SimHost::builder("dst")
            .clock(clock)
            .latency(LatencyModel::zero())
            .seed(9)
            .build();
        src.define_domain(DomainSpec::new("vm").memory_mib(1024))
            .unwrap();
        src.start_domain("vm").unwrap();
        let spec = src.export_domain_spec("vm").unwrap();
        let imported = dst.import_running_domain(spec, None).unwrap();
        assert_eq!(imported.state, DomainState::Running);
        src.forget_migrated_domain("vm").unwrap();
        assert!(src.list_domains().unwrap().is_empty());
        assert_eq!(dst.info().active_domains, 1);
        assert_eq!(dst.info().free_memory, MiB(16 * 1024 - 1024));
    }

    #[test]
    fn import_rejects_duplicates_and_overcommit() {
        let dst = SimHost::builder("dst")
            .memory_mib(512)
            .latency(LatencyModel::zero())
            .build();
        dst.define_domain(DomainSpec::new("vm")).unwrap();
        let err = dst
            .import_running_domain(DomainSpec::new("vm"), None)
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::DuplicateDomain);
        let err = dst
            .import_running_domain(DomainSpec::new("big").memory_mib(4096), None)
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InsufficientResources);
    }

    #[test]
    fn demote_running_domain_to_transient() {
        let host = quiet_host();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        // Inactive domains are undefined by removal, never demoted.
        let err = host.demote_domain_to_transient("vm").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidState);
        host.start_domain("vm").unwrap();
        host.demote_domain_to_transient("vm").unwrap();
        let info = host.domain("vm").unwrap();
        assert!(!info.persistent);
        assert_eq!(info.state, DomainState::Running);
        // A transient domain vanishes when it stops.
        host.destroy_domain("vm").unwrap();
        assert!(host.domain("vm").is_err());
    }

    #[test]
    fn adopt_preserves_identity_state_and_flags() {
        let host = quiet_host();
        let uuid = [7u8; 16];
        let info = host
            .adopt_domain(
                DomainSpec::new("back").memory_mib(1024),
                uuid,
                true,
                DomainState::Running,
                false,
            )
            .unwrap();
        assert_eq!(info.uuid, uuid);
        assert!(info.autostart);
        assert_eq!(info.state, DomainState::Running);
        assert!(info.id.is_some(), "active adoption gets a hypervisor id");
        assert_eq!(host.info().free_memory, MiB(16 * 1024 - 1024));

        let crashed = host
            .adopt_domain(
                DomainSpec::new("gone").memory_mib(1024),
                [8u8; 16],
                false,
                DomainState::Crashed,
                false,
            )
            .unwrap();
        assert_eq!(crashed.state, DomainState::Crashed);
        assert!(crashed.id.is_none(), "inactive adoption stays id-less");
        // Crashed guests hold no resources; only `back` is charged.
        assert_eq!(host.info().free_memory, MiB(16 * 1024 - 1024));
        // A crashed domain can be started again.
        host.start_domain("gone").unwrap();

        let err = host
            .adopt_domain(
                DomainSpec::new("other"),
                uuid,
                false,
                DomainState::Shutoff,
                false,
            )
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::DuplicateDomain);
    }

    #[test]
    fn pool_and_volume_operations_through_host() {
        let host = quiet_host();
        host.define_pool(PoolSpec::new(
            "images",
            crate::storage::PoolBackend::Dir,
            MiB(1000),
        ))
        .unwrap();
        // Volumes require an active pool.
        let err = host
            .create_volume("images", VolumeSpec::new("a", MiB(10)))
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidState);
        host.start_pool("images").unwrap();
        host.create_volume("images", VolumeSpec::new("a", MiB(10)))
            .unwrap();
        host.clone_volume("images", "a", "b").unwrap();
        host.resize_volume("images", "b", MiB(20)).unwrap();
        assert_eq!(host.pool("images").unwrap().volume_count(), 2);
        host.delete_volume("images", "a").unwrap();
        host.stop_pool("images").unwrap();
        host.undefine_pool("images").unwrap();
        assert_eq!(host.list_pools().unwrap(), vec!["default"]);
    }

    #[test]
    fn network_lifecycle_and_leases_through_host() {
        let host = quiet_host();
        host.define_network(NetworkSpec::new(
            "lan",
            std::net::Ipv4Addr::new(10, 10, 0, 0),
        ))
        .unwrap();
        host.start_network("lan").unwrap();
        let lease = host
            .acquire_lease("lan", "52:54:00:aa:bb:cc", "vm")
            .unwrap();
        assert_eq!(lease.ip.octets()[3], 2);
        host.release_lease("lan", "52:54:00:aa:bb:cc").unwrap();
        host.stop_network("lan").unwrap();
        host.undefine_network("lan").unwrap();
        assert_eq!(host.list_networks().unwrap(), vec!["default"]);
    }

    #[test]
    fn clone_handles_share_state() {
        let host = quiet_host();
        let other = host.clone();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        assert_eq!(other.list_domains().unwrap().len(), 1);
    }

    #[test]
    fn wall_time_scale_occupies_the_thread() {
        use crate::latency::OpCost;
        let host = SimHost::builder("h")
            .latency(
                LatencyModel::with_default(OpCost::fixed(0))
                    .set(OpKind::Start, OpCost::fixed(500_000)),
            )
            .wall_time_scale(0.01) // 500 ms simulated -> 5 ms wall
            .build();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        let wall = std::time::Instant::now();
        host.start_domain("vm").unwrap();
        assert!(
            wall.elapsed() >= Duration::from_millis(4),
            "start occupied the thread"
        );
        // Virtual time still advanced by the full simulated cost.
        assert_eq!(host.clock().now().as_millis(), 500);
    }

    #[test]
    fn uuids_are_v4_and_distinct() {
        let host = quiet_host();
        let a = host.define_domain(DomainSpec::new("a")).unwrap();
        let b = host.define_domain(DomainSpec::new("b")).unwrap();
        assert_ne!(a.uuid, b.uuid);
        for uuid in [a.uuid, b.uuid] {
            assert_eq!(uuid[6] >> 4, 4, "version nibble");
            assert_eq!(uuid[8] >> 6, 0b10, "variant bits");
        }
    }
}
