//! The remote protocol: the procedure table and the wire record types.
//!
//! Shared by the remote driver (client side) and `virtd`'s dispatcher
//! (server side). As libvirt generates both from `remote_protocol.x`,
//! both are generated here from one table, [`crate::remote_procedures!`]: a
//! procedure's number, name, classes, driver method and wire shapes are
//! stated in one row and nowhere else. All records are XDR structs;
//! growth headroom comes from typed-parameter lists rather than struct
//! changes, as in libvirt.
//!
//! A reply record is its own wire form, and its rows say `plain(X)`. An
//! API struct whose fields go on the wire as they are (`NodeInfo`,
//! `PoolRecord`, `JobStats`, `DomainEvent`, …) gets its XDR form from one
//! `xdr_fields!` line below the table; one whose layout differs from its
//! fields gets a codec written beside those lines — `DomainRecord`'s id
//! as an `i64`, -1 for none, and `NetworkRecord`'s leases as three
//! parallel arrays. The one `Wire*` twin of a record left is
//! [`WireGuardStatus`]: a policy kind this build does not know drops that
//! entry of a list, which a decode of the record itself cannot express.
//! Every list reply is a `Vec` of its record type; the one list codec is
//! `virt_rpc::xdr`'s.

use virt_rpc::xdr::{Cursor, XdrDecode, XdrEncode, XdrError};
use virt_rpc::{xdr_as_u32, xdr_fields, xdr_struct};

use crate::driver::{
    DomainRecord, DomainState, DomainStatsRecord, MigrationOptions, MigrationReport, NetworkRecord,
    NodeInfo, PoolRecord, VolumeRecord,
};
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::event::{DomainEvent, DomainEventKind};
use crate::guard::{GuardPolicy, GuardStatus};
use crate::job::JobStats;
use crate::typedparam::{
    decode_params_into, params_encoded_len, xdr_str_len, Placed, TypedParam, TypedParamList,
};
use crate::uuid::Uuid;

/// The remote program, one row per procedure. `remote_procedures!(cb)`
/// hands the whole table to the callback macro `cb`; the constants, the
/// name table and the three classifiers below, the client stubs in
/// `drivers::remote` and the daemon's dispatch arms are all generated
/// from it, so a procedure is described exactly once.
///
/// A call row reads: number, NAME, doc line, priority (`inline` is
/// guaranteed not to wait on a hypervisor and is answered on the thread
/// that read it; `pooled` queues for a worker), retry class (`idempotent` calls are
/// re-issued after an ambiguous connection failure; `mutating` ones are
/// not), access (`read` is allowed on a read-only session; `write` is
/// not), then either the word `custom` — stub and dispatch arm are
/// written by hand — or the driver method with its arguments, the wire
/// argument struct (`()` for none; argument names are its field names)
/// and the reply shape: `unit`, or `plain(T)` for a `T` that is its own
/// wire form (a scalar, a list, or a record with an `xdr_fields!` line or
/// a codec below). Argument type `str` is `&str` in the method and
/// `String` on the wire. Event rows are server→client message numbers:
/// never callable, in no class.
///
/// Numbers are stable on the wire — never reuse one.
#[macro_export]
macro_rules! remote_procedures {
    ($callback:ident) => {
        $callback! {
            calls {
                // Session management has no driver method behind it.
                (1, OPEN, "Open a driver connection on the daemon.", inline, mutating, read, custom);
                (2, CLOSE, "Close the driver connection.", inline, mutating, read, custom);
                (6, AUTH, "Authenticate (SASL-plain style) before OPEN on daemons requiring it.",
                    inline, mutating, read, custom);
                (3, GET_HOSTNAME, "Host name.", inline, idempotent, read,
                    hostname(), (), plain(String));
                // Travels as XML text, parsed back on the client.
                (4, GET_CAPABILITIES, "Capabilities XML.", inline, idempotent, read, custom);
                (5, NODE_INFO, "Node facts.", inline, idempotent, read,
                    node_info(), (), plain(NodeInfo));

                (10, LIST_DOMAINS, "All domains.", inline, idempotent, read,
                    list_domains(), (), plain(Vec<DomainRecord>));
                (11, DOMAIN_LOOKUP_NAME, "Lookup by name.", inline, idempotent, read,
                    lookup_domain_by_name(name: str), NameArgs, plain(DomainRecord));
                // Sends `NameU32Args` with an empty name.
                (12, DOMAIN_LOOKUP_ID, "Lookup by id.", inline, idempotent, read, custom);
                (13, DOMAIN_LOOKUP_UUID, "Lookup by UUID.", inline, idempotent, read,
                    lookup_domain_by_uuid(uuid: Uuid), UuidArgs, plain(DomainRecord));
                (14, DOMAIN_DEFINE_XML, "Define from XML.", pooled, mutating, write,
                    define_domain_xml(xml: str), XmlArgs, plain(DomainRecord));
                (15, DOMAIN_CREATE_XML, "Create (transient) from XML.", pooled, mutating, write,
                    create_domain_xml(xml: str), XmlArgs, plain(DomainRecord));
                (16, DOMAIN_UNDEFINE, "Undefine.", pooled, mutating, write,
                    undefine_domain(name: str), NameArgs, unit);
                (17, DOMAIN_START, "Start.", pooled, mutating, write,
                    start_domain(name: str), NameArgs, plain(DomainRecord));
                (18, DOMAIN_SHUTDOWN, "Graceful shutdown.", pooled, mutating, write,
                    shutdown_domain(name: str), NameArgs, plain(DomainRecord));
                (19, DOMAIN_REBOOT, "Reboot.", pooled, mutating, write,
                    reboot_domain(name: str), NameArgs, plain(DomainRecord));
                (20, DOMAIN_DESTROY, "Hard power-off.", pooled, mutating, write,
                    destroy_domain(name: str), NameArgs, plain(DomainRecord));
                (21, DOMAIN_SUSPEND, "Pause.", pooled, mutating, write,
                    suspend_domain(name: str), NameArgs, plain(DomainRecord));
                (22, DOMAIN_RESUME, "Unpause.", pooled, mutating, write,
                    resume_domain(name: str), NameArgs, plain(DomainRecord));
                (23, DOMAIN_SAVE, "Managed save.", pooled, mutating, write,
                    save_domain(name: str), NameArgs, plain(DomainRecord));
                (24, DOMAIN_RESTORE, "Restore from managed save.", pooled, mutating, write,
                    restore_domain(name: str), NameArgs, plain(DomainRecord));
                (25, DOMAIN_SET_MEMORY, "Balloon memory.", pooled, mutating, write,
                    set_domain_memory(name: str, value: u64), NameU64Args, plain(DomainRecord));
                (26, DOMAIN_SET_VCPUS, "vCPU hotplug.", pooled, mutating, write,
                    set_domain_vcpus(name: str, value: u32), NameU32Args, plain(DomainRecord));
                (27, DOMAIN_ATTACH_DEVICE, "Attach device XML.", pooled, mutating, write,
                    attach_device(name: str, value: str), NameStringArgs, plain(DomainRecord));
                (28, DOMAIN_DETACH_DEVICE, "Detach device by target.", pooled, mutating, write,
                    detach_device(name: str, value: str), NameStringArgs, plain(DomainRecord));
                (29, DOMAIN_SNAPSHOT, "Take snapshot.", pooled, mutating, write,
                    snapshot_domain(name: str, value: str), NameStringArgs, plain(DomainRecord));
                (30, DOMAIN_LIST_SNAPSHOTS, "List snapshots.", inline, idempotent, read,
                    list_snapshots(name: str), NameArgs, plain(Vec<String>));
                (31, DOMAIN_SET_AUTOSTART, "Toggle autostart.", pooled, mutating, write,
                    set_autostart(name: str, value: bool), NameBoolArgs, unit);
                (32, DOMAIN_DUMP_XML, "Dump XML.", inline, idempotent, read,
                    dump_domain_xml(name: str), NameArgs, plain(String));
                (33, DOMAIN_SNAPSHOT_REVERT, "Revert to snapshot.", pooled, mutating, write,
                    revert_snapshot(name: str, value: str), NameStringArgs, plain(DomainRecord));
                (34, DOMAIN_SNAPSHOT_DELETE, "Delete snapshot.", pooled, mutating, write,
                    delete_snapshot(name: str, value: str), NameStringArgs, unit);
                (35, DOMAIN_GET_JOB_STATS, "Current/most-recent job stats of a domain.",
                    inline, idempotent, read,
                    domain_job_stats(name: str), NameArgs, plain(JobStats));
                // Inline yet `write`: an abort has to get through when every
                // ordinary worker is saturated by jobs, but cancelling
                // someone's migration is no read-only action — and a retried
                // abort could cancel a different, later job.
                (36, DOMAIN_ABORT_JOB, "Cancel the running job on a domain.",
                    inline, mutating, write,
                    abort_domain_job(name: str), NameArgs, unit);
                // Encodes the driver's records in place (`DomainStatsReply`).
                (37, CONNECT_GET_ALL_DOMAIN_STATS, "Bulk stats of every domain in one round-trip.",
                    inline, idempotent, read, custom);
                (38, DOMAIN_GET_AUTOSTART, "Read the autostart flag.", inline, idempotent, read,
                    get_autostart(name: str), NameArgs, plain(bool));
                (39, DOMAIN_CRASH, "Force a guest crash (chaos/test tooling).",
                    pooled, mutating, write,
                    crash_domain(name: str), NameArgs, plain(DomainRecord));

                (40, MIGRATE_BEGIN, "Migration phase 1 (source).", pooled, mutating, write,
                    migrate_begin(name: str), NameArgs, plain(String));
                (41, MIGRATE_PREPARE, "Migration phase 2 (destination).", pooled, mutating, write,
                    migrate_prepare(xml: str), XmlArgs, unit);
                // The options struct is flattened into the argument struct.
                (42, MIGRATE_PERFORM, "Migration phase 3 (source).", pooled, mutating, write, custom);
                (43, MIGRATE_FINISH, "Migration phase 4 (destination).", pooled, mutating, write,
                    migrate_finish(xml: str), XmlArgs, plain(DomainRecord));
                (44, MIGRATE_CONFIRM, "Migration phase 5 (source).", pooled, mutating, write,
                    migrate_confirm(name: str), NameArgs, unit);
                (45, MIGRATE_ABORT, "Migration abort (destination rollback).",
                    pooled, mutating, write,
                    migrate_abort(name: str), NameArgs, unit);

                (50, LIST_POOLS, "Pool names.", inline, idempotent, read,
                    list_pools(), (), plain(Vec<String>));
                (51, POOL_INFO, "Pool facts.", inline, idempotent, read,
                    pool_info(name: str), NameArgs, plain(PoolRecord));
                (52, POOL_DEFINE_XML, "Define pool from XML.", pooled, mutating, write,
                    define_pool_xml(xml: str), XmlArgs, plain(PoolRecord));
                (53, POOL_START, "Start pool.", pooled, mutating, write,
                    start_pool(name: str), NameArgs, unit);
                (54, POOL_STOP, "Stop pool.", pooled, mutating, write,
                    stop_pool(name: str), NameArgs, unit);
                (55, POOL_UNDEFINE, "Undefine pool.", pooled, mutating, write,
                    undefine_pool(name: str), NameArgs, unit);
                (56, LIST_VOLUMES, "Volume names.", inline, idempotent, read,
                    list_volumes(name: str), NameArgs, plain(Vec<String>));
                (57, VOLUME_INFO, "Volume facts.", inline, idempotent, read,
                    volume_info(pool: str, name: str), PoolVolArgs, plain(VolumeRecord));
                (58, VOLUME_CREATE_XML, "Create volume from XML.", pooled, mutating, write,
                    create_volume_xml(pool: str, xml: str), PoolXmlArgs, plain(VolumeRecord));
                (59, VOLUME_DELETE, "Delete volume.", pooled, mutating, write,
                    delete_volume(pool: str, name: str), PoolVolArgs, unit);
                (60, VOLUME_RESIZE, "Resize volume.", pooled, mutating, write,
                    resize_volume(pool: str, name: str, capacity_mib: u64), VolResizeArgs, unit);
                (61, VOLUME_CLONE, "Clone volume.", pooled, mutating, write,
                    clone_volume(pool: str, source: str, new_name: str), VolCloneArgs,
                    plain(VolumeRecord));

                (70, LIST_NETWORKS, "Network names.", inline, idempotent, read,
                    list_networks(), (), plain(Vec<String>));
                (71, NETWORK_INFO, "Network facts.", inline, idempotent, read,
                    network_info(name: str), NameArgs, plain(NetworkRecord));
                (72, NETWORK_DEFINE_XML, "Define network from XML.", pooled, mutating, write,
                    define_network_xml(xml: str), XmlArgs, plain(NetworkRecord));
                (73, NETWORK_START, "Start network.", pooled, mutating, write,
                    start_network(name: str), NameArgs, unit);
                (74, NETWORK_STOP, "Stop network.", pooled, mutating, write,
                    stop_network(name: str), NameArgs, unit);
                (75, NETWORK_UNDEFINE, "Undefine network.", pooled, mutating, write,
                    undefine_network(name: str), NameArgs, unit);

                // Subscription state lives in the session and the stub.
                (80, EVENT_REGISTER, "Subscribe to lifecycle events.", inline, mutating, read, custom);
                (81, EVENT_DEREGISTER, "Unsubscribe from lifecycle events.",
                    inline, mutating, read, custom);

                // Guard policies and statuses can fail to convert: an unknown
                // policy kind is rejected (set) or dropped (list, status).
                (92, GUARD_SET, "Install (or replace) an availability guard on a domain.",
                    pooled, mutating, write, custom);
                (93, GUARD_REMOVE, "Remove a domain's guard.", pooled, mutating, write,
                    guard_remove(name: str), NameArgs, unit);
                (94, GUARD_LIST, "Status of every defined guard.", inline, idempotent, read, custom);
                (95, GUARD_STATUS, "Status of one domain's guard.", inline, idempotent, read, custom);
            }
            events {
                (90, EVENT_LIFECYCLE, "Server→client lifecycle event message.");
                (91, EVENT_DOMAIN_JOB, "Server→client job-lifecycle event message.");
            }
        }
    };
}

/// Table callback shared by every RPC program (the admin program rides
/// it too): the number constants, `ALL` and `name`.
#[macro_export]
macro_rules! procedure_numbers {
    (
        calls { $( ($num:literal, $name:ident, $doc:literal $($rest:tt)*); )* }
        events { $( ($event_num:literal, $event_name:ident, $event_doc:literal); )* }
    ) => {
        $( #[doc = $doc] pub const $name: u32 = $num; )*
        $( #[doc = $event_doc] pub const $event_name: u32 = $event_num; )*

        /// Every callable procedure with its symbolic name, in table
        /// order. The daemon builds its per-procedure metrics from this.
        pub const ALL: &[(u32, &str)] = &[ $( ($num, stringify!($name)), )* ];

        /// The symbolic name of a procedure or event number, if assigned.
        // A number assigned twice must not compile.
        #[deny(unreachable_patterns)]
        pub fn name(procedure: u32) -> Option<&'static str> {
            match procedure {
                $( $num => Some(stringify!($name)), )*
                $( $event_num => Some(stringify!($event_name)), )*
                _ => None,
            }
        }
    };
}

/// One regular row as a client stub: build the argument struct, call,
/// decode the reply. Every program's stub callback strips its own columns
/// and hands the rest here — `[pub] fn in <module>`, the doc line, NAME and
/// the row's shape — so the shape rules exist once: this is the one place
/// a `str` argument becomes `&str` in a signature and `String` on the wire.
/// `<module>` holds the program's argument structs and its `proc`
/// constants; the stub goes through `self.call(number, &args)`. A `custom`
/// row expands to nothing — its stub is written by hand next to the
/// invocation.
#[macro_export]
macro_rules! procedure_stub {
    (@sig str) => { &str };
    (@sig $ty:ident) => { $ty };
    (@own $arg:ident str) => { $arg.to_string() };
    (@own $arg:ident $ty:ident) => { $arg };
    (@args $module:ident ()) => { () };
    (@args $module:ident $args:ident $($arg:ident: $ty:ident),*) => {{
        $( let $arg = $crate::procedure_stub!(@own $arg $ty); )*
        $module::$args { $($arg),* }
    }};
    ($vis:vis fn in $module:ident, $doc:literal, $name:ident, custom) => {};
    (
        $vis:vis fn in $module:ident, $doc:literal, $name:ident,
        $method:ident $params:tt, $args:tt, unit
    ) => {
        $crate::procedure_stub!($vis fn in $module, $doc, $name, $method $params, $args, plain(()));
    };
    (
        $vis:vis fn in $module:ident, $doc:literal, $name:ident,
        $method:ident($($arg:ident: $ty:ident),*), $args:tt, plain($ret:ty)
    ) => {
        #[doc = $doc]
        $vis fn $method(
            &self $(, $arg: $crate::procedure_stub!(@sig $ty))*
        ) -> $crate::error::VirtResult<$ret> {
            self.call(
                $module::proc::$name,
                &$crate::procedure_stub!(@args $module $args $($arg: $ty),*),
            )
        }
    };
}

/// One row as a dispatch arm — decode the argument struct, call the
/// handler method on `$c`, encode the reply — the mirror of
/// [`procedure_stub!`] and, like it, the only copy of the shape rules.
/// Expands to the value of a `match` arm inside a function returning
/// `VirtResult<Option<Vec<u8>>>`, in a module with `XdrEncode` in scope; a
/// `custom` row returns `None` so the caller falls through to its
/// hand-written arms.
#[macro_export]
macro_rules! procedure_arm {
    (@pass $value:expr, str) => { &$value };
    (@pass $value:expr, $ty:ident) => { $value };
    (@call $module:ident $c:ident $payload:ident $method:ident() ()) => { $c.$method()? };
    (
        @call $module:ident $c:ident $payload:ident
        $method:ident($($arg:ident: $ty:ident),+) $args:ident
    ) => {{
        let args: $module::$args = $crate::protocol::decode_args($payload)?;
        $c.$method($($crate::procedure_arm!(@pass args.$arg, $ty)),+)?
    }};
    ($module:ident, $c:ident, $payload:ident, custom) => { return Ok(None) };
    ($module:ident, $c:ident, $payload:ident, $method:ident $params:tt, $args:tt, unit) => {
        $crate::procedure_arm!($module, $c, $payload, $method $params, $args, plain(()))
    };
    (
        $module:ident, $c:ident, $payload:ident,
        $method:ident $params:tt, $args:tt, plain($ret:ty)
    ) => {
        $crate::procedure_arm!(@call $module $c $payload $method $params $args).to_xdr()
    };
}

/// Decodes a call's argument payload — the generated arms and the
/// hand-written ones of both programs report a malformed one alike.
///
/// # Errors
///
/// [`ErrorCode::RpcFailure`] `bad arguments: …` when the payload is not
/// an XDR `T`.
pub fn decode_args<T: XdrDecode>(payload: &[u8]) -> VirtResult<T> {
    T::from_xdr(payload)
        .map_err(|e| VirtError::new(ErrorCode::RpcFailure, format!("bad arguments: {e}")))
}

/// Procedure numbers of the remote (hypervisor) program.
pub mod proc {
    remote_procedures!(procedure_numbers);
}

/// Table callback: the three classifiers, each a total `match` over the
/// table's column — a row cannot be added without stating all three, and
/// numbers outside the table (events included) are in no class.
macro_rules! procedure_classes {
    (@priority inline) => { true };
    (@priority pooled) => { false };
    (@retry idempotent) => { true };
    (@retry mutating) => { false };
    (@access read) => { true };
    (@access write) => { false };
    (
        calls { $( ($num:literal, $name:ident, $doc:literal,
            $priority:ident, $retry:ident, $access:ident, $($shape:tt)+); )* }
        events { $($events:tt)* }
    ) => {
        /// Whether a procedure is high-priority: guaranteed to finish
        /// without waiting on a hypervisor, so the daemon answers it
        /// inline even when every worker is wedged. Mirrors libvirt's
        /// tagging of lookups/getters — and, as in libvirt, job
        /// query/abort are here precisely because the workers are busy
        /// running the jobs.
        pub fn is_high_priority(procedure: u32) -> bool {
            match procedure {
                $( $num => procedure_classes!(@priority $priority), )*
                _ => false,
            }
        }

        /// Whether a procedure is idempotent: re-issuing it after an
        /// ambiguous connection failure cannot change daemon state beyond
        /// what the first (possibly executed) attempt did. The resilient
        /// remote driver transparently retries exactly these; mutating
        /// procedures surface the failure to the caller, who alone knows
        /// whether a repeat is safe.
        pub fn is_idempotent(procedure: u32) -> bool {
            match procedure {
                $( $num => procedure_classes!(@retry $retry), )*
                _ => false,
            }
        }

        /// Whether a procedure only reads state. Read-only connections
        /// (`?readonly` URIs) may call exactly these, session management
        /// included.
        pub fn is_readonly_safe(procedure: u32) -> bool {
            match procedure {
                $( $num => procedure_classes!(@access $access), )*
                _ => false,
            }
        }
    };
}

remote_procedures!(procedure_classes);

// Reply records that are their own wire form (`plain(X)` rows, and the
// custom MIGRATE_PERFORM): the API struct's fields in wire order. The
// struct lives with its API in `driver`/`job`; its layout lives here.
xdr_fields!(NodeInfo {
    hostname,
    hypervisor,
    cpus,
    memory_mib,
    free_memory_mib,
    active_domains,
    inactive_domains,
});
xdr_fields!(PoolRecord {
    name,
    uuid,
    backend,
    capacity_mib,
    allocation_mib,
    active,
    volume_count,
});
xdr_fields!(VolumeRecord {
    name,
    pool,
    capacity_mib,
    allocation_mib,
    format,
    path,
});
xdr_fields!(MigrationReport {
    total_ms,
    downtime_ms,
    iterations,
    transferred_mib,
    converged,
});
xdr_fields!(JobStats {
    kind,
    state,
    elapsed_ms,
    data_total_mib,
    data_processed_mib,
    data_remaining_mib,
    memory_iterations,
    error,
    trace_id,
});
xdr_fields!(DomainEvent {
    domain,
    uuid,
    kind,
    trace_id,
});
xdr_as_u32!(DomainState);

// Records whose layout differs from their fields: the codec, written out.

/// A domain record: its fields in order, the id as an `i64` that is -1
/// for none (any negative id decodes as none).
impl XdrEncode for DomainRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.uuid.encode(out);
        self.id.map_or(-1, i64::from).encode(out);
        self.state.encode(out);
        self.memory_mib.encode(out);
        self.max_memory_mib.encode(out);
        self.vcpus.encode(out);
        self.persistent.encode(out);
        self.has_managed_save.encode(out);
        self.autostart.encode(out);
        self.cpu_time_ns.encode(out);
    }
}

impl XdrDecode for DomainRecord {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        Ok(DomainRecord {
            name: String::decode(cursor)?,
            uuid: Uuid::decode(cursor)?,
            id: match i64::decode(cursor)? {
                id if id < 0 => None,
                id => Some(id as u32),
            },
            state: DomainState::decode(cursor)?,
            memory_mib: u64::decode(cursor)?,
            max_memory_mib: u64::decode(cursor)?,
            vcpus: u32::decode(cursor)?,
            persistent: bool::decode(cursor)?,
            has_managed_save: bool::decode(cursor)?,
            autostart: bool::decode(cursor)?,
            cpu_time_ns: u64::decode(cursor)?,
        })
    }
}

/// A network record: its fields in order, then the leases as three
/// parallel arrays — every MAC, every IP, every domain name. Decoding
/// pairs them up to the shortest.
impl XdrEncode for NetworkRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.uuid.encode(out);
        self.bridge.encode(out);
        self.forward.encode(out);
        self.active.encode(out);
        for column in 0..3 {
            (self.leases.len() as u32).encode(out);
            for (mac, ip, domain) in &self.leases {
                [mac, ip, domain][column].encode(out);
            }
        }
    }
}

impl XdrDecode for NetworkRecord {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let name = String::decode(cursor)?;
        let uuid = Uuid::decode(cursor)?;
        let bridge = String::decode(cursor)?;
        let forward = String::decode(cursor)?;
        let active = bool::decode(cursor)?;
        let macs = Vec::<String>::decode(cursor)?;
        let ips = Vec::<String>::decode(cursor)?;
        let domains = Vec::<String>::decode(cursor)?;
        Ok(NetworkRecord {
            name,
            uuid,
            bridge,
            forward,
            active,
            leases: macs
                .into_iter()
                .zip(ips)
                .zip(domains)
                .map(|((mac, ip), domain)| (mac, ip, domain))
                .collect(),
        })
    }
}

/// An event kind this build does not know fails the event's decode: the
/// remote driver drops that event rather than guess what happened.
impl XdrEncode for DomainEventKind {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u32().encode(out);
    }
}

impl XdrDecode for DomainEventKind {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let number = u32::decode(cursor)?;
        DomainEventKind::from_u32(number).ok_or(XdrError::InvalidDiscriminant(number))
    }
}

/// The domain record under the name of the wire twin it replaced: the
/// frozen benchmark package (`virt_bench/`) still names it. ROADMAP item
/// 10, the benchmark's one reopening, deletes both.
pub type WireDomain = DomainRecord;

/// `WireDomain::from(&record)`, as the benchmark builds its reply.
impl From<&DomainRecord> for DomainRecord {
    fn from(record: &DomainRecord) -> Self {
        record.clone()
    }
}

xdr_struct! {
    /// Arguments carrying one name.
    pub struct NameArgs {
        /// Object name.
        pub name: String,
    }
}

xdr_struct! {
    /// Arguments carrying one UUID — on the wire, its 16 bytes.
    pub struct UuidArgs {
        /// The UUID.
        pub uuid: Uuid,
    }
}

xdr_struct! {
    /// Arguments carrying one XML document.
    pub struct XmlArgs {
        /// The document text.
        pub xml: String,
    }
}

xdr_struct! {
    /// Arguments for `OPEN`.
    pub struct OpenArgs {
        /// The daemon-local URI (transport suffix stripped).
        pub uri: String,
        /// Whether the session is restricted to read-only procedures.
        pub readonly: bool,
    }
}

xdr_struct! {
    /// Arguments for `AUTH` (SASL-plain style credential check).
    pub struct AuthArgs {
        /// The user authenticating.
        pub username: String,
        /// The shared secret.
        pub password: String,
    }
}

xdr_struct! {
    /// Name + 64-bit value (set-memory).
    pub struct NameU64Args {
        /// Domain name.
        pub name: String,
        /// The value.
        pub value: u64,
    }
}

xdr_struct! {
    /// Name + 32-bit value (set-vcpus, lookup-by-id uses value only).
    pub struct NameU32Args {
        /// Domain name.
        pub name: String,
        /// The value.
        pub value: u32,
    }
}

xdr_struct! {
    /// Name + flag (autostart).
    pub struct NameBoolArgs {
        /// Domain name.
        pub name: String,
        /// The flag.
        pub value: bool,
    }
}

xdr_struct! {
    /// Name + a second string (attach/detach/snapshot).
    pub struct NameStringArgs {
        /// Domain name.
        pub name: String,
        /// Device XML, target, or snapshot name.
        pub value: String,
    }
}

xdr_struct! {
    /// Pool + volume name pair.
    pub struct PoolVolArgs {
        /// Pool name.
        pub pool: String,
        /// Volume name.
        pub name: String,
    }
}

xdr_struct! {
    /// Pool + XML (volume create).
    pub struct PoolXmlArgs {
        /// Pool name.
        pub pool: String,
        /// Volume XML.
        pub xml: String,
    }
}

xdr_struct! {
    /// Pool + volume + value (resize).
    pub struct VolResizeArgs {
        /// Pool name.
        pub pool: String,
        /// Volume name.
        pub name: String,
        /// New capacity in MiB.
        pub capacity_mib: u64,
    }
}

xdr_struct! {
    /// Pool + source + new name (clone).
    pub struct VolCloneArgs {
        /// Pool name.
        pub pool: String,
        /// Source volume.
        pub source: String,
        /// New volume name.
        pub new_name: String,
    }
}

xdr_struct! {
    /// Migration perform arguments.
    pub struct MigratePerformArgs {
        /// Domain name.
        pub name: String,
        /// Link bandwidth in MiB/s.
        pub bandwidth_mib_s: u64,
        /// Downtime budget in ms.
        pub max_downtime_ms: u64,
        /// Pre-copy iteration cap.
        pub max_iterations: u32,
    }
}

impl MigratePerformArgs {
    /// Converts wire arguments into driver options.
    pub fn to_options(&self) -> MigrationOptions {
        MigrationOptions {
            bandwidth_mib_s: self.bandwidth_mib_s,
            max_downtime_ms: self.max_downtime_ms,
            max_iterations: self.max_iterations,
        }
    }

    /// Builds wire arguments from driver options.
    pub(crate) fn from_options(name: &str, options: &MigrationOptions) -> Self {
        MigratePerformArgs {
            name: name.to_string(),
            bandwidth_mib_s: options.bandwidth_mib_s,
            max_downtime_ms: options.max_downtime_ms,
            max_iterations: options.max_iterations,
        }
    }
}

xdr_struct! {
    /// Arguments for `GUARD_SET`.
    pub struct GuardSetArgs {
        /// Domain name.
        pub name: String,
        /// Policy discriminant ([`GuardPolicy::kind`]).
        pub kind: u32,
        /// Policy parameter ([`GuardPolicy::param`]).
        pub param: u64,
    }
}

impl GuardSetArgs {
    /// Builds the wire arguments for one policy.
    pub(crate) fn from_policy(name: &str, policy: &GuardPolicy) -> GuardSetArgs {
        GuardSetArgs {
            name: name.to_string(),
            kind: policy.kind(),
            param: policy.param(),
        }
    }

    /// Decodes the policy; `None` for unknown kinds.
    pub fn to_policy(&self) -> Option<GuardPolicy> {
        GuardPolicy::from_wire(self.kind, self.param)
    }
}

xdr_struct! {
    /// Wire form of one guard's status.
    pub struct WireGuardStatus {
        /// The guarded domain.
        pub domain: String,
        /// Policy discriminant.
        pub kind: u32,
        /// Policy parameter.
        pub param: u64,
        /// Consecutive restarts since the domain last reached running.
        pub restarts: u32,
        /// Whether the restart budget is exhausted.
        pub gave_up: bool,
        /// Whether an action is pending (`next_retry_ms` is meaningful).
        pub has_next_retry: bool,
        /// Milliseconds until the next scheduled action.
        pub next_retry_ms: u64,
        /// The last lifecycle observation that drove the guard.
        pub last_event: String,
    }
}

impl From<&GuardStatus> for WireGuardStatus {
    fn from(s: &GuardStatus) -> Self {
        WireGuardStatus {
            domain: s.domain.clone(),
            kind: s.policy.kind(),
            param: s.policy.param(),
            restarts: s.restarts,
            gave_up: s.gave_up,
            has_next_retry: s.next_retry.is_some(),
            next_retry_ms: s.next_retry.map(|d| d.as_millis() as u64).unwrap_or(0),
            last_event: s.last_event.clone(),
        }
    }
}

impl WireGuardStatus {
    /// Decodes into the API status type; `None` for unknown policy kinds.
    pub(crate) fn into_status(self) -> Option<GuardStatus> {
        Some(GuardStatus {
            policy: GuardPolicy::from_wire(self.kind, self.param)?,
            domain: self.domain,
            restarts: self.restarts,
            gave_up: self.gave_up,
            next_retry: self
                .has_next_retry
                .then(|| std::time::Duration::from_millis(self.next_retry_ms)),
            last_event: self.last_event,
        })
    }
}

xdr_struct! {
    /// One domain's record in the bulk-stats reply: the name plus an
    /// open-ended typed-parameter list, libvirt's
    /// `virConnectGetAllDomainStats` shape (new stats fields never
    /// change the wire struct).
    pub struct WireDomainStatsRecord {
        /// Domain name.
        pub name: String,
        /// The stats as typed parameters.
        pub params: TypedParamList,
    }
}

/// Wire list of bulk domain-stats records.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDomainStatsList(pub Vec<WireDomainStatsRecord>);

/// The bulk-stats reply payload encoded from collected records — the
/// bytes of the equivalent [`WireDomainStatsList`], without building one.
#[derive(Debug, Clone, Copy)]
pub struct DomainStatsReply<'a>(pub &'a [DomainStatsRecord]);

/// The one writer of a bulk-stats list: a placeholder count, each record
/// as [`StatsListWriter::push`] is handed it, then
/// [`StatsListWriter::finish`] patches the count in. The daemon writes a
/// driver's visited rows straight into its reply with it; the encoders of
/// collected lists reserve the exact size first and write through it too.
pub struct StatsListWriter<'a> {
    out: &'a mut Vec<u8>,
    count_at: usize,
    count: u32,
}

impl<'a> StatsListWriter<'a> {
    /// Starts a list at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        let count_at = out.len();
        0u32.encode(out);
        StatsListWriter {
            out,
            count_at,
            count: 0,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, name: &str, params: &[TypedParam]) {
        let mut record = Placed::grow(self.out, xdr_str_len(name) + params_encoded_len(params));
        record.str(name);
        record.params(params);
        self.count += 1;
    }

    /// Writes the number of records pushed into the placeholder.
    pub fn finish(self) {
        self.out[self.count_at..self.count_at + 4].copy_from_slice(&self.count.to_be_bytes());
    }
}

/// Encodes a collected list: reserves the exact encoded size up front (a
/// 1000-domain reply is ~156 kB; growing there by doubling would copy it
/// twice over), then writes each record once.
fn encode_stats_list<'a>(
    records: impl Iterator<Item = (&'a str, &'a [TypedParam])> + Clone,
    out: &mut Vec<u8>,
) {
    let len: usize = records
        .clone()
        .map(|(name, params)| xdr_str_len(name) + params_encoded_len(params))
        .sum();
    out.reserve(4 + len);
    let mut list = StatsListWriter::new(out);
    for (name, params) in records {
        list.push(name, params);
    }
    list.finish();
}

impl XdrEncode for WireDomainStatsList {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_stats_list(
            self.0
                .iter()
                .map(|r| (r.name.as_str(), r.params.0.as_slice())),
            out,
        );
    }
}

impl XdrEncode for DomainStatsReply<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_stats_list(
            self.0
                .iter()
                .map(|r| (r.name.as_str(), r.params.as_slice())),
            out,
        );
    }
}

/// Most records a bulk-stats list may declare.
const MAX_STATS_RECORDS: u32 = 1_000_000;

/// Reads a bulk-stats list one record at a time: each name borrowed from
/// `payload`, each record's parameters decoded into one buffer reused for
/// all of them, and both handed to `visit`. Accepts what
/// [`WireDomainStatsList`]'s decoder accepts; a malformed record fails
/// the read after the records before it were visited.
pub(crate) fn read_stats_list(
    payload: &[u8],
    visit: &mut dyn FnMut(&str, &[TypedParam]),
) -> Result<(), XdrError> {
    let mut cursor = Cursor::new(payload);
    let len = u32::decode(&mut cursor)?;
    if len > MAX_STATS_RECORDS {
        return Err(XdrError::LengthTooLarge(len));
    }
    let mut params = Vec::new();
    for _ in 0..len {
        let name = cursor.read_str()?;
        decode_params_into(&mut cursor, &mut params)?;
        visit(name, &params);
    }
    if !cursor.is_exhausted() {
        return Err(XdrError::BadPadding);
    }
    Ok(())
}

/// Smallest encoding of one record: an empty name and an empty
/// parameter list.
const MIN_STATS_RECORD_ENCODED_LEN: usize = 8;

impl XdrDecode for WireDomainStatsList {
    fn decode(cursor: &mut Cursor<'_>) -> Result<Self, XdrError> {
        let len = u32::decode(cursor)?;
        if len > MAX_STATS_RECORDS {
            return Err(XdrError::LengthTooLarge(len));
        }
        // A declared length reserves no more records than the bytes
        // behind it could encode.
        let mut items = Vec::with_capacity(
            (len as usize)
                .min(4096)
                .min(cursor.remaining() / MIN_STATS_RECORD_ENCODED_LEN),
        );
        for _ in 0..len {
            items.push(WireDomainStatsRecord::decode(cursor)?);
        }
        Ok(WireDomainStatsList(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobState};
    use virt_rpc::xdr::{XdrDecode, XdrEncode};

    fn sample_record() -> DomainRecord {
        DomainRecord {
            name: "vm".to_string(),
            uuid: Uuid::from_bytes([9; 16]),
            id: Some(4),
            state: DomainState::Paused,
            memory_mib: 2048,
            max_memory_mib: 4096,
            vcpus: 8,
            persistent: true,
            has_managed_save: false,
            autostart: true,
            cpu_time_ns: 123_456_789,
        }
    }

    #[test]
    fn wire_domain_round_trip() {
        let record = sample_record();
        assert_eq!(DomainRecord::from_xdr(&record.to_xdr()).unwrap(), record);
    }

    #[test]
    fn inactive_domain_id_encodes_as_minus_one() {
        let mut record = sample_record();
        record.id = None;
        let bytes = record.to_xdr();
        // The id follows the name (4 + 2 bytes, padded to 8) and the UUID.
        assert_eq!(bytes[24..32], (-1i64).to_be_bytes());
        assert_eq!(DomainRecord::from_xdr(&bytes).unwrap().id, None);
    }

    #[test]
    fn domain_list_round_trip() {
        let list = vec![sample_record(), sample_record()];
        assert_eq!(Vec::<DomainRecord>::from_xdr(&list.to_xdr()).unwrap(), list);
    }

    #[test]
    fn node_info_round_trip() {
        let info = NodeInfo {
            hostname: "node".into(),
            hypervisor: "qemu".into(),
            cpus: 16,
            memory_mib: 65536,
            free_memory_mib: 4096,
            active_domains: 10,
            inactive_domains: 3,
        };
        let back = NodeInfo::from_xdr(&info.to_xdr()).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn network_leases_round_trip_as_parallel_arrays() {
        let record = NetworkRecord {
            name: "default".into(),
            uuid: Uuid::from_bytes([1; 16]),
            bridge: "virbr0".into(),
            forward: "nat".into(),
            active: true,
            leases: vec![
                ("m1".into(), "192.168.122.2".into(), "a".into()),
                ("m2".into(), "192.168.122.3".into(), "b".into()),
            ],
        };
        assert_eq!(NetworkRecord::from_xdr(&record.to_xdr()).unwrap(), record);
    }

    #[test]
    fn migrate_args_round_trip_options() {
        let options = MigrationOptions {
            bandwidth_mib_s: 500,
            max_downtime_ms: 100,
            max_iterations: 7,
        };
        let args = MigratePerformArgs::from_options("vm", &options);
        let decoded = MigratePerformArgs::from_xdr(&args.to_xdr()).unwrap();
        assert_eq!(decoded.to_options(), options);
        assert_eq!(decoded.name, "vm");
    }

    #[test]
    fn event_round_trip_and_unknown_kind() {
        let event = DomainEvent {
            domain: "vm".into(),
            uuid: Uuid::from_bytes([3; 16]),
            kind: DomainEventKind::MigratedIn,
            trace_id: 0xfeed_beef,
        };
        assert_eq!(DomainEvent::from_xdr(&event.to_xdr()).unwrap(), event);

        // The kind is the third field, after the name (4 + 2 bytes, padded
        // to 8) and the UUID.
        let mut unknown = event.to_xdr();
        unknown[24..28].copy_from_slice(&999u32.to_be_bytes());
        assert_eq!(
            DomainEvent::from_xdr(&unknown).unwrap_err(),
            XdrError::InvalidDiscriminant(999)
        );
    }

    #[test]
    fn job_stats_round_trip() {
        let stats = JobStats {
            kind: JobKind::Migration,
            state: JobState::Running,
            elapsed_ms: 1234,
            data_total_mib: 4096,
            data_processed_mib: 1024,
            data_remaining_mib: 3072,
            memory_iterations: 2,
            error: String::new(),
            trace_id: 0xabad_cafe,
        };
        let back = JobStats::from_xdr(&stats.to_xdr()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn domain_stats_list_round_trip() {
        use crate::typedparam::TypedParam;
        let list = WireDomainStatsList(vec![
            WireDomainStatsRecord {
                name: "vm0".into(),
                params: TypedParamList(vec![
                    TypedParam::uint("state.state", 1),
                    TypedParam::ullong("balloon.current", 2048),
                ]),
            },
            WireDomainStatsRecord {
                name: "vm1".into(),
                params: TypedParamList(vec![TypedParam::string("job.kind", "migration")]),
            },
        ]);
        let bytes = list.to_xdr();
        let decoded = WireDomainStatsList::from_xdr(&bytes).unwrap();
        assert_eq!(decoded, list);

        // The row-by-row writer and reader agree with the owned list.
        let mut written = Vec::new();
        let mut writer = StatsListWriter::new(&mut written);
        for record in &list.0 {
            writer.push(&record.name, &record.params.0);
        }
        writer.finish();
        assert_eq!(written, bytes);
        let mut read = Vec::new();
        read_stats_list(&bytes, &mut |name, params| {
            read.push(WireDomainStatsRecord {
                name: name.to_string(),
                params: TypedParamList(params.to_vec()),
            });
        })
        .unwrap();
        assert_eq!(read, list.0);
    }

    #[test]
    fn stats_reply_encodes_driver_records_as_the_wire_list_exactly_sized() {
        use crate::typedparam::TypedParam;
        let records = vec![
            DomainStatsRecord {
                name: "vm0".into(),
                params: vec![
                    TypedParam::uint("state.state", 1),
                    TypedParam::new("odd", crate::typedparam::ParamValue::Double(1.5)),
                ],
            },
            DomainStatsRecord {
                name: "näme".into(),
                params: vec![TypedParam::string("job.kind", "save")],
            },
        ];
        let list = WireDomainStatsList(
            records
                .iter()
                .cloned()
                .map(|r| WireDomainStatsRecord {
                    name: r.name,
                    params: TypedParamList(r.params),
                })
                .collect(),
        );
        let direct = DomainStatsReply(&records).to_xdr();
        assert_eq!(direct, list.to_xdr());
        // Reserved once, to the byte.
        assert_eq!(direct.capacity(), direct.len());
        assert_eq!(DomainStatsReply(&[]).to_xdr(), 0u32.to_xdr());
    }

    #[test]
    fn stats_list_declared_length_cannot_outrun_its_bytes() {
        use XdrError;
        // The owned decoder and the row-by-row reader reject alike.
        let read = |data: &[u8]| read_stats_list(data, &mut |_, _| {}).unwrap_err();
        // A million records declared, none present: rejected as short
        // (and reserves nothing on the way — see the decoder).
        let mut data = 1_000_000u32.to_xdr();
        assert!(matches!(
            WireDomainStatsList::from_xdr(&data).unwrap_err(),
            XdrError::UnexpectedEnd { .. }
        ));
        assert!(matches!(read(&data), XdrError::UnexpectedEnd { .. }));
        data = 1_000_001u32.to_xdr();
        assert!(matches!(
            WireDomainStatsList::from_xdr(&data).unwrap_err(),
            XdrError::LengthTooLarge(1_000_001)
        ));
        assert!(matches!(read(&data), XdrError::LengthTooLarge(1_000_001)));
        // Bytes after the last record.
        data = 0u32.to_xdr();
        data.extend_from_slice(&[0; 4]);
        assert!(matches!(
            WireDomainStatsList::from_xdr(&data).unwrap_err(),
            XdrError::BadPadding
        ));
        assert!(matches!(read(&data), XdrError::BadPadding));
    }

    #[test]
    fn guard_status_round_trip() {
        let status = GuardStatus {
            domain: "web".into(),
            policy: GuardPolicy::KeepRunning { max_restarts: 6 },
            restarts: 2,
            gave_up: false,
            next_retry: Some(std::time::Duration::from_millis(150)),
            last_event: "crashed".into(),
        };
        let wire = WireGuardStatus::from(&status);
        let back = WireGuardStatus::from_xdr(&wire.to_xdr())
            .unwrap()
            .into_status()
            .unwrap();
        assert_eq!(back, status);

        // No pending retry encodes as has_next_retry = false.
        let idle = GuardStatus {
            next_retry: None,
            gave_up: true,
            ..status
        };
        let back = WireGuardStatus::from(&idle).into_status().unwrap();
        assert_eq!(back, idle);

        // Unknown policy kinds decode to None, not garbage.
        let unknown = WireGuardStatus {
            domain: "x".into(),
            kind: 77,
            param: 0,
            restarts: 0,
            gave_up: false,
            has_next_retry: false,
            next_retry_ms: 0,
            last_event: String::new(),
        };
        assert!(unknown.into_status().is_none());

        let list = vec![WireGuardStatus::from(&GuardStatus {
            domain: "a".into(),
            policy: GuardPolicy::AutoResume,
            restarts: 0,
            gave_up: false,
            next_retry: None,
            last_event: "armed".into(),
        })];
        let decoded = Vec::<WireGuardStatus>::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
    }

    #[test]
    fn guard_set_args_round_trip() {
        for policy in [
            GuardPolicy::KeepRunning { max_restarts: 3 },
            GuardPolicy::AutoResume,
            GuardPolicy::GracefulStop { timeout_ms: 900 },
        ] {
            let args = GuardSetArgs::from_policy("vm", &policy);
            let decoded = GuardSetArgs::from_xdr(&args.to_xdr()).unwrap();
            assert_eq!(decoded.to_policy(), Some(policy));
            assert_eq!(decoded.name, "vm");
        }
        assert_eq!(
            GuardSetArgs {
                name: "vm".into(),
                kind: 0,
                param: 0
            }
            .to_policy(),
            None
        );
    }

    #[test]
    fn priority_classification() {
        assert!(is_high_priority(proc::LIST_DOMAINS));
        assert!(is_high_priority(proc::NODE_INFO));
        assert!(is_high_priority(proc::DOMAIN_DUMP_XML));
        // Job query/abort and bulk stats must get through while normal
        // workers are saturated by the jobs themselves.
        assert!(is_high_priority(proc::DOMAIN_GET_JOB_STATS));
        assert!(is_high_priority(proc::DOMAIN_ABORT_JOB));
        assert!(is_high_priority(proc::CONNECT_GET_ALL_DOMAIN_STATS));
        // Autostart: the getter is a pure read, the setter mutates.
        assert!(is_high_priority(proc::DOMAIN_GET_AUTOSTART));
        assert!(!is_high_priority(proc::DOMAIN_SET_AUTOSTART));
        assert!(!is_high_priority(proc::DOMAIN_START));
        assert!(!is_high_priority(proc::MIGRATE_PERFORM));
        assert!(!is_high_priority(proc::DOMAIN_DESTROY));
        // Guard queries are pure reads; mutating guard procedures and
        // crash injection ride ordinary workers.
        assert!(is_high_priority(proc::GUARD_LIST));
        assert!(is_high_priority(proc::GUARD_STATUS));
        assert!(!is_high_priority(proc::GUARD_SET));
        assert!(!is_high_priority(proc::GUARD_REMOVE));
        assert!(!is_high_priority(proc::DOMAIN_CRASH));
    }

    #[test]
    fn readonly_sessions_cannot_abort_jobs() {
        // High-priority but mutating: the one exception to
        // "high-priority implies readonly-safe".
        assert!(!is_readonly_safe(proc::DOMAIN_ABORT_JOB));
        assert!(is_readonly_safe(proc::DOMAIN_GET_JOB_STATS));
        assert!(is_readonly_safe(proc::CONNECT_GET_ALL_DOMAIN_STATS));
        assert!(is_readonly_safe(proc::LIST_DOMAINS));
        assert!(is_readonly_safe(proc::AUTH));
        assert!(!is_readonly_safe(proc::DOMAIN_START));
        assert!(is_readonly_safe(proc::GUARD_LIST));
        assert!(is_readonly_safe(proc::GUARD_STATUS));
        assert!(!is_readonly_safe(proc::GUARD_SET));
        assert!(!is_readonly_safe(proc::GUARD_REMOVE));
        assert!(!is_readonly_safe(proc::DOMAIN_CRASH));
    }

    #[test]
    fn idempotency_classification() {
        // Pure reads are idempotent.
        assert!(is_idempotent(proc::GET_HOSTNAME));
        assert!(is_idempotent(proc::LIST_DOMAINS));
        assert!(is_idempotent(proc::DOMAIN_DUMP_XML));
        assert!(is_idempotent(proc::NETWORK_INFO));
        // Session management and mutations are not.
        assert!(!is_idempotent(proc::OPEN));
        assert!(!is_idempotent(proc::AUTH));
        assert!(!is_idempotent(proc::EVENT_REGISTER));
        assert!(!is_idempotent(proc::DOMAIN_START));
        assert!(!is_idempotent(proc::DOMAIN_DESTROY));
        assert!(!is_idempotent(proc::VOLUME_CLONE));
        assert!(!is_idempotent(proc::MIGRATE_PERFORM));
        // Job queries are pure reads; abort is a mutation (a retried
        // abort could cancel a *different*, later job).
        assert!(is_idempotent(proc::DOMAIN_GET_JOB_STATS));
        assert!(is_idempotent(proc::CONNECT_GET_ALL_DOMAIN_STATS));
        assert!(is_idempotent(proc::DOMAIN_GET_AUTOSTART));
        assert!(!is_idempotent(proc::DOMAIN_SET_AUTOSTART));
        assert!(!is_idempotent(proc::DOMAIN_ABORT_JOB));
        // Guard queries are reads; set/remove/crash mutate. (Re-setting
        // the same policy would be harmless, but a retried set racing a
        // crash storm could reset a climbing backoff ladder.)
        assert!(is_idempotent(proc::GUARD_LIST));
        assert!(is_idempotent(proc::GUARD_STATUS));
        assert!(!is_idempotent(proc::GUARD_SET));
        assert!(!is_idempotent(proc::GUARD_REMOVE));
        assert!(!is_idempotent(proc::DOMAIN_CRASH));
        // Idempotent procedures are a strict subset of high-priority ones.
        for (num, name) in proc::ALL {
            if is_idempotent(*num) {
                assert!(is_high_priority(*num), "{name} idempotent but not prio");
            }
        }
    }

    #[test]
    fn table_classes_equal_the_hand_kept_lists_they_replaced() {
        // The `matches!` bodies of the last hand-written `is_high_priority`
        // and `is_idempotent`, as numbers.
        const HIGH_PRIORITY: &[u32] = &[
            1, 2, 6, 3, 4, 5, 10, 11, 12, 13, 30, 32, 35, 36, 37, 38, 50, 51, 56, 57, 70, 71, 80,
            81, 94, 95,
        ];
        const IDEMPOTENT: &[u32] = &[
            3, 4, 5, 10, 11, 12, 13, 30, 32, 35, 37, 38, 50, 51, 56, 57, 70, 71, 94, 95,
        ];
        for n in 0..=255 {
            let high = HIGH_PRIORITY.contains(&n);
            assert_eq!(is_high_priority(n), high, "priority of {n}");
            assert_eq!(is_idempotent(n), IDEMPOTENT.contains(&n), "retry of {n}");
            // The read-only set used to be derived, not listed: the
            // explicit `access` column must reproduce the derivation.
            let readonly = (high && n != proc::DOMAIN_ABORT_JOB) || n == proc::AUTH;
            assert_eq!(is_readonly_safe(n), readonly, "access of {n}");
        }
        assert!(!is_high_priority(u32::MAX) && !is_readonly_safe(u32::MAX));
    }

    #[test]
    fn names_cover_calls_and_events() {
        for (num, name) in proc::ALL {
            assert_eq!(proc::name(*num), Some(*name));
        }
        assert_eq!(proc::name(proc::DOMAIN_START), Some("DOMAIN_START"));
        // Event numbers have names but are not callable.
        assert_eq!(proc::name(proc::EVENT_LIFECYCLE), Some("EVENT_LIFECYCLE"));
        assert!(proc::ALL
            .iter()
            .all(|(num, _)| *num != proc::EVENT_LIFECYCLE));
        assert_eq!(proc::name(0), None);
    }

    #[test]
    fn procedure_numbers_are_unique() {
        let all = [
            proc::OPEN,
            proc::CLOSE,
            proc::GET_HOSTNAME,
            proc::GET_CAPABILITIES,
            proc::NODE_INFO,
            proc::LIST_DOMAINS,
            proc::DOMAIN_LOOKUP_NAME,
            proc::DOMAIN_LOOKUP_ID,
            proc::DOMAIN_LOOKUP_UUID,
            proc::DOMAIN_DEFINE_XML,
            proc::DOMAIN_CREATE_XML,
            proc::DOMAIN_UNDEFINE,
            proc::DOMAIN_START,
            proc::DOMAIN_SHUTDOWN,
            proc::DOMAIN_REBOOT,
            proc::DOMAIN_DESTROY,
            proc::DOMAIN_SUSPEND,
            proc::DOMAIN_RESUME,
            proc::DOMAIN_SAVE,
            proc::DOMAIN_RESTORE,
            proc::DOMAIN_SET_MEMORY,
            proc::DOMAIN_SET_VCPUS,
            proc::DOMAIN_ATTACH_DEVICE,
            proc::DOMAIN_DETACH_DEVICE,
            proc::DOMAIN_SNAPSHOT,
            proc::DOMAIN_LIST_SNAPSHOTS,
            proc::DOMAIN_SET_AUTOSTART,
            proc::DOMAIN_DUMP_XML,
            proc::DOMAIN_SNAPSHOT_REVERT,
            proc::DOMAIN_SNAPSHOT_DELETE,
            proc::DOMAIN_GET_JOB_STATS,
            proc::DOMAIN_ABORT_JOB,
            proc::CONNECT_GET_ALL_DOMAIN_STATS,
            proc::DOMAIN_GET_AUTOSTART,
            proc::MIGRATE_BEGIN,
            proc::MIGRATE_PREPARE,
            proc::MIGRATE_PERFORM,
            proc::MIGRATE_FINISH,
            proc::MIGRATE_CONFIRM,
            proc::MIGRATE_ABORT,
            proc::LIST_POOLS,
            proc::POOL_INFO,
            proc::POOL_DEFINE_XML,
            proc::POOL_START,
            proc::POOL_STOP,
            proc::POOL_UNDEFINE,
            proc::LIST_VOLUMES,
            proc::VOLUME_INFO,
            proc::VOLUME_CREATE_XML,
            proc::VOLUME_DELETE,
            proc::VOLUME_RESIZE,
            proc::VOLUME_CLONE,
            proc::LIST_NETWORKS,
            proc::NETWORK_INFO,
            proc::NETWORK_DEFINE_XML,
            proc::NETWORK_START,
            proc::NETWORK_STOP,
            proc::NETWORK_UNDEFINE,
            proc::EVENT_REGISTER,
            proc::EVENT_DEREGISTER,
            proc::EVENT_LIFECYCLE,
            proc::EVENT_DOMAIN_JOB,
            proc::DOMAIN_CRASH,
            proc::GUARD_SET,
            proc::GUARD_REMOVE,
            proc::GUARD_LIST,
            proc::GUARD_STATUS,
        ];
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    /// The two row expanders held to each other on a toy program: a
    /// counter store whose stubs and arms are both generated, joined by a
    /// loopback `call`. One row of each reply shape, a `str` and a scalar
    /// argument, and a `custom` row that must expand to no stub and to an
    /// arm that falls through.
    mod expanders {
        use std::collections::HashMap;
        use std::sync::Mutex;

        use virt_rpc::xdr::{XdrDecode, XdrEncode};

        use crate::error::{ErrorCode, VirtResult};

        macro_rules! toy_procedures {
            ($callback:ident) => {
                $callback! {
                    calls {
                        (1, RESET, "Forget every counter.", reset(), (), unit);
                        (2, ADD, "Add to a counter; its new value.",
                            add(key: str, count: u32), KeyCountArgs, plain(u32));
                        (3, TOTAL, "Sum over the counters whose key starts with `key`.",
                            total(key: str), KeyArgs, plain(u64));
                        (4, BY_HAND, "A row the expanders leave alone.", custom);
                    }
                    events {}
                }
            };
        }

        mod toy {
            use virt_rpc::xdr_struct;

            pub mod proc {
                toy_procedures!(procedure_numbers);
            }

            xdr_struct! {
                /// A key.
                pub struct KeyArgs {
                    /// The key.
                    pub key: String,
                }
            }
            xdr_struct! {
                /// A key and a count.
                pub struct KeyCountArgs {
                    /// The key.
                    pub key: String,
                    /// The count.
                    pub count: u32,
                }
            }
        }

        #[derive(Default)]
        struct Store(Mutex<HashMap<String, u32>>);

        impl Store {
            fn reset(&self) -> VirtResult<()> {
                self.0.lock().unwrap().clear();
                Ok(())
            }
            fn add(&self, key: &str, count: u32) -> VirtResult<u32> {
                let mut counters = self.0.lock().unwrap();
                let value = counters.entry(key.to_string()).or_insert(0);
                *value += count;
                Ok(*value)
            }
            fn total(&self, key: &str) -> VirtResult<u64> {
                let counters = self.0.lock().unwrap();
                Ok(counters
                    .iter()
                    .filter(|(k, _)| k.starts_with(key))
                    .map(|(_, v)| u64::from(*v))
                    .sum())
            }
        }

        macro_rules! toy_dispatch {
            (
                calls { $( ($num:literal, $name:ident, $doc:literal, $($shape:tt)+); )* }
                events {}
            ) => {
                fn call_regular(
                    c: &Store,
                    procedure: u32,
                    payload: &[u8],
                ) -> VirtResult<Option<Vec<u8>>> {
                    Ok(Some(match procedure {
                        $( $num => crate::procedure_arm!(toy, c, payload, $($shape)+), )*
                        _ => return Ok(None),
                    }))
                }
            };
        }
        toy_procedures!(toy_dispatch);

        macro_rules! toy_stubs {
            (
                calls { $( ($num:literal, $name:ident, $doc:literal, $($shape:tt)+); )* }
                events {}
            ) => {
                $( crate::procedure_stub!(pub fn in toy, $doc, $name, $($shape)+); )*
            };
        }

        struct Client<'a>(&'a Store);

        impl Client<'_> {
            fn call<R: XdrDecode>(&self, procedure: u32, args: &impl XdrEncode) -> VirtResult<R> {
                let reply = call_regular(self.0, procedure, &args.to_xdr())?
                    .expect("a regular row has an arm");
                Ok(R::from_xdr(&reply).expect("the arm encodes what the stub decodes"))
            }

            toy_procedures!(toy_stubs);

            // Compiles only because the `custom` row generated no stub.
            fn by_hand(&self) -> u32 {
                toy::proc::BY_HAND
            }
        }

        #[test]
        fn generated_stubs_and_arms_round_trip_against_each_other() {
            let store = Store::default();
            let client = Client(&store);
            assert_eq!(client.add("vm.a", 2).unwrap(), 2);
            assert_eq!(client.add("vm.a", 3).unwrap(), 5);
            assert_eq!(client.add("vm.b", 1).unwrap(), 1);
            assert_eq!(client.total("vm.").unwrap(), 6);
            assert_eq!(client.total("vm.b").unwrap(), 1);
            client.reset().unwrap();
            assert_eq!(client.total("").unwrap(), 0);

            // A custom row and a number outside the table fall through.
            assert_eq!(toy::proc::name(client.by_hand()), Some("BY_HAND"));
            assert_eq!(call_regular(&store, client.by_hand(), &[]).unwrap(), None);
            assert_eq!(toy::proc::ALL.len(), 4);
            assert_eq!(call_regular(&store, 99, &[]).unwrap(), None);
            // A malformed argument struct is the shared error, not a panic.
            let err = call_regular(&store, toy::proc::ADD, &[0, 0]).unwrap_err();
            assert_eq!(err.code(), ErrorCode::RpcFailure);
            assert!(err.message().starts_with("bad arguments: "), "{err}");
        }
    }
}
