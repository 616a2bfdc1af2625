//! The remote-program dispatcher.
//!
//! Decodes each call's XDR arguments, executes it against the daemon's
//! local driver for the URI the client opened, and encodes the reply —
//! the exact mirror of the client-side remote driver. Because both sides
//! re-enter the same [`HypervisorConnection`] trait, a remote call is
//! *semantically identical* to a local one; only latency differs. That
//! equivalence is what the differential tests in `tests/` assert.
//!
//! The decode → call → encode arm of every regular procedure is
//! generated from `virt_core::remote_procedures!` (`call_regular`); what
//! is written by hand here is the session (AUTH, OPEN, the read-only
//! gate, CLOSE, event subscription) and the arms of the table's `custom`
//! rows. `tests/wire_procedures.rs` fails if a row has no arm.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use virt_core::driver::HypervisorConnection;
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::error::{ErrorCode, VirtError, VirtResult};
use virt_core::event::CallbackId;
use virt_core::log::Logger;
use virt_core::metrics::recorder::FlightRecorder;
use virt_core::metrics::span;
use virt_core::metrics::trace::{self, RequestId};
use virt_core::metrics::{Counter, Histogram, Registry};
use virt_core::protocol::{self, decode_args, proc};
use virt_core::uri::ConnectUri;
use virt_rpc::message::{Header, Packet, REMOTE_PROGRAM};
use virt_rpc::xdr::XdrEncode;

use crate::server::{ClientHandle, ProgramDispatcher};

struct ClientSession {
    conn: Arc<EmbeddedConnection>,
    event_callback: Option<CallbackId>,
    readonly: bool,
}

/// One procedure's instrumentation: a latency histogram and an error
/// counter. Not a metric set — its help text names the procedure, read
/// off [`proc::ALL`] when the family is published.
#[derive(Debug, Default)]
struct ProcMetrics {
    latency_us: Arc<Histogram>,
    errors: Arc<Counter>,
}

virt_metrics::metric_set! {
    /// Dispatch-layer totals, and the catch-all for procedure numbers not
    /// in [`proc::ALL`].
    struct DispatchTotals {
        calls: Counter = "calls", "Total RPC calls dispatched";
        errors: Counter = "errors", "Total RPC calls that returned an error";
        auth_failures: Counter = "auth_failures", "Failed AUTH attempts";
        unknown_latency_us: Histogram = "proc.unknown.latency_us",
            "Dispatch latency of calls to unknown procedure numbers";
        unknown_errors: Counter = "proc.unknown.errors",
            "Error replies for unknown procedure numbers";
    }
}

/// Dispatch-layer metrics. The per-procedure map is built once at
/// construction from [`proc::ALL`] and never mutated, so the record path
/// is a plain `HashMap` lookup plus relaxed atomics — no locks.
#[derive(Debug)]
struct DispatchMetrics {
    per_proc: HashMap<u32, ProcMetrics>,
    totals: DispatchTotals,
}

impl DispatchMetrics {
    /// The latency histogram and error counter `procedure` records into.
    fn for_proc(&self, procedure: u32) -> (&Histogram, &Counter) {
        match self.per_proc.get(&procedure) {
            Some(pm) => (&pm.latency_us, &pm.errors),
            None => (&self.totals.unknown_latency_us, &self.totals.unknown_errors),
        }
    }
}

/// Dispatcher for [`REMOTE_PROGRAM`].
pub(crate) struct RemoteDispatcher {
    /// scheme → local driver connection (`qemu`, `xen`, `lxc`, ...).
    drivers: HashMap<String, Arc<EmbeddedConnection>>,
    sessions: Mutex<HashMap<u64, ClientSession>>,
    logger: Arc<Logger>,
    /// `(user, password)` pairs; `None` disables authentication.
    credentials: Option<Vec<(String, String)>>,
    /// Client ids that have passed AUTH (only tracked when required).
    authenticated: Mutex<std::collections::HashSet<u64>>,
    metrics: DispatchMetrics,
    /// Length of the last bulk-stats reply: what the next one reserves.
    bulk_reply_len: AtomicUsize,
}

impl RemoteDispatcher {
    /// Creates a dispatcher over the daemon's local drivers.
    pub(crate) fn new(
        drivers: HashMap<String, Arc<EmbeddedConnection>>,
        logger: Arc<Logger>,
        credentials: Option<Vec<(String, String)>>,
    ) -> Arc<Self> {
        Arc::new(RemoteDispatcher {
            drivers,
            sessions: Mutex::new(HashMap::new()),
            logger,
            credentials,
            authenticated: Mutex::new(std::collections::HashSet::new()),
            metrics: DispatchMetrics {
                per_proc: proc::ALL
                    .iter()
                    .map(|(num, _)| (*num, ProcMetrics::default()))
                    .collect(),
                totals: DispatchTotals::new(),
            },
            bulk_reply_len: AtomicUsize::new(0),
        })
    }

    /// Publishes the dispatcher's metrics into `registry`: per-procedure
    /// latency histograms and error counters as `rpc.proc.{num}.*` (the
    /// help text carries the symbolic name), plus `rpc.calls`,
    /// `rpc.errors` and `rpc.auth_failures` totals.
    pub(crate) fn publish_metrics(&self, registry: &Registry) {
        for (num, name) in proc::ALL {
            let pm = &self.metrics.per_proc[num];
            registry.adopt(
                &format!("rpc.proc.{num}.latency_us"),
                &format!("Dispatch latency of {name} (procedure {num})"),
                &pm.latency_us,
            );
            registry.adopt(
                &format!("rpc.proc.{num}.errors"),
                &format!("Error replies from {name} (procedure {num})"),
                &pm.errors,
            );
        }
        self.metrics.totals.attach(registry, "rpc.");
    }

    fn handle(
        &self,
        client: &Arc<ClientHandle>,
        header: Header,
        payload: &[u8],
    ) -> VirtResult<Vec<u8>> {
        // AUTH may precede OPEN on daemons requiring credentials.
        if header.procedure == proc::AUTH {
            let args: protocol::AuthArgs = decode_args(payload)?;
            let Some(credentials) = &self.credentials else {
                // No authentication configured: accept and record the name.
                client.identity.lock().username = Some(args.username);
                return Ok(().to_xdr());
            };
            let valid = credentials
                .iter()
                .any(|(user, pass)| *user == args.username && *pass == args.password);
            if !valid {
                self.logger.warning(
                    "daemon.rpc",
                    &format!(
                        "client {} failed authentication as '{}'",
                        client.id, args.username
                    ),
                );
                return Err(VirtError::new(
                    ErrorCode::AuthFailed,
                    format!("invalid credentials for '{}'", args.username),
                ));
            }
            self.authenticated.lock().insert(client.id);
            client.identity.lock().username = Some(args.username);
            return Ok(().to_xdr());
        }

        // OPEN establishes the session; everything else requires one.
        if header.procedure == proc::OPEN {
            // One connection, one session: a second OPEN would let a
            // read-only client replace its session with a writable one.
            if self.sessions.lock().contains_key(&client.id) {
                return Err(VirtError::new(
                    ErrorCode::OperationInvalid,
                    "connection already open",
                ));
            }
            if self.credentials.is_some() && !self.authenticated.lock().contains(&client.id) {
                return Err(VirtError::new(
                    ErrorCode::AuthFailed,
                    "authentication required before open",
                ));
            }
            let args: protocol::OpenArgs = decode_args(payload)?;
            let uri: ConnectUri = args.uri.parse()?;
            let conn = self
                .drivers
                .get(uri.driver())
                .ok_or_else(|| {
                    VirtError::new(
                        ErrorCode::NoConnect,
                        format!("daemon has no driver for scheme '{}'", uri.driver()),
                    )
                })?
                .clone();
            self.logger.info(
                "daemon.rpc",
                &format!(
                    "client {} opened {}{}",
                    client.id,
                    args.uri,
                    if args.readonly { " (read-only)" } else { "" }
                ),
            );
            client.identity.lock().readonly = args.readonly;
            self.sessions.lock().insert(
                client.id,
                ClientSession {
                    conn,
                    event_callback: None,
                    readonly: args.readonly,
                },
            );
            return Ok(().to_xdr());
        }

        // One look at the session per call: its connection and its mode.
        let (conn, readonly) = self
            .sessions
            .lock()
            .get(&client.id)
            .map(|s| (Arc::clone(&s.conn), s.readonly))
            .ok_or_else(|| VirtError::new(ErrorCode::ConnectInvalid, "no connection opened"))?;
        // Read-only sessions may only call read-only-safe procedures.
        if readonly && !protocol::is_readonly_safe(header.procedure) {
            return Err(VirtError::new(
                ErrorCode::AccessDenied,
                format!(
                    "procedure {} forbidden on a read-only connection",
                    describe(header.procedure)
                ),
            ));
        }
        let c: &dyn HypervisorConnection = conn.as_ref();

        if let Some(reply) = call_regular(c, header.procedure, payload)? {
            return Ok(reply);
        }

        // The table's `custom` rows.
        let reply: Vec<u8> = match header.procedure {
            proc::CLOSE => {
                self.cleanup_session(client.id);
                ().to_xdr()
            }
            proc::GET_CAPABILITIES => c.capabilities()?.to_xml_string().to_xdr(),
            proc::DOMAIN_LOOKUP_ID => {
                let args: protocol::NameU32Args = decode_args(payload)?;
                c.lookup_domain_by_id(args.value)?.to_xdr()
            }
            proc::CONNECT_GET_ALL_DOMAIN_STATS => {
                // The driver's rows go straight into the reply, reserved
                // at the size of the last one: a host polled again is
                // usually the size it was.
                let mut reply = Vec::with_capacity(self.bulk_reply_len.load(Ordering::Relaxed));
                let mut list = protocol::StatsListWriter::new(&mut reply);
                c.for_each_domain_stats(&mut |name, params| list.push(name, params))?;
                list.finish();
                self.bulk_reply_len.store(reply.len(), Ordering::Relaxed);
                reply
            }
            proc::MIGRATE_PERFORM => {
                let args: protocol::MigratePerformArgs = decode_args(payload)?;
                c.migrate_perform(&args.name, &args.to_options())?.to_xdr()
            }
            proc::GUARD_SET => {
                let args: protocol::GuardSetArgs = decode_args(payload)?;
                let policy = args.to_policy().ok_or_else(|| {
                    VirtError::new(
                        ErrorCode::InvalidArg,
                        format!("unknown guard policy kind {}", args.kind),
                    )
                })?;
                c.guard_set(&args.name, &policy)?;
                ().to_xdr()
            }
            proc::GUARD_LIST => {
                let statuses = c.guard_list()?;
                let wire: Vec<_> = statuses
                    .iter()
                    .map(protocol::WireGuardStatus::from)
                    .collect();
                wire.to_xdr()
            }
            proc::GUARD_STATUS => {
                let args: protocol::NameArgs = decode_args(payload)?;
                protocol::WireGuardStatus::from(&c.guard_status(&args.name)?).to_xdr()
            }
            proc::EVENT_REGISTER => {
                let mut sessions = self.sessions.lock();
                let session = sessions.get_mut(&client.id).ok_or_else(|| {
                    VirtError::new(ErrorCode::ConnectInvalid, "no connection opened")
                })?;
                if session.event_callback.is_none() {
                    let event_client = Arc::clone(client);
                    let id = conn.events().register(Arc::new(move |event| {
                        // Job lifecycle notifications ride their own
                        // procedure so clients can tell the channels apart.
                        let procedure = if event.kind.is_job_event() {
                            proc::EVENT_DOMAIN_JOB
                        } else {
                            proc::EVENT_LIFECYCLE
                        };
                        let packet = Packet::new(Header::event(REMOTE_PROGRAM, procedure), event);
                        let _ = event_client.send(&packet);
                    }));
                    session.event_callback = Some(id);
                }
                ().to_xdr()
            }
            proc::EVENT_DEREGISTER => {
                let mut sessions = self.sessions.lock();
                if let Some(session) = sessions.get_mut(&client.id) {
                    if let Some(id) = session.event_callback.take() {
                        conn.events().unregister(id);
                    }
                }
                ().to_xdr()
            }

            other => {
                return Err(VirtError::new(
                    ErrorCode::RpcFailure,
                    format!("unknown procedure {}", describe(other)),
                ))
            }
        };
        Ok(reply)
    }

    fn cleanup_session(&self, client_id: u64) {
        self.authenticated.lock().remove(&client_id);
        if let Some(session) = self.sessions.lock().remove(&client_id) {
            if let Some(id) = session.event_callback {
                session.conn.events().unregister(id);
            }
        }
    }
}

/// `DOMAIN_START (17)` for a number the table names, `17` otherwise.
fn describe(procedure: u32) -> String {
    match proc::name(procedure) {
        Some(name) => format!("{name} ({procedure})"),
        None => procedure.to_string(),
    }
}

/// Table callback: `call_regular`, the decode → driver call → encode arm
/// of every regular row in one `match`, each expanded by the shared arm
/// expander once the remote program's class columns are stripped. `custom`
/// rows and numbers outside the table yield `None` and fall to the
/// hand-written arms.
macro_rules! regular_dispatch {
    (
        calls { $( ($num:literal, $name:ident, $doc:literal,
            $priority:ident, $retry:ident, $access:ident, $($shape:tt)+); )* }
        events { $($events:tt)* }
    ) => {
        fn call_regular(
            c: &dyn HypervisorConnection,
            procedure: u32,
            payload: &[u8],
        ) -> VirtResult<Option<Vec<u8>>> {
            Ok(Some(match procedure {
                $( $num => virt_core::procedure_arm!(protocol, c, payload, $($shape)+), )*
                _ => return Ok(None),
            }))
        }
    };
}

virt_core::remote_procedures!(regular_dispatch);

impl ProgramDispatcher for RemoteDispatcher {
    fn program(&self) -> u32 {
        REMOTE_PROGRAM
    }

    fn is_high_priority(&self, procedure: u32) -> bool {
        protocol::is_high_priority(procedure)
    }

    fn procedure_name(&self, procedure: u32) -> Option<&'static str> {
        proc::name(procedure)
    }

    fn dispatch(&self, client: &Arc<ClientHandle>, header: Header, payload: &[u8]) -> Packet {
        // Request id (client id + packet serial) threads through the
        // thread-local trace span so every log record emitted while this
        // call runs can be correlated back to the RPC.
        let _span = trace::enter(RequestId::new(client.id, header.serial));
        let (latency_us, proc_errors) = self.metrics.for_proc(header.procedure);
        self.metrics.totals.calls.inc();
        // One clock read at each end, shared by the latency histogram and
        // the slow-request check.
        let started = std::time::Instant::now();
        let result = self.handle(client, header, payload);
        let elapsed = started.elapsed();
        latency_us.record(elapsed);
        // Slow-request promotion: when the request ran over the recorder's
        // threshold, its stage breakdown graduates from the in-memory ring
        // into the structured log where it outlives the ring's churn.
        if let Some(report) =
            FlightRecorder::global().slow_report(span::current_trace_id(), elapsed)
        {
            self.logger.warning("daemon.trace", &report);
        }
        match result {
            Ok(reply_payload) => Packet {
                header: header.reply_ok(),
                payload: reply_payload,
            },
            Err(err) => {
                self.metrics.totals.errors.inc();
                proc_errors.inc();
                if err.code() == ErrorCode::AuthFailed {
                    self.metrics.totals.auth_failures.inc();
                }
                self.logger.warning(
                    "daemon.rpc",
                    &format!(
                        "client {} proc {} failed: {err}",
                        client.id,
                        describe(header.procedure)
                    ),
                );
                Packet::new(header.reply_error(), &err.to_rpc())
            }
        }
    }

    fn on_disconnect(&self, client_id: u64) {
        self.cleanup_session(client_id);
    }
}
