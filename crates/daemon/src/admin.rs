//! The administration interface: runtime management of the daemon itself.
//!
//! Before this interface, the only way to change a daemon's worker-pool
//! size, client limits, or logging verbosity was to edit the persistent
//! configuration file and restart — losing transient domain state and
//! dropping every client. The admin server makes those knobs live:
//!
//! - `srv-list` — enumerate the daemon's servers,
//! - `srv-threadpool-info/set` — inspect/resize worker pools,
//! - `srv-clients-info/set` — inspect/adjust client limits,
//! - `client-list`/`client-info`/`client-disconnect` — manage clients,
//! - `dmn-log-info`/`dmn-log-define` — reconfigure logging atomically,
//! - `metrics` — fetch the daemon-wide metric registry (counters,
//!   gauges, latency histograms), optionally in Prometheus text format.
//!
//! Both ends are generated from the `admin_procedures!` table in
//! `adminproto.rs` by the row expanders the remote program uses
//! (`virt_core::procedure_arm!`, `procedure_stub!`): a regular row's
//! handler is the `AdminDispatcher` method the row names, its
//! `AdminClient` stub is the row. Written by hand here are the arms and
//! stubs of the table's `custom` rows.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use virt_core::error::{ErrorCode, VirtError, VirtResult};
use virt_core::log::{LogLevel, LogSettings, Logger};
use virt_core::metrics::recorder::{FlightRecorder, RECORDER_CAPACITY};
use virt_core::protocol::decode_args;
use virt_core::typedparam::{TypedParamList, TypedParams};
use virt_rpc::message::{Header, Packet, ADMIN_PROGRAM};
use virt_rpc::transport::Transport;
use virt_rpc::xdr::XdrEncode;
use virt_rpc::{CallClient, PoolLimits, PoolStats};

use crate::adminproto::{self, admin_procedures, proc, WireMetric, WireTraceEvent};
use crate::server::{ClientHandle, ClientSnapshot, ProgramDispatcher, Server};

/// Dispatcher for [`ADMIN_PROGRAM`].
pub(crate) struct AdminDispatcher {
    servers: Mutex<HashMap<String, Arc<Server>>>,
    logger: Arc<Logger>,
    /// Daemon-wide metric registry served by the metrics procedures.
    registry: Arc<virt_core::metrics::Registry>,
}

/// Construction, and the handler of every regular row of the table: the
/// method the row names, with the arguments it names.
impl AdminDispatcher {
    /// Creates the dispatcher serving metrics from `registry`; servers
    /// are attached afterwards with [`AdminDispatcher::attach_server`]
    /// (the admin server manages itself too, so it cannot exist before
    /// its own dispatcher).
    pub(crate) fn with_registry(
        logger: Arc<Logger>,
        registry: Arc<virt_core::metrics::Registry>,
    ) -> Arc<Self> {
        Arc::new(AdminDispatcher {
            servers: Mutex::new(HashMap::new()),
            logger,
            registry,
        })
    }

    /// Registers a server under its name.
    pub(crate) fn attach_server(&self, server: Arc<Server>) {
        self.servers
            .lock()
            .insert(server.name().to_string(), server);
    }

    fn server(&self, name: &str) -> VirtResult<Arc<Server>> {
        self.servers
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| VirtError::new(ErrorCode::InvalidArg, format!("no server '{name}'")))
    }

    fn list_servers(&self) -> VirtResult<Vec<String>> {
        let mut names: Vec<String> = self.servers.lock().keys().cloned().collect();
        names.sort_unstable();
        Ok(names)
    }

    fn threadpool_info(&self, server: &str) -> VirtResult<PoolStats> {
        Ok(self.server(server)?.pool_stats())
    }

    fn client_list(&self, server: &str) -> VirtResult<Vec<ClientSnapshot>> {
        Ok(self.server(server)?.clients())
    }

    fn client_info(&self, server: &str, client: u64) -> VirtResult<ClientSnapshot> {
        self.client_list(server)?
            .into_iter()
            .find(|c| c.id == client)
            .ok_or_else(|| VirtError::new(ErrorCode::InvalidArg, format!("no client {client}")))
    }

    fn client_disconnect(&self, server: &str, client: u64) -> VirtResult<()> {
        if !self.server(server)?.disconnect_client(client) {
            return Err(VirtError::new(
                ErrorCode::InvalidArg,
                format!("no client {client}"),
            ));
        }
        self.logger.info(
            "daemon.admin",
            &format!("client {client} forcibly disconnected from '{server}'"),
        );
        Ok(())
    }

    fn client_limits(&self, server: &str) -> VirtResult<(u32, u32, u64)> {
        let server = self.server(server)?;
        Ok((
            server.max_clients(),
            server.client_count() as u32,
            server.refused_count(),
        ))
    }

    fn log_set_filters(&self, spec: &str) -> VirtResult<()> {
        let mut settings = (*self.logger.settings()).clone();
        settings.filters = LogSettings::parse_filters(spec)?;
        self.logger.redefine(settings)
    }

    fn log_set_outputs(&self, spec: &str) -> VirtResult<()> {
        let mut settings = (*self.logger.settings()).clone();
        settings.outputs = LogSettings::parse_outputs(spec)?;
        self.logger.redefine(settings)
    }

    fn metrics_list(&self) -> VirtResult<Vec<String>> {
        // Daemon metrics plus this process's client-side RPC
        // resilience counters (rpc.reconnect.*, rpc.retry.*).
        let mut names = self.registry.names();
        names.extend(virt_core::client_metrics().names());
        names.sort_unstable();
        names.dedup();
        Ok(names)
    }

    fn metrics(&self, prefix: &str) -> VirtResult<Vec<WireMetric>> {
        // One list, by name, as `metrics_list` gives it: a name in both
        // registries is the daemon's (the stable sort keeps it first).
        let mut snaps = self.registry.snapshot(prefix);
        snaps.extend(virt_core::client_metrics().snapshot(prefix));
        snaps.sort_by(|a, b| a.name.cmp(&b.name));
        snaps.dedup_by(|later, first| later.name == first.name);
        Ok(snaps.into_iter().map(WireMetric::from).collect())
    }

    fn trace_dump(&self, clear: bool) -> VirtResult<Vec<WireTraceEvent>> {
        let recorder = FlightRecorder::global();
        let events = if clear {
            recorder.drain_and_clear()
        } else {
            recorder.drain()
        };
        Ok(events.iter().map(WireTraceEvent::from).collect())
    }

    fn handle(&self, header: Header, payload: &[u8]) -> VirtResult<Vec<u8>> {
        if let Some(reply) = call_regular(self, header.procedure, payload)? {
            return Ok(reply);
        }

        // The table's `custom` rows.
        let reply = match header.procedure {
            proc::THREADPOOL_SET => {
                let args: adminproto::ServerParamsArgs = decode_args(payload)?;
                let server = self.server(&args.server)?;
                let params = &args.params.0;
                params.validate_fields(&[
                    adminproto::PARAM_WORKERS_MIN,
                    adminproto::PARAM_WORKERS_MAX,
                    adminproto::PARAM_WORKERS_PRIORITY,
                ])?;
                let current = server.pool_stats();
                let limits = PoolLimits {
                    min_workers: params
                        .get_uint(adminproto::PARAM_WORKERS_MIN)?
                        .unwrap_or(current.min_workers),
                    max_workers: params
                        .get_uint(adminproto::PARAM_WORKERS_MAX)?
                        .unwrap_or(current.max_workers),
                    priority_workers: params
                        .get_uint(adminproto::PARAM_WORKERS_PRIORITY)?
                        .unwrap_or(current.priority_workers),
                };
                server
                    .set_pool_limits(limits)
                    .map_err(|e| VirtError::new(ErrorCode::InvalidArg, e))?;
                self.logger.info(
                    "daemon.admin",
                    &format!(
                        "threadpool of '{}' set to min={} max={} prio={}",
                        args.server,
                        limits.min_workers,
                        limits.max_workers,
                        limits.priority_workers
                    ),
                );
                ().to_xdr()
            }
            proc::CLIENT_LIMITS_SET => {
                let args: adminproto::ServerParamsArgs = decode_args(payload)?;
                let server = self.server(&args.server)?;
                let params = &args.params.0;
                params.validate_fields(&[adminproto::PARAM_CLIENTS_MAX])?;
                if let Some(max) = params.get_uint(adminproto::PARAM_CLIENTS_MAX)? {
                    if max == 0 {
                        return Err(VirtError::new(
                            ErrorCode::InvalidArg,
                            "nclients_max must be > 0",
                        ));
                    }
                    server.set_max_clients(max);
                }
                ().to_xdr()
            }
            proc::LOG_INFO => {
                let settings = self.logger.settings();
                adminproto::WireLogInfo {
                    level: settings.level.as_u32(),
                    filters: settings.filters_string(),
                    outputs: settings.outputs_string(),
                }
                .to_xdr()
            }
            proc::LOG_SET_LEVEL => {
                let level: u32 = decode_args(payload)?;
                self.logger.set_level(LogLevel::try_from(level)?);
                ().to_xdr()
            }
            proc::TRACE_CONFIG => {
                let args: adminproto::TraceConfigArgs = decode_args(payload)?;
                let recorder = FlightRecorder::global();
                if let Some(enabled) = args.enabled {
                    recorder.set_enabled(enabled);
                    self.logger.info(
                        "daemon.trace",
                        if enabled {
                            "request tracing enabled"
                        } else {
                            "request tracing disabled"
                        },
                    );
                }
                if let Some(ms) = args.slow_threshold_ms {
                    recorder.set_slow_threshold(std::time::Duration::from_millis(ms));
                }
                adminproto::WireTraceConfig {
                    enabled: recorder.is_enabled(),
                    slow_threshold_ms: recorder.slow_threshold().as_millis() as u64,
                    recorded: recorder.recorded(),
                    capacity: RECORDER_CAPACITY as u64,
                }
                .to_xdr()
            }
            other => {
                return Err(VirtError::new(
                    ErrorCode::RpcFailure,
                    format!("unknown admin procedure {other}"),
                ))
            }
        };
        Ok(reply)
    }
}

/// Table callback: `call_regular`, the decode → handler → encode arm of
/// every regular row in one `match`, each expanded by the expander the
/// remote program's dispatcher uses. `custom` rows and numbers outside
/// the table yield `None` and fall to the hand-written arms.
macro_rules! admin_dispatch {
    (
        calls { $( ($num:literal, $name:ident, $doc:literal, $($shape:tt)+); )* }
        events { $($events:tt)* }
    ) => {
        fn call_regular(
            c: &AdminDispatcher,
            procedure: u32,
            payload: &[u8],
        ) -> VirtResult<Option<Vec<u8>>> {
            Ok(Some(match procedure {
                $( $num => virt_core::procedure_arm!(adminproto, c, payload, $($shape)+), )*
                _ => return Ok(None),
            }))
        }
    };
}

admin_procedures!(admin_dispatch);

impl ProgramDispatcher for AdminDispatcher {
    fn program(&self) -> u32 {
        ADMIN_PROGRAM
    }

    fn is_high_priority(&self, _procedure: u32) -> bool {
        // Every admin operation is under the daemon's full control.
        true
    }

    fn dispatch(&self, _client: &Arc<ClientHandle>, header: Header, payload: &[u8]) -> Packet {
        match self.handle(header, payload) {
            Ok(reply_payload) => Packet {
                header: header.reply_ok(),
                payload: reply_payload,
            },
            Err(err) => Packet::new(header.reply_error(), &err.to_rpc()),
        }
    }

    fn on_disconnect(&self, _client_id: u64) {}
}

/// A typed client for the admin protocol (the library behind
/// `vsh admin-*` commands).
#[derive(Debug, Clone)]
pub struct AdminClient {
    client: CallClient,
}

/// Table callback, invoked inside the `impl` below: the public stub of
/// every regular row — documented by the row's doc line; it fails as the
/// daemon's handler does (unknown server or client, malformed
/// specification) or with the RPC failure. `custom` rows expand to
/// nothing; their stubs are hand-written next to the invocation.
macro_rules! admin_stubs {
    (
        calls { $( ($num:literal, $name:ident, $doc:literal, $($shape:tt)+); )* }
        events { $($events:tt)* }
    ) => {
        $( virt_core::procedure_stub!(pub fn in adminproto, $doc, $name, $($shape)+); )*
    };
}

impl AdminClient {
    /// Wraps an established transport to a daemon's admin server.
    pub fn new(transport: impl Transport + 'static) -> Self {
        AdminClient {
            client: CallClient::new(transport),
        }
    }

    fn call<R: virt_rpc::xdr::XdrDecode>(
        &self,
        procedure: u32,
        args: &impl XdrEncode,
    ) -> VirtResult<R> {
        self.client
            .call::<R>(ADMIN_PROGRAM, procedure, args)
            .map_err(VirtError::from)
    }

    admin_procedures!(admin_stubs);

    /// Adjusts worker-pool limits via typed parameters.
    ///
    /// # Errors
    ///
    /// Invalid parameters; unknown server.
    pub fn threadpool_set(
        &self,
        server: &str,
        params: Vec<virt_core::TypedParam>,
    ) -> VirtResult<()> {
        self.call(
            proc::THREADPOOL_SET,
            &adminproto::ServerParamsArgs {
                server: server.to_string(),
                params: TypedParamList(params),
            },
        )
    }

    /// Sets the client limit.
    ///
    /// # Errors
    ///
    /// Invalid limit; unknown server.
    pub fn set_max_clients(&self, server: &str, max: u32) -> VirtResult<()> {
        self.call(
            proc::CLIENT_LIMITS_SET,
            &adminproto::ServerParamsArgs {
                server: server.to_string(),
                params: TypedParamList(vec![virt_core::TypedParam::uint(
                    adminproto::PARAM_CLIENTS_MAX,
                    max,
                )]),
            },
        )
    }

    /// Current logging settings: `(level, filters, outputs)` strings.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn log_info(&self) -> VirtResult<(LogLevel, String, String)> {
        let wire: adminproto::WireLogInfo = self.call(proc::LOG_INFO, &())?;
        Ok((LogLevel::try_from(wire.level)?, wire.filters, wire.outputs))
    }

    /// Sets the global logging level.
    ///
    /// # Errors
    ///
    /// Invalid level.
    pub fn log_set_level(&self, level: LogLevel) -> VirtResult<()> {
        self.call(proc::LOG_SET_LEVEL, &level.as_u32())
    }

    /// Reads or updates the daemon's flight-recorder configuration:
    /// `None` fields leave the current value in place, so passing both
    /// as `None` is a pure read. Returns the resulting configuration.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn trace_config(
        &self,
        enabled: Option<bool>,
        slow_threshold_ms: Option<u64>,
    ) -> VirtResult<adminproto::WireTraceConfig> {
        self.call(
            proc::TRACE_CONFIG,
            &adminproto::TraceConfigArgs {
                enabled,
                slow_threshold_ms,
            },
        )
    }

    /// Closes the admin connection.
    pub fn close(&self) {
        self.client.close();
    }
}
