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

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use virt_core::error::{ErrorCode, VirtError, VirtResult};
use virt_core::log::{LogLevel, LogSettings, Logger};
use virt_core::typedparam::{TypedParamList, TypedParams};
use virt_rpc::message::{Header, Packet, ADMIN_PROGRAM};
use virt_rpc::transport::Transport;
use virt_rpc::xdr::XdrEncode;
use virt_rpc::{CallClient, PoolLimits, PoolStats};

use crate::adminproto::{self, proc};
use crate::server::{ClientHandle, ClientSnapshot, ProgramDispatcher, Server};

/// Dispatcher for [`ADMIN_PROGRAM`].
pub struct AdminDispatcher {
    servers: Mutex<HashMap<String, Arc<Server>>>,
    logger: Arc<Logger>,
    /// Daemon-wide metric registry served by the metrics procedures.
    registry: Arc<virt_core::metrics::Registry>,
}

impl AdminDispatcher {
    /// Creates the dispatcher; servers are attached afterwards with
    /// [`AdminDispatcher::attach_server`] (the admin server manages
    /// itself too, so it cannot exist before its own dispatcher).
    pub fn new(logger: Arc<Logger>) -> Arc<Self> {
        Self::with_registry(logger, Arc::new(virt_core::metrics::Registry::new()))
    }

    /// Creates the dispatcher serving metrics from `registry`.
    pub fn with_registry(
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
    pub fn attach_server(&self, server: Arc<Server>) {
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

    fn handle(&self, header: Header, payload: &[u8]) -> VirtResult<Vec<u8>> {
        let reply = match header.procedure {
            proc::SRV_LIST => {
                let mut names: Vec<String> = self.servers.lock().keys().cloned().collect();
                names.sort_unstable();
                names.to_xdr()
            }
            proc::THREADPOOL_INFO => {
                let args: adminproto::ServerArgs = decode(payload)?;
                self.server(&args.server)?.pool_stats().to_xdr()
            }
            proc::THREADPOOL_SET => {
                let args: adminproto::ServerParamsArgs = decode(payload)?;
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
            proc::CLIENT_LIST => {
                let args: adminproto::ServerArgs = decode(payload)?;
                self.server(&args.server)?.clients().to_xdr()
            }
            proc::CLIENT_INFO => {
                let args: adminproto::ClientArgs = decode(payload)?;
                let server = self.server(&args.server)?;
                server
                    .clients()
                    .into_iter()
                    .find(|c| c.id == args.client)
                    .ok_or_else(|| {
                        VirtError::new(ErrorCode::InvalidArg, format!("no client {}", args.client))
                    })?
                    .to_xdr()
            }
            proc::CLIENT_DISCONNECT => {
                let args: adminproto::ClientArgs = decode(payload)?;
                let server = self.server(&args.server)?;
                if !server.disconnect_client(args.client) {
                    return Err(VirtError::new(
                        ErrorCode::InvalidArg,
                        format!("no client {}", args.client),
                    ));
                }
                self.logger.info(
                    "daemon.admin",
                    &format!(
                        "client {} forcibly disconnected from '{}'",
                        args.client, args.server
                    ),
                );
                ().to_xdr()
            }
            proc::CLIENT_LIMITS_INFO => {
                let args: adminproto::ServerArgs = decode(payload)?;
                let server = self.server(&args.server)?;
                adminproto::WireClientLimits {
                    max_clients: server.max_clients(),
                    current_clients: server.client_count() as u32,
                    refused: server.refused_count(),
                }
                .to_xdr()
            }
            proc::CLIENT_LIMITS_SET => {
                let args: adminproto::ServerParamsArgs = decode(payload)?;
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
                    level: settings.level.as_number(),
                    filters: settings.filters_string(),
                    outputs: settings.outputs_string(),
                }
                .to_xdr()
            }
            proc::LOG_SET_LEVEL => {
                let level: u32 = decode(payload)?;
                self.logger.set_level(LogLevel::from_number(level)?);
                ().to_xdr()
            }
            proc::LOG_SET_FILTERS => {
                let filters: String = decode(payload)?;
                let parsed = LogSettings::parse_filters(&filters)?;
                let mut settings = (*self.logger.settings()).clone();
                settings.filters = parsed;
                self.logger.redefine(settings)?;
                ().to_xdr()
            }
            proc::LOG_SET_OUTPUTS => {
                let outputs: String = decode(payload)?;
                let parsed = LogSettings::parse_outputs(&outputs)?;
                let mut settings = (*self.logger.settings()).clone();
                settings.outputs = parsed;
                self.logger.redefine(settings)?;
                ().to_xdr()
            }
            proc::METRICS_LIST => {
                // Daemon metrics plus this process's client-side RPC
                // resilience counters (rpc.reconnect.*, rpc.retry.*).
                let mut names = self.registry.names();
                names.extend(virt_core::client_metrics().names());
                names.sort_unstable();
                names.dedup();
                names.to_xdr()
            }
            proc::METRICS_FETCH => {
                let args: adminproto::MetricsFetchArgs = decode(payload)?;
                let mut snaps = self.registry.snapshot(&args.prefix);
                snaps.extend(virt_core::client_metrics().snapshot(&args.prefix));
                let wire: Vec<_> = snaps
                    .into_iter()
                    .map(adminproto::WireMetric::from)
                    .collect();
                wire.to_xdr()
            }
            proc::TRACE_CONFIG => {
                let args: adminproto::TraceConfigArgs = decode(payload)?;
                let recorder = virt_core::metrics::recorder::FlightRecorder::global();
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
                    capacity: virt_core::metrics::recorder::RECORDER_CAPACITY as u64,
                }
                .to_xdr()
            }
            proc::TRACE_DUMP => {
                let args: adminproto::TraceDumpArgs = decode(payload)?;
                let recorder = virt_core::metrics::recorder::FlightRecorder::global();
                let events = recorder.drain();
                if args.clear {
                    recorder.clear();
                }
                let wire: Vec<_> = events
                    .iter()
                    .map(adminproto::WireTraceEvent::from)
                    .collect();
                wire.to_xdr()
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

fn decode<T: virt_rpc::xdr::XdrDecode>(payload: &[u8]) -> VirtResult<T> {
    T::from_xdr(payload)
        .map_err(|e| VirtError::new(ErrorCode::RpcFailure, format!("bad arguments: {e}")))
}

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

    /// Names of the daemon's servers.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn list_servers(&self) -> VirtResult<Vec<String>> {
        self.call(proc::SRV_LIST, &())
    }

    /// Worker-pool statistics of a server.
    ///
    /// # Errors
    ///
    /// Unknown server; RPC failures.
    pub fn threadpool_info(&self, server: &str) -> VirtResult<PoolStats> {
        self.call(
            proc::THREADPOOL_INFO,
            &adminproto::ServerArgs {
                server: server.to_string(),
            },
        )
    }

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

    /// Clients connected to a server.
    ///
    /// # Errors
    ///
    /// Unknown server.
    pub fn client_list(&self, server: &str) -> VirtResult<Vec<ClientSnapshot>> {
        self.call(
            proc::CLIENT_LIST,
            &adminproto::ServerArgs {
                server: server.to_string(),
            },
        )
    }

    /// Identity details of one client.
    ///
    /// # Errors
    ///
    /// Unknown server or client.
    pub fn client_info(&self, server: &str, client: u64) -> VirtResult<ClientSnapshot> {
        self.call(
            proc::CLIENT_INFO,
            &adminproto::ClientArgs {
                server: server.to_string(),
                client,
            },
        )
    }

    /// Forcefully closes a client's connection.
    ///
    /// # Errors
    ///
    /// Unknown server or client.
    pub fn client_disconnect(&self, server: &str, client: u64) -> VirtResult<()> {
        self.call(
            proc::CLIENT_DISCONNECT,
            &adminproto::ClientArgs {
                server: server.to_string(),
                client,
            },
        )
    }

    /// Client-limit statistics: `(max, current, refused)`.
    ///
    /// # Errors
    ///
    /// Unknown server.
    pub fn client_limits(&self, server: &str) -> VirtResult<(u32, u32, u64)> {
        let wire: adminproto::WireClientLimits = self.call(
            proc::CLIENT_LIMITS_INFO,
            &adminproto::ServerArgs {
                server: server.to_string(),
            },
        )?;
        Ok((wire.max_clients, wire.current_clients, wire.refused))
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
        Ok((
            LogLevel::from_number(wire.level)?,
            wire.filters,
            wire.outputs,
        ))
    }

    /// Sets the global logging level.
    ///
    /// # Errors
    ///
    /// Invalid level.
    pub fn log_set_level(&self, level: LogLevel) -> VirtResult<()> {
        self.call(proc::LOG_SET_LEVEL, &level.as_number())
    }

    /// Replaces the filter set (space-separated `level:module` entries).
    ///
    /// # Errors
    ///
    /// Malformed filters — nothing is applied partially.
    pub fn log_set_filters(&self, filters: &str) -> VirtResult<()> {
        self.call(proc::LOG_SET_FILTERS, &filters.to_string())
    }

    /// Replaces the output set (space-separated `level:kind[:data]`).
    ///
    /// # Errors
    ///
    /// Malformed outputs — nothing is applied partially.
    pub fn log_set_outputs(&self, outputs: &str) -> VirtResult<()> {
        self.call(proc::LOG_SET_OUTPUTS, &outputs.to_string())
    }

    /// Names of all registered metrics.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn metrics_list(&self) -> VirtResult<Vec<String>> {
        self.call(proc::METRICS_LIST, &())
    }

    /// Snapshot of the daemon's metrics; `prefix` filters by metric
    /// name, empty fetches everything.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn metrics(&self, prefix: &str) -> VirtResult<Vec<adminproto::WireMetric>> {
        self.call(
            proc::METRICS_FETCH,
            &adminproto::MetricsFetchArgs {
                prefix: prefix.to_string(),
            },
        )
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

    /// Drains the daemon's flight recorder, optionally clearing it.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn trace_dump(&self, clear: bool) -> VirtResult<Vec<adminproto::WireTraceEvent>> {
        self.call(proc::TRACE_DUMP, &adminproto::TraceDumpArgs { clear })
    }

    /// Closes the admin connection.
    pub fn close(&self) {
        self.client.close();
    }
}
