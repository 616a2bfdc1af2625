//! Wire definitions of the administration protocol.
//!
//! The admin program manages the daemon itself rather than any
//! hypervisor: servers, worker pools, connected clients, and logging.
//! Settable quantities travel as typed-parameter lists so the protocol
//! can grow fields without breaking compatibility.
//!
//! A procedure is described once, in the `admin_procedures!` table: its
//! number, name, doc line, method, argument struct and reply shape. The
//! daemon's dispatch arms and the `AdminClient` stubs are generated from
//! the rows (`admin.rs`); only the rows marked `custom` are written by
//! hand, and each says why.
//!
//! A reply record is defined once: `PoolStats` and `ClientSnapshot` are
//! the API structs and, by one `xdr_fields!` line each, their own wire
//! form. The `Wire*` structs that remain differ from what they carry —
//! an enum flattened into scalar fields ([`WireMetric`]), discriminants
//! that a newer daemon may extend ([`WireTraceEvent`]) — or back a method
//! that returns a tuple ([`WireClientLimits`], [`WireLogInfo`]). List
//! replies are a `Vec` of the record type, encoded by the one list codec
//! in `virt_rpc::xdr`.

use virt_core::typedparam::TypedParamList;
use virt_rpc::{xdr_fields, xdr_struct};

use crate::server::ClientSnapshot;

/// The admin program, one row per procedure. `admin_procedures!(cb)`
/// hands the table to the callback macro `cb`; the constants and name
/// table below, the dispatch arms of `AdminDispatcher` and the stubs of
/// `AdminClient` are generated from it.
///
/// A row reads: number, NAME, doc line (what the procedure does — its
/// signature is the columns), then either the word `custom` — stub and
/// arm are written by hand in `admin.rs`, and the comment above the row
/// says why — or the method with its arguments (the name of both the
/// `AdminClient` stub and the `AdminDispatcher` handler), the wire
/// argument struct (`()` for none; argument names are its field names)
/// and the reply shape: `unit`, `plain(T)` for a `T` that is its own wire
/// form, `wire(WireX, X)` for an `X` whose wire form differs. Argument
/// type `str` is `&str` in the method and `String` on the wire.
///
/// There are no class columns, because each would hold one value. Every
/// admin procedure is answered inline (`is_high_priority` is constantly
/// `true`: the daemon must stay manageable when its workers are wedged).
/// `AdminClient` rides a plain `CallClient` and never retries. And there
/// is no access column: the admin program has no OPEN or AUTH, and
/// `ClientIdentity.readonly` is written only by the remote dispatcher's
/// OPEN, so every admin connection has the same rights — whoever may
/// connect to the admin socket may call all of it.
///
/// Numbers are stable on the wire — never reuse one.
macro_rules! admin_procedures {
    ($callback:ident) => {
        $callback! {
            calls {
                (1, SRV_LIST, "Names of the daemon's servers, sorted.",
                    list_servers(), (), plain(Vec<String>));
                (2, THREADPOOL_INFO, "Worker-pool statistics of a server.",
                    threadpool_info(server: str), ServerArgs, plain(PoolStats));
                // The stub takes a bare `Vec<TypedParam>`, not the wire's list type.
                (3, THREADPOOL_SET, "Adjust a server's worker-pool limits via typed parameters.",
                    custom);
                (4, CLIENT_LIST, "Clients connected to a server.",
                    client_list(server: str), ServerArgs, plain(Vec<ClientSnapshot>));
                (5, CLIENT_INFO, "Identity details of one client.",
                    client_info(server: str, client: u64), ClientArgs, plain(ClientSnapshot));
                (6, CLIENT_DISCONNECT, "Forcefully close a client's connection.",
                    client_disconnect(server: str, client: u64), ClientArgs, unit);
                (7, CLIENT_LIMITS_INFO,
                    "Client-limit statistics of a server: `(max, current, refused)`.",
                    client_limits(server: str), ServerArgs,
                    wire(WireClientLimits, (u32, u32, u64)));
                // The stub takes the limit and builds the one-parameter list.
                (8, CLIENT_LIMITS_SET, "Adjust a server's client limit via typed parameters.",
                    custom);
                // The stub's `LogLevel` is a fallible conversion of the wire's number.
                (9, LOG_INFO, "Current logging settings: level, filters, outputs.", custom);
                // The stub takes a `LogLevel`; the wire carries its number, bare.
                (10, LOG_SET_LEVEL, "Set the global logging level.", custom);
                (11, LOG_SET_FILTERS,
                    "Replace the logging filter set (`level:module` entries), all or nothing.",
                    log_set_filters(spec: str), LogSpecArgs, unit);
                (12, LOG_SET_OUTPUTS,
                    "Replace the logging output set (`level:kind[:data]` entries), all or nothing.",
                    log_set_outputs(spec: str), LogSpecArgs, unit);
                (13, METRICS_LIST, "Names of all registered metrics, sorted.",
                    metrics_list(), (), plain(Vec<String>));
                (14, METRICS_FETCH,
                    "Snapshot of the metrics whose name starts with `prefix` (all if empty), by name.",
                    metrics(prefix: str), MetricsFetchArgs, plain(Vec<WireMetric>));
                // `Option` arguments: absent fields leave the setting as it is.
                (15, TRACE_CONFIG, "Read or change the flight recorder's settings.", custom);
                (16, TRACE_DUMP,
                    "The flight recorder's events, oldest first; `clear` forgets exactly those.",
                    trace_dump(clear: bool), TraceDumpArgs, plain(Vec<WireTraceEvent>));
            }
            events {}
        }
    };
}
pub(crate) use admin_procedures;

/// Procedure numbers of the admin program.
pub mod proc {
    use virt_core::procedure_numbers;

    admin_procedures!(procedure_numbers);
}

// Reply records that are their own wire form: the fields in wire order.
// `PoolStats` (`THREADPOOL_INFO`) is one too; its line is in
// `virt_rpc::pool`, the crate that owns the type.
xdr_fields!(ClientSnapshot {
    id,
    transport,
    peer,
    connected_secs,
    session_secs,
    username,
    readonly,
});

/// Typed-parameter field: minimum ordinary workers.
pub const PARAM_WORKERS_MIN: &str = "minWorkers";
/// Typed-parameter field: maximum ordinary workers.
pub const PARAM_WORKERS_MAX: &str = "maxWorkers";
/// Typed-parameter field: priority workers.
pub const PARAM_WORKERS_PRIORITY: &str = "prioWorkers";
/// Typed-parameter field: maximum connected clients.
pub const PARAM_CLIENTS_MAX: &str = "nclients_max";

xdr_struct! {
    /// Argument naming a server.
    pub struct ServerArgs {
        /// Server name (`virtd`, `admin`).
        pub server: String,
    }
}

xdr_struct! {
    /// Argument naming a server and a client id.
    pub struct ClientArgs {
        /// Server name.
        pub server: String,
        /// Client id on that server.
        pub client: u64,
    }
}

xdr_struct! {
    /// Typed-parameter update for a server.
    pub struct ServerParamsArgs {
        /// Server name.
        pub server: String,
        /// Parameters to apply.
        pub params: TypedParamList,
    }
}

xdr_struct! {
    /// Client-limit statistics.
    pub struct WireClientLimits {
        /// Configured maximum.
        pub max_clients: u32,
        /// Currently connected.
        pub current_clients: u32,
        /// Connections refused so far.
        pub refused: u64,
    }
}

impl From<&(u32, u32, u64)> for WireClientLimits {
    fn from(&(max_clients, current_clients, refused): &(u32, u32, u64)) -> Self {
        WireClientLimits {
            max_clients,
            current_clients,
            refused,
        }
    }
}

impl From<WireClientLimits> for (u32, u32, u64) {
    fn from(wire: WireClientLimits) -> Self {
        (wire.max_clients, wire.current_clients, wire.refused)
    }
}

xdr_struct! {
    /// Argument carrying a logging filter or output specification — on
    /// the wire, the one string.
    pub struct LogSpecArgs {
        /// Space-separated `level:module` or `level:kind[:data]` entries.
        pub spec: String,
    }
}

xdr_struct! {
    /// Argument selecting metrics to fetch.
    pub struct MetricsFetchArgs {
        /// Only metrics whose name starts with this prefix; empty for all.
        pub prefix: String,
    }
}

/// Discriminant of [`WireMetric::kind`]: counter.
pub const METRIC_KIND_COUNTER: u32 = 0;
/// Discriminant of [`WireMetric::kind`]: gauge.
const METRIC_KIND_GAUGE: u32 = 1;
/// Discriminant of [`WireMetric::kind`]: histogram.
pub const METRIC_KIND_HISTOGRAM: u32 = 2;

xdr_struct! {
    /// One metric snapshot on the wire.
    ///
    /// `value` carries the counter or gauge value; histograms leave it
    /// zero and fill `hist_count`, `hist_sum_ns` and `hist_buckets`
    /// (per-bucket counts in log₂-µs bucket order).
    pub struct WireMetric {
        /// Registered metric name.
        pub name: String,
        /// Human-readable help text.
        pub help: String,
        /// [`METRIC_KIND_COUNTER`], [`METRIC_KIND_GAUGE`] or
        /// [`METRIC_KIND_HISTOGRAM`].
        pub kind: u32,
        /// Counter/gauge value; zero for histograms.
        pub value: u64,
        /// Histogram observation count; zero otherwise.
        pub hist_count: u64,
        /// Histogram total of observed nanoseconds; zero otherwise.
        pub hist_sum_ns: u64,
        /// Histogram per-bucket counts; empty otherwise.
        pub hist_buckets: Vec<u64>,
    }
}

impl From<virt_core::metrics::MetricSnapshot> for WireMetric {
    fn from(snap: virt_core::metrics::MetricSnapshot) -> Self {
        use virt_core::metrics::MetricValue;
        let (kind, value, hist_count, hist_sum_ns, hist_buckets) = match snap.value {
            MetricValue::Counter(v) => (METRIC_KIND_COUNTER, v, 0, 0, Vec::new()),
            MetricValue::Gauge(v) => (METRIC_KIND_GAUGE, v, 0, 0, Vec::new()),
            MetricValue::Histogram(h) => (METRIC_KIND_HISTOGRAM, 0, h.count, h.sum_ns, h.buckets),
        };
        WireMetric {
            name: snap.name,
            help: snap.help,
            kind,
            value,
            hist_count,
            hist_sum_ns,
            hist_buckets,
        }
    }
}

impl From<WireMetric> for virt_core::metrics::MetricSnapshot {
    fn from(wire: WireMetric) -> Self {
        use virt_core::metrics::{HistogramSnapshot, MetricValue};
        let value = match wire.kind {
            METRIC_KIND_GAUGE => MetricValue::Gauge(wire.value),
            METRIC_KIND_HISTOGRAM => MetricValue::Histogram(HistogramSnapshot {
                count: wire.hist_count,
                sum_ns: wire.hist_sum_ns,
                buckets: wire.hist_buckets,
            }),
            // Unknown kinds from a newer daemon degrade to a counter.
            _ => MetricValue::Counter(wire.value),
        };
        virt_core::metrics::MetricSnapshot {
            name: wire.name,
            help: wire.help,
            value,
        }
    }
}

xdr_struct! {
    /// Flight-recorder settings update: absent fields leave the current
    /// value untouched, so `TRACE_CONFIG` with both fields absent reads
    /// the configuration without changing it.
    pub struct TraceConfigArgs {
        /// Turn request tracing on or off.
        pub enabled: Option<bool>,
        /// Slow-request promotion threshold in milliseconds; 0 disables
        /// promotion.
        pub slow_threshold_ms: Option<u64>,
    }
}

xdr_struct! {
    /// The flight recorder's current configuration.
    pub struct WireTraceConfig {
        /// Whether tracing is recording.
        pub enabled: bool,
        /// Slow-request promotion threshold in milliseconds (0 = off).
        pub slow_threshold_ms: u64,
        /// Events recorded since the daemon started (monotonic; the ring
        /// holds only the newest).
        pub recorded: u64,
        /// Ring capacity in events.
        pub capacity: u64,
    }
}

xdr_struct! {
    /// Arguments for draining the flight recorder.
    pub struct TraceDumpArgs {
        /// Also forget the events this reply returns, so that each comes
        /// out of exactly one dump.
        pub clear: bool,
    }
}

xdr_struct! {
    /// One flight-recorder event on the wire.
    pub struct WireTraceEvent {
        /// Trace id shared by the whole request.
        pub trace_id: u64,
        /// This span's id.
        pub span_id: u64,
        /// Parent span id, 0 at the root.
        pub parent_id: u64,
        /// Stage discriminant ([`virt_core::metrics::span::Stage`]).
        pub stage: u32,
        /// 0 = begin, 1 = end.
        pub phase: u32,
        /// Event time, ns on the daemon's trace clock.
        pub t_ns: u64,
        /// Span duration in ns (end events; 0 on begin).
        pub dur_ns: u64,
        /// Stage-specific detail (procedure number, slice iteration, …).
        pub detail: u64,
    }
}

impl From<&virt_core::metrics::recorder::TraceEvent> for WireTraceEvent {
    fn from(e: &virt_core::metrics::recorder::TraceEvent) -> Self {
        WireTraceEvent {
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_id: e.parent_id,
            stage: e.stage.as_u32(),
            phase: e.phase.as_u32(),
            t_ns: e.t_ns,
            dur_ns: e.dur_ns,
            detail: e.detail,
        }
    }
}

impl WireTraceEvent {
    /// Decodes into a recorder event, dropping unknown stages/phases
    /// (a newer daemon may emit kinds this client predates).
    pub fn into_event(self) -> Option<virt_core::metrics::recorder::TraceEvent> {
        use virt_core::metrics::recorder::EventPhase;
        use virt_core::metrics::span::Stage;
        Some(virt_core::metrics::recorder::TraceEvent {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            stage: Stage::from_u32(self.stage)?,
            phase: EventPhase::from_u32(self.phase)?,
            t_ns: self.t_ns,
            dur_ns: self.dur_ns,
            detail: self.detail,
        })
    }
}

xdr_struct! {
    /// Complete logging settings snapshot.
    pub struct WireLogInfo {
        /// Global level (1–4).
        pub level: u32,
        /// Space-separated filter list.
        pub filters: String,
        /// Space-separated output list.
        pub outputs: String,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virt_core::typedparam::TypedParam;
    use virt_rpc::xdr::{XdrDecode, XdrEncode};
    use virt_rpc::PoolStats;

    /// Table callback: each row's name, doc line and whether it is `custom`.
    macro_rules! table_rows {
        (@custom custom) => { true };
        (@custom $($regular:tt)+) => { false };
        (
            calls { $( ($num:literal, $name:ident, $doc:literal, $($shape:tt)+); )* }
            events {}
        ) => {
            const ROWS: &[(&str, &str, bool)] =
                &[ $( (stringify!($name), $doc, table_rows!(@custom $($shape)+)), )* ];
        };
    }
    admin_procedures!(table_rows);

    #[test]
    fn custom_rows_are_the_named_few() {
        // A row is `custom` because the public stub's signature is not the
        // wire's (the reason is the comment above the row). A new one is a
        // reviewed decision: it is written by hand twice, and the body
        // fuzzer cannot read its grammar off the table.
        let custom: Vec<&str> = ROWS.iter().filter(|r| r.2).map(|r| r.0).collect();
        assert_eq!(
            custom,
            [
                "THREADPOOL_SET",
                "CLIENT_LIMITS_SET",
                "LOG_INFO",
                "LOG_SET_LEVEL",
                "TRACE_CONFIG"
            ]
        );
        assert_eq!(ROWS.len(), proc::ALL.len());
    }

    #[test]
    fn doc_lines_say_what_not_how() {
        // The signature is the columns; a doc line restating it in prose
        // ("`ServerArgs` → `PoolStats`") is a second description to drift.
        for (name, doc, _) in ROWS {
            assert!(!doc.contains('→'), "{name}: {doc}");
        }
    }

    #[test]
    fn pool_stats_round_trip() {
        let stats = PoolStats {
            min_workers: 5,
            max_workers: 20,
            current_workers: 7,
            free_workers: 3,
            priority_workers: 5,
            job_queue_depth: 12,
        };
        let back = PoolStats::from_xdr(&stats.to_xdr()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn client_list_round_trip() {
        let list = vec![ClientSnapshot {
            id: 3,
            transport: "tcp".into(),
            peer: "10.0.0.1:4444".into(),
            connected_secs: 1_700_000_000,
            session_secs: 42,
            username: "admin".into(),
            readonly: true,
        }];
        let decoded = Vec::<ClientSnapshot>::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
    }

    #[test]
    fn metric_list_round_trip() {
        let list = vec![
            WireMetric {
                name: "rpc.calls".into(),
                help: "Total RPC calls dispatched".into(),
                kind: METRIC_KIND_COUNTER,
                value: 17,
                hist_count: 0,
                hist_sum_ns: 0,
                hist_buckets: Vec::new(),
            },
            WireMetric {
                name: "pool.virtd.wait_us".into(),
                help: "Job queue wait time".into(),
                kind: METRIC_KIND_HISTOGRAM,
                value: 0,
                hist_count: 3,
                hist_sum_ns: 9_000,
                hist_buckets: vec![0, 1, 2, 0],
            },
        ];
        let decoded = Vec::<WireMetric>::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
    }

    #[test]
    fn wire_metric_from_snapshot() {
        use virt_core::metrics::Registry;
        let registry = Registry::new();
        registry.counter("x.hits", "hits").add(5);
        let snaps = registry.snapshot("");
        let wire: Vec<WireMetric> = snaps.into_iter().map(WireMetric::from).collect();
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0].name, "x.hits");
        assert_eq!(wire[0].kind, METRIC_KIND_COUNTER);
        assert_eq!(wire[0].value, 5);
    }

    #[test]
    fn server_params_round_trip() {
        let args = ServerParamsArgs {
            server: "virtd".into(),
            params: TypedParamList(vec![
                TypedParam::uint(PARAM_WORKERS_MIN, 5),
                TypedParam::uint(PARAM_WORKERS_MAX, 40),
            ]),
        };
        let decoded = ServerParamsArgs::from_xdr(&args.to_xdr()).unwrap();
        assert_eq!(decoded, args);
    }

    #[test]
    fn trace_structs_round_trip() {
        let args = TraceConfigArgs {
            enabled: Some(true),
            slow_threshold_ms: None,
        };
        assert_eq!(TraceConfigArgs::from_xdr(&args.to_xdr()).unwrap(), args);

        let config = WireTraceConfig {
            enabled: true,
            slow_threshold_ms: 250,
            recorded: 9001,
            capacity: 4096,
        };
        assert_eq!(WireTraceConfig::from_xdr(&config.to_xdr()).unwrap(), config);

        let list = vec![WireTraceEvent {
            trace_id: 0xaa,
            span_id: 0xbb,
            parent_id: 0,
            stage: 4,
            phase: 1,
            t_ns: 123,
            dur_ns: 456,
            detail: 7,
        }];
        let decoded = Vec::<WireTraceEvent>::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
        let event = decoded[0].clone().into_event().unwrap();
        assert_eq!(event.stage, virt_core::metrics::span::Stage::Dispatch);
        assert_eq!(event.dur_ns, 456);
        // Unknown stage discriminants are dropped, not mis-decoded.
        let unknown = WireTraceEvent {
            stage: 99,
            ..list[0].clone()
        };
        assert!(unknown.into_event().is_none());
    }

    #[test]
    fn log_info_round_trip() {
        let info = WireLogInfo {
            level: 4,
            filters: "1:rpc 3:util".into(),
            outputs: "1:buffer".into(),
        };
        let decoded = WireLogInfo::from_xdr(&info.to_xdr()).unwrap();
        assert_eq!(decoded, info);
    }
}
