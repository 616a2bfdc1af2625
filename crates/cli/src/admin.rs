//! The `vadm` console client — daemon administration commands.
//!
//! Mirrors the `vsh` structure: [`run_admin`] takes arguments and an
//! output sink. The daemon's admin server is reached over a Unix socket
//! given with `-s`/`--socket` or the `VIRT_ADMIN_SOCKET` environment
//! variable.
//!
//! ```text
//! vadm [-s SOCKET] <command> [args...]
//! ```

use std::io::Write;

use virt_core::log::LogLevel;
use virt_core::{ErrorCode, TypedParam, VirtError, VirtResult};
use virt_rpc::transport::UnixTransport;
use virtd::adminproto::{
    proc, PARAM_CLIENTS_MAX, PARAM_WORKERS_MAX, PARAM_WORKERS_MIN, PARAM_WORKERS_PRIORITY,
};
use virtd::AdminClient;

#[derive(Clone, Copy, PartialEq)]
enum Group {
    Monitoring,
    Management,
}
use Group::{Management, Monitoring};

/// Every command, in `help` order within its group: its name (two words
/// for the `trace` family), the arguments `help` prints after it, whether
/// it only looks or changes the daemon, and the admin procedures it puts
/// on the command line. `help` and the unknown-command check are derived
/// from this list, and a test holds its last column to the admin table:
/// every procedure is reachable from some command. The handlers are the
/// arms of [`execute`].
#[rustfmt::skip] // one row per command
const COMMANDS: &[(&str, &str, Group, &[u32])] = &[
    ("srv-list", "", Monitoring, &[proc::SRV_LIST]),
    ("srv-threadpool-info", "<server>", Monitoring, &[proc::THREADPOOL_INFO]),
    ("srv-clients-info", "<server>", Monitoring, &[proc::CLIENT_LIMITS_INFO]),
    ("client-list", "<server>", Monitoring, &[proc::CLIENT_LIST]),
    ("client-info", "<server> <id>", Monitoring, &[proc::CLIENT_INFO]),
    ("dmn-log-info", "", Monitoring, &[proc::LOG_INFO]),
    // `METRICS_LIST` has no command of its own — the fetch returns the
    // names with the values — so it is accounted for here.
    ("metrics", "[--prometheus] [--buckets] [prefix]", Monitoring,
        &[proc::METRICS_FETCH, proc::METRICS_LIST]),
    ("trace status", "", Monitoring, &[proc::TRACE_CONFIG]),
    ("trace dump", "[--chrome] [--clear]", Monitoring, &[proc::TRACE_DUMP]),
    ("trace tail", "[--count N]", Monitoring, &[proc::TRACE_DUMP]),
    ("srv-threadpool-set", "<server> [--min-workers N] [--max-workers N] [--prio-workers N]",
        Management, &[proc::THREADPOOL_SET]),
    ("srv-clients-set", "<server> --max-clients N", Management, &[proc::CLIENT_LIMITS_SET]),
    ("client-disconnect", "<server> <id>", Management, &[proc::CLIENT_DISCONNECT]),
    ("dmn-log-define", "[--level 1-4] [--filters \"L:mod ...\"] [--outputs \"L:kind ...\"]",
        Management, &[proc::LOG_SET_LEVEL, proc::LOG_SET_FILTERS, proc::LOG_SET_OUTPUTS]),
    ("trace on", "[--threshold-ms N]", Management, &[proc::TRACE_CONFIG]),
    ("trace off", "", Management, &[proc::TRACE_CONFIG]),
];

/// Executes one admin command line; returns the process exit code.
pub fn run_admin(args: &[String], out: &mut dyn Write) -> i32 {
    match dispatch(args, out) {
        Ok(()) => 0,
        Err(err) => {
            let _ = writeln!(out, "error: {err}");
            1
        }
    }
}

fn invalid(msg: &str) -> VirtError {
    VirtError::new(ErrorCode::InvalidArg, msg)
}

fn w(out: &mut dyn Write, line: &str) {
    let _ = writeln!(out, "{line}");
}

fn arg<'a>(args: &[&'a str], index: usize, what: &str) -> VirtResult<&'a str> {
    args.get(index)
        .copied()
        .ok_or_else(|| invalid(&format!("missing argument: {what}")))
}

/// The word after `flag`, `None` when the flag is not given.
fn flag_value<'a>(args: &[&'a str], flag: &str) -> VirtResult<Option<&'a str>> {
    let Some(at) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) => Ok(Some(value)),
        None => Err(invalid(&format!("{flag} requires a value"))),
    }
}

fn dispatch(args: &[String], out: &mut dyn Write) -> VirtResult<()> {
    let mut socket = std::env::var("VIRT_ADMIN_SOCKET").ok();
    let mut rest: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-s" | "--socket" => {
                i += 1;
                socket = Some(
                    args.get(i)
                        .ok_or_else(|| invalid("-s requires a socket path"))?
                        .clone(),
                );
            }
            other => rest.push(other),
        }
        i += 1;
    }
    let Some(&first) = rest.first() else {
        return Err(invalid("no command given; try 'help'"));
    };
    if first == "help" {
        print_help(out);
        return Ok(());
    }
    // The `trace` family is named by two words.
    let words = if first == "trace" { 2 } else { 1 };
    let name = rest
        .get(..words)
        .ok_or_else(|| invalid("missing argument: trace subcommand (on|off|status|dump|tail)"))?
        .join(" ");
    let &(command, ..) = COMMANDS.iter().find(|c| c.0 == name).ok_or_else(|| {
        invalid(&if words == 2 {
            format!(
                "unknown trace subcommand '{}'; try on|off|status|dump|tail",
                rest[1]
            )
        } else {
            format!("unknown command '{first}'; try 'help'")
        })
    })?;

    let socket =
        socket.ok_or_else(|| invalid("no admin socket: pass -s PATH or set VIRT_ADMIN_SOCKET"))?;
    let transport = UnixTransport::connect(&socket)
        .map_err(|e| VirtError::new(ErrorCode::NoConnect, format!("'{socket}': {e}")))?;
    let admin = AdminClient::new(transport);
    let result = execute(&admin, command, &rest[words..], out);
    admin.close();
    result
}

fn execute(
    admin: &AdminClient,
    command: &str,
    args: &[&str],
    out: &mut dyn Write,
) -> VirtResult<()> {
    match command {
        "srv-list" => {
            w(out, &format!(" {:<4} {}", "Id", "Name"));
            w(out, "---------------");
            for (i, name) in admin.list_servers()?.iter().enumerate() {
                w(out, &format!(" {:<4} {}", i, name));
            }
        }
        "srv-threadpool-info" => {
            let server = arg(args, 0, "server name")?;
            let stats = admin.threadpool_info(server)?;
            for (field, value) in [
                (PARAM_WORKERS_MIN, stats.min_workers),
                (PARAM_WORKERS_MAX, stats.max_workers),
                ("nWorkers", stats.current_workers),
                ("freeWorkers", stats.free_workers),
                (PARAM_WORKERS_PRIORITY, stats.priority_workers),
                ("jobQueueDepth", stats.job_queue_depth),
            ] {
                w(out, &format!("{field:<16}: {value}"));
            }
        }
        "srv-threadpool-set" => {
            let server = arg(args, 0, "server name")?;
            let mut params = Vec::new();
            for (flag, field) in [
                ("--min-workers", PARAM_WORKERS_MIN),
                ("--max-workers", PARAM_WORKERS_MAX),
                ("--prio-workers", PARAM_WORKERS_PRIORITY),
            ] {
                if let Some(value) = flag_value(args, flag)? {
                    let parsed: u32 = value
                        .parse()
                        .map_err(|_| invalid(&format!("{flag} must be a number")))?;
                    params.push(TypedParam::uint(field, parsed));
                }
            }
            if params.is_empty() {
                return Err(invalid(
                    "nothing to set; pass --min-workers/--max-workers/--prio-workers",
                ));
            }
            admin.threadpool_set(server, params)?;
            w(out, &format!("Threadpool of '{server}' updated"));
        }
        "srv-clients-info" => {
            let server = arg(args, 0, "server name")?;
            let (max, current, refused) = admin.client_limits(server)?;
            w(out, &format!("{:<20}: {}", PARAM_CLIENTS_MAX, max));
            w(out, &format!("{:<20}: {}", "nclients_current", current));
            w(out, &format!("{:<20}: {}", "nclients_refused", refused));
        }
        "srv-clients-set" => {
            let server = arg(args, 0, "server name")?;
            let max = flag_value(args, "--max-clients")?
                .ok_or_else(|| invalid("pass --max-clients N"))?
                .parse::<u32>()
                .map_err(|_| invalid("--max-clients must be a number"))?;
            admin.set_max_clients(server, max)?;
            w(out, &format!("Client limit of '{server}' set to {max}"));
        }
        "client-list" => {
            let server = arg(args, 0, "server name")?;
            w(
                out,
                &format!(
                    " {:<5} {:<10} {:<22} {:<26} {}",
                    "Id", "Transport", "Peer", "Connected since (epoch s)", "Session (s)"
                ),
            );
            w(
                out,
                "--------------------------------------------------------------------------------",
            );
            for client in admin.client_list(server)? {
                w(
                    out,
                    &format!(
                        " {:<5} {:<10} {:<22} {:<26} {}",
                        client.id,
                        client.transport,
                        client.peer,
                        client.connected_secs,
                        client.session_secs
                    ),
                );
            }
        }
        "client-info" => {
            let server = arg(args, 0, "server name")?;
            let id: u64 = arg(args, 1, "client id")?
                .parse()
                .map_err(|_| invalid("client id must be a number"))?;
            let info = admin.client_info(server, id)?;
            w(out, &format!("{:<16}: {}", "Id", info.id));
            w(out, &format!("{:<16}: {}", "Transport", info.transport));
            w(out, &format!("{:<16}: {}", "Peer", info.peer));
            w(
                out,
                &format!("{:<16}: {}", "Connected since", info.connected_secs),
            );
            w(
                out,
                &format!("{:<16}: {} s", "Session age", info.session_secs),
            );
        }
        "client-disconnect" => {
            let server = arg(args, 0, "server name")?;
            let id: u64 = arg(args, 1, "client id")?
                .parse()
                .map_err(|_| invalid("client id must be a number"))?;
            admin.client_disconnect(server, id)?;
            w(out, &format!("Client {id} disconnected from '{server}'"));
        }
        "metrics" => {
            let prometheus = args.contains(&"--prometheus");
            let buckets = args.contains(&"--buckets");
            let prefix = args
                .iter()
                .find(|a| !a.starts_with("--"))
                .copied()
                .unwrap_or("");
            let snapshots: Vec<virt_core::metrics::MetricSnapshot> =
                admin.metrics(prefix)?.into_iter().map(Into::into).collect();
            if prometheus {
                let _ = write!(
                    out,
                    "{}",
                    virt_core::metrics::prometheus::prometheus_text(&snapshots)
                );
            } else {
                print_metrics(out, &snapshots, buckets);
            }
        }
        "trace on" => {
            let threshold = flag_value(args, "--threshold-ms")?
                .map(|value| {
                    value
                        .parse::<u64>()
                        .map_err(|_| invalid("--threshold-ms must be a number"))
                })
                .transpose()?;
            let config = admin.trace_config(Some(true), threshold)?;
            w(
                out,
                &format!("Tracing enabled ({})", describe_config(&config)),
            );
        }
        "trace off" => {
            let config = admin.trace_config(Some(false), None)?;
            w(
                out,
                &format!("Tracing disabled ({} events recorded)", config.recorded),
            );
        }
        "trace status" => {
            let config = admin.trace_config(None, None)?;
            w(
                out,
                &format!(
                    "Tracing {} ({})",
                    if config.enabled { "on" } else { "off" },
                    describe_config(&config)
                ),
            );
        }
        "trace dump" => {
            let chrome = args.contains(&"--chrome");
            let clear = args.contains(&"--clear");
            let events = decode_events(admin.trace_dump(clear)?);
            if chrome {
                let _ = writeln!(
                    out,
                    "{}",
                    virt_core::metrics::recorder::chrome_trace_json(&events)
                );
            } else if events.is_empty() {
                w(out, "No trace events recorded");
            } else {
                let _ = write!(out, "{}", render_trace_trees(&events));
            }
        }
        "trace tail" => {
            let count = match flag_value(args, "--count")? {
                Some(value) => value
                    .parse::<usize>()
                    .map_err(|_| invalid("--count must be a number"))?,
                None => 20,
            };
            let events = decode_events(admin.trace_dump(false)?);
            let start = events.len().saturating_sub(count);
            for event in &events[start..] {
                w(out, &format_event_line(event));
            }
        }
        "dmn-log-info" => {
            let (level, filters, outputs) = admin.log_info()?;
            w(out, &format!("Logging level:   {level}"));
            w(out, &format!("Logging filters: {filters}"));
            w(out, &format!("Logging outputs: {outputs}"));
        }
        "dmn-log-define" => {
            // All three read before anything is sent: a flag without its
            // value must not leave the earlier ones applied.
            let level = flag_value(args, "--level")?;
            let filters = flag_value(args, "--filters")?;
            let outputs = flag_value(args, "--outputs")?;
            if level.or(filters).or(outputs).is_none() {
                return Err(invalid(
                    "nothing to define; pass --level/--filters/--outputs",
                ));
            }
            if let Some(level) = level {
                let number: u32 = level.parse().map_err(|_| invalid("--level must be 1-4"))?;
                admin.log_set_level(LogLevel::try_from(number)?)?;
            }
            if let Some(filters) = filters {
                admin.log_set_filters(filters)?;
            }
            if let Some(outputs) = outputs {
                admin.log_set_outputs(outputs)?;
            }
            w(out, "Logging settings updated");
        }
        other => unreachable!("'{other}' is in COMMANDS but has no handler"),
    }
    Ok(())
}

/// Human-readable metric table: one line per counter/gauge; histograms
/// show count, mean and p50/p90/p99 quantile estimates, with the raw
/// per-bucket breakdown (µs upper bounds) only when `buckets` is set.
/// Each server's event-loop counters are followed by the two ratios
/// they exist for: request frames per socket read, and replies (one per
/// frame) per socket write. `rpc.proc.<n>.*` rows end in the procedure's
/// symbolic name; the keys stay numeric because tools read them.
fn print_metrics(
    out: &mut dyn Write,
    snapshots: &[virt_core::metrics::MetricSnapshot],
    buckets: bool,
) {
    use virt_core::metrics::{bucket_upper_bound_us, MetricValue};
    let q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |value| format!("{value:.1}"));
    for snapshot in snapshots {
        let note = snapshot
            .name
            .strip_prefix("rpc.proc.")
            .and_then(|rest| rest.split('.').next()?.parse().ok())
            .and_then(virt_core::protocol::proc::name)
            .map_or_else(String::new, |name| format!("  # {name}"));
        match &snapshot.value {
            MetricValue::Counter(v) => w(out, &format!("{:<40} {v}{note}", snapshot.name)),
            MetricValue::Gauge(v) => w(out, &format!("{:<40} {v}{note}", snapshot.name)),
            MetricValue::Histogram(h) => {
                let mean = h
                    .mean_us()
                    .map_or_else(|| "-".to_string(), |m| format!("{m:.1}"));
                w(
                    out,
                    &format!(
                        "{:<40} count={} mean={mean}us p50={}us p90={}us p99={}us{note}",
                        snapshot.name,
                        h.count,
                        q(h.p50_us()),
                        q(h.p90_us()),
                        q(h.p99_us()),
                    ),
                );
                if !buckets {
                    continue;
                }
                for (i, bucket) in h.buckets.iter().enumerate() {
                    if *bucket == 0 {
                        continue;
                    }
                    let upper = bucket_upper_bound_us(i)
                        .map_or_else(|| "+Inf".to_string(), |u| u.to_string());
                    w(out, &format!("    le {upper:>10} us  {bucket}"));
                }
            }
        }
    }
    let counter = |name: &str| {
        snapshots.iter().find_map(|s| match s.value {
            MetricValue::Counter(v) if s.name == name => Some(v),
            _ => None,
        })
    };
    for snapshot in snapshots {
        let Some(base) = snapshot.name.strip_suffix(".frames_in") else {
            continue;
        };
        let MetricValue::Counter(frames) = snapshot.value else {
            continue;
        };
        for (ratio, calls) in [
            ("frames_per_read", "read_calls"),
            ("replies_per_write", "write_calls"),
        ] {
            if let Some(calls) = counter(&format!("{base}.{calls}")).filter(|&c| c > 0) {
                let name = format!("{base}.{ratio}");
                w(
                    out,
                    &format!("{name:<40} {:.2}", frames as f64 / calls as f64),
                );
            }
        }
    }
}

fn describe_config(config: &virtd::adminproto::WireTraceConfig) -> String {
    format!(
        "slow threshold {} ms, ring {} of {} events",
        config.slow_threshold_ms,
        config.recorded.min(config.capacity),
        config.capacity
    )
}

/// Decodes wire events, silently dropping kinds from a newer daemon.
fn decode_events(
    wire: Vec<virtd::adminproto::WireTraceEvent>,
) -> Vec<virt_core::metrics::recorder::TraceEvent> {
    wire.into_iter()
        .filter_map(virtd::adminproto::WireTraceEvent::into_event)
        .collect()
}

fn format_event_line(event: &virt_core::metrics::recorder::TraceEvent) -> String {
    format!(
        "{:>12.3}ms trace={:016x} span={:016x} parent={:016x} {:<5} {:<15} dur={:.1}us detail={}",
        event.t_ns as f64 / 1e6,
        event.trace_id,
        event.span_id,
        event.parent_id,
        event.phase.name(),
        event.stage.name(),
        event.dur_ns as f64 / 1e3,
        event.detail,
    )
}

/// Renders drained events as one indented span tree per trace: spans
/// come from end events (which carry the duration); begin events still
/// open when the ring was drained show as `...running`.
fn render_trace_trees(events: &[virt_core::metrics::recorder::TraceEvent]) -> String {
    use std::collections::BTreeMap;
    use virt_core::metrics::recorder::EventPhase;

    struct Node {
        stage: &'static str,
        t_ns: u64,
        dur_ns: Option<u64>,
        parent: u64,
        detail: u64,
    }

    // Group by trace in first-appearance order.
    let mut order: Vec<u64> = Vec::new();
    let mut traces: BTreeMap<u64, BTreeMap<u64, Node>> = BTreeMap::new();
    for event in events {
        let spans = traces.entry(event.trace_id).or_insert_with(|| {
            order.push(event.trace_id);
            BTreeMap::new()
        });
        let node = spans.entry(event.span_id).or_insert(Node {
            stage: event.stage.name(),
            t_ns: event.t_ns,
            dur_ns: None,
            parent: event.parent_id,
            detail: event.detail,
        });
        if event.phase == EventPhase::End {
            node.dur_ns = Some(event.dur_ns);
            node.t_ns = event.t_ns;
            node.detail = event.detail;
        }
    }

    let mut out = String::new();
    for trace_id in order {
        let spans = &traces[&trace_id];
        out.push_str(&format!("trace {trace_id:016x}\n"));
        // Children sorted by start time under each parent; roots are
        // spans whose parent is 0 or was overwritten out of the ring.
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots: Vec<u64> = Vec::new();
        for (&span_id, node) in spans {
            if node.parent != 0 && spans.contains_key(&node.parent) {
                children.entry(node.parent).or_default().push(span_id);
            } else {
                roots.push(span_id);
            }
        }
        let by_time = |ids: &mut Vec<u64>| ids.sort_by_key(|id| (spans[id].t_ns, *id));
        by_time(&mut roots);
        for ids in children.values_mut() {
            by_time(ids);
        }
        let mut stack: Vec<(u64, usize)> = roots.into_iter().rev().map(|id| (id, 1)).collect();
        while let Some((span_id, depth)) = stack.pop() {
            let node = &spans[&span_id];
            let dur = node.dur_ns.map_or_else(
                || "...running".to_string(),
                |d| format!("{:.1}us", d as f64 / 1e3),
            );
            let detail = if node.detail != 0 {
                format!(" detail={}", node.detail)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:indent$}{} {dur}{detail}\n",
                "",
                node.stage,
                indent = depth * 2
            ));
            if let Some(kids) = children.get(&span_id) {
                for &kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
        }
    }
    out
}

fn print_help(out: &mut dyn Write) {
    w(out, "vadm — daemon administration client");
    w(out, "");
    w(out, "usage: vadm [-s SOCKET] <command> [args...]");
    w(out, "");
    for (title, group) in [("Monitoring:", Monitoring), ("Management:", Management)] {
        w(out, title);
        for (name, args, ..) in COMMANDS.iter().filter(|c| c.2 == group) {
            w(out, format!("  {name} {args}").trim_end());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use virt_rpc::transport::UnixSocketListener;
    use virtd::Virtd;

    fn unique(name: &str) -> String {
        static N: AtomicU64 = AtomicU64::new(0);
        format!(
            "{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Spins a daemon with a unix admin socket and runs a vadm line.
    fn run_against_daemon(commands: &[&str]) -> Vec<(i32, String)> {
        let daemon = Virtd::builder(unique("vadm"))
            .with_quiet_hosts()
            .build()
            .unwrap();
        let path = format!("/tmp/{}.sock", unique("vadm-admin"));
        daemon.serve_admin(Box::new(UnixSocketListener::bind(&path).unwrap()));

        let results = commands
            .iter()
            .map(|line| {
                let mut args: Vec<String> = vec!["-s".to_string(), path.clone()];
                args.extend(line.split_whitespace().map(str::to_string));
                let mut out = Vec::new();
                let code = run_admin(&args, &mut out);
                (code, String::from_utf8_lossy(&out).into_owned())
            })
            .collect();
        daemon.shutdown();
        let _ = std::fs::remove_file(&path);
        results
    }

    #[test]
    fn help_needs_no_socket() {
        // Byte for byte what the hand-written help printed.
        let mut out = Vec::new();
        assert_eq!(run_admin(&["help".to_string()], &mut out), 0);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "vadm — daemon administration client

usage: vadm [-s SOCKET] <command> [args...]

Monitoring:
  srv-list
  srv-threadpool-info <server>
  srv-clients-info <server>
  client-list <server>
  client-info <server> <id>
  dmn-log-info
  metrics [--prometheus] [--buckets] [prefix]
  trace status
  trace dump [--chrome] [--clear]
  trace tail [--count N]
Management:
  srv-threadpool-set <server> [--min-workers N] [--max-workers N] [--prio-workers N]
  srv-clients-set <server> --max-clients N
  client-disconnect <server> <id>
  dmn-log-define [--level 1-4] [--filters \"L:mod ...\"] [--outputs \"L:kind ...\"]
  trace on [--threshold-ms N]
  trace off
"
        );
    }

    #[test]
    fn every_admin_procedure_is_reachable_from_some_command() {
        for (number, name) in proc::ALL {
            assert!(
                COMMANDS.iter().any(|c| c.3.contains(number)),
                "{name} ({number}) is in the admin table but in no COMMANDS row"
            );
        }
    }

    #[test]
    fn every_command_in_the_table_has_a_handler() {
        // Bare names: most stop at a missing argument, none may fall out
        // of `execute` (which panics) or be refused as unknown. `trace on`
        // is one of them; `trace off` is the last row.
        let _guard = crate::recorder_test_guard();
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        for (name, (_, output)) in names.iter().zip(run_against_daemon(&names)) {
            assert!(
                !output.contains("error: invalid argument: unknown"),
                "{name}: {output}"
            );
        }
    }

    #[test]
    fn a_flag_without_its_value_is_an_error_and_nothing_is_sent() {
        let _guard = crate::recorder_test_guard();
        let results = run_against_daemon(&[
            "srv-threadpool-set virtd --max-workers 30 --min-workers",
            "srv-threadpool-info virtd",
            "dmn-log-define --level 3 --filters",
            "dmn-log-info",
            "trace on --threshold-ms",
            "trace status",
        ]);
        for (at, flag) in [
            (0, "--min-workers"),
            (2, "--filters"),
            (4, "--threshold-ms"),
        ] {
            assert_eq!(results[at].0, 1, "{}", results[at].1);
            assert_eq!(
                results[at].1,
                format!("error: invalid argument: {flag} requires a value\n")
            );
        }
        // The flags before the broken one were not applied either.
        assert!(
            results[1].1.contains("maxWorkers      : 20"),
            "{}",
            results[1].1
        );
        assert!(
            results[3].1.contains("Logging level:   error"),
            "{}",
            results[3].1
        );
        assert!(results[5].1.contains("Tracing off"), "{}", results[5].1);
    }

    #[test]
    fn missing_socket_reports_clearly() {
        std::env::remove_var("VIRT_ADMIN_SOCKET");
        let mut out = Vec::new();
        let code = run_admin(&["srv-list".to_string()], &mut out);
        assert_eq!(code, 1);
        assert!(String::from_utf8_lossy(&out).contains("no admin socket"));
    }

    #[test]
    fn srv_list_and_threadpool_info() {
        let results = run_against_daemon(&["srv-list", "srv-threadpool-info virtd"]);
        assert_eq!(results[0].0, 0);
        assert!(results[0].1.contains("virtd"));
        assert!(results[0].1.contains("admin"));
        assert_eq!(results[1].0, 0);
        assert!(results[1].1.contains("maxWorkers"));
        assert!(results[1].1.contains("20"));
    }

    #[test]
    fn threadpool_set_round_trip() {
        let results = run_against_daemon(&[
            "srv-threadpool-set virtd --max-workers 33 --prio-workers 7",
            "srv-threadpool-info virtd",
        ]);
        assert_eq!(results[0].0, 0, "{}", results[0].1);
        assert!(results[1].1.contains("33"));
        assert!(results[1].1.contains("7"));
    }

    #[test]
    fn threadpool_set_requires_a_flag() {
        let results = run_against_daemon(&["srv-threadpool-set virtd"]);
        assert_eq!(results[0].0, 1);
        assert!(results[0].1.contains("nothing to set"));
    }

    #[test]
    fn clients_info_and_set() {
        let results = run_against_daemon(&[
            "srv-clients-info virtd",
            "srv-clients-set virtd --max-clients 7",
            "srv-clients-info virtd",
        ]);
        assert!(results[0].1.contains("nclients_max        : 120"));
        assert_eq!(results[1].0, 0);
        assert!(results[2].1.contains("nclients_max        : 7"));
    }

    #[test]
    fn log_info_and_define() {
        let results = run_against_daemon(&[
            "dmn-log-info",
            "dmn-log-define --level 1 --filters 2:daemon.rpc --outputs 1:buffer",
            "dmn-log-info",
        ]);
        assert!(results[0].1.contains("Logging level:   error"));
        assert_eq!(results[1].0, 0, "{}", results[1].1);
        assert!(results[2].1.contains("Logging level:   debug"));
        assert!(results[2].1.contains("2:daemon.rpc"));
        assert!(results[2].1.contains("1:buffer"));
    }

    #[test]
    fn bad_log_level_rejected() {
        let results = run_against_daemon(&["dmn-log-define --level 9"]);
        assert_eq!(results[0].0, 1);
        assert!(results[0].1.contains("out of range"));
    }

    #[test]
    fn client_list_shows_admin_connection_itself() {
        // The vadm connection is a client of the admin server.
        let results = run_against_daemon(&["client-list admin"]);
        assert_eq!(results[0].0, 0);
        assert!(results[0].1.contains("unix"));
    }

    #[test]
    fn client_disconnect_unknown_id_fails() {
        let results = run_against_daemon(&["client-disconnect virtd 424242"]);
        assert_eq!(results[0].0, 1);
        assert!(results[0].1.contains("no client"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let results = run_against_daemon(&["frobnicate"]);
        assert_eq!(results[0].0, 1);
        assert!(results[0].1.contains("unknown command"));
    }

    #[test]
    fn metrics_shows_statestore_pipeline_for_statedir_daemons() {
        // A statedir-backed daemon publishes the persistence pipeline's
        // counters, the queue-depth gauge, and the whole-cycle fsync
        // latency histogram (rendered with quantile estimates) through
        // the same `vadm metrics` table as every other layer.
        let statedir = std::env::temp_dir().join(unique("vadm-statedir"));
        let daemon = Virtd::builder(unique("vadm"))
            .config(virtd::VirtdConfig::new().statedir(&statedir))
            .with_quiet_hosts()
            .build()
            .unwrap();
        let path = format!("/tmp/{}.sock", unique("vadm-admin"));
        daemon.serve_admin(Box::new(UnixSocketListener::bind(&path).unwrap()));

        let args = vec![
            "-s".to_string(),
            path.clone(),
            "metrics".to_string(),
            "statestore.".to_string(),
        ];
        let mut out = Vec::new();
        let code = run_admin(&args, &mut out);
        let text = String::from_utf8_lossy(&out).into_owned();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("statestore.group_commits"), "{text}");
        assert!(text.contains("statestore.coalesced"), "{text}");
        assert!(text.contains("statestore.queue_depth"), "{text}");
        assert!(text.contains("statestore.write_error"), "{text}");
        // The fsync-cycle histogram renders as quantiles, not buckets.
        assert!(text.contains("statestore.sync_us"), "{text}");
        let sync_line = text
            .lines()
            .find(|l| l.contains("statestore.sync_us"))
            .unwrap();
        assert!(sync_line.contains("p50="), "{sync_line}");
        assert!(sync_line.contains("p99="), "{sync_line}");

        daemon.shutdown();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&statedir);
    }

    #[test]
    fn metrics_shows_all_daemon_layers() {
        // srv-list first so the admin server has dispatched at least one
        // RPC before metrics are read.
        let results = run_against_daemon(&["srv-list", "metrics"]);
        assert_eq!(results[1].0, 0, "{}", results[1].1);
        let text = &results[1].1;
        // Per-procedure RPC latency histograms.
        assert!(text.contains("rpc.proc.1.latency_us"), "{text}");
        // ... keyed by number, annotated with the symbolic name.
        for line in text.lines().filter(|l| l.starts_with("rpc.proc.1.")) {
            assert!(line.ends_with("  # OPEN"), "{line}");
        }
        // Worker-pool wait/queue stats for both servers.
        assert!(text.contains("pool.virtd.wait_us"), "{text}");
        assert!(text.contains("pool.admin.queue_depth"), "{text}");
        // Transport byte counters.
        assert!(text.contains("server.virtd.bytes_in"), "{text}");
        assert!(text.contains("server.admin.bytes_out"), "{text}");
        // Driver lifecycle timings.
        assert!(text.contains("driver.qemu.create_us"), "{text}");
    }

    #[test]
    fn metrics_shows_event_loop_batching_ratios() {
        // The vadm connection itself has put frames through the admin
        // server's loop by the time the metrics call is answered.
        let results = run_against_daemon(&["srv-list", "metrics server.admin.event_loop."]);
        assert_eq!(results[1].0, 0, "{}", results[1].1);
        let text = &results[1].1;
        for name in ["read_calls", "write_calls", "frames_in"] {
            assert!(
                text.contains(&format!("server.admin.event_loop.{name}")),
                "{text}"
            );
        }
        for ratio in ["frames_per_read", "replies_per_write"] {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("server.admin.event_loop.{ratio}")))
                .unwrap_or_else(|| panic!("no {ratio} line in {text}"));
            let value: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
            assert!(value > 0.0, "{line}");
        }
    }

    #[test]
    fn metrics_prefix_filters() {
        let results = run_against_daemon(&["metrics pool."]);
        assert_eq!(results[0].0, 0, "{}", results[0].1);
        assert!(results[0].1.contains("pool.virtd.wait_us"));
        assert!(!results[0].1.contains("rpc.calls"));
    }

    /// Minimal validating parser for the Prometheus text exposition
    /// format (0.0.4): every non-comment line must be
    /// `name[{labels}] value`, every `# TYPE` must precede its samples,
    /// and names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn assert_valid_prometheus(text: &str) {
        fn valid_name(name: &str) -> bool {
            let mut chars = name.chars();
            match chars.next() {
                Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
                _ => return false,
            }
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        let mut sample_count = 0usize;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix("# ") {
                let mut parts = comment.splitn(3, ' ');
                let keyword = parts.next().unwrap();
                assert!(
                    keyword == "HELP" || keyword == "TYPE",
                    "bad comment keyword in {line:?}"
                );
                let name = parts.next().expect("comment names a metric");
                assert!(valid_name(name), "bad metric name in {line:?}");
                if keyword == "TYPE" {
                    let kind = parts.next().expect("TYPE has a kind");
                    assert!(
                        ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                        "bad TYPE kind in {line:?}"
                    );
                }
                continue;
            }
            // Sample line: name[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = match name_part.split_once('{') {
                Some((bare, labels)) => {
                    assert!(labels.ends_with('}'), "unclosed labels in {line:?}");
                    bare
                }
                None => name_part,
            };
            assert!(valid_name(name), "bad sample name in {line:?}");
            assert!(value.parse::<f64>().is_ok(), "bad sample value in {line:?}");
            sample_count += 1;
        }
        assert!(sample_count > 0, "exposition has no samples");
    }

    #[test]
    fn metrics_prometheus_output_is_valid_exposition() {
        let results = run_against_daemon(&["metrics --prometheus"]);
        assert_eq!(results[0].0, 0, "{}", results[0].1);
        let text = &results[0].1;
        assert_valid_prometheus(text);
        assert!(text.contains("# TYPE rpc_calls counter"), "{text}");
        assert!(
            text.contains("# TYPE pool_virtd_wait_us histogram"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\""), "{text}");
    }

    #[test]
    fn client_list_reports_monotonic_session_age() {
        let results = run_against_daemon(&["client-list admin"]);
        assert_eq!(results[0].0, 0);
        assert!(results[0].1.contains("Session (s)"));
    }

    #[test]
    fn metrics_human_shows_quantiles_and_hides_buckets_by_default() {
        // Admin-program calls do not feed the per-procedure latency
        // histograms, so drive a remote RPC through a memory endpoint
        // first to give them samples.
        let name = unique("vadm-quant");
        let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let path = format!("/tmp/{}.sock", unique("vadm-admin"));
        daemon.serve_admin(Box::new(UnixSocketListener::bind(&path).unwrap()));
        let conn = virt_core::Connect::builder(format!("qemu+memory://{name}/system"))
            .open()
            .unwrap();
        conn.list_domain_names().unwrap();
        conn.close();

        let run = |line: &str| {
            let mut args: Vec<String> = vec!["-s".to_string(), path.clone()];
            args.extend(line.split_whitespace().map(str::to_string));
            let mut out = Vec::new();
            let code = run_admin(&args, &mut out);
            (code, String::from_utf8_lossy(&out).into_owned())
        };
        let (code, human) = run("metrics rpc.proc.");
        assert_eq!(code, 0, "{human}");
        assert!(human.contains("p50="), "{human}");
        assert!(human.contains("p90="), "{human}");
        assert!(human.contains("p99="), "{human}");
        // Quantiles are computed, not dashes: at least one histogram has
        // samples after the remote call above.
        assert!(!human.contains("le "), "{human}");
        let populated = human
            .lines()
            .any(|l| l.contains("count=") && !l.contains("count=0"));
        assert!(populated, "{human}");

        let (code, with_buckets) = run("metrics --buckets rpc.proc.");
        assert_eq!(code, 0, "{with_buckets}");
        assert!(with_buckets.contains("le "), "{with_buckets}");

        daemon.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_session_round_trips_config_and_dumps_spans() {
        let _guard = crate::recorder_test_guard();
        let results = run_against_daemon(&[
            "trace on --threshold-ms 250",
            "trace status",
            "srv-list",
            "trace dump",
            "trace off",
        ]);
        assert_eq!(results[0].0, 0, "{}", results[0].1);
        assert!(results[0].1.contains("Tracing enabled"), "{}", results[0].1);
        assert!(
            results[1].1.contains("Tracing on (slow threshold 250 ms"),
            "{}",
            results[1].1
        );
        // The dump renders trees: a trace header, then the client stub
        // span with the daemon-side dispatch attached under it.
        let dump = &results[3].1;
        assert_eq!(results[3].0, 0, "{dump}");
        assert!(dump.contains("trace "), "{dump}");
        assert!(dump.contains("client_send"), "{dump}");
        assert!(dump.contains("dispatch"), "{dump}");
        assert!(
            results[4].1.contains("Tracing disabled"),
            "{}",
            results[4].1
        );
    }

    #[test]
    fn trace_tail_prints_recent_raw_events() {
        let _guard = crate::recorder_test_guard();
        let results =
            run_against_daemon(&["trace on", "srv-list", "trace tail --count 5", "trace off"]);
        let tail = &results[2].1;
        assert_eq!(results[2].0, 0, "{tail}");
        assert!(tail.contains("trace="), "{tail}");
        assert!(tail.contains("span="), "{tail}");
        assert!(tail.lines().count() <= 5, "{tail}");
    }

    /// Minimal hand-rolled JSON checker (the workspace has no serde):
    /// validates the text is exactly one JSON value built from arrays,
    /// objects, strings, and numbers — the trace-event shape. Panics on
    /// the first syntax error with the offending byte offset.
    fn assert_valid_json(text: &str) {
        fn skip_ws(b: &[u8], pos: &mut usize) {
            while *pos < b.len() && b[*pos].is_ascii_whitespace() {
                *pos += 1;
            }
        }
        fn parse_string(b: &[u8], pos: &mut usize) {
            assert_eq!(b[*pos], b'"', "expected string at byte {pos}");
            *pos += 1;
            while *pos < b.len() && b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    *pos += 1; // escaped character
                }
                *pos += 1;
            }
            assert!(*pos < b.len(), "unterminated string");
            *pos += 1;
        }
        fn parse_number(b: &[u8], pos: &mut usize) {
            let start = *pos;
            while *pos < b.len()
                && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            assert!(text.parse::<f64>().is_ok(), "bad number {text:?}");
        }
        fn parse_value(b: &[u8], pos: &mut usize) {
            skip_ws(b, pos);
            assert!(*pos < b.len(), "expected a value at end of input");
            match b[*pos] {
                b'"' => parse_string(b, pos),
                b'-' | b'0'..=b'9' => parse_number(b, pos),
                b'[' => {
                    *pos += 1;
                    skip_ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return;
                    }
                    loop {
                        parse_value(b, pos);
                        skip_ws(b, pos);
                        match b[*pos] {
                            b',' => *pos += 1,
                            b']' => {
                                *pos += 1;
                                return;
                            }
                            other => panic!("expected ',' or ']' at byte {pos}, got {other:?}"),
                        }
                    }
                }
                b'{' => {
                    *pos += 1;
                    skip_ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return;
                    }
                    loop {
                        skip_ws(b, pos);
                        parse_string(b, pos);
                        skip_ws(b, pos);
                        assert_eq!(b[*pos], b':', "expected ':' at byte {pos}");
                        *pos += 1;
                        parse_value(b, pos);
                        skip_ws(b, pos);
                        match b[*pos] {
                            b',' => *pos += 1,
                            b'}' => {
                                *pos += 1;
                                return;
                            }
                            other => panic!("expected ',' or '}}' at byte {pos}, got {other:?}"),
                        }
                    }
                }
                other => panic!("unexpected byte {other:?} at {pos}"),
            }
        }
        let b = text.trim().as_bytes();
        let mut pos = 0usize;
        parse_value(b, &mut pos);
        skip_ws(b, &mut pos);
        assert_eq!(pos, b.len(), "trailing garbage after the JSON value");
    }

    #[test]
    fn trace_dump_chrome_is_valid_trace_event_json() {
        let _guard = crate::recorder_test_guard();
        let results = run_against_daemon(&[
            "trace on",
            "srv-list",
            "trace dump --chrome --clear",
            "trace off",
        ]);
        let json = &results[2].1;
        assert_eq!(results[2].0, 0, "{json}");
        assert_valid_json(json);
        assert!(json.trim().starts_with('['), "{json}");
        // Completed spans export as "X" duration records with our
        // category and span-identity args.
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"cat\":\"virt\""), "{json}");
        assert!(json.contains("\"name\":\"client_send\""), "{json}");
        assert!(json.contains("\"trace\":\""), "{json}");
    }
}
