//! The `vsh` console client — command implementations.
//!
//! A virsh-style tool over the public `virt-core` API. The entry point is
//! [`run`], which takes arguments and an output sink so the whole tool is
//! testable without spawning processes.
//!
//! ```text
//! vsh [-c URI] <command> [args...]
//! ```
//!
//! The default connection URI is `test:///default`, overridable with `-c`
//! or the `VIRT_DEFAULT_URI` environment variable. Connection resilience
//! is tunable with `--call-deadline-ms`, `--retries` and `--no-reconnect`.

mod admin;
mod fleet;
pub use admin::run_admin;

use std::io::Write;
use std::time::Duration;

use std::collections::HashMap;

use virt_core::driver::MigrationOptions;
use virt_core::guard::{GuardPolicy, GuardStatus, DEFAULT_MAX_RESTARTS, DEFAULT_STOP_TIMEOUT_MS};
use virt_core::{Connect, VirtError, VirtResult};

#[derive(Clone, Copy, PartialEq)]
enum Group {
    Connection,
    Domains,
    Guards,
    Jobs,
    Storage,
    Networks,
    Fleet,
}
use Group::{Connection, Domains, Fleet, Guards, Jobs, Networks, Storage};

/// Every command, in `help` order within its group: its name (two words
/// for the `guard` and `fleet` families) and the arguments `help` prints
/// after it. `help` and the unknown-command check, made before anything
/// is dialed, are derived from this list. The handlers are the arms of
/// [`execute`] and of `fleet::run_fleet`.
#[rustfmt::skip] // one row per command
const COMMANDS: &[(&str, &str, Group)] = &[
    ("uri", "", Connection),
    ("hostname", "", Connection),
    ("nodeinfo", "", Connection),
    ("capabilities", "", Connection),
    ("version", "", Connection),
    ("list", "[--all]", Domains),
    ("define", "<xml>", Domains),
    ("create", "<xml>", Domains),
    ("start", "<name>", Domains),
    ("shutdown", "<name>", Domains),
    ("reboot", "<name>", Domains),
    ("destroy", "<name>", Domains),
    ("crash", "<name>", Domains),
    ("suspend", "<name>", Domains),
    ("resume", "<name>", Domains),
    ("managedsave", "<name>", Domains),
    ("restore", "<name>", Domains),
    ("undefine", "<name>", Domains),
    ("dominfo", "<name>", Domains),
    ("domstate", "<name>", Domains),
    ("dumpxml", "<name>", Domains),
    ("setmem", "<name> <MiB>", Domains),
    ("setvcpus", "<name> <n>", Domains),
    ("autostart", "<name> [--disable]", Domains),
    ("snapshot-create", "<name> <snap>", Domains),
    ("snapshot-list", "<name>", Domains),
    ("snapshot-revert", "<name> <snap>", Domains),
    ("snapshot-delete", "<name> <snap>", Domains),
    ("migrate", "<name> <dest-uri>", Domains),
    ("guard set", "<name> keep-running [--max-restarts <n>] | auto-resume | graceful-stop [--timeout-ms <ms>]", Guards),
    ("guard remove", "<name>", Guards),
    ("guard list", "", Guards),
    ("guard status", "<name>", Guards),
    ("domjobinfo", "<name>", Jobs),
    ("domjobabort", "<name>", Jobs),
    ("domstats", "", Jobs),
    ("pool-list", "", Storage),
    ("pool-info", "<name>", Storage),
    ("pool-define", "<xml>", Storage),
    ("pool-start", "<name>", Storage),
    ("pool-stop", "<name>", Storage),
    ("pool-undefine", "<name>", Storage),
    ("vol-list", "<pool>", Storage),
    ("vol-create", "<pool> <xml>", Storage),
    ("vol-info", "<pool> <name>", Storage),
    ("vol-delete", "<pool> <name>", Storage),
    ("vol-resize", "<pool> <name> <MiB>", Storage),
    ("vol-clone", "<pool> <src> <new>", Storage),
    ("net-list", "", Networks),
    ("net-info", "<name>", Networks),
    ("net-define", "<xml>", Networks),
    ("net-start", "<name>", Networks),
    ("net-stop", "<name>", Networks),
    ("net-undefine", "<name>", Networks),
    ("fleet hosts", "", Fleet),
    ("fleet list", "", Fleet),
    ("fleet create", "<name> <MiB> <vcpus>", Fleet),
    ("fleet migrate", "<domain|host/domain> <dest-host>", Fleet),
    ("fleet evacuate", "<host>", Fleet),
];

/// Checks a command line's first words against [`COMMANDS`].
fn check_command(words: &[&str]) -> VirtResult<()> {
    let first = words[0];
    let verbs: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.0.strip_prefix(first)?.strip_prefix(' '))
        .collect();
    if verbs.is_empty() {
        if COMMANDS.iter().any(|c| c.0 == first) {
            return Ok(());
        }
        return Err(invalid(&format!("unknown command '{first}'; try 'help'")));
    }
    let verb = words.get(1).ok_or_else(|| {
        invalid(&format!(
            "missing argument: {first} verb ({})",
            verbs.join(" | ")
        ))
    })?;
    if !verbs.contains(verb) {
        return Err(invalid(&format!(
            "unknown {first} verb '{verb}'; try {}",
            verbs.join(", ")
        )));
    }
    Ok(())
}

/// Executes one command line.
///
/// `args` excludes the program name. Output (including error messages)
/// goes to `out`; the return value is the process exit code.
pub fn run(args: &[String], out: &mut dyn Write) -> i32 {
    match dispatch(args, out) {
        Ok(()) => 0,
        Err(err) => {
            let _ = writeln!(out, "error: {err}");
            1
        }
    }
}

fn dispatch(args: &[String], out: &mut dyn Write) -> VirtResult<()> {
    let mut uri =
        std::env::var("VIRT_DEFAULT_URI").unwrap_or_else(|_| "test:///default".to_string());
    let mut call_deadline: Option<Duration> = None;
    let mut retries: Option<u32> = None;
    let mut reconnect = true;
    let mut fleet_hosts: Option<String> = None;
    let mut fleet_policy: Option<String> = None;
    let mut rest: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-c" | "--connect" => {
                i += 1;
                uri = args
                    .get(i)
                    .ok_or_else(|| invalid("-c requires a URI"))?
                    .clone();
            }
            "--call-deadline-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| invalid("--call-deadline-ms requires a millisecond count"))?;
                call_deadline = Some(Duration::from_millis(ms));
            }
            "--retries" => {
                i += 1;
                let count: u32 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| invalid("--retries requires a count"))?;
                retries = Some(count);
            }
            "--no-reconnect" => reconnect = false,
            "--hosts" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| invalid("--hosts requires name=uri,..."))?;
                fleet_hosts = Some(spec.clone());
            }
            "--policy" => {
                i += 1;
                let name = args
                    .get(i)
                    .ok_or_else(|| invalid("--policy requires spread|pack|memweight"))?;
                fleet_policy = Some(name.clone());
            }
            other => rest.push(other),
        }
        i += 1;
    }
    let (&command, command_args) = rest
        .split_first()
        .ok_or_else(|| invalid("no command given; try 'help'"))?;

    if command == "help" {
        print_help(out);
        return Ok(());
    }
    check_command(&rest)?;
    if command == "version" {
        w(out, &format!("vsh {}", env!("CARGO_PKG_VERSION")));
        return Ok(());
    }
    if command == "fleet" {
        // Fleet verbs manage N hosts at once; the member URIs come from
        // --hosts / VSH_FLEET_HOSTS, not the single-connection -c flag.
        return fleet::run_fleet(command_args, fleet_hosts, fleet_policy, call_deadline, out);
    }

    let mut builder = Connect::builder(&uri).reconnect(reconnect);
    if let Some(deadline) = call_deadline {
        builder = builder.call_deadline(deadline);
    }
    if let Some(retries) = retries {
        builder = builder.retries(retries);
    }
    let conn = builder.open()?;
    let result = execute(&conn, command, command_args, out);
    conn.close();
    result
}

/// Returns the connection URI when the argument list carries no command
/// (only `-c URI` at most) — the binary then enters the interactive shell.
pub fn shell_uri(args: &[String]) -> Option<String> {
    let mut uri =
        std::env::var("VIRT_DEFAULT_URI").unwrap_or_else(|_| "test:///default".to_string());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-c" | "--connect" => {
                i += 1;
                uri = args.get(i)?.clone();
            }
            _ => return None, // a command is present
        }
        i += 1;
    }
    Some(uri)
}

/// The interactive shell: one connection, many commands, `exit`/`quit`
/// to leave. Command failures are reported but do not end the session.
///
/// # Errors
///
/// Only connection-establishment failures; per-command errors are printed.
pub fn run_shell(
    uri: &str,
    input: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> VirtResult<()> {
    let conn = Connect::builder(uri).open()?;
    w(out, &format!("Welcome to vsh, connected to {}", conn.uri()));
    w(out, "Type 'help' for commands, 'exit' to leave.");
    let mut line = String::new();
    loop {
        let _ = write!(out, "vsh # ");
        let _ = out.flush();
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(_) => break,
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some((&command, command_args)) = parts.split_first() else {
            continue;
        };
        match command {
            "exit" | "quit" => break,
            "help" => print_help(out),
            "version" => w(out, &format!("vsh {}", env!("CARGO_PKG_VERSION"))),
            // The shell holds exactly one connection; fleet verbs need N.
            "fleet" => w(
                out,
                "error: fleet commands are not available in the shell; run 'vsh fleet ...'",
            ),
            _ => {
                let result =
                    check_command(&parts).and_then(|()| execute(&conn, command, command_args, out));
                if let Err(err) = result {
                    w(out, &format!("error: {err}"));
                }
            }
        }
    }
    conn.close();
    Ok(())
}

fn invalid(msg: &str) -> VirtError {
    VirtError::new(virt_core::ErrorCode::InvalidArg, msg)
}

fn w(out: &mut dyn Write, line: &str) {
    let _ = writeln!(out, "{line}");
}

fn arg<'a>(args: &[&'a str], index: usize, what: &str) -> VirtResult<&'a str> {
    args.get(index)
        .copied()
        .ok_or_else(|| invalid(&format!("missing argument: {what}")))
}

/// Renders a left-aligned table with per-column widths sized to the
/// longest cell. Fixed paddings broke as soon as fleet-qualified names
/// (`host/domain`) outgrew them; sizing from the data keeps every row's
/// columns aligned no matter how long a name gets.
pub(crate) fn render_table(out: &mut dyn Write, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<&str>| -> String {
        let mut rendered = String::new();
        for (i, cell) in cells.iter().enumerate() {
            rendered.push(' ');
            rendered.push_str(cell);
            // No trailing padding after the last column.
            if i + 1 < cells.len() {
                for _ in cell.len()..widths[i] {
                    rendered.push(' ');
                }
            }
        }
        rendered
    };
    w(out, &line(headers.to_vec()));
    let total: usize = widths.iter().sum::<usize>() + widths.len() + 2;
    w(out, &"-".repeat(total));
    for row in rows {
        w(out, &line(row.iter().map(String::as_str).collect()));
    }
}

/// Renders a guard policy with its parameter, e.g. `keep-running (max 5)`.
fn policy_cell(policy: &GuardPolicy) -> String {
    match policy {
        GuardPolicy::KeepRunning { max_restarts } => format!("keep-running (max {max_restarts})"),
        GuardPolicy::AutoResume => "auto-resume".to_string(),
        GuardPolicy::GracefulStop { timeout_ms } => format!("graceful-stop ({timeout_ms} ms)"),
    }
}

/// `armed` / `gave-up` summary of one guard.
fn guard_state_cell(status: &GuardStatus) -> &'static str {
    if status.gave_up {
        "gave-up"
    } else {
        "armed"
    }
}

/// Countdown to the next scheduled retry, `-` when none is pending.
fn next_retry_cell(status: &GuardStatus) -> String {
    match status.next_retry {
        Some(delay) => format!("in {:.1}s", delay.as_secs_f64()),
        None => "-".to_string(),
    }
}

/// Parses `vsh guard set` policy arguments.
fn parse_guard_policy(args: &[&str]) -> VirtResult<GuardPolicy> {
    let kind = arg(
        args,
        0,
        "policy (keep-running | auto-resume | graceful-stop)",
    )?;
    let option = |flag: &str| -> VirtResult<Option<u64>> {
        match args.iter().position(|a| *a == flag) {
            Some(i) => args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| invalid(&format!("{flag} requires a number"))),
            None => Ok(None),
        }
    };
    match kind {
        "keep-running" => Ok(GuardPolicy::KeepRunning {
            max_restarts: option("--max-restarts")?
                .map(|v| v as u32)
                .unwrap_or(DEFAULT_MAX_RESTARTS),
        }),
        "auto-resume" => Ok(GuardPolicy::AutoResume),
        "graceful-stop" => Ok(GuardPolicy::GracefulStop {
            timeout_ms: option("--timeout-ms")?.unwrap_or(DEFAULT_STOP_TIMEOUT_MS),
        }),
        other => Err(invalid(&format!(
            "unknown guard policy '{other}'; use keep-running, auto-resume or graceful-stop"
        ))),
    }
}

fn read_xml_arg(value: &str) -> VirtResult<String> {
    // A value starting with '<' is inline XML, anything else is a path.
    if value.trim_start().starts_with('<') {
        Ok(value.to_string())
    } else {
        std::fs::read_to_string(value).map_err(|e| invalid(&format!("cannot read '{value}': {e}")))
    }
}

fn execute(conn: &Connect, command: &str, args: &[&str], out: &mut dyn Write) -> VirtResult<()> {
    match command {
        "uri" => w(out, &conn.uri()),
        "hostname" => w(out, &conn.hostname()?),
        "nodeinfo" => {
            let info = conn.node_info()?;
            w(out, &format!("{:<20} {}", "Hostname:", info.hostname));
            w(out, &format!("{:<20} {}", "Hypervisor:", info.hypervisor));
            w(out, &format!("{:<20} {}", "CPU(s):", info.cpus));
            w(
                out,
                &format!("{:<20} {} MiB", "Memory size:", info.memory_mib),
            );
            w(
                out,
                &format!("{:<20} {} MiB", "Free memory:", info.free_memory_mib),
            );
            w(
                out,
                &format!("{:<20} {}", "Active domains:", info.active_domains),
            );
            w(
                out,
                &format!("{:<20} {}", "Inactive domains:", info.inactive_domains),
            );
        }
        "capabilities" => {
            let caps = conn.capabilities()?;
            w(out, &caps.to_xml().to_pretty_string());
        }
        "list" => {
            let all = args.contains(&"--all");
            // One bulk fetch for the Guard column; drivers without a
            // guard engine simply leave it empty.
            let guards: HashMap<String, GuardStatus> = if all {
                conn.guard_list()
                    .unwrap_or_default()
                    .into_iter()
                    .map(|s| (s.domain.clone(), s))
                    .collect()
            } else {
                HashMap::new()
            };
            let mut rows: Vec<Vec<String>> = Vec::new();
            for domain in conn.list_all_domains()? {
                let info = domain.info()?;
                if !all && !info.state.is_active() {
                    continue;
                }
                let id = info
                    .id
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let mut row = vec![id, info.name.clone(), info.state.to_string()];
                if all {
                    row.push(if info.persistent { "yes" } else { "no" }.to_string());
                    row.push(if info.autostart { "enable" } else { "disable" }.to_string());
                    row.push(match guards.get(&info.name) {
                        Some(status) => {
                            format!("{} ({})", status.policy, guard_state_cell(status))
                        }
                        None => "-".to_string(),
                    });
                }
                rows.push(row);
            }
            let headers: &[&str] = if all {
                &["Id", "Name", "State", "Persistent", "Autostart", "Guard"]
            } else {
                &["Id", "Name", "State"]
            };
            render_table(out, headers, &rows);
        }
        "define" => {
            let xml = read_xml_arg(arg(args, 0, "xml file or inline xml")?)?;
            let domain = conn.define_domain_xml(&xml)?;
            w(out, &format!("Domain '{}' defined", domain.name()));
        }
        "create" => {
            let xml = read_xml_arg(arg(args, 0, "xml file or inline xml")?)?;
            let domain = conn.create_domain_xml(&xml)?;
            w(
                out,
                &format!("Domain '{}' created and started", domain.name()),
            );
        }
        "start" | "shutdown" | "reboot" | "destroy" | "crash" | "suspend" | "resume"
        | "undefine" | "managedsave" | "restore" => {
            let name = arg(args, 0, "domain name")?;
            let domain = conn.domain_lookup_by_name(name)?;
            match command {
                "start" => domain.start()?,
                "shutdown" => domain.shutdown()?,
                "reboot" => domain.reboot()?,
                "destroy" => domain.destroy()?,
                "crash" => domain.crash()?,
                "suspend" => domain.suspend()?,
                "resume" => domain.resume()?,
                "undefine" => domain.undefine()?,
                "managedsave" => domain.managed_save()?,
                _ => domain.restore()?,
            }
            w(out, &format!("Domain '{name}': {command} succeeded"));
        }
        "dominfo" => {
            let name = arg(args, 0, "domain name")?;
            let info = conn.domain_lookup_by_name(name)?.info()?;
            let id = info
                .id
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".to_string());
            w(out, &format!("{:<16} {}", "Id:", id));
            w(out, &format!("{:<16} {}", "Name:", info.name));
            w(out, &format!("{:<16} {}", "UUID:", info.uuid));
            w(out, &format!("{:<16} {}", "State:", info.state));
            w(out, &format!("{:<16} {}", "CPU(s):", info.vcpus));
            w(out, &format!("{:<16} {} MiB", "Memory:", info.memory_mib));
            w(
                out,
                &format!("{:<16} {} MiB", "Max memory:", info.max_memory_mib),
            );
            w(
                out,
                &format!(
                    "{:<16} {}",
                    "Persistent:",
                    if info.persistent { "yes" } else { "no" }
                ),
            );
            w(
                out,
                &format!(
                    "{:<16} {}",
                    "Autostart:",
                    if info.autostart { "enable" } else { "disable" }
                ),
            );
            w(
                out,
                &format!(
                    "{:<16} {}",
                    "Managed save:",
                    if info.has_managed_save { "yes" } else { "no" }
                ),
            );
            let guard = conn
                .domain_lookup_by_name(name)?
                .guard_status()
                .map(|status| {
                    format!(
                        "{} ({})",
                        policy_cell(&status.policy),
                        guard_state_cell(&status)
                    )
                })
                .unwrap_or_else(|_| "none".to_string());
            w(out, &format!("{:<16} {}", "Guard:", guard));
            w(
                out,
                &format!("{:<16} {:.1}s", "CPU time:", info.cpu_time_ns as f64 / 1e9),
            );
        }
        "domstate" => {
            let name = arg(args, 0, "domain name")?;
            w(out, &conn.domain_lookup_by_name(name)?.state()?.to_string());
        }
        "dumpxml" => {
            let name = arg(args, 0, "domain name")?;
            let xml = conn.domain_lookup_by_name(name)?.xml_desc()?;
            let element = virt_xml::Element::parse(&xml)?;
            w(out, &element.to_pretty_string());
        }
        "setmem" => {
            let name = arg(args, 0, "domain name")?;
            let mib: u64 = arg(args, 1, "memory MiB")?
                .parse()
                .map_err(|_| invalid("memory must be a number"))?;
            conn.domain_lookup_by_name(name)?.set_memory(mib)?;
            w(out, &format!("Domain '{name}' memory set to {mib} MiB"));
        }
        "setvcpus" => {
            let name = arg(args, 0, "domain name")?;
            let vcpus: u32 = arg(args, 1, "vcpu count")?
                .parse()
                .map_err(|_| invalid("vcpus must be a number"))?;
            conn.domain_lookup_by_name(name)?.set_vcpus(vcpus)?;
            w(out, &format!("Domain '{name}' vcpus set to {vcpus}"));
        }
        "autostart" => {
            let name = arg(args, 0, "domain name")?;
            let disable = args.contains(&"--disable");
            conn.domain_lookup_by_name(name)?.set_autostart(!disable)?;
            w(
                out,
                &format!(
                    "Domain '{name}' autostart {}",
                    if disable { "disabled" } else { "enabled" }
                ),
            );
        }
        "guard" => match args[0] {
            "set" => {
                let name = arg(args, 1, "domain name")?;
                let policy = parse_guard_policy(&args[2..])?;
                conn.domain_lookup_by_name(name)?.guard_set(&policy)?;
                w(
                    out,
                    &format!("Guard '{}' set on domain '{name}'", policy_cell(&policy)),
                );
            }
            "remove" => {
                let name = arg(args, 1, "domain name")?;
                conn.domain_lookup_by_name(name)?.guard_remove()?;
                w(out, &format!("Guard removed from domain '{name}'"));
            }
            "list" => {
                let rows: Vec<Vec<String>> = conn
                    .guard_list()?
                    .iter()
                    .map(|status| {
                        vec![
                            status.domain.clone(),
                            policy_cell(&status.policy),
                            status.restarts.to_string(),
                            guard_state_cell(status).to_string(),
                            next_retry_cell(status),
                        ]
                    })
                    .collect();
                render_table(
                    out,
                    &["Domain", "Policy", "Restarts", "State", "Next retry"],
                    &rows,
                );
            }
            "status" => {
                let name = arg(args, 1, "domain name")?;
                let status = conn.domain_lookup_by_name(name)?.guard_status()?;
                w(out, &format!("{:<16} {}", "Domain:", status.domain));
                w(
                    out,
                    &format!("{:<16} {}", "Policy:", policy_cell(&status.policy)),
                );
                w(out, &format!("{:<16} {}", "Restarts:", status.restarts));
                w(
                    out,
                    &format!("{:<16} {}", "State:", guard_state_cell(&status)),
                );
                w(
                    out,
                    &format!("{:<16} {}", "Next retry:", next_retry_cell(&status)),
                );
                w(out, &format!("{:<16} {}", "Last event:", status.last_event));
            }
            other => unreachable!("'guard {other}' is in COMMANDS but has no handler"),
        },
        "snapshot-create" => {
            let name = arg(args, 0, "domain name")?;
            let snap = arg(args, 1, "snapshot name")?;
            conn.domain_lookup_by_name(name)?.snapshot_create(snap)?;
            w(out, &format!("Snapshot '{snap}' created"));
        }
        "snapshot-list" => {
            let name = arg(args, 0, "domain name")?;
            for snap in conn.domain_lookup_by_name(name)?.snapshot_list()? {
                w(out, &snap);
            }
        }
        "snapshot-revert" => {
            let name = arg(args, 0, "domain name")?;
            let snap = arg(args, 1, "snapshot name")?;
            conn.domain_lookup_by_name(name)?.snapshot_revert(snap)?;
            w(
                out,
                &format!("Domain '{name}' reverted to snapshot '{snap}'"),
            );
        }
        "snapshot-delete" => {
            let name = arg(args, 0, "domain name")?;
            let snap = arg(args, 1, "snapshot name")?;
            conn.domain_lookup_by_name(name)?.snapshot_delete(snap)?;
            w(out, &format!("Snapshot '{snap}' deleted"));
        }
        "migrate" => {
            let name = arg(args, 0, "domain name")?;
            let dest_uri = arg(args, 1, "destination uri")?;
            let domain = conn.domain_lookup_by_name(name)?;
            let dest = Connect::builder(dest_uri).open()?;
            let report = domain.migrate_to(&dest, &MigrationOptions::default());
            dest.close();
            let report = report?;
            w(
                out,
                &format!(
                    "Migration complete: total {} ms, downtime {} ms, {} iterations, {} MiB moved{}",
                    report.total_ms,
                    report.downtime_ms,
                    report.iterations,
                    report.transferred_mib,
                    if report.converged { "" } else { " (did not converge)" }
                ),
            );
        }
        "domjobinfo" => {
            let name = arg(args, 0, "domain name")?;
            let stats = conn.domain_lookup_by_name(name)?.job_stats()?;
            w(out, &format!("{:<18} {}", "Job type:", stats.kind));
            w(out, &format!("{:<18} {}", "Job state:", stats.state));
            if stats.kind != virt_core::JobKind::None {
                w(
                    out,
                    &format!("{:<18} {} ms", "Time elapsed:", stats.elapsed_ms),
                );
                w(
                    out,
                    &format!("{:<18} {} MiB", "Data total:", stats.data_total_mib),
                );
                w(
                    out,
                    &format!("{:<18} {} MiB", "Data processed:", stats.data_processed_mib),
                );
                w(
                    out,
                    &format!("{:<18} {} MiB", "Data remaining:", stats.data_remaining_mib),
                );
                w(
                    out,
                    &format!("{:<18} {}", "Memory iterations:", stats.memory_iterations),
                );
                w(
                    out,
                    &format!("{:<18} {}%", "Progress:", stats.progress_percent()),
                );
                if let Some(eta) = stats.eta_ms() {
                    w(out, &format!("{:<18} {} ms", "ETA:", eta));
                }
                if stats.trace_id != 0 {
                    w(out, &format!("{:<18} {:016x}", "Trace id:", stats.trace_id));
                }
                if !stats.error.is_empty() {
                    w(out, &format!("{:<18} {}", "Error:", stats.error));
                }
            }
        }
        "domjobabort" => {
            let name = arg(args, 0, "domain name")?;
            conn.domain_lookup_by_name(name)?.abort_job()?;
            w(out, &format!("Job abort requested for domain '{name}'"));
        }
        "domstats" => {
            for record in conn.get_all_domain_stats()? {
                w(out, &format!("Domain: '{}'", record.name));
                for param in &record.params {
                    w(out, &format!("  {}={}", param.field, param.value));
                }
            }
        }
        "pool-list" => {
            w(
                out,
                &format!(" {:<20} {:<10} {:<10}", "Name", "State", "Backend"),
            );
            w(out, "--------------------------------------------");
            for name in conn.list_storage_pools()? {
                let info = conn.storage_pool_lookup_by_name(&name)?.info()?;
                let state = if info.active { "active" } else { "inactive" };
                w(
                    out,
                    &format!(" {:<20} {:<10} {:<10}", info.name, state, info.backend),
                );
            }
        }
        "pool-info" => {
            let name = arg(args, 0, "pool name")?;
            let info = conn.storage_pool_lookup_by_name(name)?.info()?;
            w(out, &format!("{:<16} {}", "Name:", info.name));
            w(out, &format!("{:<16} {}", "UUID:", info.uuid));
            w(out, &format!("{:<16} {}", "Backend:", info.backend));
            w(
                out,
                &format!(
                    "{:<16} {}",
                    "State:",
                    if info.active { "running" } else { "inactive" }
                ),
            );
            w(
                out,
                &format!("{:<16} {} MiB", "Capacity:", info.capacity_mib),
            );
            w(
                out,
                &format!("{:<16} {} MiB", "Allocation:", info.allocation_mib),
            );
            w(out, &format!("{:<16} {}", "Volumes:", info.volume_count));
        }
        "pool-define" => {
            let xml = read_xml_arg(arg(args, 0, "xml file or inline xml")?)?;
            let pool = conn.define_storage_pool_xml(&xml)?;
            w(out, &format!("Pool '{}' defined", pool.name()));
        }
        "pool-start" | "pool-stop" | "pool-undefine" => {
            let name = arg(args, 0, "pool name")?;
            let pool = conn.storage_pool_lookup_by_name(name)?;
            match command {
                "pool-start" => pool.start()?,
                "pool-stop" => pool.stop()?,
                _ => pool.undefine()?,
            }
            w(out, &format!("Pool '{name}': {command} succeeded"));
        }
        "vol-list" => {
            let pool = arg(args, 0, "pool name")?;
            for name in conn.storage_pool_lookup_by_name(pool)?.list_volumes()? {
                w(out, &name);
            }
        }
        "vol-create" => {
            let pool = arg(args, 0, "pool name")?;
            let xml = read_xml_arg(arg(args, 1, "xml file or inline xml")?)?;
            let vol = conn
                .storage_pool_lookup_by_name(pool)?
                .create_volume_xml(&xml)?;
            w(out, &format!("Volume '{}' created", vol.name()));
        }
        "vol-info" => {
            let pool = arg(args, 0, "pool name")?;
            let name = arg(args, 1, "volume name")?;
            let info = conn
                .storage_pool_lookup_by_name(pool)?
                .volume_lookup_by_name(name)?
                .info()?;
            w(out, &format!("{:<16} {}", "Name:", info.name));
            w(out, &format!("{:<16} {}", "Pool:", info.pool));
            w(out, &format!("{:<16} {}", "Format:", info.format));
            w(
                out,
                &format!("{:<16} {} MiB", "Capacity:", info.capacity_mib),
            );
            w(
                out,
                &format!("{:<16} {} MiB", "Allocation:", info.allocation_mib),
            );
            w(out, &format!("{:<16} {}", "Path:", info.path));
        }
        "vol-delete" => {
            let pool = arg(args, 0, "pool name")?;
            let name = arg(args, 1, "volume name")?;
            conn.storage_pool_lookup_by_name(pool)?
                .volume_lookup_by_name(name)?
                .delete()?;
            w(out, &format!("Volume '{name}' deleted"));
        }
        "vol-resize" => {
            let pool = arg(args, 0, "pool name")?;
            let name = arg(args, 1, "volume name")?;
            let mib: u64 = arg(args, 2, "capacity MiB")?
                .parse()
                .map_err(|_| invalid("capacity must be a number"))?;
            conn.storage_pool_lookup_by_name(pool)?
                .volume_lookup_by_name(name)?
                .resize(mib)?;
            w(out, &format!("Volume '{name}' resized to {mib} MiB"));
        }
        "vol-clone" => {
            let pool = arg(args, 0, "pool name")?;
            let source = arg(args, 1, "source volume")?;
            let new_name = arg(args, 2, "new volume name")?;
            conn.storage_pool_lookup_by_name(pool)?
                .clone_volume(source, new_name)?;
            w(out, &format!("Volume '{source}' cloned to '{new_name}'"));
        }
        "net-list" => {
            w(
                out,
                &format!(" {:<20} {:<10} {:<10}", "Name", "State", "Forward"),
            );
            w(out, "--------------------------------------------");
            for name in conn.list_networks()? {
                let info = conn.network_lookup_by_name(&name)?.info()?;
                let state = if info.active { "active" } else { "inactive" };
                w(
                    out,
                    &format!(" {:<20} {:<10} {:<10}", info.name, state, info.forward),
                );
            }
        }
        "net-info" => {
            let name = arg(args, 0, "network name")?;
            let info = conn.network_lookup_by_name(name)?.info()?;
            w(out, &format!("{:<16} {}", "Name:", info.name));
            w(out, &format!("{:<16} {}", "UUID:", info.uuid));
            w(out, &format!("{:<16} {}", "Bridge:", info.bridge));
            w(out, &format!("{:<16} {}", "Forward:", info.forward));
            w(
                out,
                &format!(
                    "{:<16} {}",
                    "Active:",
                    if info.active { "yes" } else { "no" }
                ),
            );
            w(out, &format!("{:<16} {}", "Leases:", info.leases.len()));
        }
        "net-define" => {
            let xml = read_xml_arg(arg(args, 0, "xml file or inline xml")?)?;
            let net = conn.define_network_xml(&xml)?;
            w(out, &format!("Network '{}' defined", net.name()));
        }
        "net-start" | "net-stop" | "net-undefine" => {
            let name = arg(args, 0, "network name")?;
            let net = conn.network_lookup_by_name(name)?;
            match command {
                "net-start" => net.start()?,
                "net-stop" => net.stop()?,
                _ => net.undefine()?,
            }
            w(out, &format!("Network '{name}': {command} succeeded"));
        }
        other => unreachable!("'{other}' is in COMMANDS but has no handler"),
    }
    Ok(())
}

fn print_help(out: &mut dyn Write) {
    w(out, "vsh — console client for the virt toolkit");
    w(out, "");
    w(out, "usage: vsh [-c URI] [options] <command> [args...]");
    w(out, "");
    w(out, "Options:");
    w(
        out,
        "  --call-deadline-ms <ms>   per-call deadline for remote connections",
    );
    w(
        out,
        "  --retries <n>             retry idempotent calls up to n times (the circuit",
    );
    w(
        out,
        "                            breaker does not cut a call's retries short)",
    );
    w(
        out,
        "  --no-reconnect            fail instead of re-dialing a dead connection",
    );
    w(
        out,
        "  --hosts name=uri,...      fleet members (default: VSH_FLEET_HOSTS)",
    );
    w(
        out,
        "  --policy <name>           fleet placement: spread, pack or memweight",
    );
    for (title, group) in [
        ("Connection:", Connection),
        ("Domains:", Domains),
        ("Guards (HA supervisor):", Guards),
        ("Jobs & stats:", Jobs),
        ("Storage:", Storage),
        ("Networks:", Networks),
        ("Fleet (multi-host):", Fleet),
    ] {
        w(out, title);
        for (name, args, _) in COMMANDS.iter().filter(|c| c.2 == group) {
            w(out, format!("  {name} {args}").trim_end());
        }
    }
}

/// Convenience wrapper used by tests: runs a command line given as one
/// whitespace-separated string and returns `(exit_code, output)`.
#[cfg(test)]
fn run_line(line: &str) -> (i32, String) {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let mut out = Vec::new();
    let code = run(&args, &mut out);
    (code, String::from_utf8_lossy(&out).into_owned())
}

/// Serializes tests that flip the process-global flight recorder, so
/// `trace off` in one test cannot blind another running concurrently in
/// the same harness process.
#[cfg(test)]
pub(crate) fn recorder_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use virt_core::xmlfmt::DomainConfig;

    #[test]
    fn help_lists_command_groups() {
        let (code, output) = run_line("help");
        assert_eq!(code, 0);
        assert!(output.contains("Domains:"));
        assert!(output.contains("migrate"));
        assert!(output.contains("pool-list"));
    }

    #[test]
    fn version_prints() {
        let (code, output) = run_line("version");
        assert_eq!(code, 0);
        assert!(output.starts_with("vsh "));
    }

    #[test]
    fn no_command_is_an_error() {
        let (code, output) = run_line("");
        assert_eq!(code, 1);
        assert!(output.contains("no command"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let (code, output) = run_line("frobnicate");
        assert_eq!(code, 1);
        assert!(output.contains("unknown command"));
    }

    #[test]
    fn an_unknown_command_is_refused_before_dialing() {
        let (code, output) = run_line("-c qemu+unix:///system?socket=/nonexistent bogus");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("unknown command 'bogus'"), "{output}");
    }

    #[test]
    fn every_listed_command_reaches_its_handler() {
        // Bare names: most stop at a missing argument, none may fall out
        // of `execute` or `run_fleet` (which panic) or be refused as
        // unknown. The fleet rows get one member so they reach their verb.
        for (name, ..) in COMMANDS {
            let (_, output) = run_line(&format!("--hosts a=test:///default {name}"));
            assert!(
                !output.contains("error: invalid argument: unknown"),
                "{name}: {output}"
            );
        }
    }

    #[test]
    fn uri_and_hostname_against_test_driver() {
        let (code, output) = run_line("uri");
        assert_eq!(code, 0);
        assert_eq!(output.trim(), "test:///default");
        let (code, output) = run_line("hostname");
        assert_eq!(code, 0);
        assert_eq!(output.trim(), "test-host");
    }

    #[test]
    fn list_shows_the_canonical_guest() {
        let (code, output) = run_line("list");
        assert_eq!(code, 0);
        assert!(output.contains("test"));
        assert!(output.contains("running"));
        assert!(!output.contains("Persistent"));
    }

    #[test]
    fn list_all_shows_persistent_and_autostart_columns() {
        let (code, output) = run_line("autostart test");
        assert_eq!(code, 0, "{output}");
        let (code, output) = run_line("list --all");
        assert_eq!(code, 0);
        assert!(output.contains("Persistent"), "{output}");
        assert!(output.contains("Autostart"), "{output}");
        let row = output.lines().find(|l| l.contains("test")).unwrap();
        assert!(row.contains("yes"), "{row}");
    }

    #[test]
    fn nodeinfo_prints_fields() {
        let (code, output) = run_line("nodeinfo");
        assert_eq!(code, 0);
        assert!(output.contains("Hypervisor:"));
        assert!(output.contains("qemu"));
    }

    #[test]
    fn dominfo_and_domstate() {
        let (code, output) = run_line("dominfo test");
        assert_eq!(code, 0);
        assert!(output.contains("Name:"));
        assert!(output.contains("running"));
        let (code, output) = run_line("domstate test");
        assert_eq!(code, 0);
        assert_eq!(output.trim(), "running");
    }

    #[test]
    fn lifecycle_commands_on_missing_domain_fail() {
        let (code, output) = run_line("start ghost");
        assert_eq!(code, 1);
        assert!(output.contains("domain not found"));
    }

    #[test]
    fn dumpxml_pretty_prints() {
        let (code, output) = run_line("dumpxml test");
        assert_eq!(code, 0);
        assert!(output.contains("<domain"));
        assert!(output.contains("<name>test</name>"));
    }

    #[test]
    fn define_via_file_then_manage() {
        let path = std::env::temp_dir().join(format!("vsh-test-{}.xml", std::process::id()));
        std::fs::write(&path, DomainConfig::new("cli-vm", 256, 1).to_xml_string()).unwrap();
        // Each run_line opens a fresh private test connection, so define +
        // manage must happen in one process-level connection to persist.
        // Instead verify the define itself works and reports the name.
        let (code, output) = run_line(&format!("define {}", path.display()));
        assert_eq!(code, 0);
        assert!(output.contains("'cli-vm' defined"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reports_error() {
        let (code, output) = run_line("define /no/such/file.xml");
        assert_eq!(code, 1);
        assert!(output.contains("cannot read"));
    }

    #[test]
    fn pool_and_net_listings() {
        let (code, output) = run_line("pool-list");
        assert_eq!(code, 0);
        assert!(output.contains("default"));
        let (code, output) = run_line("net-list");
        assert_eq!(code, 0);
        assert!(output.contains("default"));
        assert!(output.contains("nat"));
    }

    #[test]
    fn pool_info_details() {
        let (code, output) = run_line("pool-info default");
        assert_eq!(code, 0);
        assert!(output.contains("Backend:"));
        assert!(output.contains("dir"));
    }

    #[test]
    fn net_info_details() {
        let (code, output) = run_line("net-info default");
        assert_eq!(code, 0);
        assert!(output.contains("Bridge:"));
        assert!(output.contains("virbr-default"));
    }

    #[test]
    fn vol_listing_on_default_pool() {
        let (code, _output) = run_line("vol-list default");
        assert_eq!(code, 0);
    }

    #[test]
    fn connect_flag_requires_value() {
        let (code, output) = run_line("-c");
        assert_eq!(code, 1);
        assert!(output.contains("-c requires"));
    }

    #[test]
    fn bad_connect_uri_fails() {
        let (code, output) = run_line("-c garbage list");
        assert_eq!(code, 1);
        assert!(output.contains("invalid connection uri"));
    }

    #[test]
    fn resilience_flags_are_accepted() {
        let (code, output) =
            run_line("--call-deadline-ms 5000 --retries 3 --no-reconnect hostname");
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("test-host"));
    }

    #[test]
    fn resilience_flags_validate_their_values() {
        let (code, output) = run_line("--call-deadline-ms soon hostname");
        assert_eq!(code, 1);
        assert!(output.contains("--call-deadline-ms requires"));
        let (code, output) = run_line("--retries many hostname");
        assert_eq!(code, 1);
        assert!(output.contains("--retries requires"));
    }

    #[test]
    fn setmem_validates_number() {
        let (code, output) = run_line("setmem test lots");
        assert_eq!(code, 1);
        assert!(output.contains("memory must be a number"));
    }
}

#[cfg(test)]
mod shell_tests {
    use super::*;

    fn run_shell_script(script: &str) -> String {
        let mut input = std::io::Cursor::new(script.to_string());
        let mut out = Vec::new();
        run_shell("test:///default", &mut input, &mut out).expect("shell runs");
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn shell_keeps_one_connection_across_commands() {
        // define + start + dominfo against the SAME private test host —
        // something the one-shot mode cannot do.
        let xml = "<domain><name>shellvm</name><memory>64</memory><vcpu>1</vcpu></domain>";
        let output = run_shell_script(&format!(
            "define {xml}\nstart shellvm\ndomstate shellvm\nexit\n"
        ));
        assert!(output.contains("'shellvm' defined"), "{output}");
        assert!(output.contains("start succeeded"), "{output}");
        assert!(output.contains("running"), "{output}");
    }

    #[test]
    fn shell_survives_command_errors() {
        let output = run_shell_script("start ghost\nhostname\nexit\n");
        assert!(output.contains("error: domain not found"), "{output}");
        assert!(output.contains("test-host"), "{output}");
    }

    #[test]
    fn shell_exits_on_eof_and_quit() {
        let output = run_shell_script("hostname\n"); // EOF ends it
        assert!(output.contains("test-host"));
        let output = run_shell_script("quit\nhostname\n");
        assert!(
            !output.contains("test-host"),
            "commands after quit must not run"
        );
    }

    #[test]
    fn shell_ignores_blank_lines_and_prints_help() {
        let output = run_shell_script("\n\nhelp\nexit\n");
        assert!(output.contains("Domains:"));
    }
}

#[cfg(test)]
mod migrate_cli_tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use virt_core::xmlfmt::DomainConfig;
    use virtd::Virtd;

    fn unique(name: &str) -> String {
        static N: AtomicU64 = AtomicU64::new(0);
        format!(
            "{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        )
    }

    #[test]
    fn migrate_command_moves_a_domain_between_daemons() {
        let clock = hypersim::SimClock::new();
        let a = unique("vsh-mig-a");
        let b = unique("vsh-mig-b");
        let src = Virtd::builder(&a)
            .clock(clock.clone())
            .with_quiet_hosts()
            .build()
            .unwrap();
        src.register_memory_endpoint(&a).unwrap();
        let dst = Virtd::builder(&b)
            .clock(clock)
            .with_quiet_hosts()
            .build()
            .unwrap();
        dst.register_memory_endpoint(&b).unwrap();
        let src_uri = format!("qemu+memory://{a}/system");
        let dst_uri = format!("qemu+memory://{b}/system");

        // Seed a running domain through the library (XML with spaces does
        // not survive run_line's whitespace split).
        let conn = virt_core::Connect::builder(&src_uri).open().unwrap();
        let domain = conn
            .define_domain(&DomainConfig::new("wanderer", 512, 1))
            .unwrap();
        domain.start().unwrap();
        conn.close();

        let (code, output) = run_line(&format!("-c {src_uri} migrate wanderer {dst_uri}"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Migration complete"), "{output}");

        let (code, output) = run_line(&format!("-c {dst_uri} domstate wanderer"));
        assert_eq!(code, 0, "{output}");
        assert_eq!(output.trim(), "running");
        let (code, output) = run_line(&format!("-c {src_uri} list --all"));
        assert_eq!(code, 0);
        assert!(!output.contains("wanderer"), "{output}");

        src.shutdown();
        dst.shutdown();
    }

    #[test]
    fn domjobinfo_and_domstats_through_a_daemon() {
        let name = unique("vsh-jobs");
        let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let uri = format!("qemu+memory://{name}/system");

        let conn = virt_core::Connect::builder(&uri).open().unwrap();
        let domain = conn
            .define_domain(&DomainConfig::new("worker", 512, 1))
            .unwrap();
        domain.start().unwrap();
        domain.managed_save().unwrap();
        conn.close();

        // The managed save ran as a (coarse) job; its stats are queryable.
        let (code, output) = run_line(&format!("-c {uri} domjobinfo worker"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Job type:          save"), "{output}");
        assert!(output.contains("Job state:         completed"), "{output}");
        assert!(output.contains("Progress:          100%"), "{output}");

        // Bulk stats include the domain and its job summary.
        let (code, output) = run_line(&format!("-c {uri} domstats"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Domain: 'worker'"), "{output}");
        assert!(output.contains("state.state="), "{output}");
        assert!(output.contains("job.kind=save"), "{output}");

        // No job running → abort is refused.
        let (code, output) = run_line(&format!("-c {uri} domjobabort worker"));
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("no active job"), "{output}");

        daemon.shutdown();
    }

    #[test]
    fn domjobinfo_prints_the_trace_id_for_a_traced_job() {
        let _guard = crate::recorder_test_guard();
        let recorder = virt_core::metrics::recorder::FlightRecorder::global();
        recorder.set_enabled(true);

        let name = unique("vsh-trace-job");
        let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let uri = format!("qemu+memory://{name}/system");

        // Run the save while tracing is on: the job captures the trace
        // id of the RPC dispatch span it was started under.
        let conn = virt_core::Connect::builder(&uri).open().unwrap();
        let domain = conn
            .define_domain(&DomainConfig::new("worker", 512, 1))
            .unwrap();
        domain.start().unwrap();
        domain.managed_save().unwrap();
        conn.close();
        recorder.set_enabled(false);
        recorder.drain_and_clear();

        let (code, output) = run_line(&format!("-c {uri} domjobinfo worker"));
        assert_eq!(code, 0, "{output}");
        let line = output
            .lines()
            .find(|l| l.contains("Trace id:"))
            .unwrap_or_else(|| panic!("no trace id line in: {output}"));
        let id = line.split_whitespace().last().unwrap();
        assert_eq!(id.len(), 16, "{output}");
        assert_ne!(u64::from_str_radix(id, 16).unwrap(), 0, "{output}");

        daemon.shutdown();
    }

    #[test]
    fn domjobinfo_reports_idle_for_untouched_domain() {
        let conn = virt_core::Connect::builder("test:///default")
            .open()
            .unwrap();
        let domain = conn
            .define_domain(&DomainConfig::new("idle-vm", 128, 1))
            .unwrap();
        let stats = domain.job_stats().unwrap();
        assert_eq!(stats.kind, virt_core::JobKind::None);
        assert_eq!(stats.state, virt_core::JobState::None);
    }
}

#[cfg(test)]
mod guard_cli_tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use virt_core::xmlfmt::DomainConfig;
    use virtd::Virtd;

    fn unique(name: &str) -> String {
        static N: AtomicU64 = AtomicU64::new(0);
        format!(
            "{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        )
    }

    fn daemon_with_domain(tag: &str, domain: &str) -> (Virtd, String) {
        let endpoint = unique(tag);
        let daemon = Virtd::builder(&endpoint)
            .with_quiet_hosts()
            .build()
            .unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();
        let uri = format!("qemu+memory://{endpoint}/system");
        let conn = virt_core::Connect::builder(&uri).open().unwrap();
        conn.define_domain(&DomainConfig::new(domain, 256, 1))
            .unwrap()
            .start()
            .unwrap();
        conn.close();
        (daemon, uri)
    }

    #[test]
    fn guard_set_status_list_and_remove() {
        let (daemon, uri) = daemon_with_domain("vsh-guard", "web");

        let (code, output) = run_line(&format!(
            "-c {uri} guard set web keep-running --max-restarts 3"
        ));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("keep-running (max 3)"), "{output}");

        let (code, output) = run_line(&format!("-c {uri} guard status web"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Policy:"), "{output}");
        assert!(output.contains("armed"), "{output}");
        assert!(output.contains("Next retry:      -"), "{output}");

        let (code, output) = run_line(&format!("-c {uri} guard list"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("web"), "{output}");
        assert!(output.contains("Restarts"), "{output}");

        // Guard status surfaces in dominfo and list --all.
        let (code, output) = run_line(&format!("-c {uri} dominfo web"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Guard:"), "{output}");
        assert!(output.contains("keep-running (max 3) (armed)"), "{output}");
        let (code, output) = run_line(&format!("-c {uri} list --all"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Guard"), "{output}");
        assert!(output.contains("keep-running"), "{output}");

        let (code, output) = run_line(&format!("-c {uri} guard remove web"));
        assert_eq!(code, 0, "{output}");
        let (code, output) = run_line(&format!("-c {uri} guard status web"));
        assert_eq!(code, 1, "{output}");

        daemon.shutdown();
    }

    #[test]
    fn guard_rejects_unknown_policy_and_verbs() {
        let (code, output) = run_line("guard set web levitate");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("unknown guard policy"), "{output}");
        let (code, output) = run_line("guard frobnicate");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("unknown guard verb"), "{output}");
    }

    #[test]
    fn crash_verb_reaches_the_daemon() {
        let (daemon, uri) = daemon_with_domain("vsh-crash", "victim");
        let (code, output) = run_line(&format!("-c {uri} crash victim"));
        assert_eq!(code, 0, "{output}");
        let (code, output) = run_line(&format!("-c {uri} domstate victim"));
        assert_eq!(code, 0, "{output}");
        assert_eq!(output.trim(), "crashed");
        daemon.shutdown();
    }

    #[test]
    fn autostart_round_trips_through_a_daemon() {
        // Satellite check: the autostart wire procs work end to end.
        let (daemon, uri) = daemon_with_domain("vsh-as", "boots");
        let (code, output) = run_line(&format!("-c {uri} autostart boots"));
        assert_eq!(code, 0, "{output}");
        let (code, output) = run_line(&format!("-c {uri} dominfo boots"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Autostart:       enable"), "{output}");
        let (code, output) = run_line(&format!("-c {uri} autostart boots --disable"));
        assert_eq!(code, 0, "{output}");
        let (code, output) = run_line(&format!("-c {uri} dominfo boots"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Autostart:       disable"), "{output}");
        daemon.shutdown();
    }
}

#[cfg(test)]
mod fleet_cli_tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use virt_core::xmlfmt::DomainConfig;
    use virtd::Virtd;

    fn unique(name: &str) -> String {
        static N: AtomicU64 = AtomicU64::new(0);
        format!(
            "{name}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        )
    }

    fn member(tag: &str) -> (Virtd, String) {
        let endpoint = unique(tag);
        let daemon = Virtd::builder(&endpoint)
            .with_quiet_hosts()
            .build()
            .unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();
        let uri = format!("qemu+memory://{endpoint}/system");
        (daemon, uri)
    }

    /// Returns the column index where `needle` starts in `line`.
    fn col(line: &str, needle: &str) -> usize {
        line.find(needle)
            .unwrap_or_else(|| panic!("'{needle}' not in '{line}'"))
    }

    #[test]
    fn fleet_requires_members() {
        let (code, output) = run_line("fleet hosts");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("VSH_FLEET_HOSTS"), "{output}");
    }

    #[test]
    fn fleet_rejects_unknown_verbs_and_bad_specs() {
        let (code, output) = run_line("fleet --hosts a=test:///default frobnicate");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("unknown fleet verb"), "{output}");
        let (code, output) = run_line("fleet --hosts nonsense hosts");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("name=uri"), "{output}");
        let (code, output) = run_line("fleet --hosts a=test:///default --policy bogus hosts");
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("--policy"), "{output}");
    }

    #[test]
    fn fleet_verbs_place_list_migrate_and_evacuate() {
        let (da, uri_a) = member("vshf-a");
        let (db, uri_b) = member("vshf-b");
        let hosts = format!("--hosts a={uri_a},b={uri_b}");

        // hosts: both members reachable, with capacity columns.
        let (code, output) = run_line(&format!("fleet {hosts} hosts"));
        assert_eq!(code, 0, "{output}");
        let up = output.lines().filter(|l| l.contains(" up")).count();
        assert_eq!(up, 2, "{output}");

        // create twice under spread: one domain per host.
        let first = unique("fleet-guest-with-a-long-name");
        let second = unique("fleet-guest");
        for name in [&first, &second] {
            let (code, output) = run_line(&format!("fleet {hosts} create {name} 256 1"));
            assert_eq!(code, 0, "{output}");
            assert!(output.contains("created and started"), "{output}");
        }

        // list: fleet-qualified names, columns aligned even though the
        // first name is far longer than any fixed padding.
        let (code, output) = run_line(&format!("fleet {hosts} list"));
        assert_eq!(code, 0, "{output}");
        let lines: Vec<&str> = output.lines().collect();
        let header = lines[0];
        let state_col = col(header, "State");
        for row in lines.iter().skip(2).filter(|l| l.contains('/')) {
            assert_eq!(col(row, "running"), state_col, "misaligned row in {output}");
        }
        assert!(output.contains(&format!("/{first}")), "{output}");

        // migrate by bare name: the fleet locates the source itself.
        let source = if output.contains(&format!("a/{first}")) {
            "a"
        } else {
            "b"
        };
        let dest = if source == "a" { "b" } else { "a" };
        let (code, output) = run_line(&format!("fleet {hosts} migrate {first} {dest}"));
        assert_eq!(code, 0, "{output}");
        assert!(
            output.contains(&format!("migrated {source} -> {dest}")),
            "{output}"
        );

        // Both guests now live somewhere; drain whichever host holds the
        // second one (host/domain syntax pins the source explicitly).
        let (code, output) = run_line(&format!("fleet {hosts} list"));
        assert_eq!(code, 0, "{output}");
        let row = output
            .lines()
            .find(|l| l.contains(&format!("/{second}")))
            .unwrap();
        let holder = row.split('/').next().unwrap().trim();
        let (code, output) = run_line(&format!("fleet {hosts} evacuate {holder}"));
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("Evacuation of"), "{output}");
        assert!(output.contains("0 failed"), "{output}");

        da.shutdown();
        db.shutdown();
    }

    #[test]
    fn plain_list_aligns_columns_past_the_old_fixed_padding() {
        let name = unique("vshf-wide");
        let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let uri = format!("qemu+memory://{name}/system");

        let conn = virt_core::Connect::builder(&uri).open().unwrap();
        let long = "a-domain-name-well-past-twenty-characters";
        for guest in [long, "tiny"] {
            conn.define_domain(&DomainConfig::new(guest, 128, 1))
                .unwrap()
                .start()
                .unwrap();
        }
        conn.close();

        let (code, output) = run_line(&format!("-c {uri} list"));
        assert_eq!(code, 0, "{output}");
        let lines: Vec<&str> = output.lines().collect();
        let state_col = col(lines[0], "State");
        assert!(
            state_col > 20 + " Id   ".len(),
            "Name column did not widen: {output}"
        );
        for row in lines.iter().skip(2) {
            assert_eq!(col(row, "running"), state_col, "misaligned row in {output}");
        }

        daemon.shutdown();
    }
}
