//! `vsh fleet` — multi-host verbs over a [`FleetManager`].
//!
//! ```text
//! vsh fleet --hosts a=unix:/tmp/a.sock,b=unix:/tmp/b.sock [--policy P] <verb> [args...]
//! ```
//!
//! The member set comes from `--hosts name=uri,...` or the
//! `VSH_FLEET_HOSTS` environment variable (same syntax); the single
//! `-c` connection flag does not apply here. Verbs:
//!
//! - `hosts` — health and capacity of every member
//! - `list` — every domain fleet-wide, qualified as `host/domain`
//! - `create <name> <memory-MiB> <vcpus>` — place, define and start
//! - `migrate <domain|host/domain> <dest-host>` — cross-host live migration
//! - `evacuate <host>` — drain all running domains off one member

use std::io::Write;
use std::time::Duration;

use virt_core::driver::MigrationOptions;
use virt_core::VirtResult;
use virt_fleet::{policy_by_name, FleetManager, PlacementRequest};

use crate::{arg, invalid, render_table, w};

/// Parses `name=uri,name=uri,...` into host pairs.
fn parse_hosts(spec: &str) -> VirtResult<Vec<(String, String)>> {
    let mut hosts = Vec::new();
    for member in spec.split(',').filter(|m| !m.is_empty()) {
        let (name, uri) = member
            .split_once('=')
            .ok_or_else(|| invalid("--hosts entries must look like name=uri"))?;
        if name.is_empty() || uri.is_empty() {
            return Err(invalid("--hosts entries must look like name=uri"));
        }
        hosts.push((name.to_string(), uri.to_string()));
    }
    if hosts.is_empty() {
        return Err(invalid(
            "fleet needs members: pass --hosts name=uri,... or set VSH_FLEET_HOSTS",
        ));
    }
    Ok(hosts)
}

/// Entry point for the `fleet` command family. `args` excludes the
/// leading `fleet` token and starts with a verb from `COMMANDS`;
/// `hosts_spec`, `policy_name` and `call_deadline` are the global
/// `--hosts`, `--policy` and `--call-deadline-ms` if given.
pub(crate) fn run_fleet(
    args: &[&str],
    hosts_spec: Option<String>,
    policy_name: Option<String>,
    call_deadline: Option<Duration>,
    out: &mut dyn Write,
) -> VirtResult<()> {
    let hosts_spec = hosts_spec.or_else(|| std::env::var("VSH_FLEET_HOSTS").ok());
    let spec = hosts_spec.ok_or_else(|| {
        invalid("fleet needs members: pass --hosts name=uri,... or set VSH_FLEET_HOSTS")
    })?;

    let mut builder = FleetManager::builder();
    for (name, uri) in parse_hosts(&spec)? {
        builder = builder.host(name, uri);
    }
    if let Some(name) = &policy_name {
        let policy = policy_by_name(name)
            .ok_or_else(|| invalid("--policy must be spread, pack or memweight"))?;
        builder = builder.policy(policy);
    }
    if call_deadline.is_some() {
        builder = builder.call_deadline(call_deadline);
    }
    let fleet = builder.build()?;

    let (&verb, verb_args) = args.split_first().expect("checked against COMMANDS");
    match verb {
        "hosts" => {
            fleet.refresh();
            let rows: Vec<Vec<String>> = fleet
                .hosts()
                .iter()
                .map(|h| {
                    vec![
                        h.name.clone(),
                        if h.up { "up" } else { "down" }.to_string(),
                        h.domains.to_string(),
                        h.active.to_string(),
                        h.memory_mib.to_string(),
                        h.free_memory_mib.to_string(),
                        h.uri.clone(),
                    ]
                })
                .collect();
            render_table(
                out,
                &[
                    "Host", "State", "Domains", "Active", "MiB", "Free MiB", "URI",
                ],
                &rows,
            );
        }
        "list" => {
            fleet.refresh();
            let rows: Vec<Vec<String>> = fleet
                .list()
                .iter()
                .map(|(host, d)| {
                    vec![
                        format!("{host}/{}", d.name),
                        d.state.to_string(),
                        d.memory_mib.to_string(),
                        d.vcpus.to_string(),
                    ]
                })
                .collect();
            render_table(out, &["Name", "State", "MiB", "VCPUs"], &rows);
        }
        "create" => {
            let name = arg(verb_args, 0, "domain name")?;
            let memory: u64 = arg(verb_args, 1, "memory MiB")?
                .parse()
                .map_err(|_| invalid("memory must be a MiB count"))?;
            let vcpus: u32 = arg(verb_args, 2, "vcpu count")?
                .parse()
                .map_err(|_| invalid("vcpus must be a number"))?;
            fleet.refresh();
            let host = fleet.create(&PlacementRequest::new(name, memory, vcpus))?;
            w(
                out,
                &format!("Domain '{name}' created and started on '{host}'"),
            );
        }
        "migrate" => {
            let target = arg(verb_args, 0, "domain (or host/domain)")?;
            let dest = arg(verb_args, 1, "destination host")?;
            fleet.refresh();
            // `host/domain` pins the source explicitly; a bare name is
            // located through the inventory cache.
            let (source, domain) = match target.split_once('/') {
                Some((host, domain)) => (host.to_string(), domain),
                None => (fleet.locate(target)?, target),
            };
            let report = fleet.migrate(&source, domain, dest, &MigrationOptions::default())?;
            w(
                out,
                &format!(
                    "Domain '{domain}' migrated {source} -> {dest} ({} MiB in {} ms)",
                    report.transferred_mib, report.total_ms
                ),
            );
        }
        "evacuate" => {
            let source = arg(verb_args, 0, "source host")?;
            fleet.refresh();
            let report = fleet.evacuate(source, &MigrationOptions::default())?;
            for (domain, dest) in &report.migrated {
                w(
                    out,
                    &format!("Domain '{domain}' migrated {source} -> {dest}"),
                );
            }
            for (domain, reason) in &report.failed {
                w(out, &format!("Domain '{domain}' NOT migrated: {reason}"));
            }
            w(
                out,
                &format!(
                    "Evacuation of '{source}' complete: {} migrated, {} failed",
                    report.migrated.len(),
                    report.failed.len()
                ),
            );
        }
        other => unreachable!("'fleet {other}' is in COMMANDS but has no handler"),
    }
    Ok(())
}
