//! `virtd` — the management daemon binary.
//!
//! Runs the daemon as a standalone process, serving the remote protocol
//! on Unix and/or TCP sockets and the admin protocol on its own Unix
//! socket, until terminated.
//!
//! ```text
//! virtd [--name NAME] [--unix PATH] [--tcp ADDR] [--admin-unix PATH]
//!       [--max-clients N] [--quiet-hosts] [--slow-migration] [--statedir DIR]
//! ```
//!
//! Defaults: name `virtd`, remote socket `/tmp/virtd.sock`, admin socket
//! `/tmp/virtd-admin.sock`, realistic host latency models, no state
//! directory (all state in memory). With `--statedir`, definitions are
//! persisted crash-safe under `DIR` and recovered at the next start.

use virt_rpc::transport::{TcpSocketListener, UnixSocketListener};
use virtd::{Virtd, VirtdConfig};

struct Options {
    name: String,
    unix: Option<String>,
    tcp: Option<String>,
    admin_unix: String,
    max_clients: u32,
    quiet_hosts: bool,
    slow_migration: bool,
    statedir: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        name: "virtd".to_string(),
        unix: Some("/tmp/virtd.sock".to_string()),
        tcp: None,
        admin_unix: "/tmp/virtd-admin.sock".to_string(),
        max_clients: 120,
        quiet_hosts: false,
        slow_migration: false,
        statedir: None,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--name" => {
                options.name = value(args, i, "--name")?;
                i += 1;
            }
            "--unix" => {
                options.unix = Some(value(args, i, "--unix")?);
                i += 1;
            }
            "--no-unix" => options.unix = None,
            "--tcp" => {
                options.tcp = Some(value(args, i, "--tcp")?);
                i += 1;
            }
            "--admin-unix" => {
                options.admin_unix = value(args, i, "--admin-unix")?;
                i += 1;
            }
            "--max-clients" => {
                options.max_clients = value(args, i, "--max-clients")?
                    .parse()
                    .map_err(|_| "--max-clients must be a number".to_string())?;
                i += 1;
            }
            "--quiet-hosts" => options.quiet_hosts = true,
            "--slow-migration" => options.slow_migration = true,
            "--statedir" => {
                options.statedir = Some(value(args, i, "--statedir")?);
                i += 1;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: virtd [--name NAME] [--unix PATH|--no-unix] [--tcp ADDR] \
                            [--admin-unix PATH] [--max-clients N] [--quiet-hosts] \
                            [--slow-migration] [--statedir DIR]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let mut config = VirtdConfig::new().max_clients(options.max_clients);
    if let Some(dir) = &options.statedir {
        config = config.statedir(dir);
    }
    let mut builder = Virtd::builder(&options.name).config(config);
    builder = if options.quiet_hosts {
        builder.with_quiet_hosts()
    } else {
        builder.with_default_hosts()
    };
    if options.slow_migration {
        // Chaos-test knob: replaces the qemu host with one whose
        // migration transfer takes real wall time (see
        // VirtdBuilder::with_slow_migration_hosts), so a test can
        // SIGKILL the daemon while a migration is genuinely in flight.
        builder = builder.with_slow_migration_hosts();
    }
    let daemon = match builder.build() {
        Ok(daemon) => daemon,
        Err(err) => {
            eprintln!("virtd: failed to start: {err}");
            std::process::exit(1);
        }
    };

    if let Some(path) = &options.unix {
        match UnixSocketListener::bind(path) {
            Ok(listener) => {
                println!("virtd: remote protocol on unix:{path}");
                daemon.serve(Box::new(listener));
            }
            Err(err) => {
                eprintln!("virtd: cannot bind {path}: {err}");
                std::process::exit(1);
            }
        }
    }
    if let Some(addr) = &options.tcp {
        match TcpSocketListener::bind(addr) {
            Ok(listener) => {
                println!("virtd: remote protocol on tcp:{}", listener.local_addr());
                daemon.serve(Box::new(listener));
            }
            Err(err) => {
                eprintln!("virtd: cannot bind {addr}: {err}");
                std::process::exit(1);
            }
        }
    }
    match UnixSocketListener::bind(&options.admin_unix) {
        Ok(listener) => {
            println!("virtd: admin protocol on unix:{}", options.admin_unix);
            daemon.serve_admin(Box::new(listener));
        }
        Err(err) => {
            eprintln!(
                "virtd: cannot bind admin socket {}: {err}",
                options.admin_unix
            );
            std::process::exit(1);
        }
    }

    println!("virtd: '{}' ready (drivers: qemu, xen, lxc)", daemon.name());
    // Serve until killed. Accept loops run on their own threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
