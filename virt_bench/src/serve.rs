//! `virt_bench serve` — the daemon under test, hosted in a child
//! process of the harness.
//!
//! The harness re-executes its own binary with this subcommand so the
//! daemon's CPU time and resident set belong to a process of their own
//! (`/proc/<pid>`), not to the load generator. The daemon is assembled
//! exactly as `crates/daemon/src/main.rs` assembles `virtd
//! --quiet-hosts`: stock `VirtdConfig::new()`, quiet hosts, a Unix
//! listener for the remote protocol and one for the admin protocol —
//! plus the TLS-sim listener adapter of `tests/transports.rs`, which the
//! `virtd` binary has no flag for.
//!
//! Protocol with the parent: one `ready <tls-port|->` line on stdout
//! once every listener is bound, then serve until stdin reaches EOF,
//! then shut down gracefully and exit 0.

use std::io::{Read, Write};

use virt_rpc::transport::{
    Listener, TcpSocketListener, TlsSimTransport, Transport, UnixSocketListener,
};
use virtd::{Virtd, VirtdConfig};

/// Wraps every accepted TCP connection in the server side of the
/// TLS-sim handshake.
struct TlsListener(TcpSocketListener);

/// `Box<dyn Transport>` does not itself implement `Transport`, which the
/// generic TLS wrapper needs.
pub struct BoxTransport(pub Box<dyn Transport>);

impl Transport for BoxTransport {
    fn send_frame(&self, body: &[u8]) -> std::io::Result<()> {
        self.0.send_frame(body)
    }
    fn recv_frame(&self) -> std::io::Result<Vec<u8>> {
        self.0.recv_frame()
    }
    fn kind(&self) -> virt_rpc::TransportKind {
        self.0.kind()
    }
    fn peer(&self) -> String {
        self.0.peer()
    }
    fn shutdown(&self) -> std::io::Result<()> {
        self.0.shutdown()
    }
}

impl Listener for TlsListener {
    fn accept(&self) -> std::io::Result<Box<dyn Transport>> {
        let inner = self.0.accept()?;
        // The nonce only seeds the toy keystream; a fixed one keeps the
        // child free of any input the harness did not generate.
        let nonce = 0x5eed_7157_0000_0001_u64;
        Ok(Box::new(TlsSimTransport::server(
            BoxTransport(inner),
            nonce,
        )?))
    }
    fn local_desc(&self) -> String {
        format!("tls:{}", self.0.local_desc())
    }
    fn close(&self) {
        self.0.close();
    }
}

/// Runs the child until stdin closes.
///
/// Arguments: `--unix PATH --admin PATH [--tls] [--statedir DIR]`.
///
/// # Errors
///
/// A message for the parent's stderr when the daemon cannot start.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut unix = None;
    let mut admin = None;
    let mut statedir = None;
    let mut tls = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or(format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--unix" => unix = Some(value()?),
            "--admin" => admin = Some(value()?),
            "--statedir" => statedir = Some(value()?),
            "--tls" => tls = true,
            other => return Err(format!("serve: unknown argument '{other}'")),
        }
    }
    let unix = unix.ok_or("serve: --unix is required")?;
    let admin = admin.ok_or("serve: --admin is required")?;

    let mut config = VirtdConfig::new();
    if let Some(dir) = &statedir {
        config = config.statedir(dir);
    }
    let daemon = Virtd::builder("bench")
        .config(config)
        .with_quiet_hosts()
        .build()
        .map_err(|e| format!("serve: daemon failed to start: {e}"))?;

    let bind = |path: &str| {
        UnixSocketListener::bind(path).map_err(|e| format!("serve: cannot bind {path}: {e}"))
    };
    daemon.serve(Box::new(bind(&unix)?));
    let mut tls_port = "-".to_string();
    if tls {
        let listener = TcpSocketListener::bind("127.0.0.1:0")
            .map_err(|e| format!("serve: cannot bind tcp loopback: {e}"))?;
        tls_port = listener
            .local_addr()
            .rsplit_once(':')
            .map(|(_, port)| port.to_string())
            .ok_or("serve: listener reported no port")?;
        daemon.serve(Box::new(TlsListener(listener)));
    }
    daemon.serve_admin(Box::new(bind(&admin)?));

    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready {tls_port}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("serve: cannot signal readiness: {e}"))?;

    // Serve until the parent closes our stdin (or dies).
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    daemon.shutdown();
    Ok(())
}
