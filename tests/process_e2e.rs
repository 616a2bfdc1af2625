//! Process-level end-to-end: a real `virtd` daemon process, managed by
//! real `vsh`/`vadm` client processes over a Unix socket — the deployment
//! shape the paper's system actually runs in.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn binary(name: &str) -> std::path::PathBuf {
    // Integration tests live in target/<profile>/deps; `cargo build` puts
    // binaries one level up. The tier-1 gate builds binaries in release but
    // runs tests in debug, so also probe the sibling profile directories.
    let mut profile_dir = std::env::current_exe().expect("test binary path");
    profile_dir.pop();
    profile_dir.pop();
    let target_dir = profile_dir.parent().expect("target dir").to_path_buf();
    let candidates = [
        profile_dir.join(name),
        target_dir.join("release").join(name),
        target_dir.join("debug").join(name),
    ];
    for candidate in &candidates {
        if candidate.exists() {
            return candidate.clone();
        }
    }
    panic!("binary {name} not found; run `cargo build` or `cargo build --release` first (looked in {candidates:?})");
}

struct DaemonProcess {
    child: Child,
    socket: String,
    admin_socket: String,
}

impl DaemonProcess {
    fn spawn() -> DaemonProcess {
        let id = format!("{}-{:x}", std::process::id(), rand::random::<u32>());
        let socket = format!("/tmp/virtd-e2e-{id}.sock");
        let admin_socket = format!("/tmp/virtd-e2e-{id}-admin.sock");
        let child = Command::new(binary("virtd"))
            .args([
                "--name",
                "e2e",
                "--unix",
                &socket,
                "--admin-unix",
                &admin_socket,
                "--quiet-hosts",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("virtd binary spawns");
        // Wait for the sockets to appear.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(std::path::Path::new(&socket).exists()
            && std::path::Path::new(&admin_socket).exists())
        {
            assert!(Instant::now() < deadline, "daemon sockets never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
        DaemonProcess {
            child,
            socket,
            admin_socket,
        }
    }

    fn vsh(&self, line: &str) -> (bool, String) {
        run_client(
            "vsh",
            &["-c", &format!("qemu+unix:///system?socket={}", self.socket)],
            line,
        )
    }

    fn vadm(&self, line: &str) -> (bool, String) {
        run_client("vadm", &["-s", &self.admin_socket], line)
    }
}

fn run_client(bin: &str, prefix: &[&str], line: &str) -> (bool, String) {
    let mut args: Vec<&str> = prefix.to_vec();
    args.extend(line.split_whitespace());
    let output = Command::new(binary(bin))
        .args(&args)
        .output()
        .expect("client binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.admin_socket);
    }
}

#[test]
fn separate_processes_manage_domains_over_the_unix_socket() {
    let daemon = DaemonProcess::spawn();

    let (ok, output) = daemon.vsh("hostname");
    assert!(ok, "{output}");
    assert_eq!(output.trim(), "e2e-qemu");

    // Define via a file (inline XML has spaces, awkward through argv).
    let xml_path = format!("/tmp/virtd-e2e-{}.xml", std::process::id());
    std::fs::write(
        &xml_path,
        "<domain><name>proc-vm</name><memory unit='MiB'>256</memory><vcpu>1</vcpu></domain>",
    )
    .unwrap();
    let (ok, output) = daemon.vsh(&format!("define {xml_path}"));
    assert!(ok, "{output}");

    let (ok, output) = daemon.vsh("start proc-vm");
    assert!(ok, "{output}");
    let (ok, output) = daemon.vsh("domstate proc-vm");
    assert!(ok, "{output}");
    assert_eq!(output.trim(), "running");

    // A SECOND client process sees the same state (state lives in the
    // daemon process, not the client).
    let (ok, output) = daemon.vsh("list");
    assert!(ok, "{output}");
    assert!(output.contains("proc-vm"));

    let (ok, output) = daemon.vsh("destroy proc-vm");
    assert!(ok, "{output}");
    let (ok, _) = daemon.vsh("undefine proc-vm");
    assert!(ok);
    let _ = std::fs::remove_file(&xml_path);
}

#[test]
fn admin_process_inspects_and_retunes_the_daemon() {
    let daemon = DaemonProcess::spawn();

    let (ok, output) = daemon.vadm("srv-list");
    assert!(ok, "{output}");
    assert!(output.contains("virtd"));

    let (ok, output) = daemon.vadm("srv-threadpool-set virtd --max-workers 31");
    assert!(ok, "{output}");
    let (ok, output) = daemon.vadm("srv-threadpool-info virtd");
    assert!(ok, "{output}");
    assert!(output.contains("31"), "{output}");

    // While a vsh client is connected, the admin sees it.
    let (ok, _) = daemon.vsh("hostname");
    assert!(ok);
    let (ok, output) = daemon.vadm("client-list virtd");
    assert!(ok, "{output}");
    // The one-shot vsh client already disconnected; header row present.
    assert!(output.contains("Transport"), "{output}");

    let (ok, output) = daemon.vadm("dmn-log-define --level 1");
    assert!(ok, "{output}");
    let (ok, output) = daemon.vadm("dmn-log-info");
    assert!(ok, "{output}");
    assert!(output.contains("debug"), "{output}");
}

#[test]
fn daemon_process_survives_misbehaving_clients() {
    let daemon = DaemonProcess::spawn();

    // Garbage on the socket must not kill the daemon.
    {
        use std::io::Write;
        let mut stream = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
        stream.write_all(&[0xff; 64]).unwrap();
        // Close abruptly.
    }
    // The daemon has dealt with the garbage once it has dropped that
    // client: wait for its client count to fall back to zero.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (ok, output) = daemon.vadm("srv-clients-info virtd");
        assert!(ok, "{output}");
        let current = output
            .lines()
            .find_map(|line| line.strip_prefix("nclients_current"))
            .and_then(|rest| rest.trim_start().strip_prefix(':'))
            .map(str::trim);
        if current == Some("0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the garbage-writing client was never dropped: {output}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let (ok, output) = daemon.vsh("hostname");
    assert!(ok, "daemon must still answer: {output}");
}
