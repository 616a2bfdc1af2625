//! Harness-side handle on the daemon child process (`virt_bench serve`):
//! spawn and readiness handshake, `/proc` sampling, the admin-socket
//! metrics reader, graceful stop and `SIGKILL`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};

use virt_core::metrics::HistogramSnapshot;
use virt_rpc::transport::UnixTransport;
use virtd::adminproto::WireMetric;
use virtd::AdminClient;

use crate::stats::{sample_process, ProcSample};

/// The harness's scratch directory, inside the build's target directory
/// so a run reads and writes nothing outside its checkout. The harness
/// makes it its working directory: Unix socket paths are limited to
/// ~100 bytes, and relative ones stay short wherever the checkout is.
pub struct Workdir {
    root: PathBuf,
    next_child: std::cell::Cell<u32>,
}

impl Workdir {
    /// Creates `<base>/work-<pid>` and changes into it.
    ///
    /// # Errors
    ///
    /// The directory cannot be created or entered.
    pub fn enter(base: &std::path::Path) -> Result<Workdir, String> {
        let root = base.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        std::env::set_current_dir(&root).map_err(|e| format!("enter {}: {e}", root.display()))?;
        Ok(Workdir {
            root,
            next_child: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty sub-directory (relative path): one per daemon child,
    /// one per micro-measurement that needs a state directory.
    pub fn fresh_dir(&self) -> Result<String, String> {
        let n = self.next_child.get();
        self.next_child.set(n + 1);
        let dir = format!("d{n}");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
        Ok(dir)
    }

    /// Filesystem type the state directories live on, from
    /// `/proc/self/mountinfo` (longest mount point containing the root).
    pub fn filesystem(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
        let mut best = (0, "unknown".to_string());
        for line in mounts.lines() {
            let Some((left, right)) = line.split_once(" - ") else {
                continue;
            };
            let (Some(point), Some(fstype)) = (
                left.split_ascii_whitespace().nth(4),
                right.split_ascii_whitespace().next(),
            ) else {
                continue;
            };
            if self.root.starts_with(point) && point.len() >= best.0 {
                best = (point.len(), fstype.to_string());
            }
        }
        best.1
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir("/");
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What a daemon child is asked to serve besides its Unix sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
    /// Unix sockets only, state in memory.
    None,
    /// A TLS-sim listener on TCP loopback.
    Tls,
    /// A crash-safe state directory.
    Statedir,
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    admin: AdminClient,
    dir: String,
    extra: Extra,
    tls_port: Option<u16>,
}

impl Daemon {
    /// Spawns `virt_bench serve` in a fresh directory and waits for its
    /// `ready` line.
    ///
    /// # Errors
    ///
    /// The child cannot be spawned, exits early, or its admin socket
    /// refuses the connection.
    pub fn spawn(work: &Workdir, extra: Extra) -> Result<Daemon, String> {
        let dir = work.fresh_dir()?;
        Self::spawn_in(dir, extra)
    }

    fn spawn_in(dir: String, extra: Extra) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command
            .arg("serve")
            .args(["--unix", &format!("{dir}/v.sock")])
            .args(["--admin", &format!("{dir}/admin.sock")])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match extra {
            Extra::None => {}
            Extra::Tls => {
                command.arg("--tls");
            }
            Extra::Statedir => {
                command.args(["--statedir", &format!("{dir}/state")]);
            }
        }
        let mut child = command.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let ready = BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                line.trim()
                    .strip_prefix("ready ")
                    .map(str::to_string)
                    .ok_or(format!("daemon said '{}' instead of ready", line.trim()))
            });
        let connect = ready.and_then(|port| {
            let transport = UnixTransport::connect(&format!("{dir}/admin.sock"))
                .map_err(|e| format!("admin connect: {e}"))?;
            Ok((port.parse::<u16>().ok(), AdminClient::new(transport)))
        });
        match connect {
            Ok((tls_port, admin)) => Ok(Daemon {
                child,
                stdin,
                admin,
                dir,
                extra,
                tls_port,
            }),
            Err(message) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(message)
            }
        }
    }

    /// The child's process id, as a `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Path of the remote-protocol Unix socket.
    pub fn socket(&self) -> String {
        format!("{}/v.sock", self.dir)
    }

    /// URI reaching the qemu driver over the Unix socket.
    pub fn unix_uri(&self) -> String {
        format!("qemu+unix:///system?socket={}", self.socket())
    }

    /// URI reaching the qemu driver over TLS-sim on TCP loopback.
    ///
    /// # Panics
    ///
    /// The child was not spawned with [`Extra::Tls`].
    pub fn tls_uri(&self) -> String {
        let port = self
            .tls_port
            .expect("daemon was spawned with a TLS listener");
        format!("qemu+tls://127.0.0.1:{port}/system")
    }

    /// The child's `/proc` counters.
    ///
    /// # Errors
    ///
    /// The child is gone.
    pub fn proc_sample(&self) -> Result<ProcSample, String> {
        sample_process(&self.pid()).map_err(|e| format!("sample daemon /proc: {e}"))
    }

    /// Every metric of the child's registry, read over the admin socket.
    ///
    /// # Errors
    ///
    /// The admin call failed.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let list = self
            .admin
            .metrics("")
            .map_err(|e| format!("admin metrics: {e}"))?;
        Ok(Metrics(
            list.into_iter().map(|m| (m.name.clone(), m)).collect(),
        ))
    }

    /// Graceful stop: closes the child's stdin and waits for exit 0.
    ///
    /// # Errors
    ///
    /// The child exited with a failure status.
    pub fn stop(mut self) -> Result<(), String> {
        self.admin.close();
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        let _ = std::fs::remove_dir_all(&self.dir);
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    /// `SIGKILL`s the child mid-flight, waits for it, and replaces it with
    /// a new daemon on the same directory (and therefore the same state
    /// directory).
    ///
    /// # Errors
    ///
    /// As [`Daemon::spawn`].
    pub fn kill_and_restart(&mut self) -> Result<(), String> {
        self.admin.close();
        self.child.kill().map_err(|e| format!("kill daemon: {e}"))?;
        self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        *self = Self::spawn_in(self.dir.clone(), self.extra)?;
        Ok(())
    }
}

impl Drop for Daemon {
    /// Safety net for error paths: never leave a child behind. After
    /// `stop`, and for the child `kill_and_restart` replaced, the process
    /// is already reaped and both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One snapshot of the daemon's metric registry, by name.
pub struct Metrics(HashMap<String, WireMetric>);

impl Metrics {
    /// A counter or gauge value; 0 when the metric does not exist.
    pub fn value(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |m| m.value)
    }

    /// Growth of a counter since `before`.
    pub fn delta(&self, before: &Metrics, name: &str) -> u64 {
        self.value(name).saturating_sub(before.value(name))
    }

    /// The observations a histogram gained since `before`.
    pub fn histogram_delta(&self, before: &Metrics, name: &str) -> HistogramSnapshot {
        let (Some(now), then) = (self.0.get(name), before.0.get(name)) else {
            return HistogramSnapshot {
                count: 0,
                sum_ns: 0,
                buckets: Vec::new(),
            };
        };
        let earlier = |bucket: usize| then.and_then(|m| m.hist_buckets.get(bucket)).copied();
        HistogramSnapshot {
            count: now.hist_count - then.map_or(0, |m| m.hist_count),
            sum_ns: now.hist_sum_ns - then.map_or(0, |m| m.hist_sum_ns),
            buckets: now
                .hist_buckets
                .iter()
                .enumerate()
                .map(|(i, n)| n - earlier(i).unwrap_or(0))
                .collect(),
        }
    }
}
