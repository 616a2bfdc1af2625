//! A QMP-like monitor channel.
//!
//! QEMU exposes a per-process monitor socket speaking a command protocol;
//! libvirt's QEMU driver drives domains through it rather than through any
//! hypervisor API. This module models that interface: a textual command
//! protocol (`command [args...]`) executed against one domain of a host.
//! The management layer's qemu-style driver uses it, so the driver's code
//! path — format command → send → parse response — matches the real one.

use crate::domain::DomainState;
use crate::error::{SimError, SimErrorKind, SimResult};
use crate::host::SimHost;
use crate::resources::MiB;

/// A parsed monitor command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorCommand {
    /// `query-status` — report run state.
    QueryStatus,
    /// `stop` — pause the guest.
    Stop,
    /// `cont` — resume the guest.
    Cont,
    /// `system_powerdown` — graceful shutdown request.
    SystemPowerdown,
    /// `system_reset` — reboot.
    SystemReset,
    /// `quit` — kill the emulator process (hard destroy).
    Quit,
    /// `balloon <mib>` — set current memory.
    Balloon(u64),
    /// `query-version` — emulator version string.
    QueryVersion,
}

impl MonitorCommand {
    /// Parses the textual form.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::InvalidArgument`] on unknown commands or malformed
    /// arguments.
    pub fn parse(line: &str) -> SimResult<MonitorCommand> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let parsed = match cmd {
            "query-status" => MonitorCommand::QueryStatus,
            "stop" => MonitorCommand::Stop,
            "cont" => MonitorCommand::Cont,
            "system_powerdown" => MonitorCommand::SystemPowerdown,
            "system_reset" => MonitorCommand::SystemReset,
            "quit" => MonitorCommand::Quit,
            "query-version" => MonitorCommand::QueryVersion,
            "balloon" => {
                let arg = parts.next().ok_or_else(|| {
                    SimError::new(SimErrorKind::InvalidArgument, "balloon requires a size")
                })?;
                let mib = arg.parse::<u64>().map_err(|_| {
                    SimError::new(
                        SimErrorKind::InvalidArgument,
                        format!("bad balloon size '{arg}'"),
                    )
                })?;
                MonitorCommand::Balloon(mib)
            }
            other => {
                return Err(SimError::new(
                    SimErrorKind::InvalidArgument,
                    format!("unknown monitor command '{other}'"),
                ))
            }
        };
        if parts.next().is_some() {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "trailing arguments",
            ));
        }
        Ok(parsed)
    }
}

/// A monitor connection to one domain on one host.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use hypersim::{DomainSpec, LatencyModel, SimHost};
/// use hypersim::monitor::Monitor;
///
/// let host = SimHost::builder("h").latency(LatencyModel::zero()).build();
/// host.define_domain(DomainSpec::new("vm"))?;
/// host.start_domain("vm")?;
///
/// let monitor = Monitor::attach(&host, "vm");
/// assert_eq!(monitor.execute_line("query-status")?, "status: running");
/// monitor.execute_line("stop")?;
/// assert_eq!(monitor.execute_line("query-status")?, "status: paused");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    host: SimHost,
    domain: String,
}

impl Monitor {
    /// Attaches a monitor to `domain` on `host`. The domain's existence is
    /// checked at command time, mirroring a socket that may vanish.
    pub fn attach(host: &SimHost, domain: impl Into<String>) -> Self {
        Monitor {
            host: host.clone(),
            domain: domain.into(),
        }
    }

    /// Parses and executes one command line, returning the response line.
    pub fn execute_line(&self, line: &str) -> SimResult<String> {
        self.execute(&MonitorCommand::parse(line)?)
    }

    /// Executes a parsed command, returning the response line.
    ///
    /// # Errors
    ///
    /// Lifecycle errors surface exactly as the host reports them (invalid
    /// state, no such domain, injected faults, host down).
    pub fn execute(&self, command: &MonitorCommand) -> SimResult<String> {
        match command {
            MonitorCommand::QueryStatus => {
                let info = self.host.domain(&self.domain)?;
                let status = match info.state {
                    DomainState::Running => "running",
                    DomainState::Paused => "paused",
                    DomainState::Shutoff | DomainState::Saved => "shutdown",
                    DomainState::Crashed => "internal-error",
                };
                Ok(format!("status: {status}"))
            }
            MonitorCommand::Stop => {
                self.host.suspend_domain(&self.domain)?;
                Ok("ok".to_string())
            }
            MonitorCommand::Cont => {
                self.host.resume_domain(&self.domain)?;
                Ok("ok".to_string())
            }
            MonitorCommand::SystemPowerdown => {
                self.host.shutdown_domain(&self.domain)?;
                Ok("ok".to_string())
            }
            MonitorCommand::SystemReset => {
                self.host.reboot_domain(&self.domain)?;
                Ok("ok".to_string())
            }
            MonitorCommand::Quit => {
                self.host.destroy_domain(&self.domain)?;
                Ok("ok".to_string())
            }
            MonitorCommand::Balloon(mib) => {
                self.host.set_domain_memory(&self.domain, MiB(*mib))?;
                Ok("ok".to_string())
            }
            MonitorCommand::QueryVersion => Ok("hypersim-monitor 1.0".to_string()),
        }
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl MonitorCommand {
    /// The canonical textual form.
    fn to_wire(&self) -> String {
        match self {
            MonitorCommand::QueryStatus => "query-status".to_string(),
            MonitorCommand::Stop => "stop".to_string(),
            MonitorCommand::Cont => "cont".to_string(),
            MonitorCommand::SystemPowerdown => "system_powerdown".to_string(),
            MonitorCommand::SystemReset => "system_reset".to_string(),
            MonitorCommand::Quit => "quit".to_string(),
            MonitorCommand::Balloon(mib) => format!("balloon {mib}"),
            MonitorCommand::QueryVersion => "query-version".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainSpec;
    use crate::latency::LatencyModel;

    fn running_vm() -> (SimHost, Monitor) {
        let host = SimHost::builder("h").latency(LatencyModel::zero()).build();
        host.define_domain(DomainSpec::new("vm").memory_mib(1024).max_memory_mib(2048))
            .unwrap();
        host.start_domain("vm").unwrap();
        let monitor = Monitor::attach(&host, "vm");
        (host, monitor)
    }

    #[test]
    fn parse_round_trips_every_command() {
        let commands = [
            MonitorCommand::QueryStatus,
            MonitorCommand::Stop,
            MonitorCommand::Cont,
            MonitorCommand::SystemPowerdown,
            MonitorCommand::SystemReset,
            MonitorCommand::Quit,
            MonitorCommand::Balloon(2048),
            MonitorCommand::QueryVersion,
        ];
        for cmd in commands {
            assert_eq!(MonitorCommand::parse(&cmd.to_wire()).unwrap(), cmd);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "explode", "balloon", "balloon xyz", "stop now"] {
            let err = MonitorCommand::parse(bad).unwrap_err();
            assert_eq!(err.kind(), SimErrorKind::InvalidArgument, "{bad:?}");
        }
    }

    #[test]
    fn status_tracks_lifecycle() {
        let (_host, monitor) = running_vm();
        assert_eq!(
            monitor.execute_line("query-status").unwrap(),
            "status: running"
        );
        monitor.execute_line("stop").unwrap();
        assert_eq!(
            monitor.execute_line("query-status").unwrap(),
            "status: paused"
        );
        monitor.execute_line("cont").unwrap();
        monitor.execute_line("system_powerdown").unwrap();
        assert_eq!(
            monitor.execute_line("query-status").unwrap(),
            "status: shutdown"
        );
    }

    #[test]
    fn balloon_changes_memory() {
        let (host, monitor) = running_vm();
        monitor.execute_line("balloon 2048").unwrap();
        assert_eq!(host.domain("vm").unwrap().memory, MiB(2048));
        // Above max_memory fails through the same path as the host API.
        let err = monitor.execute_line("balloon 9999").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
    }

    #[test]
    fn quit_destroys_the_domain() {
        let (host, monitor) = running_vm();
        monitor.execute_line("quit").unwrap();
        assert_eq!(host.domain("vm").unwrap().state, DomainState::Shutoff);
    }

    #[test]
    fn commands_against_missing_domain_fail() {
        let host = SimHost::builder("h").latency(LatencyModel::zero()).build();
        let monitor = Monitor::attach(&host, "ghost");
        let err = monitor.execute_line("query-status").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::NoSuchDomain);
    }

    #[test]
    fn invalid_state_errors_propagate() {
        let (_host, monitor) = running_vm();
        monitor.execute_line("stop").unwrap();
        let err = monitor.execute_line("stop").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidState);
    }
}
