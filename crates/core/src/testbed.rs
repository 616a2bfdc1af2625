//! The simulated "network" connecting drivers to hosts and daemons.
//!
//! In a real deployment, an `esx://host/` URI reaches a physical ESX
//! server over the network and a `qemu+tcp://host/system` URI reaches a
//! daemon's TCP socket. In this reproduction those endpoints are
//! in-process objects, so a process-wide registry stands in for DNS + the
//! wire: tests and benchmarks register [`SimHost`]s (direct hypervisor
//! endpoints, used by the stateless ESX driver) and daemon connectors
//! (used by the remote driver's `+memory` transport) under host names.
//!
//! Unix/TCP remote transports bypass this registry entirely and use real
//! sockets.

use std::collections::HashMap;
use std::sync::OnceLock;

use hypersim::SimHost;
use parking_lot::Mutex;
use virt_rpc::transport::MemoryConnector;

use crate::error::{ErrorCode, VirtError, VirtResult};

struct Testbed {
    hosts: HashMap<String, SimHost>,
    daemons: HashMap<String, MemoryConnector>,
}

fn testbed() -> &'static Mutex<Testbed> {
    static TESTBED: OnceLock<Mutex<Testbed>> = OnceLock::new();
    TESTBED.get_or_init(|| {
        Mutex::new(Testbed {
            hosts: HashMap::new(),
            daemons: HashMap::new(),
        })
    })
}

/// Registers a direct hypervisor endpoint under `name` (the host part of
/// e.g. `esx://name/`). Replaces any previous registration.
pub fn register_host(name: impl Into<String>, host: SimHost) {
    testbed().lock().hosts.insert(name.into(), host);
}

/// Resolves a direct hypervisor endpoint.
///
/// # Errors
///
/// [`ErrorCode::NoConnect`] when nothing is registered under `name`.
pub(crate) fn lookup_host(name: &str) -> VirtResult<SimHost> {
    testbed()
        .lock()
        .hosts
        .get(name)
        .cloned()
        .ok_or_else(|| VirtError::new(ErrorCode::NoConnect, format!("unknown host '{name}'")))
}

/// Removes a host registration.
pub fn unregister_host(name: &str) {
    testbed().lock().hosts.remove(name);
}

/// Registers a daemon's in-process connector under `name` (the host part
/// of e.g. `qemu+memory://name/system`). Replaces any previous
/// registration.
pub fn register_daemon(name: impl Into<String>, connector: MemoryConnector) {
    testbed().lock().daemons.insert(name.into(), connector);
}

/// Resolves a daemon connector.
///
/// # Errors
///
/// [`ErrorCode::NoConnect`] when nothing is registered under `name`.
pub fn lookup_daemon(name: &str) -> VirtResult<MemoryConnector> {
    testbed()
        .lock()
        .daemons
        .get(name)
        .cloned()
        .ok_or_else(|| VirtError::new(ErrorCode::NoConnect, format!("unknown daemon '{name}'")))
}

/// Removes a daemon registration.
pub fn unregister_daemon(name: &str) {
    testbed().lock().daemons.remove(name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersim::LatencyModel;

    #[test]
    fn host_register_lookup_unregister() {
        let host = SimHost::builder("tb-host-1")
            .latency(LatencyModel::zero())
            .build();
        register_host("tb-host-1", host);
        let found = lookup_host("tb-host-1").unwrap();
        assert_eq!(found.name(), "tb-host-1");
        unregister_host("tb-host-1");
        let err = lookup_host("tb-host-1").unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }

    #[test]
    fn unknown_names_fail() {
        assert!(lookup_host("never-registered").is_err());
        assert!(lookup_daemon("never-registered").is_err());
    }

    #[test]
    fn daemon_register_lookup() {
        let (_listener, connector) = virt_rpc::transport::memory_listener();
        register_daemon("tb-daemon-1", connector);
        assert!(lookup_daemon("tb-daemon-1").is_ok());
        unregister_daemon("tb-daemon-1");
        assert!(lookup_daemon("tb-daemon-1").is_err());
    }

    #[test]
    fn registration_replaces_previous() {
        let a = SimHost::builder("a").latency(LatencyModel::zero()).build();
        let b = SimHost::builder("b").latency(LatencyModel::zero()).build();
        register_host("tb-host-2", a);
        register_host("tb-host-2", b);
        assert_eq!(lookup_host("tb-host-2").unwrap().name(), "b");
        unregister_host("tb-host-2");
    }
}
