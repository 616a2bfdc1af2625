//! Simulated virtual networks.
//!
//! Models libvirt's network driver: named virtual networks with a forward
//! mode (NAT, routed, isolated, bridged), an IPv4 subnet, and DHCP-style
//! lease allocation for attached interfaces.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use crate::error::{SimError, SimErrorKind};

/// How a virtual network reaches the outside world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ForwardMode {
    /// Guests are NATed behind the host (libvirt's `default` network).
    #[default]
    Nat,
    /// Routed without address translation.
    Route,
    /// No outside connectivity.
    Isolated,
    /// Guests appear directly on a host bridge.
    Bridge,
}

impl fmt::Display for ForwardMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ForwardMode::Nat => "nat",
            ForwardMode::Route => "route",
            ForwardMode::Isolated => "isolated",
            ForwardMode::Bridge => "bridge",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for ForwardMode {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "nat" => Ok(ForwardMode::Nat),
            "route" => Ok(ForwardMode::Route),
            "isolated" => Ok(ForwardMode::Isolated),
            "bridge" => Ok(ForwardMode::Bridge),
            other => Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("unknown forward mode '{other}'"),
            )),
        }
    }
}

/// Description of a virtual network to create.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    name: String,
    bridge: String,
    forward: ForwardMode,
    /// Network address; leases are handed out from `.2` up to `.254`
    /// within the /24 (a deliberate simplification).
    subnet: Ipv4Addr,
}

impl NetworkSpec {
    /// Creates a NAT network on the given /24 subnet address.
    pub fn new(name: impl Into<String>, subnet: Ipv4Addr) -> Self {
        let name = name.into();
        let bridge = format!("virbr-{name}");
        NetworkSpec {
            name,
            bridge,
            forward: ForwardMode::Nat,
            subnet,
        }
    }

    /// Sets the forward mode.
    pub fn forward(mut self, mode: ForwardMode) -> Self {
        self.forward = mode;
        self
    }

    /// Overrides the bridge device name.
    pub fn bridge(mut self, bridge: impl Into<String>) -> Self {
        self.bridge = bridge.into();
        self
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bridge device name.
    fn bridge_name(&self) -> &str {
        &self.bridge
    }

    /// Forward mode.
    fn forward_mode(&self) -> ForwardMode {
        self.forward
    }

    /// Subnet base address.
    pub fn subnet(&self) -> Ipv4Addr {
        self.subnet
    }
}

/// A DHCP-style lease handed to a guest interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The guest MAC address.
    pub mac: String,
    /// The assigned IPv4 address.
    pub ip: Ipv4Addr,
    /// The domain the interface belongs to.
    pub domain: String,
}

/// A virtual network on a host.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    /// Network name, unique on the host.
    pub name: String,
    /// Stable identifier.
    pub uuid: [u8; 16],
    /// Bridge device.
    pub bridge: String,
    /// Forward mode.
    pub forward: ForwardMode,
    /// Subnet base address (a /24).
    pub subnet: Ipv4Addr,
    /// Whether the network is started.
    pub active: bool,
    /// Whether the network starts with the host.
    pub autostart: bool,
    leases: BTreeMap<String, Lease>,
    next_host: u8,
}

impl SimNetwork {
    pub(crate) fn new(spec: &NetworkSpec, uuid: [u8; 16]) -> Self {
        SimNetwork {
            name: spec.name().to_string(),
            uuid,
            bridge: spec.bridge_name().to_string(),
            forward: spec.forward_mode(),
            subnet: spec.subnet(),
            active: false,
            autostart: false,
            leases: BTreeMap::new(),
            next_host: 2,
        }
    }

    /// Current leases in MAC order.
    pub fn leases(&self) -> Vec<&Lease> {
        self.leases.values().collect()
    }

    /// Number of active leases.
    #[cfg(test)]
    pub(crate) fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Allocates an address for `mac` belonging to `domain`.
    ///
    /// Re-requesting an existing MAC returns its current lease (DHCP
    /// renewal semantics).
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoFreeAddress`] when the /24 host range (2–254) is
    /// exhausted; [`SimErrorKind::InvalidState`] when the network is down.
    #[cfg(test)]
    pub(crate) fn acquire_lease(
        &mut self,
        mac: &str,
        domain: &str,
    ) -> crate::error::SimResult<Lease> {
        if !self.active {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("network '{}' is not active", self.name),
            ));
        }
        if let Some(existing) = self.leases.get(mac) {
            return Ok(existing.clone());
        }
        if self.next_host == 255 {
            return Err(SimError::new(
                SimErrorKind::NoFreeAddress,
                format!("network '{}'", self.name),
            ));
        }
        let octets = self.subnet.octets();
        let ip = Ipv4Addr::new(octets[0], octets[1], octets[2], self.next_host);
        self.next_host += 1;
        let lease = Lease {
            mac: mac.to_string(),
            ip,
            domain: domain.to_string(),
        };
        self.leases.insert(mac.to_string(), lease.clone());
        Ok(lease)
    }

    /// Releases the lease held by `mac`, if any.
    #[cfg(test)]
    pub(crate) fn release_lease(&mut self, mac: &str) -> Option<Lease> {
        self.leases.remove(mac)
    }

    /// Drops every lease (network destroy).
    pub(crate) fn clear_leases(&mut self) {
        self.leases.clear();
        self.next_host = 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_net() -> SimNetwork {
        let mut net = SimNetwork::new(
            &NetworkSpec::new("default", Ipv4Addr::new(192, 168, 122, 0)),
            [3; 16],
        );
        net.active = true;
        net
    }

    #[test]
    fn spec_defaults() {
        let spec = NetworkSpec::new("default", Ipv4Addr::new(192, 168, 122, 0));
        assert_eq!(spec.bridge_name(), "virbr-default");
        assert_eq!(spec.forward_mode(), ForwardMode::Nat);
    }

    #[test]
    fn leases_start_at_dot_two_and_increment() {
        let mut net = active_net();
        let a = net.acquire_lease("52:54:00:00:00:01", "vm1").unwrap();
        let b = net.acquire_lease("52:54:00:00:00:02", "vm2").unwrap();
        assert_eq!(a.ip, Ipv4Addr::new(192, 168, 122, 2));
        assert_eq!(b.ip, Ipv4Addr::new(192, 168, 122, 3));
        assert_eq!(net.lease_count(), 2);
    }

    #[test]
    fn same_mac_renews_same_address() {
        let mut net = active_net();
        let first = net.acquire_lease("aa:bb:cc:dd:ee:ff", "vm").unwrap();
        let again = net.acquire_lease("aa:bb:cc:dd:ee:ff", "vm").unwrap();
        assert_eq!(first.ip, again.ip);
        assert_eq!(net.lease_count(), 1);
    }

    #[test]
    fn inactive_network_refuses_leases() {
        let mut net = SimNetwork::new(&NetworkSpec::new("n", Ipv4Addr::new(10, 0, 0, 0)), [0; 16]);
        let err = net.acquire_lease("mac", "vm").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidState);
    }

    #[test]
    fn address_range_exhaustion() {
        let mut net = active_net();
        for i in 0..253u32 {
            net.acquire_lease(&format!("mac-{i}"), "vm").unwrap();
        }
        let err = net.acquire_lease("one-too-many", "vm").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::NoFreeAddress);
    }

    #[test]
    fn release_and_clear() {
        let mut net = active_net();
        net.acquire_lease("m1", "vm").unwrap();
        net.acquire_lease("m2", "vm").unwrap();
        let released = net.release_lease("m1").expect("lease existed");
        assert_eq!(released.mac, "m1");
        assert_eq!(net.lease_count(), 1);
        net.clear_leases();
        assert_eq!(net.lease_count(), 0);
        // After clear, allocation restarts from .2.
        let lease = net.acquire_lease("m3", "vm").unwrap();
        assert_eq!(lease.ip.octets()[3], 2);
    }

    #[test]
    fn forward_mode_round_trip() {
        for mode in [
            ForwardMode::Nat,
            ForwardMode::Route,
            ForwardMode::Isolated,
            ForwardMode::Bridge,
        ] {
            assert_eq!(mode.to_string().parse::<ForwardMode>().unwrap(), mode);
        }
        assert!("tunnel".parse::<ForwardMode>().is_err());
    }
}
