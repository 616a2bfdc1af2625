//! Virtual network handles.

use std::sync::Arc;

use crate::driver::{HypervisorConnection, NetworkRecord};
use crate::error::VirtResult;

/// A handle to a virtual network.
///
/// Obtained from [`crate::Connect::network_lookup_by_name`] or
/// [`crate::Connect::define_network_xml`].
#[derive(Clone)]
pub struct Network {
    conn: Arc<dyn HypervisorConnection>,
    name: String,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network").field("name", &self.name).finish()
    }
}

impl Network {
    pub(crate) fn new(conn: Arc<dyn HypervisorConnection>, name: String) -> Self {
        Network { conn, name }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A fresh snapshot of the network's state.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoNetwork`] once gone.
    pub fn info(&self) -> VirtResult<NetworkRecord> {
        self.conn.network_info(&self.name)
    }

    /// Whether the network is started.
    ///
    /// # Errors
    ///
    /// As [`Network::info`].
    pub fn is_active(&self) -> VirtResult<bool> {
        Ok(self.info()?.active)
    }

    /// Starts the network.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoNetwork`].
    pub fn start(&self) -> VirtResult<()> {
        self.conn.start_network(&self.name)
    }

    /// Stops the network, releasing all leases.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoNetwork`].
    pub fn stop(&self) -> VirtResult<()> {
        self.conn.stop_network(&self.name)
    }

    /// Removes the inactive network's definition.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::OperationInvalid`] while active.
    pub fn undefine(&self) -> VirtResult<()> {
        self.conn.undefine_network(&self.name)
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl Network {
    /// `(mac, ip, domain)` lease triplets.
    ///
    /// # Errors
    ///
    /// As [`Network::info`].
    fn dhcp_leases(&self) -> VirtResult<Vec<(String, String, String)>> {
        Ok(self.info()?.leases)
    }
}

#[cfg(test)]
mod tests {

    use crate::conn::Connect;
    use crate::xmlfmt::NetworkConfig;
    use std::net::Ipv4Addr;

    #[test]
    fn network_lifecycle_through_handles() {
        let conn = Connect::builder("test:///default").open().unwrap();
        let net = conn
            .define_network(&NetworkConfig::new("lan", Ipv4Addr::new(10, 7, 0, 0)))
            .unwrap();
        assert_eq!(net.name(), "lan");
        assert!(!net.is_active().unwrap());
        net.start().unwrap();
        assert!(net.is_active().unwrap());
        let info = net.info().unwrap();
        assert_eq!(info.bridge, "virbr-lan");
        assert_eq!(info.forward, "nat");
        assert!(net.dhcp_leases().unwrap().is_empty());
        net.stop().unwrap();
        net.undefine().unwrap();
        assert!(net.info().is_err());
    }

    #[test]
    fn default_network_exists_and_is_active() {
        let conn = Connect::builder("test:///default").open().unwrap();
        assert!(conn
            .list_networks()
            .unwrap()
            .contains(&"default".to_string()));
        let default = conn.network_lookup_by_name("default").unwrap();
        assert!(default.is_active().unwrap());
    }
}
