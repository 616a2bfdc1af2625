//! The ESX driver: a *stateless, client-side* driver.
//!
//! The DATE 2010 paper's authors contributed libvirt's VMware ESX driver,
//! the canonical example of the stateless driver class: the hypervisor
//! exposes its own remote management API and persists all domain state
//! itself, so no managing daemon is needed — the client library talks to
//! the hypervisor endpoint directly, and every call pays that API's
//! round-trip cost.
//!
//! Here the "remote ESX endpoint" is a [`hypersim::SimHost`] with the
//! [`EsxLike`](hypersim::personality::EsxLike) personality registered in
//! the [`crate::testbed`] registry under its host name; its latency model
//! charges the SOAP-style RTT on every operation.

use std::sync::Arc;

use crate::driver::{HypervisorConnection, HypervisorDriver, OpenOptions};
use crate::drivers::embedded::EmbeddedConnection;
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::testbed;
use crate::uri::ConnectUri;

/// The `esx` scheme driver.
#[derive(Debug, Default)]
pub(crate) struct EsxDriver;

impl EsxDriver {
    /// Creates the driver.
    pub(crate) fn new() -> Self {
        EsxDriver
    }
}

impl HypervisorDriver for EsxDriver {
    fn name(&self) -> &'static str {
        "esx"
    }

    fn probe(&self, uri: &ConnectUri) -> bool {
        // The ESX driver owns the scheme regardless of host (the host IS
        // the hypervisor endpoint), but a +transport means the caller
        // wants to tunnel through a daemon instead.
        uri.driver() == "esx" && uri.transport().is_none()
    }

    fn open(
        &self,
        uri: &ConnectUri,
        _options: &OpenOptions,
    ) -> VirtResult<Arc<dyn HypervisorConnection>> {
        let host_name = uri.host().ok_or_else(|| {
            VirtError::new(
                ErrorCode::InvalidUri,
                "esx:// URIs must name the hypervisor host",
            )
        })?;
        let host = testbed::lookup_host(host_name)?;
        if host.personality().name() != "esx" {
            return Err(VirtError::new(
                ErrorCode::NoConnect,
                format!(
                    "host '{host_name}' speaks {}, not the esx API",
                    host.personality().name()
                ),
            ));
        }
        Ok(EmbeddedConnection::new(host, format!("esx://{host_name}/")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DomainState;
    use crate::xmlfmt::DomainConfig;
    use hypersim::personality::{EsxLike, QemuLike};
    use hypersim::{LatencyModel, SimHost};

    fn register_esx(name: &str) -> SimHost {
        let host = SimHost::builder(name)
            .personality(EsxLike)
            .latency(LatencyModel::zero())
            .build();
        testbed::register_host(name, host.clone());
        host
    }

    #[test]
    fn probe_claims_esx_without_transport() {
        let driver = EsxDriver::new();
        let yes: ConnectUri = "esx://esx1/".parse().unwrap();
        assert!(driver.probe(&yes));
        let tunneled: ConnectUri = "esx+tcp://daemon/system".parse().unwrap();
        assert!(!driver.probe(&tunneled));
        let other: ConnectUri = "qemu:///system".parse().unwrap();
        assert!(!driver.probe(&other));
    }

    #[test]
    fn open_resolves_the_registered_endpoint() {
        register_esx("esx-open-test");
        let uri: ConnectUri = "esx://esx-open-test/".parse().unwrap();
        let conn = EsxDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap();
        assert_eq!(conn.hostname().unwrap(), "esx-open-test");
        assert_eq!(conn.capabilities().unwrap().hypervisor, "esx");
        testbed::unregister_host("esx-open-test");
    }

    #[test]
    fn open_requires_host_component() {
        let uri: ConnectUri = "esx:///".parse().unwrap();
        let err = EsxDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidUri);
    }

    #[test]
    fn open_rejects_unknown_and_wrong_personality_hosts() {
        let uri: ConnectUri = "esx://no-such-esx/".parse().unwrap();
        assert_eq!(
            EsxDriver::new()
                .open(&uri, &OpenOptions::default())
                .unwrap_err()
                .code(),
            ErrorCode::NoConnect
        );

        let qemu_host = SimHost::builder("not-esx")
            .personality(QemuLike)
            .latency(LatencyModel::zero())
            .build();
        testbed::register_host("not-esx", qemu_host);
        let uri: ConnectUri = "esx://not-esx/".parse().unwrap();
        let err = EsxDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert!(err.message().contains("speaks qemu"));
        testbed::unregister_host("not-esx");
    }

    #[test]
    fn domains_survive_connection_loss_hypervisor_side() {
        // The defining property of the stateless driver class: state lives
        // in the hypervisor, not in any daemon or connection.
        register_esx("esx-persist-test");
        let uri: ConnectUri = "esx://esx-persist-test/".parse().unwrap();

        let conn1 = EsxDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap();
        conn1
            .define_domain_xml(&DomainConfig::new("vm", 512, 1).to_xml_string())
            .unwrap();
        conn1.start_domain("vm").unwrap();
        conn1.close();

        let conn2 = EsxDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap();
        let domain = conn2.lookup_domain_by_name("vm").unwrap();
        assert_eq!(domain.state, DomainState::Running);
        testbed::unregister_host("esx-persist-test");
    }
}
