//! The test driver: `test:///default`.
//!
//! Like libvirt's test driver, it gives every connection a private mock
//! hypervisor with one predefined domain, so applications and test suites
//! can exercise the full API with zero setup and zero latency.

use std::sync::Arc;

use hypersim::personality::QemuLike;
use hypersim::{DomainSpec, LatencyModel, SimHost};

use crate::driver::{HypervisorConnection, HypervisorDriver, OpenOptions};
use crate::drivers::embedded::EmbeddedConnection;
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::uri::ConnectUri;

/// The `test` scheme driver.
#[derive(Debug, Default)]
pub(crate) struct TestDriver;

impl TestDriver {
    /// Creates the driver.
    pub(crate) fn new() -> Self {
        TestDriver
    }
}

impl HypervisorDriver for TestDriver {
    fn name(&self) -> &'static str {
        "test"
    }

    fn probe(&self, uri: &ConnectUri) -> bool {
        uri.driver() == "test" && uri.transport().is_none() && uri.is_local()
    }

    fn open(
        &self,
        uri: &ConnectUri,
        _options: &OpenOptions,
    ) -> VirtResult<Arc<dyn HypervisorConnection>> {
        if uri.path() != "/default" {
            return Err(VirtError::new(
                ErrorCode::NoConnect,
                format!(
                    "test driver only supports test:///default, got '{}'",
                    uri.path()
                ),
            ));
        }
        let host = SimHost::builder("test-host")
            .cpus(8)
            .memory_mib(8192)
            .personality(QemuLike)
            .latency(LatencyModel::zero())
            .build();
        // The canonical predefined guest, as in libvirt's test driver.
        host.define_domain(DomainSpec::new("test").memory_mib(512).vcpus(2))
            .map_err(VirtError::from)?;
        host.start_domain("test").map_err(VirtError::from)?;
        Ok(EmbeddedConnection::new(host, "test:///default"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DomainState;

    fn open() -> Arc<dyn HypervisorConnection> {
        let uri: ConnectUri = "test:///default".parse().unwrap();
        TestDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap()
    }

    #[test]
    fn probe_matches_only_local_plain_test_uris() {
        let driver = TestDriver::new();
        let yes: ConnectUri = "test:///default".parse().unwrap();
        assert!(driver.probe(&yes));
        for no in [
            "test+tcp://h/default",
            "qemu:///system",
            "test://remote/default",
        ] {
            let uri: ConnectUri = no.parse().unwrap();
            assert!(!driver.probe(&uri), "{no}");
        }
    }

    #[test]
    fn default_connection_has_the_canonical_guest() {
        let conn = open();
        let domains = conn.list_domains().unwrap();
        assert_eq!(domains.len(), 1);
        assert_eq!(domains[0].name, "test");
        assert_eq!(domains[0].state, DomainState::Running);
        assert_eq!(conn.uri(), "test:///default");
    }

    #[test]
    fn connections_are_isolated() {
        let a = open();
        let b = open();
        a.define_domain_xml(&crate::xmlfmt::DomainConfig::new("extra", 128, 1).to_xml_string())
            .unwrap();
        assert_eq!(a.list_domains().unwrap().len(), 2);
        assert_eq!(b.list_domains().unwrap().len(), 1);
    }

    #[test]
    fn non_default_paths_rejected() {
        let uri: ConnectUri = "test:///other".parse().unwrap();
        let err = TestDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }
}
