//! The [`Connect`] object — the root of the public API.
//!
//! A `Connect` is opened from a URI, which selects a driver via the
//! registry ([libvirt's resolution rule](crate::driver::DriverRegistry)):
//! stateless drivers first (`test`, `esx`), remote fallback for everything
//! else.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::capabilities::Capabilities;
use crate::domain::Domain;
use crate::driver::{DriverRegistry, HypervisorConnection, NodeInfo, OpenOptions};
use crate::error::VirtResult;
use crate::event::{CallbackId, DomainEvent, EventCallback};
use crate::network::Network;
use crate::storage::StoragePool;
use crate::uri::ConnectUri;
use crate::uuid::Uuid;
use crate::xmlfmt::{DomainConfig, NetworkConfig, PoolConfig};

fn default_registry() -> &'static DriverRegistry {
    static REGISTRY: OnceLock<DriverRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = DriverRegistry::new();
        registry.register(Arc::new(crate::drivers::test::TestDriver::new()));
        registry.register(Arc::new(crate::drivers::esx::EsxDriver::new()));
        registry.set_fallback(Arc::new(crate::drivers::remote::RemoteDriver::new()));
        registry
    })
}

/// A connection to a hypervisor or management daemon.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use virt_core::Connect;
///
/// let conn = Connect::builder("test:///default").open()?;
/// let domains = conn.list_all_domains()?;
/// assert_eq!(domains[0].name(), "test");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Connect {
    inner: Arc<dyn HypervisorConnection>,
}

impl std::fmt::Debug for Connect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connect")
            .field("uri", &self.inner.uri())
            .finish()
    }
}

/// Configures and opens a [`Connect`] — the single place every
/// connection option lives.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use std::time::Duration;
/// use virt_core::Connect;
///
/// // Idempotent calls retried up to 3 times on the fixed ladder (100 ms
/// // doubling to 5 s); the breaker judges calls, so it never cuts a
/// // call's own retries short.
/// let conn = Connect::builder("test:///default")
///     .call_deadline(Duration::from_secs(30))
///     .retries(3)
///     .reconnect(true)
///     .open()?;
/// assert!(conn.is_alive());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConnectBuilder<'a> {
    uri: String,
    registry: Option<&'a DriverRegistry>,
    options: OpenOptions,
}

impl<'a> ConnectBuilder<'a> {
    /// Opens against an explicit driver registry instead of the process
    /// default (embedders and tests).
    pub fn registry<'b>(self, registry: &'b DriverRegistry) -> ConnectBuilder<'b> {
        ConnectBuilder {
            uri: self.uri,
            registry: Some(registry),
            options: self.options,
        }
    }

    /// Default deadline for every call on the connection, measured from
    /// call entry and spanning transparent retries.
    pub fn call_deadline(mut self, deadline: Duration) -> Self {
        self.options.call_deadline = Some(deadline);
        self
    }

    /// How many times an idempotent call is retried after a connection
    /// failure, pausing 100 ms doubling to 5 s (with per-client jitter)
    /// between attempts, within the call deadline and a budget of 1000
    /// retries per connection. The default never retries.
    pub fn retries(mut self, retries: u32) -> Self {
        self.options.retries = Some(retries);
        self
    }

    /// Whether a dead connection is transparently re-dialed on the next
    /// call (default: yes).
    pub fn reconnect(mut self, auto: bool) -> Self {
        self.options.reconnect = Some(auto);
        self
    }

    /// Resolves the URI through the registry and opens the connection.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::InvalidUri`] on a malformed URI;
    /// [`crate::ErrorCode::NoConnect`] when no endpoint answers.
    pub fn open(&self) -> VirtResult<Connect> {
        let parsed: ConnectUri = self.uri.parse()?;
        let registry = self.registry.unwrap_or_else(|| default_registry());
        Ok(Connect {
            inner: registry.open(&parsed, &self.options)?,
        })
    }
}

impl Connect {
    /// Starts configuring a connection to `uri`.
    pub fn builder(uri: impl Into<String>) -> ConnectBuilder<'static> {
        ConnectBuilder {
            uri: uri.into(),
            registry: None,
            options: OpenOptions::default(),
        }
    }

    /// Wraps an already constructed driver connection (the daemon uses
    /// this to re-enter the API over its local drivers).
    pub fn from_driver(inner: Arc<dyn HypervisorConnection>) -> Connect {
        Connect { inner }
    }

    /// The canonical URI.
    pub fn uri(&self) -> String {
        self.inner.uri()
    }

    /// The managed host's name.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn hostname(&self) -> VirtResult<String> {
        self.inner.hostname()
    }

    /// Host facts.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn node_info(&self) -> VirtResult<NodeInfo> {
        self.inner.node_info()
    }

    /// Hypervisor capabilities.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn capabilities(&self) -> VirtResult<Capabilities> {
        self.inner.capabilities()
    }

    /// Whether the connection is usable.
    pub fn is_alive(&self) -> bool {
        self.inner.is_alive()
    }

    /// Closes the connection. Idempotent; handles become unusable.
    pub fn close(&self) {
        self.inner.close();
    }

    pub(crate) fn raw(&self) -> &Arc<dyn HypervisorConnection> {
        &self.inner
    }

    // ---- domains ------------------------------------------------------

    /// All domains, active and defined.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn list_all_domains(&self) -> VirtResult<Vec<Domain>> {
        Ok(self
            .inner
            .list_domains()?
            .into_iter()
            .map(|record| Domain::from_record(self.inner.clone(), record))
            .collect())
    }

    /// Names of all domains.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn list_domain_names(&self) -> VirtResult<Vec<String>> {
        Ok(self
            .inner
            .list_domains()?
            .into_iter()
            .map(|r| r.name)
            .collect())
    }

    /// Stats for every domain — state, CPU time, memory and a summary of
    /// any background job — as one typed-parameter record per domain.
    /// Over a remote connection this is a single round-trip regardless of
    /// the domain count (the bulk analogue of polling each domain).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn get_all_domain_stats(&self) -> VirtResult<Vec<crate::driver::DomainStatsRecord>> {
        self.inner.get_all_domain_stats()
    }

    /// [`Connect::get_all_domain_stats`] without the records: `visit` is
    /// handed each domain's name and stats in turn and keeps what it
    /// wants. It runs under the driver's locks, so it must not call back
    /// into this connection.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn for_each_domain_stats(
        &self,
        visit: &mut dyn FnMut(&str, &[crate::typedparam::TypedParam]),
    ) -> VirtResult<()> {
        self.inner.for_each_domain_stats(visit)
    }

    /// Looks up a domain by name.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoDomain`].
    pub fn domain_lookup_by_name(&self, name: &str) -> VirtResult<Domain> {
        let record = self.inner.lookup_domain_by_name(name)?;
        Ok(Domain::from_record(self.inner.clone(), record))
    }

    /// Looks up a domain by its active id.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoDomain`].
    pub fn domain_lookup_by_id(&self, id: u32) -> VirtResult<Domain> {
        let record = self.inner.lookup_domain_by_id(id)?;
        Ok(Domain::from_record(self.inner.clone(), record))
    }

    /// Looks up a domain by UUID.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoDomain`].
    pub fn domain_lookup_by_uuid(&self, uuid: Uuid) -> VirtResult<Domain> {
        let record = self.inner.lookup_domain_by_uuid(uuid)?;
        Ok(Domain::from_record(self.inner.clone(), record))
    }

    /// Persists a domain from its XML description.
    ///
    /// # Errors
    ///
    /// XML and duplicate failures.
    pub fn define_domain_xml(&self, xml: &str) -> VirtResult<Domain> {
        let record = self.inner.define_domain_xml(xml)?;
        Ok(Domain::from_record(self.inner.clone(), record))
    }

    /// Persists a domain from a typed config (convenience).
    ///
    /// # Errors
    ///
    /// As [`Connect::define_domain_xml`].
    pub fn define_domain(&self, config: &DomainConfig) -> VirtResult<Domain> {
        self.define_domain_xml(&config.to_xml_string())
    }

    /// Creates and starts a transient domain from XML.
    ///
    /// # Errors
    ///
    /// XML, duplicate and capacity failures.
    pub fn create_domain_xml(&self, xml: &str) -> VirtResult<Domain> {
        let record = self.inner.create_domain_xml(xml)?;
        Ok(Domain::from_record(self.inner.clone(), record))
    }

    // ---- guards ---------------------------------------------------------

    /// Statuses of every guarded domain on this connection.
    ///
    /// # Errors
    ///
    /// Connection failures; [`crate::ErrorCode::NoSupport`] on drivers
    /// without a guard engine.
    pub fn guard_list(&self) -> VirtResult<Vec<crate::guard::GuardStatus>> {
        self.inner.guard_list()
    }

    // ---- storage --------------------------------------------------------

    /// Names of all storage pools.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn list_storage_pools(&self) -> VirtResult<Vec<String>> {
        self.inner.list_pools()
    }

    /// Looks up a pool by name.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStoragePool`].
    pub fn storage_pool_lookup_by_name(&self, name: &str) -> VirtResult<StoragePool> {
        let record = self.inner.pool_info(name)?;
        Ok(StoragePool::new(self.inner.clone(), record.name))
    }

    /// Defines a pool from XML.
    ///
    /// # Errors
    ///
    /// XML and duplicate failures.
    pub fn define_storage_pool_xml(&self, xml: &str) -> VirtResult<StoragePool> {
        let record = self.inner.define_pool_xml(xml)?;
        Ok(StoragePool::new(self.inner.clone(), record.name))
    }

    /// Defines a pool from a typed config (convenience).
    ///
    /// # Errors
    ///
    /// As [`Connect::define_storage_pool_xml`].
    pub fn define_storage_pool(&self, config: &PoolConfig) -> VirtResult<StoragePool> {
        self.define_storage_pool_xml(&config.to_xml_string())
    }

    // ---- networks ----------------------------------------------------------

    /// Names of all virtual networks.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn list_networks(&self) -> VirtResult<Vec<String>> {
        self.inner.list_networks()
    }

    /// Looks up a network by name.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoNetwork`].
    pub fn network_lookup_by_name(&self, name: &str) -> VirtResult<Network> {
        let record = self.inner.network_info(name)?;
        Ok(Network::new(self.inner.clone(), record.name))
    }

    /// Defines a network from XML.
    ///
    /// # Errors
    ///
    /// XML and duplicate failures.
    pub fn define_network_xml(&self, xml: &str) -> VirtResult<Network> {
        let record = self.inner.define_network_xml(xml)?;
        Ok(Network::new(self.inner.clone(), record.name))
    }

    /// Defines a network from a typed config (convenience).
    ///
    /// # Errors
    ///
    /// As [`Connect::define_network_xml`].
    pub fn define_network(&self, config: &NetworkConfig) -> VirtResult<Network> {
        self.define_network_xml(&config.to_xml_string())
    }

    // ---- events ----------------------------------------------------------------

    /// Registers a lifecycle-event callback.
    ///
    /// # Errors
    ///
    /// Driver failures.
    pub fn register_event_callback(
        &self,
        callback: impl Fn(&DomainEvent) + Send + Sync + 'static,
    ) -> VirtResult<CallbackId> {
        let callback: EventCallback = Arc::new(callback);
        self.inner.register_event_callback(callback)
    }

    /// Removes a callback by id.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::InvalidArg`] for unknown ids.
    pub fn unregister_event_callback(&self, id: CallbackId) -> VirtResult<()> {
        self.inner.unregister_event_callback(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DomainState;

    #[test]
    fn open_test_default() {
        let conn = Connect::builder("test:///default").open().unwrap();
        assert!(conn.is_alive());
        assert_eq!(conn.uri(), "test:///default");
        assert_eq!(conn.hostname().unwrap(), "test-host");
        assert_eq!(conn.list_domain_names().unwrap(), vec!["test"]);
    }

    #[test]
    fn builder_opens_with_options_against_local_drivers() {
        // Local drivers ignore transport options, but the builder path
        // must still resolve and open them.
        let conn = Connect::builder("test:///default")
            .call_deadline(Duration::from_secs(10))
            .retries(3)
            .reconnect(false)
            .open()
            .unwrap();
        assert_eq!(conn.hostname().unwrap(), "test-host");
    }

    #[test]
    fn builder_accepts_an_explicit_registry() {
        let mut registry = DriverRegistry::new();
        registry.register(Arc::new(crate::drivers::test::TestDriver::new()));
        let conn = Connect::builder("test:///default")
            .registry(&registry)
            .open()
            .unwrap();
        assert!(conn.is_alive());
    }

    #[test]
    fn builder_rejects_bad_uris_at_open_time() {
        assert!(Connect::builder("not a uri").open().is_err());
    }

    #[test]
    fn open_rejects_bad_uris() {
        assert!(Connect::builder("not a uri").open().is_err());
        assert!(Connect::builder("warp+warp://x/").open().is_err());
    }

    #[test]
    fn unknown_scheme_falls_through_to_remote_and_fails_to_connect() {
        // No daemon is listening on the default socket in the test env.
        let err = Connect::builder("qemu:///system").open().unwrap_err();
        assert_eq!(err.code(), crate::ErrorCode::NoConnect);
    }

    #[test]
    fn define_and_lifecycle_through_public_api() {
        let conn = Connect::builder("test:///default").open().unwrap();
        let config = DomainConfig::new("api-vm", 512, 1);
        let domain = conn.define_domain(&config).unwrap();
        assert_eq!(domain.name(), "api-vm");
        domain.start().unwrap();
        assert_eq!(domain.state().unwrap(), DomainState::Running);
        domain.destroy().unwrap();
        domain.undefine().unwrap();
        assert_eq!(conn.list_domain_names().unwrap(), vec!["test"]);
    }

    #[test]
    fn lookups_by_every_key() {
        let conn = Connect::builder("test:///default").open().unwrap();
        let by_name = conn.domain_lookup_by_name("test").unwrap();
        let id = by_name.id().unwrap();
        let by_id = conn.domain_lookup_by_id(id).unwrap();
        assert_eq!(by_id.name(), "test");
        let by_uuid = conn.domain_lookup_by_uuid(by_name.uuid()).unwrap();
        assert_eq!(by_uuid.name(), "test");
    }

    #[test]
    fn node_info_and_capabilities() {
        let conn = Connect::builder("test:///default").open().unwrap();
        let info = conn.node_info().unwrap();
        assert_eq!(info.hypervisor, "qemu");
        assert_eq!(info.active_domains, 1);
        assert!(conn.capabilities().unwrap().has_feature("migration"));
    }

    #[test]
    fn close_invalidates_connection() {
        let conn = Connect::builder("test:///default").open().unwrap();
        conn.close();
        assert!(!conn.is_alive());
        assert!(conn.list_domain_names().is_err());
    }
}
