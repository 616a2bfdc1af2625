//! Daemon configuration.
//!
//! This is the equivalent of `libvirtd.conf`: the *persistent* settings a
//! daemon starts with. The admin interface can change the runtime values
//! afterwards — that distinction (persistent file vs runtime state) is
//! exactly why the admin interface exists.

use virt_rpc::PoolLimits;

/// Startup configuration of a daemon.
#[derive(Debug, Clone)]
pub struct VirtdConfig {
    /// Maximum simultaneously connected clients per server.
    pub max_clients: u32,
    /// Worker pool limits of the main server.
    pub pool_limits: PoolLimits,
    /// When set, clients must AUTH with one of these `(user, password)`
    /// pairs before OPEN succeeds. `None` disables authentication.
    pub credentials: Option<Vec<(String, String)>>,
    /// When set, persistent object definitions and live-status records
    /// are kept crash-safe under this directory (the `/etc/libvirt` +
    /// `/run/libvirt` split), and startup runs a recovery pass against
    /// it. `None` keeps all state in memory.
    pub statedir: Option<std::path::PathBuf>,
}

impl VirtdConfig {
    /// libvirtd-like defaults: 120 clients, 5–20 workers + 5 priority.
    pub fn new() -> Self {
        VirtdConfig {
            max_clients: 120,
            pool_limits: PoolLimits::new(),
            credentials: None,
            statedir: None,
        }
    }

    /// Persists state under `dir` and recovers from it at startup.
    pub fn statedir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.statedir = Some(dir.into());
        self
    }

    /// Requires authentication with the given credential set.
    pub fn credentials(mut self, creds: Vec<(String, String)>) -> Self {
        self.credentials = Some(creds);
        self
    }

    /// Overrides the client limit.
    pub fn max_clients(mut self, max: u32) -> Self {
        self.max_clients = max;
        self
    }

    /// Overrides the main pool limits.
    pub fn pool_limits(mut self, limits: PoolLimits) -> Self {
        self.pool_limits = limits;
        self
    }
}

impl Default for VirtdConfig {
    fn default() -> Self {
        VirtdConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_libvirtd() {
        let config = VirtdConfig::new();
        assert_eq!(config.max_clients, 120);
        assert_eq!(config.pool_limits.min_workers, 5);
        assert_eq!(config.pool_limits.max_workers, 20);
        assert_eq!(config.pool_limits.priority_workers, 5);
    }

    #[test]
    fn builder_overrides() {
        let config = VirtdConfig::new().max_clients(10).pool_limits(PoolLimits {
            min_workers: 1,
            max_workers: 2,
            priority_workers: 1,
        });
        assert_eq!(config.max_clients, 10);
        assert_eq!(config.pool_limits.max_workers, 2);
    }
}
