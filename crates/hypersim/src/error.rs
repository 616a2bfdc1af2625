//! Error type for simulated hypervisor operations.

use std::error::Error;
use std::fmt;

/// The category of a simulated-hypervisor failure.
///
/// These mirror the failure classes a real hypervisor control interface
/// reports, so the management layer above can map them onto its own error
/// codes faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SimErrorKind {
    /// No domain with the requested name or id exists.
    NoSuchDomain,
    /// A domain with the requested name (or UUID) already exists.
    DuplicateDomain,
    /// The operation is not valid in the domain's current state.
    InvalidState,
    /// Host capacity (memory or vCPUs) would be exceeded.
    InsufficientResources,
    /// The host's personality does not implement the operation.
    Unsupported,
    /// No storage pool with the requested name exists.
    NoSuchPool,
    /// A pool with the requested name already exists.
    DuplicatePool,
    /// No volume with the requested name exists in the pool.
    NoSuchVolume,
    /// A volume with the requested name already exists in the pool.
    DuplicateVolume,
    /// Pool capacity would be exceeded.
    PoolFull,
    /// No network with the requested name exists.
    NoSuchNetwork,
    /// A network with the requested name already exists.
    DuplicateNetwork,
    /// Network address range exhausted.
    NoFreeAddress,
    /// The configured fault plan forced this operation to fail.
    InjectedFault,
    /// An operation timed out (e.g. a hung monitor).
    Timeout,
    /// The request itself was malformed (bad spec values).
    InvalidArgument,
    /// The host is down (crashed or stopped).
    HostDown,
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SimErrorKind::NoSuchDomain => "no such domain",
            SimErrorKind::DuplicateDomain => "domain already exists",
            SimErrorKind::InvalidState => "operation invalid in current state",
            SimErrorKind::InsufficientResources => "insufficient host resources",
            SimErrorKind::Unsupported => "operation not supported by this hypervisor",
            SimErrorKind::NoSuchPool => "no such storage pool",
            SimErrorKind::DuplicatePool => "storage pool already exists",
            SimErrorKind::NoSuchVolume => "no such volume",
            SimErrorKind::DuplicateVolume => "volume already exists",
            SimErrorKind::PoolFull => "storage pool capacity exceeded",
            SimErrorKind::NoSuchNetwork => "no such network",
            SimErrorKind::DuplicateNetwork => "network already exists",
            SimErrorKind::NoFreeAddress => "network address range exhausted",
            SimErrorKind::InjectedFault => "injected fault",
            SimErrorKind::Timeout => "operation timed out",
            SimErrorKind::InvalidArgument => "invalid argument",
            SimErrorKind::HostDown => "host is down",
        };
        f.write_str(msg)
    }
}

/// An error returned by the simulated hypervisor control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    kind: SimErrorKind,
    detail: String,
}

impl SimError {
    /// Creates an error of the given kind with a human-readable detail.
    pub fn new(kind: SimErrorKind, detail: impl Into<String>) -> Self {
        SimError {
            kind,
            detail: detail.into(),
        }
    }

    /// The failure category.
    pub fn kind(&self) -> SimErrorKind {
        self.kind
    }

    /// Additional context (object names, limits, ...).
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.detail.is_empty() {
            write!(f, "{}", self.kind)
        } else {
            write!(f, "{}: {}", self.kind, self.detail)
        }
    }
}

impl Error for SimError {}

/// Convenience alias used across the crate.
pub(crate) type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_joins_kind_and_detail() {
        let err = SimError::new(SimErrorKind::NoSuchDomain, "'web'");
        assert_eq!(err.to_string(), "no such domain: 'web'");
    }

    #[test]
    fn display_without_detail_is_kind_only() {
        let err = SimError::new(SimErrorKind::Timeout, "");
        assert_eq!(err.to_string(), "operation timed out");
    }

    #[test]
    fn accessors() {
        let err = SimError::new(SimErrorKind::PoolFull, "pool 'default'");
        assert_eq!(err.kind(), SimErrorKind::PoolFull);
        assert_eq!(err.detail(), "pool 'default'");
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}
