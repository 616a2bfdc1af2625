//! The public error model.
//!
//! Mirrors libvirt's `virError`: every failure carries a stable numeric
//! [`ErrorCode`] (preserved across the RPC boundary, so a remote error is
//! indistinguishable from a local one) plus a human-readable message.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use hypersim::{SimError, SimErrorKind};
use virt_metrics::wire_enum;
use virt_rpc::client::CallError;
use virt_rpc::message::RpcError;
use virt_xml::ParseXmlError;

wire_enum! {
    /// Stable error codes, after libvirt's `VIR_ERR_*` set. The name is the
    /// message prefix users see.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[non_exhaustive]
    pub enum ErrorCode {
        /// Internal inconsistency.
        Internal = 1 => "internal error",
        /// Invalid argument to an API call.
        InvalidArg = 2 => "invalid argument",
        /// The connection could not be established.
        NoConnect = 3 => "failed to connect",
        /// Invalid connection object / connection closed.
        ConnectInvalid = 4 => "connection invalid",
        /// Operation is not supported by this driver.
        NoSupport = 5 => "operation not supported",
        /// RPC failure talking to the daemon.
        RpcFailure = 6 => "rpc failure",
        /// Authentication failed.
        AuthFailed = 7 => "authentication failed",
        /// Operation valid but failed on the hypervisor.
        OperationFailed = 8 => "operation failed",
        /// Operation invalid in the object's current state.
        OperationInvalid = 9 => "operation invalid in current state",
        /// XML description malformed or mismatched.
        XmlError = 10 => "xml error",
        /// No domain with matching name/id/uuid.
        NoDomain = 11 => "domain not found",
        /// Domain with this name already exists.
        DomainExists = 12 => "domain already exists",
        /// No storage pool with matching name.
        NoStoragePool = 13 => "storage pool not found",
        /// No storage volume with matching name.
        NoStorageVol = 14 => "storage volume not found",
        /// Storage pool/volume already exists.
        StorageExists = 15 => "storage object already exists",
        /// No network with matching name.
        NoNetwork = 16 => "network not found",
        /// Network already exists.
        NetworkExists = 17 => "network already exists",
        /// Host resources exhausted.
        InsufficientResources = 18 => "insufficient resources",
        /// The operation timed out.
        OperationTimeout = 19 => "operation timed out",
        /// Migration-specific failure.
        MigrateFailed = 20 => "migration failed",
        /// The URI is malformed or uses an unknown scheme.
        InvalidUri = 21 => "invalid connection uri",
        /// Access denied by daemon policy (client limits etc.).
        AccessDenied = 22 => "access denied",
        /// The operation was aborted before completing (job cancellation).
        OperationAborted = 23 => "operation aborted",
    }
}

/// A code this build does not know decodes as `Internal` (forward
/// compatibility).
impl From<u32> for ErrorCode {
    fn from(code: u32) -> Self {
        Self::from_u32(code).unwrap_or(ErrorCode::Internal)
    }
}

/// The error type returned by every fallible public API in this crate.
///
/// Equality considers only the code and message; the optional underlying
/// cause (exposed through [`Error::source`]) is diagnostic detail.
#[derive(Debug, Clone)]
pub struct VirtError {
    code: ErrorCode,
    message: String,
    source: Option<Arc<dyn Error + Send + Sync + 'static>>,
}

impl PartialEq for VirtError {
    fn eq(&self, other: &Self) -> bool {
        self.code == other.code && self.message == other.message
    }
}

impl Eq for VirtError {}

impl VirtError {
    /// Creates an error with a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        VirtError {
            code,
            message: message.into(),
            source: None,
        }
    }

    /// Creates an error that keeps its underlying cause on the standard
    /// [`Error::source`] chain.
    fn with_source(
        code: ErrorCode,
        message: impl Into<String>,
        source: impl Error + Send + Sync + 'static,
    ) -> Self {
        VirtError {
            code,
            message: message.into(),
            source: Some(Arc::new(source)),
        }
    }

    /// The stable error code.
    pub fn code(&self) -> ErrorCode {
        self.code
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Converts to the wire error record.
    pub fn to_rpc(&self) -> RpcError {
        RpcError::new(self.code.as_u32(), self.message.clone())
    }

    /// Reconstructs from the wire error record.
    fn from_rpc(err: &RpcError) -> VirtError {
        VirtError::new(ErrorCode::from(err.code), err.message.clone())
    }
}

impl fmt::Display for VirtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.message.is_empty() {
            write!(f, "{}", self.code)
        } else {
            write!(f, "{}: {}", self.code, self.message)
        }
    }
}

impl Error for VirtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

impl From<SimError> for VirtError {
    /// Maps hypervisor failures onto public codes.
    fn from(err: SimError) -> Self {
        let code = match err.kind() {
            SimErrorKind::NoSuchDomain => ErrorCode::NoDomain,
            SimErrorKind::DuplicateDomain => ErrorCode::DomainExists,
            SimErrorKind::InvalidState => ErrorCode::OperationInvalid,
            SimErrorKind::InsufficientResources => ErrorCode::InsufficientResources,
            SimErrorKind::Unsupported => ErrorCode::NoSupport,
            SimErrorKind::NoSuchPool => ErrorCode::NoStoragePool,
            SimErrorKind::DuplicatePool => ErrorCode::StorageExists,
            SimErrorKind::NoSuchVolume => ErrorCode::NoStorageVol,
            SimErrorKind::DuplicateVolume => ErrorCode::StorageExists,
            SimErrorKind::PoolFull => ErrorCode::InsufficientResources,
            SimErrorKind::NoSuchNetwork => ErrorCode::NoNetwork,
            SimErrorKind::DuplicateNetwork => ErrorCode::NetworkExists,
            SimErrorKind::NoFreeAddress => ErrorCode::InsufficientResources,
            SimErrorKind::InjectedFault => ErrorCode::OperationFailed,
            SimErrorKind::Timeout => ErrorCode::OperationTimeout,
            SimErrorKind::InvalidArgument => ErrorCode::InvalidArg,
            SimErrorKind::HostDown => ErrorCode::NoConnect,
            _ => ErrorCode::Internal,
        };
        VirtError::new(code, err.to_string())
    }
}

impl From<ParseXmlError> for VirtError {
    fn from(err: ParseXmlError) -> Self {
        VirtError::new(ErrorCode::XmlError, err.to_string())
    }
}

impl From<CallError> for VirtError {
    /// Remote errors keep their original code; transport failures become
    /// [`ErrorCode::RpcFailure`] (or timeout).
    fn from(err: CallError) -> Self {
        match err {
            CallError::Remote(rpc) => VirtError::from_rpc(&rpc),
            CallError::TimedOut => {
                VirtError::new(ErrorCode::OperationTimeout, "rpc call timed out")
            }
            other => VirtError::with_source(ErrorCode::RpcFailure, other.to_string(), other),
        }
    }
}

/// Crate-wide result alias.
pub type VirtResult<T> = Result<T, VirtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_message() {
        let err = VirtError::new(ErrorCode::NoDomain, "'web'");
        assert_eq!(err.to_string(), "domain not found: 'web'");
        let bare = VirtError::new(ErrorCode::Internal, "");
        assert_eq!(bare.to_string(), "internal error");
    }

    #[test]
    fn all_codes_round_trip_the_wire() {
        assert_eq!(ErrorCode::ALL.len(), 23);
        for &code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from(code.as_u32()), code);
        }
    }

    #[test]
    fn unknown_wire_code_becomes_internal() {
        assert_eq!(ErrorCode::from(9999), ErrorCode::Internal);
    }

    #[test]
    fn rpc_round_trip_preserves_code_and_message() {
        let original = VirtError::new(ErrorCode::OperationInvalid, "cannot suspend");
        let back = VirtError::from_rpc(&original.to_rpc());
        assert_eq!(back, original);
    }

    #[test]
    fn sim_error_mapping() {
        let cases = [
            (SimErrorKind::NoSuchDomain, ErrorCode::NoDomain),
            (SimErrorKind::DuplicateDomain, ErrorCode::DomainExists),
            (SimErrorKind::InvalidState, ErrorCode::OperationInvalid),
            (
                SimErrorKind::InsufficientResources,
                ErrorCode::InsufficientResources,
            ),
            (SimErrorKind::Unsupported, ErrorCode::NoSupport),
            (SimErrorKind::NoSuchPool, ErrorCode::NoStoragePool),
            (SimErrorKind::HostDown, ErrorCode::NoConnect),
            (SimErrorKind::InjectedFault, ErrorCode::OperationFailed),
        ];
        for (sim, expected) in cases {
            let err: VirtError = SimError::new(sim, "x").into();
            assert_eq!(err.code(), expected, "{sim:?}");
        }
    }

    #[test]
    fn call_error_mapping_preserves_remote_codes() {
        let remote = CallError::Remote(RpcError::new(ErrorCode::NoDomain.as_u32(), "gone"));
        let err: VirtError = remote.into();
        assert_eq!(err.code(), ErrorCode::NoDomain);
        assert_eq!(err.message(), "gone");

        let timeout: VirtError = CallError::TimedOut.into();
        assert_eq!(timeout.code(), ErrorCode::OperationTimeout);

        let io: VirtError = CallError::Disconnected.into();
        assert_eq!(io.code(), ErrorCode::RpcFailure);
    }

    #[test]
    fn xml_error_mapping() {
        let parse_err = virt_xml::Element::parse("<a").unwrap_err();
        let err: VirtError = parse_err.into();
        assert_eq!(err.code(), ErrorCode::XmlError);
    }

    #[test]
    fn source_chain_reaches_the_underlying_io_error() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset");
        let call = CallError::Io(io);
        let err: VirtError = call.into();
        assert_eq!(err.code(), ErrorCode::RpcFailure);
        let source = err.source().expect("io-backed rpc failure has a source");
        let call = source
            .downcast_ref::<CallError>()
            .expect("source is the CallError");
        let io = call.source().expect("CallError::Io chains to io::Error");
        assert!(io.to_string().contains("peer reset"));
    }

    #[test]
    fn equality_ignores_the_source() {
        let plain = VirtError::new(ErrorCode::RpcFailure, "boom");
        let sourced = VirtError::with_source(
            ErrorCode::RpcFailure,
            "boom",
            std::io::Error::other("cause"),
        );
        assert_eq!(plain, sourced);
        assert!(plain.source().is_none());
        assert!(sourced.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<VirtError>();
    }
}
