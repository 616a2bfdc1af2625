//! The remote driver: tunnels every API call to a `virtd` daemon.
//!
//! This is how libvirt manages hypervisors that have no remote management
//! of their own: the client library speaks the XDR protocol to the daemon,
//! which re-enters the very same driver API on its side using a stateful
//! platform driver. The remote driver is the registry fallback — any URI
//! scheme no stateless driver claims ends up here, as does any URI with an
//! explicit `+transport` suffix.
//!
//! The stub of every regular procedure is generated from
//! [`crate::remote_procedures!`] — the same table the daemon's dispatcher
//! is generated from, so the two ends cannot disagree on a procedure's
//! argument struct or reply shape. Hand-written here: connecting, the
//! session handshake, and the stubs of the table's `custom` rows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use virt_rpc::keepalive;
use virt_rpc::message::{MessageType, Packet, REMOTE_PROGRAM};
use virt_rpc::reconnect::{
    ReconnectConfig, ReconnectMetrics, ReconnectingClient, SessionSetup, TransportFactory,
};
use virt_rpc::transport::{TcpTransport, TlsSimTransport, Transport, TransportKind, UnixTransport};
use virt_rpc::xdr::XdrEncode;

use crate::capabilities::Capabilities;
use crate::client_metrics;
use crate::driver::{
    DomainRecord, HypervisorConnection, HypervisorDriver, MigrationOptions, MigrationReport,
    NetworkRecord, NodeInfo, OpenOptions, PoolRecord, VolumeRecord,
};
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::event::{CallbackId, DomainEvent, EventBus, EventCallback};
use crate::guard::{GuardPolicy, GuardStatus};
use crate::job::JobStats;
use crate::protocol::{self, proc};
use crate::testbed;
use crate::typedparam::TypedParam;
use crate::uri::ConnectUri;
use crate::uuid::Uuid;

/// Default Unix socket path of a system daemon.
const DEFAULT_SOCKET_PATH: &str = "/var/run/virt/virtd.sock";
/// Default TCP port (libvirt's registered port).
const DEFAULT_TCP_PORT: u16 = 16509;
/// Default TLS port.
const DEFAULT_TLS_PORT: u16 = 16514;

/// The remote driver (registry fallback).
#[derive(Debug, Default)]
pub struct RemoteDriver;

impl RemoteDriver {
    /// Creates the driver.
    pub fn new() -> Self {
        RemoteDriver
    }
}

impl HypervisorDriver for RemoteDriver {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn probe(&self, _uri: &ConnectUri) -> bool {
        // Installed as the fallback; explicit probing always defers to
        // stateless drivers first.
        false
    }

    fn open(
        &self,
        uri: &ConnectUri,
        options: &OpenOptions,
    ) -> VirtResult<Arc<dyn HypervisorConnection>> {
        let keepalive_config = parse_keepalive_param(uri)?;

        // Dial the first transport directly so URI problems keep their
        // precise error codes; the factory only re-dials the same URI.
        let transport = connect_transport(uri)?;
        let dial_uri = uri.clone();
        let factory: TransportFactory = Box::new(move || {
            connect_transport(&dial_uri)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::ConnectionRefused, e))
        });

        // The session handshake, replayed verbatim after every re-dial:
        // authenticate (the `password` parameter stands in for a SASL
        // exchange), open the inner URI on the daemon, and re-register
        // the event subscription if one is active.
        let auth_args = uri.username().map(|username| protocol::AuthArgs {
            username: username.to_string(),
            password: uri.param("password").unwrap_or_default().to_string(),
        });
        let open_args = protocol::OpenArgs {
            uri: uri.inner_uri(),
            readonly: uri.param("readonly").is_some(),
        };
        let events_subscribed = Arc::new(AtomicBool::new(false));
        let setup_subscribed = Arc::clone(&events_subscribed);
        let first_setup = AtomicBool::new(true);
        let metrics = ReconnectMetrics::new().attach(client_metrics(), "rpc.");
        let callbacks_replayed = Arc::clone(&metrics.callbacks_replayed);
        let setup: SessionSetup = Box::new(move |client| {
            if let Some(auth) = &auth_args {
                client.call::<()>(REMOTE_PROGRAM, proc::AUTH, auth)?;
            }
            client.call::<()>(REMOTE_PROGRAM, proc::OPEN, &open_args)?;
            let first = first_setup.swap(false, Ordering::AcqRel);
            if setup_subscribed.load(Ordering::Acquire) {
                client.call::<()>(REMOTE_PROGRAM, proc::EVENT_REGISTER, &())?;
                if !first {
                    callbacks_replayed.inc();
                }
            }
            Ok(())
        });

        let config = ReconnectConfig {
            auto_reconnect: options.reconnect.unwrap_or(true),
            retries: options.retries.unwrap_or(0),
            keepalive: keepalive_config,
            call_deadline: options.call_deadline,
        };
        let client = ReconnectingClient::with_transport(transport, factory, setup, config, metrics)
            .map_err(VirtError::from)?;

        // Route lifecycle events from the daemon; keepalive and farewell
        // traffic never reaches this handler.
        let events = EventBus::new();
        let emit_events = events.clone();
        client.set_event_handler(move |packet: Packet| {
            if packet.header.mtype == MessageType::Event
                && (packet.header.procedure == proc::EVENT_LIFECYCLE
                    || packet.header.procedure == proc::EVENT_DOMAIN_JOB)
            {
                // An event of a kind this build does not know fails to
                // decode and is dropped.
                if let Ok(event) = packet.decode_payload::<DomainEvent>() {
                    emit_events.emit(&event);
                }
            }
        });

        Ok(Arc::new(RemoteConnection {
            client,
            uri: uri.to_string(),
            events,
            events_subscribed,
            open: AtomicBool::new(true),
        }))
    }
}

/// Parses the `keepalive` URI parameter: absent or `off` disables
/// probing; `interval_ms:count` enables it (e.g. `keepalive=5000:5`).
///
/// # Errors
///
/// [`ErrorCode::InvalidUri`] on a malformed value.
fn parse_keepalive_param(uri: &ConnectUri) -> VirtResult<Option<keepalive::KeepaliveConfig>> {
    let Some(value) = uri.param("keepalive") else {
        return Ok(None);
    };
    if value == "off" {
        return Ok(None);
    }
    let bad = || {
        VirtError::new(
            ErrorCode::InvalidUri,
            format!("keepalive must be 'off' or 'interval_ms:count', got '{value}'"),
        )
    };
    let (interval_ms, count) = value.split_once(':').ok_or_else(bad)?;
    let interval_ms: u64 = interval_ms.parse().map_err(|_| bad())?;
    let count: u32 = count.parse().map_err(|_| bad())?;
    if interval_ms == 0 {
        return Err(bad());
    }
    Ok(Some(keepalive::KeepaliveConfig {
        interval: std::time::Duration::from_millis(interval_ms),
        count,
    }))
}

/// Establishes the transport a URI asks for.
fn connect_transport(uri: &ConnectUri) -> VirtResult<Arc<dyn Transport>> {
    let failed = |e: std::io::Error| VirtError::new(ErrorCode::NoConnect, e.to_string());
    match uri.transport() {
        Some(TransportKind::Memory) => {
            let host = uri.host().ok_or_else(|| {
                VirtError::new(
                    ErrorCode::InvalidUri,
                    "+memory transport requires a host name",
                )
            })?;
            let connector = testbed::lookup_daemon(host)?;
            Ok(Arc::new(connector.connect().map_err(failed)?))
        }
        Some(TransportKind::Unix) | None if uri.is_local() => {
            let path = uri.param("socket").unwrap_or(DEFAULT_SOCKET_PATH);
            Ok(Arc::new(UnixTransport::connect(path).map_err(failed)?))
        }
        Some(TransportKind::Unix) => Err(VirtError::new(
            ErrorCode::InvalidUri,
            "+unix transport is local-only",
        )),
        Some(TransportKind::Tcp) => {
            let host = uri
                .host()
                .ok_or_else(|| VirtError::new(ErrorCode::InvalidUri, "+tcp requires a host"))?;
            let port = uri.port().unwrap_or(DEFAULT_TCP_PORT);
            Ok(Arc::new(
                TcpTransport::connect(&format!("{host}:{port}")).map_err(failed)?,
            ))
        }
        Some(TransportKind::Tls) | None => {
            // libvirt's rule: a remote URI without explicit transport uses TLS.
            let host = uri.host().ok_or_else(|| {
                VirtError::new(ErrorCode::InvalidUri, "remote uri requires a host")
            })?;
            let port = uri.port().unwrap_or(DEFAULT_TLS_PORT);
            let tcp = TcpTransport::connect(&format!("{host}:{port}")).map_err(failed)?;
            let nonce = rand::random::<u64>();
            Ok(Arc::new(
                TlsSimTransport::client(tcp, nonce).map_err(failed)?,
            ))
        }
    }
}

/// A connection whose every method is one RPC to the daemon, routed
/// through a [`ReconnectingClient`] that survives daemon restarts.
struct RemoteConnection {
    client: ReconnectingClient,
    uri: String,
    events: EventBus,
    events_subscribed: Arc<AtomicBool>,
    open: AtomicBool,
}

impl std::fmt::Debug for RemoteConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteConnection")
            .field("uri", &self.uri)
            .finish()
    }
}

impl RemoteConnection {
    fn call<R: virt_rpc::xdr::XdrDecode>(
        &self,
        procedure: u32,
        args: &impl XdrEncode,
    ) -> VirtResult<R> {
        self.ensure_open()?;
        self.client
            .call::<R>(
                REMOTE_PROGRAM,
                procedure,
                protocol::is_idempotent(procedure),
                args,
                None,
            )
            .map_err(VirtError::from)
    }

    /// [`RemoteConnection::call`] with the reply handed to `read` where
    /// it lies (see [`ReconnectingClient::call_reading`]).
    fn call_reading(
        &self,
        procedure: u32,
        args: &impl XdrEncode,
        read: &mut dyn FnMut(&[u8]) -> Result<(), virt_rpc::xdr::XdrError>,
    ) -> VirtResult<()> {
        self.ensure_open()?;
        self.client
            .call_reading(
                REMOTE_PROGRAM,
                procedure,
                protocol::is_idempotent(procedure),
                args,
                None,
                read,
            )
            .map_err(VirtError::from)
    }

    fn ensure_open(&self) -> VirtResult<()> {
        if self.open.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(VirtError::new(
                ErrorCode::ConnectInvalid,
                "connection is closed",
            ))
        }
    }
}

/// Table callback, invoked inside the `impl` below: strips the remote
/// program's class columns and hands each row to the shared stub expander.
/// `custom` rows expand to nothing; their stubs are hand-written next to
/// the invocation.
macro_rules! remote_stubs {
    (
        calls { $( ($num:literal, $name:ident, $doc:literal,
            $priority:ident, $retry:ident, $access:ident, $($shape:tt)+); )* }
        events { $($events:tt)* }
    ) => {
        $( crate::procedure_stub!(fn in protocol, $doc, $name, $($shape)+); )*
    };
}

impl HypervisorConnection for RemoteConnection {
    crate::remote_procedures!(remote_stubs);

    fn uri(&self) -> String {
        self.uri.clone()
    }

    fn capabilities(&self) -> VirtResult<Capabilities> {
        let xml: String = self.call(proc::GET_CAPABILITIES, &())?;
        Capabilities::from_xml_str(&xml)
    }

    fn is_alive(&self) -> bool {
        self.open.load(Ordering::Acquire) && self.client.is_alive()
    }

    fn close(&self) {
        if self.open.swap(false, Ordering::AcqRel) {
            // Best-effort goodbye on the current generation only — a dead
            // connection must not be re-dialed just to say goodbye.
            self.client.with_current(|client| {
                let _ = client.call::<()>(REMOTE_PROGRAM, proc::CLOSE, &());
                let _ = client.send_oneway(&keepalive::bye_packet());
            });
            self.client.close();
        }
    }

    fn lookup_domain_by_id(&self, id: u32) -> VirtResult<DomainRecord> {
        self.call(
            proc::DOMAIN_LOOKUP_ID,
            &protocol::NameU32Args {
                name: String::new(),
                value: id,
            },
        )
    }

    fn guard_set(&self, name: &str, policy: &GuardPolicy) -> VirtResult<()> {
        self.call::<()>(
            proc::GUARD_SET,
            &protocol::GuardSetArgs::from_policy(name, policy),
        )
    }

    fn guard_list(&self) -> VirtResult<Vec<GuardStatus>> {
        let list: Vec<protocol::WireGuardStatus> = self.call(proc::GUARD_LIST, &())?;
        Ok(list.into_iter().filter_map(|w| w.into_status()).collect())
    }

    fn guard_status(&self, name: &str) -> VirtResult<GuardStatus> {
        let wire: protocol::WireGuardStatus = self.call(
            proc::GUARD_STATUS,
            &protocol::NameArgs {
                name: name.to_string(),
            },
        )?;
        wire.into_status().ok_or_else(|| {
            VirtError::new(
                ErrorCode::RpcFailure,
                "daemon sent unknown guard policy kind",
            )
        })
    }

    fn migrate_perform(
        &self,
        name: &str,
        options: &MigrationOptions,
    ) -> VirtResult<MigrationReport> {
        self.call(
            proc::MIGRATE_PERFORM,
            &protocol::MigratePerformArgs::from_options(name, options),
        )
    }

    fn for_each_domain_stats(&self, visit: &mut dyn FnMut(&str, &[TypedParam])) -> VirtResult<()> {
        // The whole point of the bulk procedure: one round-trip for the
        // entire host, never one call per domain — read row by row where
        // the reply lies.
        self.call_reading(proc::CONNECT_GET_ALL_DOMAIN_STATS, &(), &mut |payload| {
            protocol::read_stats_list(payload, visit)
        })
    }

    fn register_event_callback(&self, callback: EventCallback) -> VirtResult<CallbackId> {
        // On the bus before the daemon is asked: it pushes events from the
        // moment it subscribes, and those read with (or right behind) its
        // reply are handed up at once, by the caller that read them.
        let id = self.events.register(callback);
        if !self.events_subscribed.swap(true, Ordering::AcqRel) {
            // Events come unasked: from here on the connection keeps a
            // listener on the socket, this generation and every later
            // one. Until now nobody read it between calls.
            self.client.listen();
            if let Err(e) = self.call::<()>(proc::EVENT_REGISTER, &()) {
                self.events.unregister(id);
                self.events_subscribed.store(false, Ordering::Release);
                return Err(e);
            }
        }
        Ok(id)
    }

    fn unregister_event_callback(&self, id: CallbackId) -> VirtResult<()> {
        if !self.events.unregister(id) {
            return Err(VirtError::new(
                ErrorCode::InvalidArg,
                format!("no callback {id}"),
            ));
        }
        if self.events.is_empty() && self.events_subscribed.swap(false, Ordering::AcqRel) {
            self.call::<()>(proc::EVENT_DEREGISTER, &())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_never_claims_uris_directly() {
        let driver = RemoteDriver::new();
        for text in ["qemu:///system", "qemu+tcp://h/system", "esx://h/"] {
            let uri: ConnectUri = text.parse().unwrap();
            assert!(!driver.probe(&uri));
        }
    }

    #[test]
    fn memory_transport_requires_registered_daemon() {
        let uri: ConnectUri = "qemu+memory://no-such-daemon/system".parse().unwrap();
        let err = RemoteDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }

    #[test]
    fn memory_transport_requires_host() {
        let uri: ConnectUri = "qemu+memory:///system".parse().unwrap();
        let err = RemoteDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidUri);
    }

    #[test]
    fn tcp_transport_requires_reachable_daemon() {
        // Port 1 on localhost is essentially never listening.
        let uri: ConnectUri = "qemu+tcp://127.0.0.1:1/system".parse().unwrap();
        let err = RemoteDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }

    #[test]
    fn unix_transport_is_local_only() {
        let uri: ConnectUri = "qemu+unix://somehost/system".parse().unwrap();
        let err = RemoteDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidUri);
    }

    #[test]
    fn missing_socket_fails_with_no_connect() {
        let uri: ConnectUri = "qemu+unix:///system?socket=/no/such/socket"
            .parse()
            .unwrap();
        let err = RemoteDriver::new()
            .open(&uri, &OpenOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }
}
