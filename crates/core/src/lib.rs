//! # virt-core — non-intrusive virtualization management
//!
//! A from-scratch Rust reproduction of the system described in
//! *"Non-intrusive Virtualization Management using Libvirt"* (DATE 2010):
//! a single, stable, hypervisor-agnostic API for managing virtual
//! machines, storage and networks across heterogeneous virtualization
//! platforms — without installing agents in guests or modifying the
//! hypervisor.
//!
//! ## Architecture
//!
//! ```text
//!  management app ──► Connect (URI) ──► DriverRegistry
//!                                        ├── test driver      (stateless, private mock host)
//!                                        ├── esx driver       (stateless, hypervisor's own remote API)
//!                                        └── remote driver    (fallback: XDR RPC to virtd)
//!                                                 │
//!                                               virtd ──► embedded drivers (qemu / xen / lxc)
//!                                                                │
//!                                                            hypersim hosts
//! ```
//!
//! *Stateless* drivers talk to platforms that persist their own state
//! (VMware ESX-style) directly from the client. *Stateful* platforms
//! (QEMU/KVM, Xen, containers) are managed through the `virtd` daemon,
//! which the remote driver reaches over Unix/TCP/TLS/memory transports.
//!
//! ## Quickstart
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use virt_core::xmlfmt::DomainConfig;
//! use virt_core::Connect;
//!
//! let conn = Connect::builder("test:///default").open()?;
//! let domain = conn.define_domain(&DomainConfig::new("demo", 512, 1))?;
//! domain.start()?;
//! assert!(domain.is_active()?);
//! domain.destroy()?;
//! # Ok(())
//! # }
//! ```

pub mod capabilities;
pub mod conn;
pub mod domain;
pub mod driver;
pub mod drivers;
pub mod error;
pub mod event;
pub mod guard;
pub mod job;
pub mod log;
/// Lock-free metrics registry and request-id tracing (re-export of the
/// `virt-metrics` crate, which sits below `virt-rpc` so the transport and
/// worker-pool layers can record into the same registry).
pub use virt_metrics as metrics;
pub mod migrate;
pub mod network;
pub mod protocol;
pub mod statestore;
pub mod storage;
pub mod testbed;
pub mod typedparam;
pub mod uri;
pub mod uuid;
pub mod xmlfmt;

pub use capabilities::Capabilities;
pub use conn::Connect;
pub use domain::Domain;
pub use driver::{
    DomainRecord, DomainState, DomainStatsRecord, DriverRegistry, HypervisorConnection,
    HypervisorDriver, MigrationOptions, MigrationReport, NodeInfo, PoolRecord, VolumeRecord,
};
pub use error::{ErrorCode, VirtError, VirtResult};
pub use event::{CallbackId, DomainEvent, DomainEventKind, EventBus};
pub use guard::{GuardPolicy, GuardRecord, GuardStatus};
pub use job::{JobKind, JobState, JobStats};
pub use network::Network;
pub use statestore::{DomainStatus, ObjectKind, StateStore};
pub use storage::Volume;
pub use typedparam::{ParamValue, TypedParam, TypedParams};
pub use uuid::Uuid;
// The one backoff formula, re-exported so its users never need a direct
// virt-rpc dependency.
pub use virt_rpc::retry::BackoffSchedule;

/// The process-wide registry for client-side RPC metrics
/// (`rpc.reconnect.*`, `rpc.retry.*`, `rpc.late_replies`,
/// `rpc.buf_pool.*`). Every remote connection opened in this process
/// records into it, so counters aggregate across connections; the
/// daemon's admin metrics procedures merge it into their listings.
/// Shared with `virt-rpc` itself so transport-level counters (late
/// replies, buffer pool) land in the same place.
pub fn client_metrics() -> &'static std::sync::Arc<metrics::Registry> {
    virt_rpc::process_metrics()
}
