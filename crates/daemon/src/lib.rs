//! # virtd — the management daemon
//!
//! The daemon side of the remote protocol, reproducing libvirtd's
//! architecture:
//!
//! - **servers** ([`server::Server`]): named objects that accept client
//!   connections and execute their requests on a worker pool with
//!   priority workers. A daemon hosts two servers, `virtd` (the
//!   hypervisor protocol) and `admin` (the administration protocol).
//! - **services**: listening endpoints (memory, Unix socket, TCP,
//!   TLS-sim) attached to a server.
//! - **client tracking**: per-server client tables with identity,
//!   connect timestamps, and a configurable client limit.
//! - **dispatch** (`dispatch`): the procedure table mapping wire calls
//!   onto the same driver API local callers use — the daemon literally
//!   re-enters `virt-core` through its embedded drivers.
//! - **admin interface** (`admin`): runtime management of the daemon
//!   itself — worker-pool limits, client limits, client listing and
//!   forced disconnect, and logging settings — without a restart.
//! - **observability**: every layer publishes lock-free counters,
//!   gauges, and latency histograms into one [`virt_core::metrics`]
//!   registry (per-procedure RPC latency, worker-pool wait/run times,
//!   transport byte counts, driver lifecycle timings), served over the
//!   admin protocol's metrics procedures; RPC dispatch threads a
//!   request id (client id + packet serial) through the logger so log
//!   lines correlate with slow calls.
//!
//! ## Example: in-process daemon + remote client
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use virt_core::xmlfmt::DomainConfig;
//! use virt_core::Connect;
//! use virtd::Virtd;
//!
//! let daemon = Virtd::builder("node1")
//!     .with_default_hosts()
//!     .build()?;
//! let _connector = daemon.register_memory_endpoint("doc-node1")?;
//!
//! let conn = Connect::builder("qemu+memory://doc-node1/system").open()?;
//! let domain = conn.define_domain(&DomainConfig::new("web", 512, 1))?;
//! domain.start()?;
//! assert!(domain.is_active()?);
//! # daemon.shutdown();
//! # virt_core::testbed::unregister_daemon("doc-node1");
//! # Ok(())
//! # }
//! ```

mod admin;
pub mod adminproto;
mod config;
mod daemon;
mod dispatch;
mod eventloop;
pub mod server;

pub use admin::AdminClient;
pub use config::VirtdConfig;
pub use daemon::{Virtd, VirtdBuilder};
pub use server::{ClientSnapshot, Server};
