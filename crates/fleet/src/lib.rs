//! # virt-fleet — multi-host federation over `virtd`
//!
//! The paper's thesis is a single stable API for managing one
//! virtualization host without intruding on its guests. This crate
//! takes the step the production posture demands: **many** such hosts
//! behind one aggregating front-end, using nothing but that same public
//! API — the fleet layer is itself non-intrusive, a pure client of N
//! `virtd` daemons.
//!
//! ```text
//!                 FleetManager
//!       ┌────────────┼─────────────┐
//!   Connect       Connect       Connect     (auto-reconnecting,
//!       │            │             │         per-host call deadlines)
//!    virtd A      virtd B       virtd C
//!    qemu/xen…    qemu/xen…     qemu/xen…
//! ```
//!
//! Three pieces:
//!
//! - [`inventory`]: a per-host cache of capacity facts + domain
//!   summaries, refreshed in two RPCs per host (bulk `domstats`) and
//!   patched in place by lifecycle event subscriptions;
//! - [`placement`]: pluggable scoring policies (spread / pack /
//!   memory-weighted) with admission rejection when no host fits;
//! - [`manager`]: the [`FleetManager`] — fan-out with bounded
//!   parallelism, cross-host live migration driving the five-phase
//!   protocol over two remote connections, single-owner reconciliation
//!   after mid-migration crashes, host health tracking with
//!   `fleet.host_down`/`fleet.host_up` transitions, and `fleet.*`
//!   metrics throughout.
//!
//! ## Quickstart
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use virt_fleet::{FleetManager, PlacementRequest};
//! use virtd::Virtd;
//!
//! // Two single-host daemons...
//! for name in ["fleet-doc-a", "fleet-doc-b"] {
//!     let daemon = Virtd::builder(name).with_quiet_hosts().build()?;
//!     daemon.register_memory_endpoint(name)?;
//!     std::mem::forget(daemon); // keep serving for the example
//! }
//!
//! // ...one fleet.
//! let fleet = FleetManager::builder()
//!     .host("a", "qemu+memory://fleet-doc-a/system")
//!     .host("b", "qemu+memory://fleet-doc-b/system")
//!     .build()?;
//! fleet.refresh();
//!
//! let host = fleet.create(&PlacementRequest::new("web", 512, 2))?;
//! assert!(fleet.residency("web") == vec![host]);
//! # virt_core::testbed::unregister_daemon("fleet-doc-a");
//! # virt_core::testbed::unregister_daemon("fleet-doc-b");
//! # Ok(())
//! # }
//! ```

mod inventory;
pub mod manager;
pub mod placement;

pub use manager::FleetManager;
pub use placement::{policy_by_name, Pack, PlacementRequest};
