//! Simulated hypervisor substrate for the virt toolkit.
//!
//! The DATE 2010 evaluation ran against real Xen, KVM/QEMU and VMware ESX
//! installations. This environment has none of those, so `hypersim`
//! provides the closest synthetic equivalent: simulated hosts whose
//! **control plane** behaves like a hypervisor's — domain lifecycle state
//! machines, resource accounting, storage pools, virtual networks, a
//! QMP-like monitor, per-operation latency models calibrated to published
//! hypervisor characteristics, and fault injection.
//!
//! The management layer above (`virt-core` drivers) exercises exactly the
//! code paths it would against real hypervisors: it issues *native* control
//! operations against a [`SimHost`] configured with one of four
//! [`personality`] profiles:
//!
//! | Personality | Models | Control-plane character |
//! |---|---|---|
//! | [`personality::QemuLike`] | KVM/QEMU | process per domain, monitor socket, stateful management |
//! | [`personality::XenLike`] | Xen | Domain0 + hypercalls, paravirt, stateful management |
//! | [`personality::LxcLike`] | Linux containers | shared kernel, near-zero start cost |
//! | [`personality::EsxLike`] | VMware ESX | proprietary remote API, hypervisor-side persistence (stateless driver) |
//!
//! Time is **virtual**: every operation charges its modeled latency to a
//! shared [`clock::SimClock`] instead of sleeping, making simulations
//! deterministic and fast. Benchmarks read simulated latencies from the
//! clock and measure real management-layer overhead separately.
//!
//! # Examples
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use hypersim::{DomainSpec, SimHost};
//! use hypersim::personality::QemuLike;
//!
//! let host = SimHost::builder("node1")
//!     .cpus(16)
//!     .memory_mib(32 * 1024)
//!     .personality(QemuLike::default())
//!     .build();
//!
//! host.define_domain(DomainSpec::new("web").memory_mib(1024).vcpus(2))?;
//! host.start_domain("web")?;
//! assert!(host.domain("web")?.state().is_active());
//! # Ok(())
//! # }
//! ```

pub mod clock;
pub mod domain;
pub mod fault;
pub mod host;
pub mod latency;
pub mod migration;
pub mod monitor;
pub mod network;
pub mod personality;
pub mod resources;
pub mod storage;

mod error;

pub use clock::SimClock;
pub use domain::{DomainInfo, DomainSpec, DomainState, SimDisk, SimNic};
pub use error::{SimError, SimErrorKind};
pub use fault::{FaultAction, FaultPlan};
pub use host::{SimHost, SimHostBuilder};
pub use latency::{LatencyModel, OpKind};
pub use migration::MigrationParams;
pub use network::NetworkSpec;
pub use resources::MiB;
pub use storage::{PoolBackend, PoolSpec, VolumeSpec};
