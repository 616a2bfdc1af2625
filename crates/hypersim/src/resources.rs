//! Resource quantities and host capacity accounting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::error::{SimError, SimErrorKind, SimResult};

/// A quantity of memory in mebibytes.
///
/// A newtype rather than a bare `u64` so memory can never be confused with
/// other integer quantities (vCPU counts, MHz, volume bytes).
///
/// ```
/// use hypersim::MiB;
/// let total = MiB(512) + MiB(256);
/// assert_eq!(total, MiB(768));
/// assert_eq!(total.as_bytes(), 768 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MiB(pub u64);

impl MiB {
    /// Zero memory.
    pub const ZERO: MiB = MiB(0);

    /// The quantity in bytes.
    pub fn as_bytes(self) -> u64 {
        self.0 * 1024 * 1024
    }

    /// Constructs from kibibytes, rounding up to a whole MiB.
    #[cfg(test)]
    pub(crate) fn from_kib_ceil(kib: u64) -> MiB {
        MiB(kib.div_ceil(1024))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: MiB) -> MiB {
        MiB(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for MiB {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MiB", self.0)
    }
}

impl Add for MiB {
    type Output = MiB;
    fn add(self, rhs: MiB) -> MiB {
        MiB(self.0 + rhs.0)
    }
}

impl AddAssign for MiB {
    fn add_assign(&mut self, rhs: MiB) {
        self.0 += rhs.0;
    }
}

impl Sub for MiB {
    type Output = MiB;
    /// # Panics
    ///
    /// Panics on underflow, which indicates broken accounting; use
    /// [`MiB::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: MiB) -> MiB {
        MiB(self.0 - rhs.0)
    }
}

impl SubAssign for MiB {
    fn sub_assign(&mut self, rhs: MiB) {
        self.0 -= rhs.0;
    }
}

impl Sum for MiB {
    fn sum<I: Iterator<Item = MiB>>(iter: I) -> MiB {
        MiB(iter.map(|m| m.0).sum())
    }
}

/// Tracks allocation of a host's finite memory and vCPU capacity.
///
/// Hypervisors refuse to start a guest that would overcommit beyond their
/// policy; this ledger models a strict no-overcommit policy for memory and
/// a configurable overcommit ratio for vCPUs (CPU time is shareable in a
/// way RAM is not).
#[derive(Debug, Clone)]
pub(crate) struct CapacityLedger {
    total_memory: MiB,
    used_memory: MiB,
    total_cpus: u32,
    cpu_overcommit: u32,
    used_vcpus: u32,
}

impl CapacityLedger {
    /// Creates a ledger for a host with the given physical capacity.
    ///
    /// `cpu_overcommit` is the allowed ratio of allocated vCPUs to physical
    /// CPUs (libvirt-managed clouds commonly run 4–16×).
    pub(crate) fn new(total_memory: MiB, total_cpus: u32, cpu_overcommit: u32) -> Self {
        CapacityLedger {
            total_memory,
            used_memory: MiB::ZERO,
            total_cpus,
            cpu_overcommit: cpu_overcommit.max(1),
            used_vcpus: 0,
        }
    }

    /// Physical memory of the host.
    pub(crate) fn total_memory(&self) -> MiB {
        self.total_memory
    }

    /// Memory currently reserved by active domains.
    #[cfg(test)]
    pub(crate) fn used_memory(&self) -> MiB {
        self.used_memory
    }

    /// Memory still available for new domains.
    pub(crate) fn free_memory(&self) -> MiB {
        self.total_memory.saturating_sub(self.used_memory)
    }

    /// Physical CPU count.
    pub(crate) fn total_cpus(&self) -> u32 {
        self.total_cpus
    }

    /// vCPUs currently allocated to active domains.
    #[cfg(test)]
    pub(crate) fn used_vcpus(&self) -> u32 {
        self.used_vcpus
    }

    /// Maximum allocatable vCPUs under the overcommit policy.
    fn vcpu_limit(&self) -> u32 {
        self.total_cpus * self.cpu_overcommit
    }

    /// Reserves resources for a starting domain.
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::InsufficientResources`] without reserving
    /// anything when either memory or the vCPU limit would be exceeded.
    pub(crate) fn reserve(&mut self, memory: MiB, vcpus: u32) -> SimResult<()> {
        if self.used_memory + memory > self.total_memory {
            return Err(SimError::new(
                SimErrorKind::InsufficientResources,
                format!(
                    "need {memory}, only {} free of {}",
                    self.free_memory(),
                    self.total_memory
                ),
            ));
        }
        if self.used_vcpus + vcpus > self.vcpu_limit() {
            return Err(SimError::new(
                SimErrorKind::InsufficientResources,
                format!(
                    "need {vcpus} vcpus, {} in use of limit {}",
                    self.used_vcpus,
                    self.vcpu_limit()
                ),
            ));
        }
        self.used_memory += memory;
        self.used_vcpus += vcpus;
        Ok(())
    }

    /// Releases resources of a stopping domain.
    pub(crate) fn release(&mut self, memory: MiB, vcpus: u32) {
        self.used_memory = self.used_memory.saturating_sub(memory);
        self.used_vcpus = self.used_vcpus.saturating_sub(vcpus);
    }

    /// Adjusts an existing reservation (memory ballooning / vCPU hotplug).
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::InsufficientResources`] when growing past
    /// capacity; the original reservation is left untouched.
    pub(crate) fn resize(
        &mut self,
        old_memory: MiB,
        new_memory: MiB,
        old_vcpus: u32,
        new_vcpus: u32,
    ) -> SimResult<()> {
        self.release(old_memory, old_vcpus);
        match self.reserve(new_memory, new_vcpus) {
            Ok(()) => Ok(()),
            Err(err) => {
                self.reserve(old_memory, old_vcpus)
                    .expect("restoring a released reservation cannot fail");
                Err(err)
            }
        }
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl MiB {
    /// The quantity in kibibytes (the unit libvirt's domain XML uses).
    fn as_kib(self) -> u64 {
        self.0 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_arithmetic() {
        let mut m = MiB(100);
        m += MiB(28);
        assert_eq!(m, MiB(128));
        m -= MiB(28);
        assert_eq!(m, MiB(100));
        assert_eq!(MiB(1) + MiB(2), MiB(3));
        assert_eq!(MiB(5) - MiB(3), MiB(2));
        assert_eq!(MiB(3).saturating_sub(MiB(5)), MiB::ZERO);
    }

    #[test]
    fn mib_conversions() {
        assert_eq!(MiB(2).as_bytes(), 2 * 1024 * 1024);
        assert_eq!(MiB(2).as_kib(), 2048);
        assert_eq!(MiB::from_kib_ceil(1), MiB(1));
        assert_eq!(MiB::from_kib_ceil(1024), MiB(1));
        assert_eq!(MiB::from_kib_ceil(1025), MiB(2));
    }

    #[test]
    fn mib_sum_and_display() {
        let total: MiB = [MiB(1), MiB(2), MiB(3)].into_iter().sum();
        assert_eq!(total, MiB(6));
        assert_eq!(total.to_string(), "6 MiB");
    }

    #[test]
    fn ledger_reserves_and_releases() {
        let mut ledger = CapacityLedger::new(MiB(4096), 4, 4);
        ledger.reserve(MiB(1024), 2).expect("fits");
        assert_eq!(ledger.used_memory(), MiB(1024));
        assert_eq!(ledger.free_memory(), MiB(3072));
        assert_eq!(ledger.used_vcpus(), 2);
        ledger.release(MiB(1024), 2);
        assert_eq!(ledger.used_memory(), MiB::ZERO);
        assert_eq!(ledger.used_vcpus(), 0);
    }

    #[test]
    fn ledger_rejects_memory_overcommit() {
        let mut ledger = CapacityLedger::new(MiB(2048), 8, 4);
        ledger.reserve(MiB(2048), 1).expect("exact fit is allowed");
        let err = ledger.reserve(MiB(1), 1).expect_err("no memory left");
        assert_eq!(err.kind(), SimErrorKind::InsufficientResources);
        // The failed reservation must not leak partial state.
        assert_eq!(ledger.used_vcpus(), 1);
    }

    #[test]
    fn ledger_enforces_vcpu_overcommit_limit() {
        let mut ledger = CapacityLedger::new(MiB(65536), 2, 2);
        assert_eq!(ledger.vcpu_limit(), 4);
        ledger.reserve(MiB(1), 4).expect("at limit");
        let err = ledger.reserve(MiB(1), 1).expect_err("beyond limit");
        assert_eq!(err.kind(), SimErrorKind::InsufficientResources);
    }

    #[test]
    fn ledger_release_saturates() {
        let mut ledger = CapacityLedger::new(MiB(1024), 4, 1);
        ledger.release(MiB(9999), 99);
        assert_eq!(ledger.used_memory(), MiB::ZERO);
        assert_eq!(ledger.used_vcpus(), 0);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut ledger = CapacityLedger::new(MiB(4096), 8, 1);
        ledger.reserve(MiB(1024), 2).expect("fits");
        ledger
            .resize(MiB(1024), MiB(2048), 2, 4)
            .expect("grow fits");
        assert_eq!(ledger.used_memory(), MiB(2048));
        assert_eq!(ledger.used_vcpus(), 4);
        ledger.resize(MiB(2048), MiB(512), 4, 1).expect("shrink");
        assert_eq!(ledger.used_memory(), MiB(512));
        assert_eq!(ledger.used_vcpus(), 1);
    }

    #[test]
    fn failed_resize_restores_original_reservation() {
        let mut ledger = CapacityLedger::new(MiB(4096), 8, 1);
        ledger.reserve(MiB(1024), 2).expect("fits");
        let err = ledger
            .resize(MiB(1024), MiB(8192), 2, 2)
            .expect_err("grow beyond capacity");
        assert_eq!(err.kind(), SimErrorKind::InsufficientResources);
        assert_eq!(ledger.used_memory(), MiB(1024));
        assert_eq!(ledger.used_vcpus(), 2);
    }

    #[test]
    fn zero_overcommit_is_clamped_to_one() {
        let ledger = CapacityLedger::new(MiB(1024), 4, 0);
        assert_eq!(ledger.vcpu_limit(), 4);
    }
}
