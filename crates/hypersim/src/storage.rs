//! Simulated storage pools and volumes.
//!
//! Mirrors libvirt's storage driver model: a host carries named pools,
//! each backed by a particular technology (directory, LVM-style volume
//! group, iSCSI target, network filesystem), and each pool holds named
//! volumes with capacity/allocation accounting.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{SimError, SimErrorKind, SimResult};
use crate::resources::MiB;

/// The backing technology of a storage pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolBackend {
    /// Plain directory of image files.
    Dir,
    /// LVM-style volume group.
    Logical,
    /// iSCSI target (volumes pre-exist; creation unsupported).
    Iscsi,
    /// Network filesystem mount.
    NetFs,
}

impl PoolBackend {
    /// Whether volumes can be created/deleted through the pool (iSCSI
    /// targets expose a fixed set of LUNs).
    fn supports_volume_creation(self) -> bool {
        !matches!(self, PoolBackend::Iscsi)
    }
}

impl fmt::Display for PoolBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PoolBackend::Dir => "dir",
            PoolBackend::Logical => "logical",
            PoolBackend::Iscsi => "iscsi",
            PoolBackend::NetFs => "netfs",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for PoolBackend {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dir" => Ok(PoolBackend::Dir),
            "logical" => Ok(PoolBackend::Logical),
            "iscsi" => Ok(PoolBackend::Iscsi),
            "netfs" => Ok(PoolBackend::NetFs),
            other => Err(SimError::new(
                SimErrorKind::InvalidArgument,
                format!("unknown pool backend '{other}'"),
            )),
        }
    }
}

/// Description of a pool to create.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    name: String,
    backend: PoolBackend,
    capacity: MiB,
    target_path: String,
}

impl PoolSpec {
    /// Creates a spec for a pool of the given backend and capacity.
    pub fn new(name: impl Into<String>, backend: PoolBackend, capacity: MiB) -> Self {
        let name = name.into();
        let target_path = format!("/var/lib/virt/{name}");
        PoolSpec {
            name,
            backend,
            capacity,
            target_path,
        }
    }

    /// Overrides the target path.
    pub fn target_path(mut self, path: impl Into<String>) -> Self {
        self.target_path = path.into();
        self
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Backing technology.
    pub fn backend(&self) -> PoolBackend {
        self.backend
    }

    /// Total capacity.
    pub fn capacity(&self) -> MiB {
        self.capacity
    }

    /// Filesystem path (or device path) of the pool.
    pub fn path(&self) -> &str {
        &self.target_path
    }
}

/// Description of a volume to create inside a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeSpec {
    name: String,
    capacity: MiB,
    format: String,
}

impl VolumeSpec {
    /// Creates a spec; format defaults to `raw`.
    pub fn new(name: impl Into<String>, capacity: MiB) -> Self {
        VolumeSpec {
            name: name.into(),
            capacity,
            format: "raw".to_string(),
        }
    }

    /// Sets the image format (e.g. `qcow2`).
    pub fn format(mut self, format: impl Into<String>) -> Self {
        self.format = format.into();
        self
    }

    /// Volume name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity.
    pub fn capacity(&self) -> MiB {
        self.capacity
    }

    /// Image format.
    fn format_name(&self) -> &str {
        &self.format
    }
}

/// A volume inside a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimVolume {
    /// Volume name, unique within its pool.
    pub name: String,
    /// Logical capacity.
    pub capacity: MiB,
    /// Bytes actually allocated (sparse images start small).
    pub allocation: MiB,
    /// Image format.
    pub format: String,
    /// Full path.
    pub path: String,
}

/// A storage pool on a host.
#[derive(Debug, Clone)]
pub struct SimPool {
    /// Pool name, unique on the host.
    pub name: String,
    /// Stable identifier.
    pub uuid: [u8; 16],
    /// Backing technology.
    pub backend: PoolBackend,
    /// Total capacity.
    pub capacity: MiB,
    /// Whether the pool is started ("active").
    pub active: bool,
    /// Target path.
    pub path: String,
    volumes: BTreeMap<String, SimVolume>,
}

impl SimPool {
    pub(crate) fn new(spec: &PoolSpec, uuid: [u8; 16]) -> Self {
        SimPool {
            name: spec.name().to_string(),
            uuid,
            backend: spec.backend(),
            capacity: spec.capacity(),
            active: false,
            path: spec.path().to_string(),
            volumes: BTreeMap::new(),
        }
    }

    /// Sum of volume capacities (logical allocation accounting).
    pub fn allocation(&self) -> MiB {
        self.volumes.values().map(|v| v.capacity).sum()
    }

    /// Remaining capacity.
    pub fn available(&self) -> MiB {
        self.capacity.saturating_sub(self.allocation())
    }

    /// Volume names in sorted order.
    pub fn volume_names(&self) -> Vec<String> {
        self.volumes.keys().cloned().collect()
    }

    /// Number of volumes.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }

    /// Looks up a volume.
    pub fn volume(&self, name: &str) -> SimResult<&SimVolume> {
        self.volumes.get(name).ok_or_else(|| {
            SimError::new(
                SimErrorKind::NoSuchVolume,
                format!("'{name}' in pool '{}'", self.name),
            )
        })
    }

    /// Creates a volume.
    ///
    /// # Errors
    ///
    /// - [`SimErrorKind::Unsupported`] for iSCSI pools,
    /// - [`SimErrorKind::DuplicateVolume`] on a name collision,
    /// - [`SimErrorKind::PoolFull`] when capacity would be exceeded,
    /// - [`SimErrorKind::InvalidArgument`] for an empty name or zero size.
    pub fn create_volume(&mut self, spec: &VolumeSpec) -> SimResult<SimVolume> {
        if !self.backend.supports_volume_creation() {
            return Err(SimError::new(
                SimErrorKind::Unsupported,
                format!("{} pools expose a fixed volume set", self.backend),
            ));
        }
        if spec.name().is_empty() {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "volume name is empty",
            ));
        }
        if spec.capacity() == MiB::ZERO {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "volume capacity is zero",
            ));
        }
        if self.volumes.contains_key(spec.name()) {
            return Err(SimError::new(
                SimErrorKind::DuplicateVolume,
                format!("'{}' in pool '{}'", spec.name(), self.name),
            ));
        }
        if spec.capacity() > self.available() {
            return Err(SimError::new(
                SimErrorKind::PoolFull,
                format!(
                    "need {}, {} available in pool '{}'",
                    spec.capacity(),
                    self.available(),
                    self.name
                ),
            ));
        }
        let volume = SimVolume {
            name: spec.name().to_string(),
            capacity: spec.capacity(),
            // qcow2-style images are sparse; raw fully allocates.
            allocation: if spec.format_name() == "raw" {
                spec.capacity()
            } else {
                MiB(spec.capacity().0 / 100).max(MiB(1))
            },
            format: spec.format_name().to_string(),
            path: format!("{}/{}", self.path, spec.name()),
        };
        self.volumes.insert(volume.name.clone(), volume.clone());
        Ok(volume)
    }

    /// Deletes a volume.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::NoSuchVolume`] if absent, [`SimErrorKind::Unsupported`]
    /// for iSCSI pools.
    pub fn delete_volume(&mut self, name: &str) -> SimResult<()> {
        if !self.backend.supports_volume_creation() {
            return Err(SimError::new(
                SimErrorKind::Unsupported,
                format!("{} pools expose a fixed volume set", self.backend),
            ));
        }
        self.volumes.remove(name).map(|_| ()).ok_or_else(|| {
            SimError::new(
                SimErrorKind::NoSuchVolume,
                format!("'{name}' in pool '{}'", self.name),
            )
        })
    }

    /// Grows a volume to a new capacity.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::InvalidArgument`] when shrinking,
    /// [`SimErrorKind::PoolFull`] when the growth exceeds free capacity.
    pub fn resize_volume(&mut self, name: &str, new_capacity: MiB) -> SimResult<()> {
        let available = self.available();
        let volume = self
            .volumes
            .get_mut(name)
            .ok_or_else(|| SimError::new(SimErrorKind::NoSuchVolume, format!("'{name}'")))?;
        if new_capacity < volume.capacity {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "shrinking a volume is not supported",
            ));
        }
        let growth = new_capacity - volume.capacity;
        if growth > available {
            return Err(SimError::new(
                SimErrorKind::PoolFull,
                format!("growth of {growth}"),
            ));
        }
        volume.capacity = new_capacity;
        Ok(())
    }

    /// Clones an existing volume under a new name.
    pub fn clone_volume(&mut self, source: &str, new_name: &str) -> SimResult<SimVolume> {
        let src = self.volume(source)?.clone();
        let spec = VolumeSpec::new(new_name, src.capacity).format(src.format.clone());
        self.create_volume(&spec)
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl SimPool {
    /// Pre-populates a fixed volume — used for iSCSI pools whose LUNs
    /// exist outside the management layer's control (testbed setup).
    fn add_fixed_volume(&mut self, volume: SimVolume) {
        self.volumes.insert(volume.name.clone(), volume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir_pool(capacity: u64) -> SimPool {
        SimPool::new(
            &PoolSpec::new("default", PoolBackend::Dir, MiB(capacity)),
            [1; 16],
        )
    }

    #[test]
    fn create_volume_tracks_allocation() {
        let mut pool = dir_pool(1000);
        let vol = pool
            .create_volume(&VolumeSpec::new("a.img", MiB(300)))
            .unwrap();
        assert_eq!(vol.path, "/var/lib/virt/default/a.img");
        assert_eq!(pool.allocation(), MiB(300));
        assert_eq!(pool.available(), MiB(700));
        assert_eq!(pool.volume_count(), 1);
    }

    #[test]
    fn duplicate_volume_rejected() {
        let mut pool = dir_pool(1000);
        pool.create_volume(&VolumeSpec::new("a", MiB(10))).unwrap();
        let err = pool
            .create_volume(&VolumeSpec::new("a", MiB(10)))
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::DuplicateVolume);
    }

    #[test]
    fn pool_capacity_is_enforced() {
        let mut pool = dir_pool(100);
        pool.create_volume(&VolumeSpec::new("a", MiB(90))).unwrap();
        let err = pool
            .create_volume(&VolumeSpec::new("b", MiB(20)))
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::PoolFull);
        // Exact fit is allowed.
        pool.create_volume(&VolumeSpec::new("c", MiB(10))).unwrap();
        assert_eq!(pool.available(), MiB::ZERO);
    }

    #[test]
    fn delete_frees_capacity() {
        let mut pool = dir_pool(100);
        pool.create_volume(&VolumeSpec::new("a", MiB(100))).unwrap();
        pool.delete_volume("a").unwrap();
        assert_eq!(pool.available(), MiB(100));
        let err = pool.delete_volume("a").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::NoSuchVolume);
    }

    #[test]
    fn qcow2_volumes_are_sparse() {
        let mut pool = dir_pool(1000);
        let raw = pool.create_volume(&VolumeSpec::new("r", MiB(200))).unwrap();
        let cow = pool
            .create_volume(&VolumeSpec::new("c", MiB(200)).format("qcow2"))
            .unwrap();
        assert_eq!(raw.allocation, MiB(200));
        assert!(cow.allocation < MiB(200));
    }

    #[test]
    fn resize_grows_but_never_shrinks() {
        let mut pool = dir_pool(1000);
        pool.create_volume(&VolumeSpec::new("a", MiB(100))).unwrap();
        pool.resize_volume("a", MiB(400)).unwrap();
        assert_eq!(pool.volume("a").unwrap().capacity, MiB(400));
        let err = pool.resize_volume("a", MiB(50)).unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::InvalidArgument);
        let err = pool.resize_volume("a", MiB(2000)).unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::PoolFull);
    }

    #[test]
    fn clone_copies_capacity_and_format() {
        let mut pool = dir_pool(1000);
        pool.create_volume(&VolumeSpec::new("base", MiB(100)).format("qcow2"))
            .unwrap();
        let copy = pool.clone_volume("base", "copy").unwrap();
        assert_eq!(copy.capacity, MiB(100));
        assert_eq!(copy.format, "qcow2");
        assert_eq!(pool.volume_count(), 2);
    }

    #[test]
    fn iscsi_pool_has_fixed_volumes() {
        let mut pool = SimPool::new(
            &PoolSpec::new("san", PoolBackend::Iscsi, MiB(10_000)),
            [2; 16],
        );
        pool.add_fixed_volume(SimVolume {
            name: "lun0".to_string(),
            capacity: MiB(5_000),
            allocation: MiB(5_000),
            format: "raw".to_string(),
            path: "/dev/disk/by-path/ip-10.0.0.1:3260-lun-0".to_string(),
        });
        assert_eq!(pool.volume_count(), 1);
        let err = pool
            .create_volume(&VolumeSpec::new("x", MiB(1)))
            .unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::Unsupported);
        let err = pool.delete_volume("lun0").unwrap_err();
        assert_eq!(err.kind(), SimErrorKind::Unsupported);
    }

    #[test]
    fn invalid_volume_specs_rejected() {
        let mut pool = dir_pool(100);
        assert_eq!(
            pool.create_volume(&VolumeSpec::new("", MiB(1)))
                .unwrap_err()
                .kind(),
            SimErrorKind::InvalidArgument
        );
        assert_eq!(
            pool.create_volume(&VolumeSpec::new("a", MiB(0)))
                .unwrap_err()
                .kind(),
            SimErrorKind::InvalidArgument
        );
    }

    #[test]
    fn backend_parse_and_display_round_trip() {
        for backend in [
            PoolBackend::Dir,
            PoolBackend::Logical,
            PoolBackend::Iscsi,
            PoolBackend::NetFs,
        ] {
            let text = backend.to_string();
            assert_eq!(text.parse::<PoolBackend>().unwrap(), backend);
        }
        assert!("floppy".parse::<PoolBackend>().is_err());
    }

    #[test]
    fn volume_names_are_sorted() {
        let mut pool = dir_pool(1000);
        for name in ["zeta", "alpha", "mid"] {
            pool.create_volume(&VolumeSpec::new(name, MiB(1))).unwrap();
        }
        assert_eq!(pool.volume_names(), vec!["alpha", "mid", "zeta"]);
    }
}
