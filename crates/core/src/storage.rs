//! Storage pool and volume handles.

use std::sync::Arc;

use crate::driver::{HypervisorConnection, PoolRecord, VolumeRecord};
use crate::error::VirtResult;
use crate::xmlfmt::VolumeConfig;

/// A handle to a storage pool.
///
/// Obtained from [`crate::Connect::storage_pool_lookup_by_name`] or
/// [`crate::Connect::define_storage_pool_xml`].
#[derive(Clone)]
pub struct StoragePool {
    conn: Arc<dyn HypervisorConnection>,
    name: String,
}

impl std::fmt::Debug for StoragePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoragePool")
            .field("name", &self.name)
            .finish()
    }
}

impl StoragePool {
    pub(crate) fn new(conn: Arc<dyn HypervisorConnection>, name: String) -> Self {
        StoragePool { conn, name }
    }

    /// The pool's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A fresh snapshot of the pool's state.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStoragePool`] once gone.
    pub fn info(&self) -> VirtResult<PoolRecord> {
        self.conn.pool_info(&self.name)
    }

    /// Activates the pool.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStoragePool`].
    pub fn start(&self) -> VirtResult<()> {
        self.conn.start_pool(&self.name)
    }

    /// Deactivates the pool.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStoragePool`].
    pub fn stop(&self) -> VirtResult<()> {
        self.conn.stop_pool(&self.name)
    }

    /// Removes the inactive pool's definition.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::OperationInvalid`] while active.
    pub fn undefine(&self) -> VirtResult<()> {
        self.conn.undefine_pool(&self.name)
    }

    /// Volume names.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStoragePool`].
    pub fn list_volumes(&self) -> VirtResult<Vec<String>> {
        self.conn.list_volumes(&self.name)
    }

    /// Looks a volume up by name.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStorageVol`].
    pub fn volume_lookup_by_name(&self, name: &str) -> VirtResult<Volume> {
        let record = self.conn.volume_info(&self.name, name)?;
        Ok(Volume {
            conn: self.conn.clone(),
            pool: self.name.clone(),
            name: record.name,
        })
    }

    /// Creates a volume from XML.
    ///
    /// # Errors
    ///
    /// Capacity and duplicate failures.
    pub fn create_volume_xml(&self, xml: &str) -> VirtResult<Volume> {
        let record = self.conn.create_volume_xml(&self.name, xml)?;
        Ok(Volume {
            conn: self.conn.clone(),
            pool: self.name.clone(),
            name: record.name,
        })
    }

    /// Creates a volume from a typed config (convenience).
    ///
    /// # Errors
    ///
    /// As [`StoragePool::create_volume_xml`].
    pub fn create_volume(&self, config: &VolumeConfig) -> VirtResult<Volume> {
        self.create_volume_xml(&config.to_xml_string())
    }

    /// Clones an existing volume.
    ///
    /// # Errors
    ///
    /// Duplicate and capacity failures.
    pub fn clone_volume(&self, source: &str, new_name: &str) -> VirtResult<Volume> {
        let record = self.conn.clone_volume(&self.name, source, new_name)?;
        Ok(Volume {
            conn: self.conn.clone(),
            pool: self.name.clone(),
            name: record.name,
        })
    }
}

/// A handle to a storage volume.
#[derive(Clone)]
pub struct Volume {
    conn: Arc<dyn HypervisorConnection>,
    pool: String,
    name: String,
}

impl std::fmt::Debug for Volume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Volume")
            .field("pool", &self.pool)
            .field("name", &self.name)
            .finish()
    }
}

impl Volume {
    /// The volume's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A fresh snapshot of the volume's state.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStorageVol`] once gone.
    pub fn info(&self) -> VirtResult<VolumeRecord> {
        self.conn.volume_info(&self.pool, &self.name)
    }

    /// The volume's backing path.
    ///
    /// # Errors
    ///
    /// As [`Volume::info`].
    pub fn path(&self) -> VirtResult<String> {
        Ok(self.info()?.path)
    }

    /// Deletes the volume.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::NoStorageVol`].
    pub fn delete(&self) -> VirtResult<()> {
        self.conn.delete_volume(&self.pool, &self.name)
    }

    /// Grows the volume.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorCode::InvalidArg`] on shrink; capacity failures.
    pub fn resize(&self, capacity_mib: u64) -> VirtResult<()> {
        self.conn
            .resize_volume(&self.pool, &self.name, capacity_mib)
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl Volume {
    /// The owning pool's name.
    fn pool_name(&self) -> &str {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Connect;
    use crate::xmlfmt::PoolConfig;
    use hypersim::PoolBackend;

    fn pool() -> (Connect, StoragePool) {
        let conn = Connect::builder("test:///default").open().unwrap();
        let pool = conn
            .define_storage_pool(&PoolConfig::new("images", PoolBackend::Dir, 1000))
            .unwrap();
        pool.start().unwrap();
        (conn, pool)
    }

    #[test]
    fn pool_info_and_lifecycle() {
        let (_conn, pool) = pool();
        let info = pool.info().unwrap();
        assert_eq!(info.name, "images");
        assert_eq!(info.backend, "dir");
        assert!(info.active);
        pool.stop().unwrap();
        assert!(!pool.info().unwrap().active);
        pool.undefine().unwrap();
        assert!(pool.info().is_err());
    }

    #[test]
    fn volume_crud() {
        let (_conn, pool) = pool();
        let vol = pool
            .create_volume(&VolumeConfig::new("root.img", 100))
            .unwrap();
        assert_eq!(vol.name(), "root.img");
        assert_eq!(vol.pool_name(), "images");
        assert!(vol.path().unwrap().ends_with("root.img"));
        assert_eq!(vol.info().unwrap().capacity_mib, 100);

        vol.resize(250).unwrap();
        assert_eq!(vol.info().unwrap().capacity_mib, 250);

        let copy = pool.clone_volume("root.img", "copy.img").unwrap();
        assert_eq!(copy.info().unwrap().capacity_mib, 250);
        assert_eq!(pool.list_volumes().unwrap().len(), 2);

        vol.delete().unwrap();
        assert!(vol.info().is_err());
        assert_eq!(pool.list_volumes().unwrap(), vec!["copy.img"]);
    }

    #[test]
    fn lookup_by_name() {
        let (_conn, pool) = pool();
        pool.create_volume(&VolumeConfig::new("a", 10)).unwrap();
        let found = pool.volume_lookup_by_name("a").unwrap();
        assert_eq!(found.name(), "a");
        assert!(pool.volume_lookup_by_name("missing").is_err());
    }

    #[test]
    fn default_pool_exists_on_test_driver() {
        let conn = Connect::builder("test:///default").open().unwrap();
        let names = conn.list_storage_pools().unwrap();
        assert!(names.contains(&"default".to_string()));
        let default = conn.storage_pool_lookup_by_name("default").unwrap();
        assert!(default.info().unwrap().active);
    }
}
