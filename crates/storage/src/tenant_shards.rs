//! Tenant-sharded provenance storage: one independent append log per
//! tenant under a single root directory.
//!
//! Tenancy is a *bulkhead*. Each tenant's records live in their own
//! [`ProvenanceDb`] (own [`crate::AppendLog`], own quarantine sidecar,
//! own compaction stamp), so a torn write, ENOSPC, or quarantine in
//! tenant A's shard cannot touch tenant B's open, verification, or
//! compaction. The shard set is opened *independently*: a shard whose
//! open fails outright (a dead disk, a crashed fault VFS) is recorded as
//! failed for that tenant and every other shard still comes up.
//!
//! Layout: `<root>/tenant-<id>.log` (flat, one file per tenant). The
//! [`Vfs`] seam has no directory operations, so shards are files rather
//! than subdirectories; every derived artifact (the `.quarantine`
//! sidecar, a `.tepidx` query index) appends to the shard's **full**
//! file name, so two tenants' artifacts can never collide — see
//! [`crate::quarantine_path`].

use crate::provenance_db::{ProvenanceDb, RecoveryReport};
use crate::vfs::{real_vfs, Vfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tep_model::TenantId;

/// Path of `tenant`'s shard log under `root`: `<root>/tenant-<id>.log`.
pub fn shard_path(root: &Path, tenant: TenantId) -> PathBuf {
    root.join(format!("tenant-{}.log", tenant.raw()))
}

/// One tenant's shard: either an open store or the reason its open
/// failed. A failed shard is *that tenant's* problem — the rest of the
/// fleet keeps serving.
enum ShardState {
    Open(Arc<ProvenanceDb>),
    Failed(String),
}

/// A set of per-tenant [`ProvenanceDb`] shards under one root.
///
/// ```
/// use tep_storage::tenant_shards::TenantShards;
/// use tep_model::TenantId;
///
/// let root = std::env::temp_dir().join(format!("tep-shards-doc-{}", std::process::id()));
/// let shards = TenantShards::open(&root, &[TenantId(1), TenantId(2)]).unwrap();
/// assert!(shards.shard(TenantId(1)).is_some());
/// assert!(shards.shard(TenantId(3)).is_none());
/// # let _ = std::fs::remove_dir_all(&root);
/// ```
pub struct TenantShards {
    root: PathBuf,
    shards: BTreeMap<TenantId, ShardState>,
}

impl TenantShards {
    /// Opens (or creates) one durable shard per tenant under `root` on
    /// the real filesystem, creating `root` if needed.
    pub fn open(root: impl AsRef<Path>, tenants: &[TenantId]) -> std::io::Result<TenantShards> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let vfs = real_vfs();
        Ok(Self::open_with(
            &root,
            tenants.iter().map(|&t| (t, Arc::clone(&vfs))),
        ))
    }

    /// Opens shards with an explicit [`Vfs`] *per tenant* — the seam the
    /// tenant-isolation chaos soak uses to aim a fault injector at one
    /// tenant's disk while the others run on healthy storage.
    ///
    /// Every shard is opened independently; an open that errors marks
    /// only that tenant's shard failed (see [`TenantShards::shard_error`])
    /// and never prevents the other tenants from coming up.
    pub fn open_with(
        root: impl AsRef<Path>,
        specs: impl IntoIterator<Item = (TenantId, Arc<dyn Vfs>)>,
    ) -> TenantShards {
        let root = root.as_ref().to_path_buf();
        let mut shards = BTreeMap::new();
        for (tenant, vfs) in specs {
            let path = shard_path(&root, tenant);
            let state = match ProvenanceDb::durable_with(vfs, &path) {
                Ok(db) => ShardState::Open(Arc::new(db)),
                Err(e) => ShardState::Failed(e.to_string()),
            };
            shards.insert(tenant, state);
        }
        TenantShards { root, shards }
    }

    /// The root directory the shards live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The tenants this shard set was opened for, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.shards.keys().copied().collect()
    }

    /// `tenant`'s open shard, if it exists and its open succeeded.
    pub fn shard(&self, tenant: TenantId) -> Option<Arc<ProvenanceDb>> {
        match self.shards.get(&tenant) {
            Some(ShardState::Open(db)) => Some(Arc::clone(db)),
            _ => None,
        }
    }

    /// Why `tenant`'s shard failed to open, if it did.
    pub fn shard_error(&self, tenant: TenantId) -> Option<&str> {
        match self.shards.get(&tenant) {
            Some(ShardState::Failed(why)) => Some(why),
            _ => None,
        }
    }

    /// What recovery found when `tenant`'s shard was opened.
    pub fn recovery(&self, tenant: TenantId) -> Option<RecoveryReport> {
        self.shard(tenant).map(|db| db.recovery())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::quarantine_path;
    use crate::vfs::{FaultConfig, FaultVfs};
    use crate::StoredRecord;
    use tep_model::{ObjectId, ParticipantId};

    fn rec(oid: u64, seq: u64) -> StoredRecord {
        StoredRecord {
            seq_id: seq,
            participant: ParticipantId(1),
            oid: ObjectId(oid),
            checksum: vec![0xAB; 128],
            payload: format!("p-{oid}-{seq}").into_bytes(),
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tep-shards-{}-{}", std::process::id(), tag))
    }

    #[test]
    fn shard_paths_are_disjoint_per_tenant() {
        let root = Path::new("/data");
        let a = shard_path(root, TenantId(1));
        let b = shard_path(root, TenantId(2));
        assert_ne!(a, b);
        // Derived artifacts append to the full file name, so they are
        // disjoint too — no tenant can clobber another's recovery state.
        assert_ne!(quarantine_path(&a), quarantine_path(&b));
        assert!(quarantine_path(&a)
            .to_string_lossy()
            .contains("tenant-1.log.quarantine"));
    }

    #[test]
    fn shards_open_and_persist_independently() {
        let root = temp_root("roundtrip");
        let _ = std::fs::remove_dir_all(&root);
        {
            let shards = TenantShards::open(&root, &[TenantId(1), TenantId(2)]).unwrap();
            let a = shards.shard(TenantId(1)).unwrap();
            let b = shards.shard(TenantId(2)).unwrap();
            a.append(rec(1, 0)).unwrap();
            a.append(rec(1, 1)).unwrap();
            b.append(rec(9, 0)).unwrap();
            a.sync().unwrap();
            b.sync().unwrap();
        }
        let shards = TenantShards::open(&root, &[TenantId(1), TenantId(2)]).unwrap();
        assert_eq!(shards.shard(TenantId(1)).unwrap().len(), 2);
        assert_eq!(shards.shard(TenantId(2)).unwrap().len(), 1);
        assert!(shards.shard(TenantId(3)).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_in_one_shard_leaves_the_other_untouched() {
        // Tenant A's disk is a fault injector; tenant B's is healthy.
        let vfs_a = FaultVfs::new(FaultConfig::default());
        let vfs_b = FaultVfs::new(FaultConfig::default());
        let root = PathBuf::from("/shards");
        let specs = |a: Arc<FaultVfs>, b: Arc<FaultVfs>| {
            vec![
                (TenantId(1), a as Arc<dyn Vfs>),
                (TenantId(2), b as Arc<dyn Vfs>),
            ]
        };
        {
            let shards =
                TenantShards::open_with(&root, specs(Arc::clone(&vfs_a), Arc::clone(&vfs_b)));
            let a = shards.shard(TenantId(1)).unwrap();
            let b = shards.shard(TenantId(2)).unwrap();
            for seq in 0..4 {
                a.append(rec(1, seq)).unwrap();
                b.append(rec(2, seq)).unwrap();
            }
            a.sync().unwrap();
            b.sync().unwrap();
        }
        // Flip a byte in the interior of A's log only.
        assert!(vfs_a.corrupt_byte(&shard_path(&root, TenantId(1)), 200));

        let shards = TenantShards::open_with(&root, specs(vfs_a, vfs_b));
        let ra = shards.recovery(TenantId(1)).unwrap();
        let rb = shards.recovery(TenantId(2)).unwrap();
        assert!(ra.is_degraded(), "A's corruption must be quarantined");
        assert!(!rb.is_degraded(), "B must open clean");
        assert_eq!(shards.shard(TenantId(2)).unwrap().len(), 4);
    }

    #[test]
    fn failed_open_is_isolated_to_its_tenant() {
        // Tenant A's vfs is already crashed (every op fails); B's works.
        let vfs_a = FaultVfs::new(FaultConfig {
            crash_at_op: Some(1),
            ..FaultConfig::default()
        });
        let vfs_b = FaultVfs::new(FaultConfig::default());
        let shards = TenantShards::open_with(
            "/shards",
            vec![
                (TenantId(1), vfs_a as Arc<dyn Vfs>),
                (TenantId(2), vfs_b as Arc<dyn Vfs>),
            ],
        );
        assert!(shards.shard(TenantId(1)).is_none());
        assert!(shards.shard_error(TenantId(1)).is_some());
        assert!(shards.shard(TenantId(2)).is_some());
        assert!(shards.shard_error(TenantId(2)).is_none());
        assert_eq!(shards.tenants(), vec![TenantId(1), TenantId(2)]);
    }
}
