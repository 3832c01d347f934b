//! Provenance garbage collection.
//!
//! The paper notes (§2.1, footnote 3) that *"after an object has been
//! deleted, its provenance object is no longer relevant"* — which "enables
//! some optimizations". This module is that optimization: given the set of
//! objects still live (or otherwise interesting), compute exactly which
//! records their provenance objects can still reach, and drop the rest.
//!
//! Reachability matters: a deleted object's records must be **kept** if a
//! live object was aggregated from it — pruning them would break the live
//! object's DAG. `plan_retention` therefore reuses the same reverse
//! traversal as provenance collection.

//! ## Checkpoint-anchored log compaction
//!
//! Reachability pruning rewrites the whole store; **log compaction**
//! ([`seal_checkpoint`] + [`compact_log`]) instead truncates the durable
//! log's *prefix* behind a [sealed checkpoint](crate::checkpoint): records
//! covered by the checkpoint move to a cold CRC-framed archive file, the
//! live log restarts with a compaction stamp, and later verification
//! attests R2/R3 continuity through the checkpoint's anchors
//! ([`crate::verify::Verifier::verify_through_checkpoint`]). The sealed
//! checkpoint is persisted beside the log and referenced by digest from
//! the stamp, so a stale or swapped checkpoint is detectable.

use crate::checkpoint::{Checkpoint, SealedCheckpoint};
use crate::error::CoreError;
use crate::provenance::collect;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::Participant;
use tep_model::ObjectId;
use tep_storage::{
    compact_durable_log, CheckpointStore, CompactionReport, LogError, ProvenanceDb, StoreError, Vfs,
};

/// Outcome of a prune.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneReport {
    /// Records kept (reachable from a live object's provenance).
    pub kept: usize,
    /// Records dropped.
    pub dropped: usize,
}

/// Computes the set of `(object, seqID)` records reachable from the
/// provenance of any object in `live`.
///
/// Objects in `live` without any provenance records are skipped (nothing to
/// retain for them).
pub(crate) fn plan_retention(
    db: &ProvenanceDb,
    live: &[ObjectId],
) -> Result<HashSet<(ObjectId, u64)>, CoreError> {
    let mut keep = HashSet::new();
    for &oid in live {
        let prov = match collect(db, oid) {
            Ok(p) => p,
            Err(CoreError::NoProvenance(_)) => continue,
            Err(e) => return Err(e),
        };
        for r in &prov.records {
            keep.insert((r.output_oid, r.seq_id));
        }
    }
    Ok(keep)
}

/// Prunes an **in-memory** store down to the records reachable from `live`.
pub fn prune(db: &ProvenanceDb, live: &[ObjectId]) -> Result<PruneReport, CoreError> {
    let keep = plan_retention(db, live)?;
    let dropped = db
        .retain(|r| keep.contains(&(r.oid, r.seq_id)))
        .map_err(CoreError::Store)?;
    Ok(PruneReport {
        kept: db.len(),
        dropped,
    })
}

/// Compacts a (durable or in-memory) store into a **new durable** store at
/// `path`, keeping only records reachable from `live`.
pub fn prune_into(
    db: &ProvenanceDb,
    path: impl AsRef<Path>,
    live: &[ObjectId],
) -> Result<(ProvenanceDb, PruneReport), CoreError> {
    let keep = plan_retention(db, live)?;
    let new = db
        .compact_into(path, |r| keep.contains(&(r.oid, r.seq_id)))
        .map_err(CoreError::Store)?;
    let report = PruneReport {
        kept: new.len(),
        dropped: db.len() - new.len(),
    };
    Ok((new, report))
}

/// Sidecar path of the sealed checkpoint for the log at `path`.
pub(crate) fn checkpoint_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".checkpoint");
    PathBuf::from(os)
}

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Store(StoreError::Log(LogError::Io(e)))
}

/// Captures and seals a [`Checkpoint`] over the durable log at `path`,
/// persisting it atomically to `checkpoint_path`. The log itself is
/// untouched; a later [`compact_log`] truncates up to this checkpoint.
///
/// Sealing and compacting are deliberately separate steps: records
/// appended *after* the seal survive compaction, and their chain starts
/// verify against the sealed anchors.
pub fn seal_checkpoint(
    vfs: Arc<dyn Vfs>,
    path: impl AsRef<Path>,
    alg: HashAlgorithm,
    signer: &Participant,
) -> Result<SealedCheckpoint, CoreError> {
    let path = path.as_ref();
    let db = ProvenanceDb::durable_with(vfs.clone(), path).map_err(CoreError::Store)?;
    let prior = db
        .recovery()
        .compaction
        .map(|s| s.excised_frames)
        .unwrap_or(0);
    let sealed = Checkpoint::capture(alg, &db, prior).seal(signer)?;
    drop(db);
    CheckpointStore::new(vfs, checkpoint_path(path))
        .save(&sealed.to_bytes())
        .map_err(io_err)?;
    Ok(sealed)
}

/// Loads the sealed checkpoint persisted beside the log at `path`, if one
/// exists. Decode failures are surfaced, not treated as absence — a
/// half-written or tampered sidecar should be looked at, and the sealed
/// blob's signature (checked by the caller) handles malice.
pub(crate) fn load_checkpoint(
    vfs: Arc<dyn Vfs>,
    path: impl AsRef<Path>,
) -> Result<Option<SealedCheckpoint>, CoreError> {
    let blob = CheckpointStore::new(vfs, checkpoint_path(path.as_ref()))
        .load()
        .map_err(io_err)?;
    blob.map(|b| SealedCheckpoint::from_bytes(&b).map_err(CoreError::Decode))
        .transpose()
}

/// Truncates the durable log at `path` up to its persisted sealed
/// checkpoint: every record the checkpoint covers moves into a cold
/// generation-numbered archive file
/// ([`tep_storage::archive_path_for`]), the live log restarts with a
/// compaction stamp carrying the checkpoint digest, and records appended
/// after the seal survive. Returns the checkpoint compacted against and
/// the compaction report (ratio, archive path, stamp).
///
/// Requires a prior [`seal_checkpoint`]; compacting without one is an
/// error, not a silent full truncation.
pub fn compact_log(
    vfs: Arc<dyn Vfs>,
    path: impl AsRef<Path>,
) -> Result<(SealedCheckpoint, CompactionReport), CoreError> {
    let path = path.as_ref();
    let sealed = load_checkpoint(vfs.clone(), path)?.ok_or_else(|| {
        io_err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no sealed checkpoint beside log; run seal_checkpoint first",
        ))
    })?;
    let watermark = sealed.checkpoint.log_records;
    let digest = sealed.checkpoint.digest();
    // Records at cumulative position < watermark are covered by the
    // checkpoint and excised; compact_durable_log folds the prior stamp's
    // excised count into the index it hands us.
    let prior = {
        let db = ProvenanceDb::durable_with(vfs.clone(), path).map_err(CoreError::Store)?;
        db.recovery()
            .compaction
            .map(|s| s.excised_frames)
            .unwrap_or(0)
    };
    let report = compact_durable_log(
        vfs,
        path,
        |idx, _| prior + idx as u64 >= watermark,
        watermark,
        &digest,
    )
    .map_err(|e| CoreError::Store(StoreError::Log(e)))?;
    Ok((sealed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicLedger;
    use crate::verify::Verifier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tep_crypto::digest::HashAlgorithm;
    use tep_crypto::pki::{CertificateAuthority, KeyDirectory, Participant, ParticipantId};
    use tep_model::Value;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    /// A temp-log path that unlinks itself on scope exit — including the
    /// unwind path of a failed assertion, which the old trailing
    /// `remove_file` call missed, leaking `tep-gc-*.teplog` files into
    /// `temp_dir()` on every red run.
    struct TempLog(std::path::PathBuf);

    impl TempLog {
        fn new(line: u32) -> Self {
            let path =
                std::env::temp_dir().join(format!("tep-gc-{}-{}.teplog", std::process::id(), line));
            let _ = std::fs::remove_file(&path);
            TempLog(path)
        }

        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn world() -> (AtomicLedger, KeyDirectory, Participant) {
        let mut rng = StdRng::seed_from_u64(44);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(p.certificate().clone()).unwrap();
        (
            AtomicLedger::new(ALG, Arc::new(ProvenanceDb::in_memory())),
            keys,
            p,
        )
    }

    #[test]
    fn pruning_drops_deleted_objects_records() {
        let (mut ledger, _, p) = world();
        let a = ledger.insert(&p, Value::Int(1)).unwrap();
        let b = ledger.insert(&p, Value::Int(2)).unwrap();
        ledger.update(&p, b, Value::Int(3)).unwrap();
        ledger.delete(b).unwrap();

        let report = prune(ledger.db(), &[a]).unwrap();
        assert_eq!(report.kept, 1); // a's insert
        assert_eq!(report.dropped, 2); // b's two records
        assert!(ledger.db().records_for(b).is_empty());
    }

    #[test]
    fn pruning_keeps_aggregation_inputs_of_live_objects() {
        let (mut ledger, keys, p) = world();
        let a = ledger.insert(&p, Value::Int(1)).unwrap();
        let b = ledger.insert(&p, Value::Int(2)).unwrap();
        let c = ledger.aggregate(&p, &[a, b], Value::Int(3)).unwrap();
        // a and b are deleted — but c derives from them, so their records
        // must survive a prune with live = {c}.
        ledger.delete(a).unwrap();
        ledger.delete(b).unwrap();

        let report = prune(ledger.db(), &[c]).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.kept, 3);

        // c still fully verifies after the prune.
        let prov = ledger.provenance_of(c).unwrap();
        let hash = ledger.object_hash(c).unwrap();
        assert!(Verifier::new(&keys, ALG).verify(&hash, &prov).verified());
    }

    #[test]
    fn pruning_trims_unreachable_suffix_of_input_chains() {
        let (mut ledger, keys, p) = world();
        let a = ledger.insert(&p, Value::Int(1)).unwrap();
        let c = ledger.aggregate(&p, &[a], Value::Int(2)).unwrap();
        // a keeps evolving after the aggregation…
        ledger.update(&p, a, Value::Int(10)).unwrap();
        ledger.update(&p, a, Value::Int(11)).unwrap();
        ledger.delete(a).unwrap();

        // …but only a@0 is part of c's provenance; the later records drop.
        let report = prune(ledger.db(), &[c]).unwrap();
        assert_eq!(report.dropped, 2);
        let prov = ledger.provenance_of(c).unwrap();
        assert_eq!(prov.len(), 2);
        let hash = ledger.object_hash(c).unwrap();
        assert!(Verifier::new(&keys, ALG).verify(&hash, &prov).verified());
    }

    #[test]
    fn prune_into_produces_verifiable_durable_copy() {
        let (mut ledger, keys, p) = world();
        let a = ledger.insert(&p, Value::Int(1)).unwrap();
        let b = ledger.insert(&p, Value::Int(2)).unwrap();
        ledger.delete(b).unwrap();

        let log = TempLog::new(line!());
        let (new_db, report) = prune_into(ledger.db(), log.path(), &[a]).unwrap();
        assert_eq!(report.dropped, 1);
        assert_eq!(new_db.len(), 1);

        let prov = collect(&new_db, a).unwrap();
        let hash = ledger.object_hash(a).unwrap();
        assert!(Verifier::new(&keys, ALG).verify(&hash, &prov).verified());
    }

    #[test]
    fn empty_live_set_drops_everything() {
        let (mut ledger, _, p) = world();
        ledger.insert(&p, Value::Int(1)).unwrap();
        let report = prune(ledger.db(), &[]).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(report.dropped, 1);
        assert!(ledger.db().is_empty());
    }

    /// Removes compaction sidecars (checkpoint + archives) on scope exit,
    /// including the unwind path.
    struct Sidecars(std::path::PathBuf);

    impl Drop for Sidecars {
        fn drop(&mut self) {
            for suffix in [
                ".checkpoint",
                ".checkpoint.tmp",
                ".archive.1",
                ".archive.2",
                ".archive.3",
            ] {
                let mut os = self.0.as_os_str().to_os_string();
                os.push(suffix);
                let _ = std::fs::remove_file(std::path::PathBuf::from(os));
            }
        }
    }

    #[test]
    fn checkpointed_compaction_verifies_through_checkpoint() {
        use crate::verify::TamperEvidence;
        use tep_crypto::pki::CertificateAuthority;
        use tep_storage::RealVfs;

        let mut rng = StdRng::seed_from_u64(45);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(p.certificate().clone()).unwrap();

        let log = TempLog::new(line!());
        let _sidecars = Sidecars(log.path().to_path_buf());
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);

        let (a, hash) = {
            let db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), log.path()).unwrap());
            let mut ledger = AtomicLedger::new(ALG, db.clone());
            let a = ledger.insert(&p, Value::Int(1)).unwrap();
            ledger.update(&p, a, Value::Int(2)).unwrap();
            db.sync().unwrap();

            // Seal over seq 0..=1, then keep appending: the post-seal
            // record must survive compaction.
            let sealed = seal_checkpoint(vfs.clone(), log.path(), ALG, &p).unwrap();
            assert_eq!(sealed.checkpoint.log_records, 2);
            assert_eq!(sealed.checkpoint.anchors.len(), 1);

            ledger.update(&p, a, Value::Int(3)).unwrap();
            db.sync().unwrap();
            (a, ledger.object_hash(a).unwrap())
        };

        let (sealed, report) = compact_log(vfs.clone(), log.path()).unwrap();
        assert_eq!(report.excised_frames, 2);
        assert_eq!(report.kept_frames, 1);
        assert!(report.archive_path.is_some());
        assert!(report.ratio() > 1.0, "ratio: {}", report.ratio());

        // Reopen: the stamp reports compaction — never corruption.
        let db = ProvenanceDb::durable_with(vfs.clone(), log.path()).unwrap();
        let recovery = db.recovery();
        assert_eq!(recovery.corruption_gaps(), 0);
        assert!(!recovery.is_degraded());
        assert_eq!(recovery.compaction.as_ref().unwrap().excised_frames, 2);
        assert_eq!(db.len(), 1);

        let prov = collect(&db, a).unwrap();
        let verifier = Verifier::new(&keys, ALG);
        // Plain verification cannot attest continuity across the
        // compaction boundary (the chain start's predecessor is excised)…
        assert!(!verifier.verify(&hash, &prov).verified());
        // …but through the sealed checkpoint it verifies end to end.
        let v = verifier.verify_through_checkpoint(&hash, &prov, &sealed);
        assert!(v.verified(), "issues: {:?}", v.issues);

        // A tampered checkpoint (anchor checksum flipped ⇒ seal no longer
        // covers it) is caught and attributed.
        let mut forged = sealed.clone();
        forged.checkpoint.anchors[0].checksum[0] ^= 0xFF;
        let v = verifier.verify_through_checkpoint(&hash, &prov, &forged);
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::CheckpointMismatch { .. })));

        // The persisted sidecar round-trips.
        let loaded = load_checkpoint(vfs, log.path()).unwrap().unwrap();
        assert_eq!(loaded, sealed);
    }

    #[test]
    fn compact_without_checkpoint_is_an_error() {
        let log = TempLog::new(line!());
        let _sidecars = Sidecars(log.path().to_path_buf());
        let vfs: Arc<dyn Vfs> = Arc::new(tep_storage::RealVfs);
        let db = ProvenanceDb::durable_with(vfs.clone(), log.path()).unwrap();
        drop(db);
        assert!(compact_log(vfs, log.path()).is_err());
    }
}
