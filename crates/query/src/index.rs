//! Incremental secondary indexes over the record log, with sidecar
//! persistence.
//!
//! A [`QueryIndex`] tails the append-ordered record log
//! ([`ProvenanceDb::records_from`]) and maintains two structures the query
//! operators need: a by-participant posting list and the reverse
//! derivation-edge index (object → the aggregates that consumed it). Both
//! are filled in one pass over the fresh tail under one watermark, so
//! syncing after `n` fresh appends costs O(n), never a log rescan, and the
//! two can never disagree about how far the log has been read.
//!
//! The index can be persisted to a **sidecar file** next to the log
//! (`<log>.tepidx`) so a restarted process resumes from the watermark
//! instead of rebuilding. The sidecar is *not* trusted: its body is
//! CRC-framed against torn writes, and its watermark is bound to the
//! checksum of the last record it claims to have indexed — if the log
//! underneath was truncated, swapped, or regrown differently, the binding
//! fails and the loader falls back to a clean rebuild. A stale or
//! corrupted sidecar can therefore cost time, never correctness.

use crate::engine::QueryError;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use tep_core::{ProvenanceRecord, RecordKind};
use tep_crypto::pki::ParticipantId;
use tep_model::codec_structs;
use tep_model::encode::{decode_exact, Codec, List, Map, Skip};
use tep_model::ObjectId;
use tep_storage::crc::{open_blob, seal_blob};
use tep_storage::ProvenanceDb;

/// Format tag of the sidecar encoding.
const IDX_MAGIC: &[u8] = b"TEPIDX\x01";

/// Canonical sidecar path for the log at `path`: `.tepidx` **appended**
/// to the full file name (`prov.log` → `prov.log.tepidx`), mirroring
/// [`tep_storage::quarantine_path`]'s append semantics.
///
/// This must never go through `Path::with_extension`, which *replaces*
/// the last extension: with tenant-sharded logs in one root directory,
/// `tenant.1` and `tenant.2` would both collapse to `tenant.tepidx` and
/// the tenants would silently clobber each other's recovery artifacts.
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tepidx");
    PathBuf::from(name)
}

/// Temp-file path `save` writes before its atomic rename — again append
/// semantics on the full sidecar name, so two sidecars in one directory
/// can never share a temp file.
fn sidecar_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Per-key lists of record slots `(object, seq_id)` in append order — the
/// shape of both indexes.
type Postings<K> = BTreeMap<K, Vec<(ObjectId, u64)>>;
/// One posting list's codec: a u64 count, then its `(object, seq_id)` slots.
type PostingList = List<8, (ObjectId, u64)>;

codec_structs! {
    /// The secondary indexes the query engine answers from. See the module
    /// docs for the sync and persistence model. Its encoding is the body of
    /// the sidecar's CRC frame: the watermark, the checksum of the record
    /// just below it, and both indexes.
    #[derive(Clone, Debug, Default)]
    pub struct QueryIndex {
        synced: u64,
        last_checksum: Vec<u8>,
        by_participant: Postings<ParticipantId> as Map<8, ParticipantId, PostingList>,
        /// Reverse derivation edges: object → the aggregate records
        /// `(output, seq_id)` that consumed it.
        consumers: Postings<ObjectId> as Map<8, ObjectId, PostingList>,
        /// The record the last sync stopped before because it does not decode.
        /// Not persisted: the watermark stays below it, so every sync meets it
        /// again.
        pub(crate) stuck: Option<QueryError> as Skip<Option<QueryError>>,
    }
}

impl QueryIndex {
    /// An empty index; call [`Self::sync`] to populate it.
    pub fn new() -> Self {
        QueryIndex::default()
    }

    /// Indexes every record appended since the last sync. Returns how
    /// many records were read.
    ///
    /// A record that does not decode is not skipped: the sync stops before
    /// it and keeps it in `stuck`, because any answer the index gives past
    /// it could be missing that record's posting or edges.
    pub fn sync(&mut self, db: &ProvenanceDb) -> usize {
        let fresh = db.records_from(self.synced());
        self.stuck = None;
        let mut read = 0;
        for stored in &fresh {
            let rec = match ProvenanceRecord::from_stored(stored) {
                Ok(rec) => rec,
                Err(error) => {
                    self.stuck = Some(QueryError::UndecodableRecord {
                        oid: stored.oid,
                        seq: stored.seq_id,
                        error,
                    });
                    break;
                }
            };
            self.by_participant
                .entry(stored.participant)
                .or_default()
                .push((stored.oid, stored.seq_id));
            if rec.kind == RecordKind::Aggregate {
                for input in rec.inputs.iter().filter(|i| i.oid != rec.output_oid) {
                    self.consumers
                        .entry(input.oid)
                        .or_default()
                        .push((rec.output_oid, rec.seq_id));
                }
            }
            read += 1;
        }
        if let Some(last) = fresh[..read].last() {
            self.last_checksum.clone_from(&last.checksum);
        }
        self.synced += read as u64;
        read
    }

    /// Log position up to which this index is current.
    pub fn synced(&self) -> usize {
        self.synced as usize
    }

    /// The aggregate records `(output, seq_id)` that consumed `oid`, in
    /// append order.
    pub(crate) fn consumers_of(&self, oid: ObjectId) -> &[(ObjectId, u64)] {
        self.consumers.get(&oid).map_or(&[], Vec::as_slice)
    }

    /// Records authored by `participant`, as `(object, seq_id)` in append
    /// order.
    pub fn by_participant(&self, participant: ParticipantId) -> &[(ObjectId, u64)] {
        self.by_participant
            .get(&participant)
            .map_or(&[], Vec::as_slice)
    }

    /// Participants with at least one indexed record, sorted.
    pub fn participants(&self) -> Vec<ParticipantId> {
        self.by_participant.keys().copied().collect()
    }

    /// Serializes the index to sidecar bytes: magic, then a CRC-framed
    /// body carrying the watermark, its checksum binding, and both maps.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.by_participant.len() * 32);
        Self::put(self, &mut body);
        seal_blob(IDX_MAGIC, &body)
    }

    /// Parses sidecar bytes. Returns `None` on any structural problem —
    /// bad magic, CRC mismatch, truncation, trailing bytes — because a
    /// sidecar is always safely replaceable by a rebuild.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        decode_exact::<Self>(open_blob(IDX_MAGIC, buf)?).ok()
    }

    /// `true` iff this index's watermark still matches `db`: the position
    /// is within the log and the record just below it carries the bound
    /// checksum. A truncated, swapped, or differently regrown log fails.
    pub fn binds_to(&self, db: &ProvenanceDb) -> bool {
        let synced = self.synced();
        if synced > db.len() {
            return false;
        }
        if synced == 0 {
            return self.last_checksum.is_empty();
        }
        db.records_from(synced - 1)
            .first()
            .is_some_and(|r| r.checksum == self.last_checksum)
    }

    /// Writes the sidecar atomically (temp file + rename) next to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = sidecar_tmp_path(path);
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a sidecar and validates its binding against `db`; any
    /// failure (absent file, corrupt bytes, stale binding) yields a fresh
    /// empty index instead. Either way the caller should [`Self::sync`]
    /// afterwards to pick up the tail.
    pub(crate) fn load_or_default(path: &Path, db: &ProvenanceDb) -> Self {
        std::fs::read(path)
            .ok()
            .and_then(|bytes| QueryIndex::from_bytes(&bytes))
            .filter(|ix| ix.binds_to(db))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_paths_append_to_the_full_name() {
        let p = sidecar_path(Path::new("/root/prov.log"));
        assert_eq!(p, PathBuf::from("/root/prov.log.tepidx"));
        assert_eq!(
            sidecar_tmp_path(&p),
            PathBuf::from("/root/prov.log.tepidx.tmp")
        );
    }

    #[test]
    fn sidecar_paths_never_collide_across_tenant_shards() {
        // The `with_extension` failure mode this helper exists to
        // prevent: dotted shard names in one root must keep disjoint
        // sidecars (and disjoint save temp files).
        let a = Path::new("/root/tenant.1");
        let b = Path::new("/root/tenant.2");
        assert_eq!(a.with_extension("tepidx"), b.with_extension("tepidx"));
        assert_ne!(sidecar_path(a), sidecar_path(b));
        assert_ne!(
            sidecar_tmp_path(&sidecar_path(a)),
            sidecar_tmp_path(&sidecar_path(b))
        );

        // And the real sharded layout (`tenant-<id>.log`) stays disjoint
        // too, with every artifact derived from the full shard path.
        let sa = Path::new("/root/tenant-1.log");
        let sb = Path::new("/root/tenant-2.log");
        assert_ne!(sidecar_path(sa), sidecar_path(sb));
        assert_eq!(sidecar_path(sa), PathBuf::from("/root/tenant-1.log.tepidx"));
    }

    #[test]
    fn edge_index_syncs_incrementally() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;
        use tep_core::{ProvenanceTracker, TrackerConfig};
        use tep_crypto::digest::HashAlgorithm;
        use tep_crypto::pki::CertificateAuthority;
        use tep_model::{AggregateMode, Value};

        let mut rng = StdRng::seed_from_u64(17);
        let ca = CertificateAuthority::new(512, HashAlgorithm::Sha256, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let db = Arc::new(ProvenanceDb::in_memory());
        let mut t = ProvenanceTracker::new(TrackerConfig::default(), Arc::clone(&db));
        let (a, _) = t.insert(&alice, Value::Int(1), None).unwrap();
        let (b, _) = t.insert(&alice, Value::Int(2), None).unwrap();
        let (c, _) = t
            .aggregate(&alice, &[a, b], Value::Int(3), AggregateMode::Atomic)
            .unwrap();
        let mut ix = QueryIndex::new();
        let first = ix.sync(&db);
        assert_eq!(first, db.len());
        // Aggregate seq = 1 + max input seq: c is (a,b) at seq 1.
        assert_eq!(ix.consumers_of(a), &[(c, 1)]);
        assert_eq!(ix.consumers_of(b), &[(c, 1)]);
        assert_eq!(ix.consumers.values().map(Vec::len).sum::<usize>(), 2);

        // Appending more records only reads the tail.
        let (d, _) = t
            .aggregate(&alice, &[a, c], Value::Int(4), AggregateMode::Atomic)
            .unwrap();
        let second = ix.sync(&db);
        assert_eq!(first + second, db.len());
        assert_eq!(ix.consumers_of(a), &[(c, 1), (d, 2)]);
        assert_eq!(ix.consumers_of(c), &[(d, 2)]);
        assert!(ix.consumers_of(d).is_empty());
        assert_eq!(ix.sync(&db), 0);
        assert_eq!(ix.synced(), db.len());

        // Postings and edges advanced under the one watermark: the index
        // built in two syncs is byte-identical to one built in one go, and
        // the edges survive a sidecar roundtrip.
        assert_eq!(ix.by_participant(alice.id()).len(), db.len());
        let mut at_once = QueryIndex::new();
        at_once.sync(&db);
        assert_eq!(ix.to_bytes(), at_once.to_bytes());
        let back = QueryIndex::from_bytes(&ix.to_bytes()).unwrap();
        assert_eq!(back.consumers_of(a), &[(c, 1), (d, 2)]);
    }
}
