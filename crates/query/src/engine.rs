//! The query engine: executes [`QuerySpec`]s against a [`ProvenanceDb`]
//! through the secondary indexes, producing [`SliceProof`]s.
//!
//! Every operator runs the *same* traversal the recipient's
//! `Verifier::verify_slice` re-runs (the shared functions live in
//! `tep_core::slice`), so an honest engine's proofs always verify clean
//! and the engine cannot accidentally answer something it can't prove.

use crate::index::QueryIndex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tep_core::slice::{
    backward_closure, polynomial_over, BoundaryLink, QueryAnswer, QueryOp, QuerySpec, SliceProof,
};
use tep_core::ProvenanceRecord;
use tep_crypto::digest::HashAlgorithm;
use tep_model::encode::DecodeError;
use tep_model::ObjectId;
use tep_obs::{names, Counter, Histogram, Registry};
use tep_storage::ProvenanceDb;

/// Hard cap on records per slice. Keeps a single answer's proof bounded
/// in memory and under the wire's frame cap; a query whose closure is
/// larger must be narrowed with depth/seq bounds.
pub(crate) const MAX_SLICE_RECORDS: usize = 2048;

/// Bucket bounds for the slice-size histogram: powers of two up to the
/// record cap.
const SLICE_RECORD_BOUNDS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Why a query could not be answered. Apart from a stored record that does
/// not decode, these are *request* failures — a tampered store that still
/// decodes never errors here, it produces a proof whose verification
/// attributes the damage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The target object has no (decodable) records.
    UnknownObject(ObjectId),
    /// An audit query without a participant.
    MissingParticipant,
    /// The result closure exceeds `MAX_SLICE_RECORDS`; narrow the
    /// bounds.
    SliceTooLarge {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// The answer needs the stored record at `(oid, seq)`, which does not
    /// decode; it is never silently left out.
    UndecodableRecord {
        /// The record's object.
        oid: ObjectId,
        /// The record's sequence id.
        seq: u64,
        /// Why it does not decode.
        error: DecodeError,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownObject(oid) => write!(f, "no records for object #{}", oid.raw()),
            QueryError::MissingParticipant => write!(f, "audit query needs a participant"),
            QueryError::SliceTooLarge { limit } => {
                write!(f, "result slice exceeds {limit} records; narrow the bounds")
            }
            QueryError::UndecodableRecord { oid, seq, error } => {
                write!(f, "stored record #{} seq {seq} corrupt: {error}", oid.raw())
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// tep-obs instrumentation for the query layer.
struct QueryObs {
    requests: Counter,
    per_op: Vec<Counter>,
    slice_records: Histogram,
    index_build_ns: Histogram,
    index_sync_ns: Histogram,
}

impl QueryObs {
    fn new(registry: &Registry) -> Self {
        QueryObs {
            requests: registry.counter(names::QUERY_REQUESTS),
            per_op: QueryOp::ALL
                .iter()
                .map(|op| registry.counter(&op.counter_name()))
                .collect(),
            slice_records: registry.histogram(names::QUERY_SLICE_RECORDS, &SLICE_RECORD_BOUNDS),
            index_build_ns: registry.latency_histogram(names::QUERY_INDEX_BUILD_NS),
            index_sync_ns: registry.latency_histogram(names::QUERY_INDEX_SYNC_NS),
        }
    }
}

/// Decoded-record cache: chains are fetched from the store once per
/// object and served by `(oid, seq)` thereafter, so a traversal that
/// walks an update chain doesn't re-clone the whole chain per step.
struct ChainCache<'a> {
    db: &'a ProvenanceDb,
    chains: HashMap<ObjectId, HashMap<u64, Result<ProvenanceRecord, DecodeError>>>,
    /// The first record a lookup needed and could not decode.
    undecodable: Option<QueryError>,
}

impl<'a> ChainCache<'a> {
    fn new(db: &'a ProvenanceDb) -> Self {
        ChainCache {
            db,
            chains: HashMap::new(),
            undecodable: None,
        }
    }

    /// The record at `(oid, seq)`, or `None` if the store has none. One
    /// that does not decode is also `None` here, and is kept in
    /// `undecodable` so the query fails instead of answering without it.
    fn get(&mut self, oid: ObjectId, seq: u64) -> Option<ProvenanceRecord> {
        let chain = self.chains.entry(oid).or_insert_with(|| {
            self.db
                .records_for(oid)
                .iter()
                .map(|s| (s.seq_id, ProvenanceRecord::from_stored(s)))
                .collect()
        });
        match chain.get(&seq)? {
            Ok(rec) => Some(rec.clone()),
            Err(error) => {
                let error = error.clone();
                self.undecodable
                    .get_or_insert(QueryError::UndecodableRecord { oid, seq, error });
                None
            }
        }
    }
}

/// The verifiable query engine. Thread-safe: the indexes live behind a
/// mutex and are synced incrementally at every execute, so the engine can
/// be shared with a live, appending store.
pub struct QueryEngine {
    db: Arc<ProvenanceDb>,
    alg: HashAlgorithm,
    index: Mutex<QueryIndex>,
    sidecar: Option<PathBuf>,
    obs: Option<QueryObs>,
}

impl QueryEngine {
    /// An engine over `db`, indexes built lazily on first use.
    pub fn new(db: Arc<ProvenanceDb>, alg: HashAlgorithm) -> Self {
        QueryEngine {
            db,
            alg,
            index: Mutex::new(QueryIndex::new()),
            sidecar: None,
            obs: None,
        }
    }

    /// An engine whose indexes persist to the sidecar at `path`
    /// (conventionally `<log>.tepidx`): loaded now if the sidecar still
    /// binds to `db` (see [`QueryIndex::binds_to`]), written back by
    /// [`Self::save_index`].
    pub fn with_sidecar(db: Arc<ProvenanceDb>, alg: HashAlgorithm, path: &Path) -> Self {
        let index = QueryIndex::load_or_default(path, &db);
        QueryEngine {
            db,
            alg,
            index: Mutex::new(index),
            sidecar: Some(path.to_path_buf()),
            obs: None,
        }
    }

    /// Attaches tep-obs instrumentation: request counts (total and
    /// per-operator), slice-size histogram, and index build/sync latency.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(QueryObs::new(registry));
    }

    /// The underlying store.
    pub fn db(&self) -> &Arc<ProvenanceDb> {
        &self.db
    }

    /// The hash algorithm proofs are produced under.
    pub fn alg(&self) -> HashAlgorithm {
        self.alg
    }

    /// The index, recovering from poison: a query that panicked while
    /// holding it must not wedge the engine.
    fn index(&self) -> MutexGuard<'_, QueryIndex> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Syncs the indexes with the store, returning how many fresh records
    /// were indexed. Called implicitly by [`Self::execute`].
    pub fn sync(&self) -> usize {
        self.sync_index(&mut self.index())
    }

    fn sync_index(&self, ix: &mut QueryIndex) -> usize {
        let building = ix.synced() == 0;
        let start = Instant::now();
        let fresh = ix.sync(&self.db);
        if let Some(obs) = &self.obs {
            let hist = if building && fresh > 0 {
                &obs.index_build_ns
            } else {
                &obs.index_sync_ns
            };
            hist.observe_duration(start.elapsed());
        }
        fresh
    }

    /// Writes the index sidecar, if this engine was built with one.
    pub fn save_index(&self) -> io::Result<()> {
        match &self.sidecar {
            Some(path) => self.index().save(path),
            None => Ok(()),
        }
    }

    /// Executes `spec`, returning a self-contained [`SliceProof`] the
    /// recipient re-verifies with `Verifier::verify_slice`.
    pub fn execute(&self, spec: &QuerySpec) -> Result<SliceProof, QueryError> {
        if let Some(obs) = &self.obs {
            obs.requests.inc();
            if let Some(i) = QueryOp::ALL.iter().position(|o| *o == spec.op) {
                obs.per_op[i].inc();
            }
        }
        let mut ix = self.index();
        self.sync_index(&mut ix);
        let proof = self.execute_with(&ix, spec)?;
        if let Some(obs) = &self.obs {
            obs.slice_records.observe(proof.records.len() as u64);
        }
        Ok(proof)
    }

    fn execute_with(&self, ix: &QueryIndex, spec: &QuerySpec) -> Result<SliceProof, QueryError> {
        // These two read the index, which stops before a record it cannot
        // decode.
        if let (QueryOp::Descendants | QueryOp::AuditSlice, Some(e)) = (spec.op, &ix.stuck) {
            return Err(e.clone());
        }
        let mut cache = ChainCache::new(&self.db);
        let (target_seq, records, answer) = match spec.op {
            QueryOp::Ancestors | QueryOp::LineageSlice | QueryOp::Polynomial => {
                let latest = self
                    .db
                    .latest_for(spec.target)
                    .ok_or(QueryError::UnknownObject(spec.target))?;
                let root = (spec.target, latest.seq_id);
                let closure =
                    backward_closure(&spec.bounds, root, MAX_SLICE_RECORDS, |oid, seq| {
                        cache.get(oid, seq)
                    });
                if closure.truncated {
                    return Err(QueryError::SliceTooLarge {
                        limit: MAX_SLICE_RECORDS,
                    });
                }
                let mut records: Vec<ProvenanceRecord> = closure
                    .kept
                    .iter()
                    .filter_map(|&(o, s)| cache.get(o, s))
                    .collect();
                records.sort_by_key(|r| (r.output_oid, r.seq_id));
                let answer = if spec.op == QueryOp::Polynomial {
                    QueryAnswer::Polynomial(polynomial_over(&records, root))
                } else {
                    let mut oids: Vec<ObjectId> = closure
                        .kept
                        .iter()
                        .map(|&(o, _)| o)
                        .filter(|&o| o != spec.target)
                        .collect();
                    oids.sort();
                    oids.dedup();
                    QueryAnswer::Objects(oids)
                };
                (root.1, records, answer)
            }
            QueryOp::Descendants => {
                let latest = self
                    .db
                    .latest_for(spec.target)
                    .ok_or(QueryError::UnknownObject(spec.target))?;
                let target_seq = latest.seq_id;
                // Level-order BFS over the reverse-edge index: first reach
                // of an object is its minimum derivation depth, matching
                // the verifier's topological forward_closure.
                let mut depth: HashMap<ObjectId, u32> = HashMap::from([(spec.target, 0)]);
                let mut queue = VecDeque::from([(spec.target, 0u32)]);
                let mut kept: BTreeSet<(ObjectId, u64)> = BTreeSet::new();
                while let Some((cur, d)) = queue.pop_front() {
                    for &(consumer, seq) in ix.consumers_of(cur) {
                        if !spec.bounds.seq_in_range(seq) {
                            continue;
                        }
                        let nd = d + 1;
                        if !spec.bounds.depth_ok(nd) {
                            continue;
                        }
                        kept.insert((consumer, seq));
                        if kept.len() >= MAX_SLICE_RECORDS {
                            return Err(QueryError::SliceTooLarge {
                                limit: MAX_SLICE_RECORDS,
                            });
                        }
                        if let std::collections::hash_map::Entry::Vacant(e) = depth.entry(consumer)
                        {
                            e.insert(nd);
                            queue.push_back((consumer, nd));
                        }
                    }
                }
                let anchor = cache
                    .get(spec.target, target_seq)
                    .ok_or(QueryError::UnknownObject(spec.target))?;
                let mut records = vec![anchor];
                for &(o, s) in &kept {
                    if let Some(r) = cache.get(o, s) {
                        records.push(r);
                    }
                }
                records.sort_by_key(|r| (r.output_oid, r.seq_id));
                records.dedup_by_key(|r| (r.output_oid, r.seq_id));
                let mut oids: Vec<ObjectId> = depth
                    .keys()
                    .copied()
                    .filter(|&o| o != spec.target)
                    .collect();
                oids.sort();
                (target_seq, records, QueryAnswer::Objects(oids))
            }
            QueryOp::AuditSlice => {
                let who = spec.participant.ok_or(QueryError::MissingParticipant)?;
                let posts = ix.by_participant(who);
                let mut records = Vec::new();
                for &(oid, seq) in posts {
                    if !spec.bounds.seq_in_range(seq) {
                        continue;
                    }
                    if records.len() >= MAX_SLICE_RECORDS {
                        return Err(QueryError::SliceTooLarge {
                            limit: MAX_SLICE_RECORDS,
                        });
                    }
                    if let Some(r) = cache.get(oid, seq) {
                        records.push(r);
                    }
                }
                records.sort_by_key(|r| (r.output_oid, r.seq_id));
                records.dedup_by_key(|r| (r.output_oid, r.seq_id));
                let mut oids: Vec<ObjectId> = records.iter().map(|r| r.output_oid).collect();
                oids.sort();
                oids.dedup();
                (0, records, QueryAnswer::Objects(oids))
            }
        };

        let boundary = boundary_for(&records, &mut cache);
        if let Some(e) = cache.undecodable {
            return Err(e);
        }
        Ok(SliceProof {
            spec: *spec,
            alg: self.alg,
            target_seq,
            records,
            boundary,
            answer,
        })
    }
}

/// Every predecessor checksum the slice's signatures chain to but whose
/// record is *not* in the slice, fetched from the store — the boundary
/// links that let a recipient verify in-slice signatures without the whole
/// history.
fn boundary_for(records: &[ProvenanceRecord], cache: &mut ChainCache<'_>) -> Vec<BoundaryLink> {
    let keys: HashSet<(ObjectId, u64)> = records.iter().map(|r| (r.output_oid, r.seq_id)).collect();
    let mut links: BTreeMap<(ObjectId, u64), Vec<u8>> = BTreeMap::new();
    for r in records {
        for input in &r.inputs {
            let Some(prev) = input.prev_seq else { continue };
            let key = (input.oid, prev);
            if keys.contains(&key) || links.contains_key(&key) {
                continue;
            }
            if let Some(rec) = cache.get(input.oid, prev) {
                links.insert(key, rec.checksum);
            }
        }
    }
    links
        .into_iter()
        .map(|((oid, seq), checksum)| BoundaryLink { oid, seq, checksum })
        .collect()
}
