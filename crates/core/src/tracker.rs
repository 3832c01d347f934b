//! The provenance tracker: applies database operations and documents each
//! one with checksummed provenance records.
//!
//! This is the participant-side engine of the paper. It owns the back-end
//! database (a [`Forest`]), a [`HashCache`] implementing the Basic or
//! Economical hashing strategy (§4.3), the per-object [`ChainHeads`]
//! (§3.2), and appends [`tep_storage::StoredRecord`] rows to a
//! [`ProvenanceDb`].
//!
//! **Fine-grained inheritance (§4.2).** Every insert/update/delete of an
//! object also dirties each ancestor's compound value, so the tracker emits
//! an *inherited* update record for every ancestor: an operation on a node
//! with `x` ancestors yields `x + 1` records (or `x` for deletes, whose
//! target no longer exists) — the relationship Figures 8–11 measure.
//!
//! **Complex operations (§4.4).** [`ProvenanceTracker::complex`] groups a
//! sequence of insert/update/delete primitives into one transactional unit:
//! one record per *touched object still present* (plus its ancestors),
//! covering the object's before → after subtree states.
//!
//! **Amortized signing.** An operation that emits two or more records
//! signs once for all of them ([`ProvenanceRecord::sign_batch`]); an
//! operation that emits one record, and every aggregate, signs that record
//! directly as the paper does. [`ProvenanceTracker::complex_per_record`]
//! keeps the paper's one-signature-per-record scheme for any operation.

use crate::chain::ChainHeads;
use crate::error::CoreError;
use crate::hashing::{HashCache, HashingStrategy};
use crate::metrics::Metrics;
use crate::parallel::parallel_map;
use crate::record::{ChecksumFormat, InputRef, ProvenanceRecord, RecordKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::Participant;
use tep_model::{AggregateMode, Forest, ObjectId, PrimitiveOp, Value};
use tep_obs::{Counter, Histogram, Registry};
use tep_storage::ProvenanceDb;

/// Tracker instrumentation: operation/record counters, the
/// records-per-batch histogram, and stored row bytes.
#[derive(Clone)]
struct TrackerObs {
    ops: Counter,
    records: Counter,
    row_bytes: Counter,
    batch_records: Histogram,
}

impl TrackerObs {
    fn new(registry: &Registry) -> Self {
        // Records per tracked operation: 1 (atomic op on a root) up to
        // whole-table complex batches.
        let bounds: Vec<u64> = (0..13).map(|i| 1u64 << i).collect();
        TrackerObs {
            ops: registry.counter("tep_core_tracker_ops_total"),
            records: registry.counter("tep_core_tracker_records_total"),
            row_bytes: registry.counter("tep_core_tracker_row_bytes_total"),
            batch_records: registry.histogram("tep_core_tracker_batch_records", &bounds),
        }
    }

    fn record(&self, m: &Metrics) {
        self.ops.inc();
        self.records.add(m.records);
        self.row_bytes.add(m.row_bytes);
        self.batch_records.observe(m.records);
    }
}

/// Tracker configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrackerConfig {
    /// Hash algorithm for atom/subtree hashes and signatures.
    pub alg: HashAlgorithm,
    /// Basic vs Economical hashing (§4.3, Figure 7).
    pub strategy: HashingStrategy,
}

/// How the records of one complex operation get their checksums.
#[derive(Clone, Copy)]
enum Signing {
    /// One signature for the whole operation when it emits two or more
    /// records.
    Amortized,
    /// One signature per record, computed on `threads` workers.
    PerRecord { threads: usize },
}

/// Outcome of a tracked complex operation.
#[derive(Clone, Debug, Default)]
pub struct ComplexReport {
    /// Objects created by the operation (in creation order).
    pub created: Vec<ObjectId>,
    /// Objects deleted by the operation.
    pub deleted: Vec<ObjectId>,
    /// Phase timing / record counts.
    pub metrics: Metrics,
}

/// The provenance-tracking database engine.
pub struct ProvenanceTracker {
    forest: Forest,
    cache: HashCache,
    heads: ChainHeads,
    db: Arc<ProvenanceDb>,
    config: TrackerConfig,
    obs: Option<TrackerObs>,
}

impl ProvenanceTracker {
    /// Creates a tracker over an empty database.
    pub fn new(config: TrackerConfig, db: Arc<ProvenanceDb>) -> Self {
        Self::adopt(Forest::new(), config, db)
    }

    /// Adopts an existing database.
    ///
    /// The pre-existing objects have no provenance records; call
    /// [`Self::record_genesis`] to emit baseline insert records if the
    /// adopted state must itself be verifiable. (The paper's experiments
    /// seed the back-end database first and measure only subsequent
    /// operations, which is what plain adoption models.)
    pub fn adopt(mut forest: Forest, config: TrackerConfig, db: Arc<ProvenanceDb>) -> Self {
        // The adopted forest's construction history is irrelevant: nothing
        // is cached yet, so replaying its dirty log would be pure overhead.
        forest.clear_dirty();
        ProvenanceTracker {
            forest,
            cache: HashCache::new(config.alg),
            heads: ChainHeads::new(),
            db,
            config,
            obs: None,
        }
    }

    /// Attaches tep-obs instrumentation to the tracker
    /// (`tep_core_tracker_*`) and its hash cache (`tep_core_cache_*`).
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(TrackerObs::new(registry));
        self.cache.attach_obs(registry);
    }

    /// Restores a tracker after a restart: the back-end forest comes from a
    /// snapshot (see `tep_storage::snapshot`), and every live object's
    /// chain head is rebuilt from its latest record in the provenance
    /// store — so tracking continues exactly where it left off and new
    /// records chain onto the persisted ones.
    pub fn restore(
        forest: Forest,
        config: TrackerConfig,
        db: Arc<ProvenanceDb>,
    ) -> ProvenanceTracker {
        let mut tracker = Self::adopt(forest, config, db);
        for oid in tracker.db.object_ids() {
            if !tracker.forest.contains(oid) {
                continue; // retired chain (object deleted before snapshot)
            }
            if let Some(latest) = tracker.db.latest_for(oid) {
                tracker.heads.advance(oid, latest.seq_id, latest.checksum);
            }
        }
        tracker
    }

    /// The back-end database.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The provenance store.
    pub fn db(&self) -> &Arc<ProvenanceDb> {
        &self.db
    }

    /// The tracker configuration.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// Current chain head sequence for an object (`None` if unrecorded).
    pub fn head_seq(&self, oid: ObjectId) -> Option<u64> {
        self.heads.get(oid).map(|h| h.seq)
    }

    /// Current compound hash of `subtree(oid)` (computing it if stale).
    pub fn object_hash(&mut self, oid: ObjectId) -> Result<Vec<u8>, CoreError> {
        if !self.forest.contains(oid) {
            return Err(CoreError::Model(tep_model::ModelError::UnknownObject(oid)));
        }
        Ok(self.cache.get_or_compute(&self.forest, oid))
    }

    /// Emits an `Insert` genesis record for every root that has no chain
    /// yet, signed by `signer`, covering the adopted initial state.
    pub fn record_genesis(&mut self, signer: &Participant) -> Result<Metrics, CoreError> {
        let mut metrics = Metrics::default();
        let roots: Vec<ObjectId> = self.forest.roots().collect();
        for root in roots {
            if self.heads.get(root).is_some() {
                continue;
            }
            let t = Instant::now();
            let hash = self.cache.get_or_compute(&self.forest, root);
            metrics.hash_output_ns += t.elapsed().as_nanos() as u64;
            self.emit_record(
                signer,
                RecordKind::Insert,
                root,
                Vec::new(),
                hash,
                b"genesis",
                &mut metrics,
            )?;
        }
        if let Some(obs) = &self.obs {
            obs.record(&metrics);
        }
        Ok(metrics)
    }

    /// Tracked leaf insert: one actual record plus one inherited record per
    /// ancestor.
    pub fn insert(
        &mut self,
        signer: &Participant,
        value: Value,
        parent: Option<ObjectId>,
    ) -> Result<(ObjectId, Metrics), CoreError> {
        let report = self.complex(
            signer,
            &[PrimitiveOp::Insert {
                id: None,
                value,
                parent,
            }],
        )?;
        let id = *report.created.first().expect("insert creates an object");
        Ok((id, report.metrics))
    }

    /// Tracked update: one actual record plus inherited ancestor records.
    pub fn update(
        &mut self,
        signer: &Participant,
        id: ObjectId,
        value: Value,
    ) -> Result<Metrics, CoreError> {
        Ok(self
            .complex(signer, &[PrimitiveOp::Update { id, value }])?
            .metrics)
    }

    /// Tracked leaf delete: inherited ancestor records only (the deleted
    /// object's own provenance is no longer relevant — §2.1 footnote 3).
    pub fn delete(&mut self, signer: &Participant, id: ObjectId) -> Result<Metrics, CoreError> {
        Ok(self.complex(signer, &[PrimitiveOp::Delete { id }])?.metrics)
    }

    /// Tracked aggregation (§3): combines `subtree(A₁)…subtree(Aₙ)` into a
    /// new object whose record chains all input checksums — the non-linear
    /// (DAG) case.
    pub fn aggregate(
        &mut self,
        signer: &Participant,
        inputs: &[ObjectId],
        root_value: Value,
        mode: AggregateMode,
    ) -> Result<(ObjectId, Metrics), CoreError> {
        self.aggregate_annotated(signer, inputs, root_value, mode, Vec::new())
    }

    /// [`Self::aggregate`] with a signed operation annotation (footnote 4's
    /// white-box operation description, e.g. the query text).
    pub fn aggregate_annotated(
        &mut self,
        signer: &Participant,
        inputs: &[ObjectId],
        root_value: Value,
        mode: AggregateMode,
        annotation: Vec<u8>,
    ) -> Result<(ObjectId, Metrics), CoreError> {
        let mut metrics = Metrics::default();

        // Input hashes (current state) and chain references.
        let t = Instant::now();
        let mut sorted: Vec<ObjectId> = inputs.to_vec();
        sorted.sort_unstable();
        let mut input_refs = Vec::with_capacity(sorted.len());
        for &oid in &sorted {
            if !self.forest.contains(oid) {
                return Err(CoreError::Model(tep_model::ModelError::UnknownObject(oid)));
            }
            let hash = self.cache.get_or_compute(&self.forest, oid);
            input_refs.push(InputRef {
                oid,
                hash,
                prev_seq: self.heads.get(oid).map(|h| h.seq),
            });
        }
        metrics.hash_input_ns += t.elapsed().as_nanos() as u64;

        // seqID rule: 1 + the maximum seqID of any input (§2.1).
        let seq = input_refs
            .iter()
            .filter_map(|i| i.prev_seq)
            .max()
            .map_or(0, |m| m + 1);

        let output = self
            .forest
            .aggregate(inputs, root_value, mode)
            .map_err(CoreError::Model)?;

        let t = Instant::now();
        self.cache.sync(&mut self.forest);
        self.cache.reset_counter();
        let output_hash = self.cache.get_or_compute(&self.forest, output);
        metrics.nodes_hashed += self.cache.nodes_hashed();
        metrics.hash_output_ns += t.elapsed().as_nanos() as u64;

        let prev_checksums: Vec<Vec<u8>> = input_refs
            .iter()
            .filter(|i| i.prev_seq.is_some())
            .map(|i| {
                self.heads
                    .get(i.oid)
                    .expect("prev_seq implies a live head")
                    .checksum
                    .clone()
            })
            .collect();
        let prev_refs: Vec<&[u8]> = prev_checksums.iter().map(Vec::as_slice).collect();

        let t = Instant::now();
        let record = ProvenanceRecord::create_annotated(
            self.config.alg,
            signer,
            RecordKind::Aggregate,
            seq,
            input_refs,
            output,
            output_hash,
            annotation,
            &prev_refs,
        )?;
        metrics.sign_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let stored = record.to_stored();
        metrics.row_bytes += stored.paper_row_bytes();
        self.db.append(stored)?;
        metrics.store_ns += t.elapsed().as_nanos() as u64;
        metrics.records += 1;
        self.heads.advance(output, seq, record.checksum);
        if let Some(obs) = &self.obs {
            obs.record(&metrics);
        }
        Ok((output, metrics))
    }

    /// Applies a transactional **complex operation** (§4.4): a sequence of
    /// insert/update/delete primitives followed by one provenance record per
    /// touched-and-surviving object (and each of its ancestors).
    ///
    /// If a primitive fails mid-sequence, records are still emitted for the
    /// successfully applied prefix — provenance always reflects the actual
    /// database state — and the error is returned afterwards.
    ///
    /// Aggregations cannot appear inside a complex operation (the paper's
    /// complex operations group only insert/update/delete); use
    /// [`Self::aggregate`].
    pub fn complex(
        &mut self,
        signer: &Participant,
        ops: &[PrimitiveOp],
    ) -> Result<ComplexReport, CoreError> {
        self.complex_annotated(signer, ops, &[])
    }

    /// [`Self::complex`] with a signed operation annotation attached to
    /// every record the operation emits (footnote 4's white-box operation
    /// description — e.g. the SQL statement or workflow step id).
    pub fn complex_annotated(
        &mut self,
        signer: &Participant,
        ops: &[PrimitiveOp],
        annotation: &[u8],
    ) -> Result<ComplexReport, CoreError> {
        self.complex_impl(signer, ops, annotation, Signing::Amortized)
    }

    /// [`Self::complex_annotated`] under the paper's scheme: every record
    /// carries its own signature ([`ChecksumFormat::PerRecord`], the format
    /// of every record written before amortized signing existed), computed
    /// on `threads` workers. This is what Figures 8–11 measure.
    ///
    /// The fan-out is sound for the reason amortizing is: the records of
    /// one operation are mutually independent — each touched object emits
    /// exactly one record, which chains onto that object's *pre-operation*
    /// head (per-object chaining, §3.2), so none depends on another's
    /// checksum. Records are appended in deterministic object order
    /// whatever the worker count.
    pub fn complex_per_record(
        &mut self,
        signer: &Participant,
        ops: &[PrimitiveOp],
        annotation: &[u8],
        threads: usize,
    ) -> Result<ComplexReport, CoreError> {
        self.complex_impl(signer, ops, annotation, Signing::PerRecord { threads })
    }

    fn complex_impl(
        &mut self,
        signer: &Participant,
        ops: &[PrimitiveOp],
        annotation: &[u8],
        signing: Signing,
    ) -> Result<ComplexReport, CoreError> {
        let mut metrics = Metrics::default();

        // Phase 1 — make sure every pre-existing node has a cached pre-state
        // hash ("input tree" walk). Basic re-walks everything; Economical
        // reuses the warm cache from previous operations (syncing any dirty
        // marks left by out-of-band forest construction).
        let t = Instant::now();
        self.cache.reset_counter();
        if self.config.strategy == HashingStrategy::Basic {
            self.forest.clear_dirty();
            self.cache.clear();
        } else {
            self.cache.sync(&mut self.forest);
        }
        let roots: Vec<ObjectId> = self.forest.roots().collect();
        for root in &roots {
            self.cache.get_or_compute(&self.forest, *root);
        }
        metrics.nodes_hashed += self.cache.nodes_hashed();
        metrics.hash_input_ns += t.elapsed().as_nanos() as u64;

        // Phase 2 — apply primitives, lazily capturing before-hashes from
        // the (still pre-state) cache and tracking the touched set.
        let mut before: HashMap<ObjectId, Vec<u8>> = HashMap::new();
        let mut touched: BTreeSet<ObjectId> = BTreeSet::new();
        let mut created: BTreeSet<ObjectId> = BTreeSet::new();
        let mut created_order: Vec<ObjectId> = Vec::new();
        let mut deleted: BTreeSet<ObjectId> = BTreeSet::new();
        let mut deleted_order: Vec<ObjectId> = Vec::new();
        let mut failure: Option<CoreError> = None;

        for op in ops {
            let result = self.apply_one(
                op,
                &mut before,
                &mut touched,
                &mut created,
                &mut created_order,
                &mut deleted,
                &mut deleted_order,
            );
            if let Err(e) = result {
                failure = Some(e);
                break;
            }
        }

        // Phase 3 — recompute hashes ("output tree" walk). Economical
        // drains the forest's dirty log: exactly the mutated nodes' root
        // paths are invalidated, so the walk below rehashes only those.
        let t = Instant::now();
        self.cache.reset_counter();
        match self.config.strategy {
            HashingStrategy::Basic => {
                self.forest.clear_dirty();
                self.cache.clear();
            }
            HashingStrategy::Economical => {
                self.cache.sync(&mut self.forest);
            }
        }
        let roots: Vec<ObjectId> = self.forest.roots().collect();
        for root in &roots {
            self.cache.get_or_compute(&self.forest, *root);
        }
        metrics.nodes_hashed += self.cache.nodes_hashed();
        metrics.hash_output_ns += t.elapsed().as_nanos() as u64;

        // Phase 4 — emit one record per surviving touched object. Each
        // record chains onto its object's pre-batch head and each object is
        // emitted once, so the signatures are mutually independent and can
        // be computed on any number of workers.
        struct Pending {
            kind: RecordKind,
            oid: ObjectId,
            seq: u64,
            inputs: Vec<InputRef>,
            output_hash: Vec<u8>,
            prev_checksum: Option<Vec<u8>>,
        }
        let mut pending: Vec<Pending> = Vec::with_capacity(touched.len());
        for &id in &touched {
            if deleted.contains(&id) || !self.forest.contains(id) {
                continue;
            }
            let output_hash = self
                .cache
                .get(id)
                .expect("touched survivor recomputed in phase 3")
                .to_vec();
            let (kind, inputs) = if created.contains(&id) {
                (RecordKind::Insert, Vec::new())
            } else {
                let input_hash = before
                    .get(&id)
                    .expect("pre-existing touched object has a before hash")
                    .clone();
                let input = InputRef {
                    oid: id,
                    hash: input_hash,
                    prev_seq: self.heads.get(id).map(|h| h.seq),
                };
                (RecordKind::Update, vec![input])
            };
            pending.push(Pending {
                kind,
                oid: id,
                seq: self.heads.next_seq(id),
                inputs,
                output_hash,
                prev_checksum: self.heads.get(id).map(|h| h.checksum.clone()),
            });
        }

        // Leaf hashing, tree building and checksum assembly of the
        // amortized path count as signing time.
        let t = Instant::now();
        let alg = self.config.alg;
        let amortize = matches!(signing, Signing::Amortized)
            && pending.len() >= 2
            && u32::try_from(pending.len()).is_ok();
        let (signed, shared_tail) = if amortize {
            let (mut records, messages): (Vec<ProvenanceRecord>, Vec<Vec<u8>>) = pending
                .into_iter()
                .map(|p| {
                    let record = ProvenanceRecord {
                        seq_id: p.seq,
                        participant: signer.id(),
                        kind: p.kind,
                        inputs: p.inputs,
                        output_oid: p.oid,
                        output_hash: p.output_hash,
                        annotation: annotation.to_vec(),
                        checksum: Vec::new(),
                        checksum_format: ChecksumFormat::Batched,
                    };
                    let prev_refs: Vec<&[u8]> = p.prev_checksum.iter().map(Vec::as_slice).collect();
                    let message = record.message(alg, &prev_refs);
                    (record, message)
                })
                .unzip();
            let tail = ProvenanceRecord::sign_batch(alg, signer, &mut records, &messages)?;
            (records, tail)
        } else {
            let threads = match signing {
                Signing::PerRecord { threads } => threads,
                Signing::Amortized => 1,
            };
            let signed = parallel_map(threads, &pending, |_, p| {
                let prev_refs: Vec<&[u8]> = p.prev_checksum.iter().map(Vec::as_slice).collect();
                ProvenanceRecord::create_annotated(
                    alg,
                    signer,
                    p.kind,
                    p.seq,
                    p.inputs.clone(),
                    p.oid,
                    p.output_hash.clone(),
                    annotation.to_vec(),
                    &prev_refs,
                )
            });
            (signed.into_iter().collect::<Result<Vec<_>, _>>()?, 0)
        };
        metrics.sign_ns += t.elapsed().as_nanos() as u64;

        // Append in deterministic (object-id) order — in one call, so the
        // store holds a shared signature once — and advance heads.
        let t = Instant::now();
        let stored: Vec<_> = signed.iter().map(ProvenanceRecord::to_stored).collect();
        metrics.row_bytes += stored.iter().map(|s| s.paper_row_bytes()).sum::<u64>();
        metrics.records += stored.len() as u64;
        self.db.append_batch(stored, shared_tail)?;
        metrics.store_ns += t.elapsed().as_nanos() as u64;
        for record in signed {
            self.heads
                .advance(record.output_oid, record.seq_id, record.checksum);
        }

        // Deleted objects' chains are retired (§2.1 footnote 3).
        for &id in &deleted {
            self.heads.remove(id);
        }

        if let Some(e) = failure {
            return Err(e);
        }
        if let Some(obs) = &self.obs {
            obs.record(&metrics);
        }
        Ok(ComplexReport {
            created: created_order,
            deleted: deleted_order,
            metrics,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_one(
        &mut self,
        op: &PrimitiveOp,
        before: &mut HashMap<ObjectId, Vec<u8>>,
        touched: &mut BTreeSet<ObjectId>,
        created: &mut BTreeSet<ObjectId>,
        created_order: &mut Vec<ObjectId>,
        deleted: &mut BTreeSet<ObjectId>,
        deleted_order: &mut Vec<ObjectId>,
    ) -> Result<(), CoreError> {
        match op {
            PrimitiveOp::Insert { id, value, parent } => {
                if let Some(p) = parent {
                    self.capture_before_path(*p, before);
                }
                let id = match id {
                    Some(id) => {
                        self.forest.insert_with_id(*id, value.clone(), *parent)?;
                        *id
                    }
                    None => self.forest.insert(value.clone(), *parent)?,
                };
                created.insert(id);
                created_order.push(id);
                touched.insert(id);
                if let Some(p) = parent {
                    touched.insert(*p);
                    touched.extend(self.forest.ancestors(*p));
                }
                Ok(())
            }
            PrimitiveOp::Update { id, value } => {
                self.capture_before_path(*id, before);
                self.forest.update(*id, value.clone())?;
                touched.insert(*id);
                touched.extend(self.forest.ancestors(*id));
                Ok(())
            }
            PrimitiveOp::Delete { id } => {
                self.capture_before_path(*id, before);
                let ancestors = self.forest.ancestors(*id);
                self.forest.delete(*id)?;
                deleted.insert(*id);
                deleted_order.push(*id);
                created.remove(id);
                touched.extend(ancestors);
                Ok(())
            }
            PrimitiveOp::Aggregate { .. } => Err(CoreError::AggregateInComplexOp),
        }
    }

    /// Copies the cached pre-state hash of `id` and each ancestor into the
    /// `before` map (first capture wins). Objects created earlier within
    /// the same complex operation have no cache entry and need no before
    /// hash.
    fn capture_before_path(&self, id: ObjectId, before: &mut HashMap<ObjectId, Vec<u8>>) {
        let mut cur = Some(id);
        while let Some(n) = cur {
            if let Some(h) = self.cache.get(n) {
                before.entry(n).or_insert_with(|| h.to_vec());
            }
            cur = self.forest.node(n).and_then(|node| node.parent());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_record(
        &mut self,
        signer: &Participant,
        kind: RecordKind,
        oid: ObjectId,
        inputs: Vec<InputRef>,
        output_hash: Vec<u8>,
        annotation: &[u8],
        metrics: &mut Metrics,
    ) -> Result<(), CoreError> {
        let seq = self.heads.next_seq(oid);
        let prev_checksum = self.heads.get(oid).map(|h| h.checksum.clone());
        let prev_refs: Vec<&[u8]> = prev_checksum.iter().map(Vec::as_slice).collect();

        let t = Instant::now();
        let record = ProvenanceRecord::create_annotated(
            self.config.alg,
            signer,
            kind,
            seq,
            inputs,
            oid,
            output_hash,
            annotation.to_vec(),
            &prev_refs,
        )?;
        metrics.sign_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let stored = record.to_stored();
        metrics.row_bytes += stored.paper_row_bytes();
        self.db.append(stored)?;
        metrics.store_ns += t.elapsed().as_nanos() as u64;
        metrics.records += 1;
        self.heads.advance(oid, seq, record.checksum);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tep_crypto::pki::{CertificateAuthority, ParticipantId};
    use tep_model::relational;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn setup(strategy: HashingStrategy) -> (ProvenanceTracker, Participant) {
        let mut rng = StdRng::seed_from_u64(21);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let config = TrackerConfig { alg: ALG, strategy };
        let tracker = ProvenanceTracker::new(config, Arc::new(ProvenanceDb::in_memory()));
        (tracker, p)
    }

    #[test]
    fn insert_emits_actual_plus_inherited() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        // root -> table -> row, then insert a cell (3 ancestors).
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let (table, _) = t.insert(&p, Value::text("t"), Some(root)).unwrap();
        let (row, _) = t.insert(&p, Value::Null, Some(table)).unwrap();
        let before_count = t.db().len();
        let (_cell, m) = t.insert(&p, Value::Int(7), Some(row)).unwrap();
        // x+1 records: cell + row + table + root.
        assert_eq!(m.records, 4);
        assert_eq!(t.db().len(), before_count + 4);
    }

    #[test]
    fn update_emits_x_plus_one_delete_emits_x() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let (table, _) = t.insert(&p, Value::text("t"), Some(root)).unwrap();
        let (row, _) = t.insert(&p, Value::Null, Some(table)).unwrap();
        let (cell, _) = t.insert(&p, Value::Int(7), Some(row)).unwrap();

        let m = t.update(&p, cell, Value::Int(8)).unwrap();
        assert_eq!(m.records, 4); // cell + 3 ancestors

        let m = t.delete(&p, cell).unwrap();
        assert_eq!(m.records, 3); // ancestors only
        assert!(!t.forest().contains(cell));
        assert!(t.head_seq(cell).is_none());
    }

    #[test]
    fn seq_ids_advance_per_object() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (a, _) = t.insert(&p, Value::Int(1), None).unwrap();
        assert_eq!(t.head_seq(a), Some(0));
        t.update(&p, a, Value::Int(2)).unwrap();
        assert_eq!(t.head_seq(a), Some(1));
        t.update(&p, a, Value::Int(3)).unwrap();
        assert_eq!(t.head_seq(a), Some(2));
        // Independent object chains.
        let (b, _) = t.insert(&p, Value::Int(9), None).unwrap();
        assert_eq!(t.head_seq(b), Some(0));
        assert_eq!(t.head_seq(a), Some(2));
    }

    #[test]
    fn aggregate_seq_is_one_plus_max_input() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (a, _) = t.insert(&p, Value::Int(1), None).unwrap();
        t.update(&p, a, Value::Int(2)).unwrap();
        t.update(&p, a, Value::Int(3)).unwrap(); // seq 2
        let (b, _) = t.insert(&p, Value::Int(9), None).unwrap(); // seq 0
        let (c, m) = t
            .aggregate(&p, &[a, b], Value::Int(12), AggregateMode::Atomic)
            .unwrap();
        assert_eq!(t.head_seq(c), Some(3)); // 1 + max(2, 0)
        assert_eq!(m.records, 1);
    }

    #[test]
    fn complex_op_one_record_per_surviving_object() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let (table, _) = t.insert(&p, Value::text("t"), Some(root)).unwrap();
        let (row, _) = t.insert(&p, Value::Null, Some(table)).unwrap();
        let cells: Vec<ObjectId> = (0..4)
            .map(|i| t.insert(&p, Value::Int(i), Some(row)).unwrap().0)
            .collect();

        // One complex op updating 3 cells in the same row.
        let ops: Vec<PrimitiveOp> = cells[..3]
            .iter()
            .map(|&c| PrimitiveOp::Update {
                id: c,
                value: Value::Int(100),
            })
            .collect();
        let report = t.complex(&p, &ops).unwrap();
        // Records: 3 cells + row + table + root = 6 (NOT 3 × 4 = 12).
        assert_eq!(report.metrics.records, 6);
    }

    #[test]
    fn complex_insert_then_update_collapses_to_insert() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let before = t.db().len();
        let report = t
            .complex(
                &p,
                &[PrimitiveOp::Insert {
                    id: None,
                    value: Value::Int(1),
                    parent: Some(root),
                }],
            )
            .unwrap();
        let new_id = report.created[0];
        // Update the freshly created node inside another complex op with an
        // insert+update pair: still a single Insert record for the new node.
        let report2 = t
            .complex(
                &p,
                &[
                    PrimitiveOp::Insert {
                        id: None,
                        value: Value::Int(2),
                        parent: Some(root),
                    },
                    PrimitiveOp::Update {
                        id: new_id,
                        value: Value::Int(10),
                    },
                ],
            )
            .unwrap();
        // Records: new node (Insert) + updated node (Update) + root = 3.
        assert_eq!(report2.metrics.records, 3);
        let _ = before;
    }

    #[test]
    fn complex_insert_then_delete_leaves_no_record_for_it() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let report = t
            .complex(
                &p,
                &[PrimitiveOp::Insert {
                    id: None,
                    value: Value::Int(1),
                    parent: Some(root),
                }],
            )
            .unwrap();
        let id = report.created[0];
        let db_len = t.db().len();
        let report = t.complex(&p, &[PrimitiveOp::Delete { id }]).unwrap();
        // Only the root's inherited record.
        assert_eq!(report.metrics.records, 1);
        assert_eq!(t.db().len(), db_len + 1);
        assert_eq!(report.deleted, vec![id]);
    }

    #[test]
    fn failed_primitive_still_documents_prefix() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let db_len = t.db().len();
        let err = t.complex(
            &p,
            &[
                PrimitiveOp::Insert {
                    id: None,
                    value: Value::Int(1),
                    parent: Some(root),
                },
                PrimitiveOp::Delete {
                    id: ObjectId(9999), // fails
                },
            ],
        );
        assert!(err.is_err());
        // The applied insert is still documented (insert + root inherited).
        assert_eq!(t.db().len(), db_len + 2);
    }

    #[test]
    fn aggregate_rejected_inside_complex() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (a, _) = t.insert(&p, Value::Int(1), None).unwrap();
        let err = t.complex(
            &p,
            &[PrimitiveOp::Aggregate {
                inputs: vec![a],
                root_value: Value::Null,
                mode: AggregateMode::Atomic,
            }],
        );
        assert!(matches!(err, Err(CoreError::AggregateInComplexOp)));
    }

    #[test]
    fn basic_and_economical_agree_on_hashes() {
        let run = |strategy| {
            let (mut t, p) = setup(strategy);
            let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
            let (table, _) = t.insert(&p, Value::text("t"), Some(root)).unwrap();
            let (row, _) = t.insert(&p, Value::Null, Some(table)).unwrap();
            let (cell, _) = t.insert(&p, Value::Int(1), Some(row)).unwrap();
            t.update(&p, cell, Value::Int(2)).unwrap();
            t.delete(&p, cell).unwrap();
            let (cell2, _) = t.insert(&p, Value::Int(5), Some(row)).unwrap();
            let _ = cell2;
            t.object_hash(root).unwrap()
        };
        // NOTE: ids are allocated identically in both runs, so hashes must
        // match exactly.
        assert_eq!(
            run(HashingStrategy::Basic),
            run(HashingStrategy::Economical)
        );
    }

    #[test]
    fn basic_hashes_whole_tree_economical_only_dirty() {
        let mut rng = StdRng::seed_from_u64(5);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let build = || {
            let mut f = Forest::new();
            let root = relational::create_root(&mut f, "db");
            let th = relational::build_table(&mut f, root, "t", 50, 4, |r, a| {
                Value::Int((r * 10 + a) as i64)
            })
            .unwrap();
            (f, th)
        };

        // Economical: after warm-up, a single-cell update rehashes only the
        // root path (cell + row + table + root = 4 nodes).
        let (f, th) = build();
        let mut t = ProvenanceTracker::adopt(
            f,
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Economical,
            },
            Arc::new(ProvenanceDb::in_memory()),
        );
        let cell = th.rows[0].cells[0];
        t.update(&p, cell, Value::Int(999)).unwrap(); // warms + updates
        let m = t.update(&p, cell, Value::Int(1000)).unwrap();
        assert_eq!(m.nodes_hashed, 4);

        // Basic: every operation rehashes the entire database twice
        // (input walk + output walk).
        let (f, th) = build();
        let total_nodes = f.len() as u64;
        let mut t = ProvenanceTracker::adopt(
            f,
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Basic,
            },
            Arc::new(ProvenanceDb::in_memory()),
        );
        let cell = th.rows[0].cells[0];
        let m = t.update(&p, cell, Value::Int(999)).unwrap();
        assert_eq!(m.nodes_hashed, 2 * total_nodes);
    }

    #[test]
    fn per_record_signing_is_bitwise_equal_at_any_worker_count() {
        // The same operation signed per record on one worker and on four
        // must produce byte-identical provenance stores: signing is
        // deterministic and records are appended in object order either way.
        let run = |threads: usize| {
            let (mut t, p) = setup(HashingStrategy::Economical);
            let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
            let (row, _) = t.insert(&p, Value::Null, Some(root)).unwrap();
            let cells: Vec<ObjectId> = (0..6)
                .map(|i| t.insert(&p, Value::Int(i), Some(row)).unwrap().0)
                .collect();
            let ops: Vec<PrimitiveOp> = cells
                .iter()
                .map(|&c| PrimitiveOp::Update {
                    id: c,
                    value: Value::Int(777),
                })
                .chain(std::iter::once(PrimitiveOp::Insert {
                    id: None,
                    value: Value::Int(8),
                    parent: Some(row),
                }))
                .chain(std::iter::once(PrimitiveOp::Delete { id: cells[5] }))
                .collect();
            let report = t.complex_per_record(&p, &ops, &[], threads).unwrap();
            (t.db().all_records(), report.metrics.records)
        };
        let (serial, n1) = run(1);
        let (parallel, n4) = run(4);
        assert_eq!(n1, n4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn genesis_records_cover_roots() {
        let mut f = Forest::new();
        let root = relational::create_root(&mut f, "db");
        relational::build_table(&mut f, root, "t", 3, 2, |_, _| Value::Int(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut t = ProvenanceTracker::adopt(
            f,
            TrackerConfig::default(),
            Arc::new(ProvenanceDb::in_memory()),
        );
        let m = t.record_genesis(&p).unwrap();
        assert_eq!(m.records, 1); // one root
        assert_eq!(t.head_seq(root), Some(0));
        // Idempotent.
        let m = t.record_genesis(&p).unwrap();
        assert_eq!(m.records, 0);
    }

    #[test]
    fn failed_insert_leaves_no_trace() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let err = t.insert(&p, Value::Int(1), Some(ObjectId(999)));
        assert!(err.is_err());
        assert_eq!(t.db().len(), 0);
        assert!(t.forest().is_empty());
    }

    #[test]
    fn aggregate_error_paths() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let (child, _) = t.insert(&p, Value::Int(1), Some(root)).unwrap();
        // Nested inputs rejected, nothing recorded beyond the inserts.
        let before = t.db().len();
        assert!(t
            .aggregate(&p, &[root, child], Value::Null, AggregateMode::Atomic)
            .is_err());
        assert!(t
            .aggregate(&p, &[ObjectId(999)], Value::Null, AggregateMode::Atomic)
            .is_err());
        assert!(t
            .aggregate(&p, &[], Value::Null, AggregateMode::Atomic)
            .is_err());
        assert_eq!(t.db().len(), before);
    }

    #[test]
    fn object_hash_unknown_object_errors() {
        let (mut t, _p) = setup(HashingStrategy::Economical);
        assert!(t.object_hash(ObjectId(5)).is_err());
    }

    #[test]
    fn delete_non_leaf_rejected_without_records() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        t.insert(&p, Value::Int(1), Some(root)).unwrap();
        let before = t.db().len();
        assert!(t.delete(&p, root).is_err());
        assert_eq!(t.db().len(), before);
        assert!(t.forest().contains(root));
    }

    #[test]
    fn annotations_flow_through_complex_ops() {
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        t.complex_annotated(
            &p,
            &[PrimitiveOp::Update {
                id: root,
                value: Value::text("db2"),
            }],
            b"rename database",
        )
        .unwrap();
        let stored = t.db().latest_for(root).unwrap();
        let rec = crate::record::ProvenanceRecord::from_stored(&stored).unwrap();
        assert_eq!(rec.annotation_text(), Some("rename database"));
    }

    #[test]
    fn metrics_row_bytes_match_store() {
        // 512-bit keys → 64-byte signatures → 76-byte paper rows.
        const ROW: u64 = 4 + 4 + 4 + 64;
        let child = |root| {
            [PrimitiveOp::Insert {
                id: None,
                value: Value::Int(1),
                parent: Some(root),
            }]
        };

        // The paper's scheme: one signature per row.
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let m = t
            .complex_per_record(&p, &child(root), &[], 1)
            .unwrap()
            .metrics;
        assert_eq!(m.row_bytes, 2 * ROW);
        assert_eq!(t.db().paper_row_bytes(), m.row_bytes + ROW);

        // A batch member's row is its self-contained row, own copy of the
        // batch signature included: 9 header bytes and one 32-byte SHA-256
        // sibling on top of the signature for each of two members. The
        // store's total is the sum of those rows, although it holds the
        // signature once.
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let m = t.complex(&p, &child(root)).unwrap().metrics;
        assert_eq!(m.row_bytes, 2 * (ROW + 9 + 32));
        assert_eq!(t.db().paper_row_bytes(), m.row_bytes + ROW);
        let stored: u64 = t
            .db()
            .all_records()
            .iter()
            .map(|r| r.paper_row_bytes())
            .sum();
        assert_eq!(t.db().paper_row_bytes(), stored);
    }

    #[test]
    fn multi_record_operations_sign_once_and_single_record_ones_as_before() {
        use crate::record::BatchChecksum;
        let (mut t, p) = setup(HashingStrategy::Economical);
        let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
        let (row, _) = t.insert(&p, Value::Null, Some(root)).unwrap();
        t.insert(&p, Value::Int(1), Some(row)).unwrap();
        t.update(&p, root, Value::text("db2")).unwrap();

        let records: Vec<ProvenanceRecord> = t
            .db()
            .all_records()
            .iter()
            .map(|s| ProvenanceRecord::from_stored(s).unwrap())
            .collect();
        let formats: Vec<ChecksumFormat> = records.iter().map(|r| r.checksum_format).collect();
        use ChecksumFormat::{Batched as B, PerRecord as P};
        assert_eq!(formats, [P, B, B, B, B, B, P]);

        // The three-record insert: one signature, three positions.
        let batch: Vec<BatchChecksum> = records[3..6]
            .iter()
            .map(|r| BatchChecksum::decode(ALG, &r.checksum).unwrap())
            .collect();
        for (i, c) in batch.iter().enumerate() {
            assert_eq!((c.index, c.count), (i as u32, 3));
            assert_eq!(c.signature, batch[0].signature);
            assert_eq!(c.encode(), records[3 + i].checksum);
        }
    }
}
