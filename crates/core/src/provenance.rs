//! Provenance objects: the (possibly non-linear) record DAG shipped to a
//! data recipient alongside a data object.
//!
//! Per Definition 1, the provenance of an object `A` is a set of provenance
//! records partially ordered by `seqID` — equivalently a DAG: `A`'s own
//! chain, plus (recursively) the chains of every aggregation input, up to
//! the version that was aggregated. [`collect`] assembles exactly that
//! reachable set from a [`ProvenanceDb`].

use crate::error::CoreError;
use crate::record::{ProvenanceRecord, RecordKind};
use std::collections::HashMap;
use std::fmt::Write as _;
use tep_model::ObjectId;
use tep_storage::{ProvenanceDb, StoredRecord};

/// A provenance object: the records documenting one data object's history.
#[derive(Clone, Debug)]
pub struct ProvenanceObject {
    /// The data object this provenance describes.
    pub target: ObjectId,
    /// All records, sorted by `(object, seqID)`.
    pub records: Vec<ProvenanceRecord>,
}

/// An edge in the provenance DAG: `from` chains the checksum of `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagEdge {
    /// The successor record.
    pub from: (ObjectId, u64),
    /// The predecessor record whose checksum is chained into `from`.
    pub to: (ObjectId, u64),
}

impl ProvenanceObject {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up the record for `(oid, seq)`.
    pub fn record(&self, oid: ObjectId, seq: u64) -> Option<&ProvenanceRecord> {
        self.records
            .iter()
            .find(|r| r.output_oid == oid && r.seq_id == seq)
    }

    /// The most recent record for the target object.
    pub fn latest(&self) -> Option<&ProvenanceRecord> {
        self.records
            .iter()
            .filter(|r| r.output_oid == self.target)
            .max_by_key(|r| r.seq_id)
    }

    /// All checksum-chaining edges (record → predecessor record).
    pub fn edges(&self) -> Vec<DagEdge> {
        let mut out = Vec::new();
        for r in &self.records {
            match r.kind {
                RecordKind::Insert => {}
                RecordKind::Update | RecordKind::Aggregate => {
                    for input in &r.inputs {
                        if let Some(prev) = input.prev_seq {
                            out.push(DagEdge {
                                from: (r.output_oid, r.seq_id),
                                to: (input.oid, prev),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Graphviz DOT rendering of the provenance DAG (for inspection).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph provenance {\n  rankdir=BT;\n");
        for r in &self.records {
            let shape = match r.kind {
                RecordKind::Insert => "box",
                RecordKind::Update => "ellipse",
                RecordKind::Aggregate => "diamond",
            };
            let _ = writeln!(
                s,
                "  \"{}:{}\" [shape={} label=\"{} {}\\nseq {} by {}\"];",
                r.output_oid,
                r.seq_id,
                shape,
                r.kind.name(),
                r.output_oid,
                r.seq_id,
                r.participant
            );
        }
        for e in self.edges() {
            let _ = writeln!(
                s,
                "  \"{}:{}\" -> \"{}:{}\";",
                e.from.0, e.from.1, e.to.0, e.to.1
            );
        }
        s.push_str("}\n");
        s
    }
}

/// Collects the provenance object for `target` from the store: the target's
/// chain plus, transitively, every aggregation input's chain up to the
/// version that was aggregated.
pub fn collect(db: &ProvenanceDb, target: ObjectId) -> Result<ProvenanceObject, CoreError> {
    Ok(ProvenanceObject {
        target,
        records: gather(db, target, |_, record| record.clone())?,
    })
}

/// The rows [`collect`] reads for `target`, in the same `(object, seqID)`
/// order, as the store holds them: what a server sends and what a resume
/// digest hashes, with no record re-encoded. Every row has been decoded
/// once (an aggregate's inputs extend the walk), so a row that does not
/// decode fails here as it fails `collect`.
pub fn collect_rows(db: &ProvenanceDb, target: ObjectId) -> Result<Vec<StoredRecord>, CoreError> {
    gather(db, target, |row, _| row)
}

/// The walk behind [`collect`] and [`collect_rows`]: `keep` picks what of
/// each row and its decoded record the result holds. Every row is decoded
/// into one scratch record, once: a chain walked again, because an
/// aggregate needs more of it, reads only the rows past the last walk.
/// The rows are put in `(object, seqID)` order at the end, the first of a
/// duplicated slot kept.
fn gather<T>(
    db: &ProvenanceDb,
    target: ObjectId,
    keep: impl Fn(StoredRecord, &ProvenanceRecord) -> T,
) -> Result<Vec<T>, CoreError> {
    let latest = db
        .latest_for(target)
        .ok_or(CoreError::NoProvenance(target))?;

    // needed[oid] = highest seq of that object's chain we must include;
    // walked[oid] = highest seq a walk of that chain has covered.
    let mut needed: HashMap<ObjectId, u64> = HashMap::new();
    let mut walked: HashMap<ObjectId, u64> = HashMap::new();
    needed.insert(target, latest.seq_id);
    let mut worklist = vec![target];
    let mut collected: Vec<((ObjectId, u64), T)> = Vec::new();
    let mut record = ProvenanceRecord::default();

    while let Some(oid) = worklist.pop() {
        let up_to = needed[&oid];
        let from = walked.insert(oid, up_to);
        if from == Some(up_to) {
            continue;
        }
        let rows = db.records_for(oid);
        collected.reserve(rows.len());
        for stored in rows {
            if stored.seq_id > up_to || from.is_some_and(|w| stored.seq_id <= w) {
                continue;
            }
            record
                .read_stored(&stored)
                .map_err(|error| CoreError::UndecodableRecord {
                    oid,
                    seq: stored.seq_id,
                    error,
                })?;
            if record.kind == RecordKind::Aggregate {
                for input in &record.inputs {
                    let Some(prev) = input.prev_seq else { continue };
                    if needed.get(&input.oid).is_none_or(|&want| want < prev) {
                        needed.insert(input.oid, prev);
                        worklist.push(input.oid);
                    }
                }
            }
            collected.push(((oid, stored.seq_id), keep(stored, &record)));
        }
    }

    collected.sort_by_key(|(slot, _)| *slot);
    collected.dedup_by_key(|(slot, _)| *slot);
    Ok(collected.into_iter().map(|(_, kept)| kept).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashingStrategy;
    use crate::tracker::{ProvenanceTracker, TrackerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tep_crypto::digest::HashAlgorithm;
    use tep_crypto::pki::{CertificateAuthority, Participant, ParticipantId};
    use tep_model::{AggregateMode, Value};

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn setup() -> (ProvenanceTracker, Participant) {
        let mut rng = StdRng::seed_from_u64(77);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = ca.enroll(ParticipantId(2), 512, &mut rng);
        let tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Economical,
            },
            Arc::new(ProvenanceDb::in_memory()),
        );
        (tracker, p)
    }

    /// Builds the Figure 2 history: A and B inserted, updated; C = agg(A@0, B@1);
    /// A updated again; D = agg(A@2, C).
    fn figure2() -> (
        ProvenanceTracker,
        Participant,
        ObjectId,
        ObjectId,
        ObjectId,
        ObjectId,
    ) {
        let (mut t, p) = setup();
        let (a, _) = t.insert(&p, Value::text("a1"), None).unwrap(); // A seq 0
        let (b, _) = t.insert(&p, Value::text("b1"), None).unwrap(); // B seq 0
        t.update(&p, b, Value::text("b2")).unwrap(); // B seq 1
        let (c, _) = t
            .aggregate(&p, &[a, b], Value::text("c1"), AggregateMode::Atomic)
            .unwrap(); // C seq 2 = 1 + max(0, 1)
        t.update(&p, a, Value::text("a2")).unwrap(); // A seq 1
        t.update(&p, a, Value::text("a3")).unwrap(); // A seq 2
        let (d, _) = t
            .aggregate(&p, &[a, c], Value::text("d1"), AggregateMode::Atomic)
            .unwrap(); // D seq 3 = 1 + max(2, 2)
        (t, p, a, b, c, d)
    }

    #[test]
    fn collect_full_dag_for_aggregate_output() {
        let (t, _, a, b, c, d) = figure2();
        let prov = collect(t.db(), d).unwrap();
        // D: 1 record; C: 1; A: 3 (seq 0..2); B: 2 (seq 0..1) = 7 records.
        assert_eq!(prov.len(), 7);
        assert_eq!(prov.latest().unwrap().output_oid, d);
        assert_eq!(prov.latest().unwrap().seq_id, 3);
        // Every object's chain is present.
        for (oid, n) in [(a, 3usize), (b, 2), (c, 1), (d, 1)] {
            let count = prov.records.iter().filter(|r| r.output_oid == oid).count();
            assert_eq!(count, n, "object {oid}");
        }
    }

    #[test]
    fn collect_trims_input_chain_to_aggregated_version() {
        let (t, _, a, b, c, _) = figure2();
        // C aggregated A@seq0 and B@seq1: A's later updates (seq 1, 2) are
        // NOT part of C's provenance.
        let prov = collect(t.db(), c).unwrap();
        let a_seqs: Vec<u64> = prov
            .records
            .iter()
            .filter(|r| r.output_oid == a)
            .map(|r| r.seq_id)
            .collect();
        assert_eq!(a_seqs, vec![0]);
        let b_seqs: Vec<u64> = prov
            .records
            .iter()
            .filter(|r| r.output_oid == b)
            .map(|r| r.seq_id)
            .collect();
        assert_eq!(b_seqs, vec![0, 1]);
        assert_eq!(prov.len(), 4);
    }

    #[test]
    fn collect_linear_chain() {
        let (mut t, p) = setup();
        let (a, _) = t.insert(&p, Value::Int(1), None).unwrap();
        t.update(&p, a, Value::Int(2)).unwrap();
        t.update(&p, a, Value::Int(3)).unwrap();
        let prov = collect(t.db(), a).unwrap();
        assert_eq!(prov.len(), 3);
        let edges = prov.edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&DagEdge {
            from: (a, 1),
            to: (a, 0)
        }));
    }

    #[test]
    fn collect_rows_are_the_rows_of_the_collected_records() {
        let (t, _, a, b, c, d) = figure2();
        for oid in [a, b, c, d] {
            let rows = collect_rows(t.db(), oid).unwrap();
            let records = collect(t.db(), oid).unwrap().records;
            let encoded: Vec<StoredRecord> = records.iter().map(|r| r.to_stored()).collect();
            assert_eq!(rows, encoded, "object {oid}");
        }
        assert!(matches!(
            collect_rows(t.db(), ObjectId(42)),
            Err(CoreError::NoProvenance(_))
        ));
    }

    #[test]
    fn collect_unknown_object_fails() {
        let (t, _p) = setup();
        assert!(matches!(
            collect(t.db(), ObjectId(42)),
            Err(CoreError::NoProvenance(_))
        ));
    }

    #[test]
    fn dot_export_mentions_every_record() {
        let (t, _, _, _, _, d) = figure2();
        let prov = collect(t.db(), d).unwrap();
        let dot = prov.to_dot();
        assert!(dot.starts_with("digraph"));
        for r in &prov.records {
            assert!(dot.contains(&format!("\"{}:{}\"", r.output_oid, r.seq_id)));
        }
        // Aggregates render as diamonds.
        assert!(dot.contains("diamond"));
    }

    #[test]
    fn diamond_dependency_collected_once() {
        // X aggregated into two objects, both aggregated into Z:
        // records must be deduplicated.
        let (mut t, p) = setup();
        let (x, _) = t.insert(&p, Value::Int(1), None).unwrap();
        let (y1, _) = t
            .aggregate(&p, &[x], Value::Int(2), AggregateMode::Atomic)
            .unwrap();
        let (y2, _) = t
            .aggregate(&p, &[x], Value::Int(3), AggregateMode::Atomic)
            .unwrap();
        let (z, _) = t
            .aggregate(&p, &[y1, y2], Value::Int(5), AggregateMode::Atomic)
            .unwrap();
        let prov = collect(t.db(), z).unwrap();
        // x: 1, y1: 1, y2: 1, z: 1.
        assert_eq!(prov.len(), 4);
    }
}
