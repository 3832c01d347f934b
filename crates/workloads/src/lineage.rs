//! Seeded lineage-DAG generator for the query benchmark (`repro --query`).
//!
//! Produces a provenance store whose record log *shape* matches what the
//! paper's multi-participant setting accumulates over time — a mix of
//! inserts, update chains, and aggregations that weave objects into a
//! DAG — at whatever scale the benchmark asks for (the headline run is
//! one million records). The records are structurally faithful (seq-id
//! numbering rules, input chaining via `prev_seq`, canonical encoding)
//! but carry **dummy signatures**: the bench measures index build and
//! traversal throughput of `tep-query`, not RSA, and a 1M-record DAG
//! with real 1024-bit signatures would take hours to mint.
//!
//! ## Clustered shape
//!
//! Derivations are grouped into *clusters* of at most
//! [`LINEAGE_CLUSTER_OPS`] records: every update or aggregation draws its
//! inputs from the objects created in the current cluster only. This
//! mirrors real provenance workloads (each dataset has its own bounded
//! derivation history; unrelated datasets do not feed each other) and
//! guarantees that any object's backward closure fits a query engine's
//! slice cap, so the benchmark exercises the *index* at millions of
//! records while each answer stays a provable, bounded slice.
//!
//! Participants scale with the log (about one per thousand records) so
//! per-participant audit slices also stay bounded at any scale.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use tep_core::{ChecksumFormat, InputRef, ProvenanceRecord, RecordKind};
use tep_crypto::pki::ParticipantId;
use tep_model::ObjectId;
use tep_storage::ProvenanceDb;

/// Records per derivation cluster. Backward closures (and therefore
/// lineage/ancestor slices) are bounded by this.
pub const LINEAGE_CLUSTER_OPS: usize = 48;

/// A generated lineage DAG and the query targets worth benchmarking.
pub struct LineageDag {
    /// The record store, all records appended in generation order.
    pub db: Arc<ProvenanceDb>,
    /// Total records appended.
    pub records: u64,
    /// Distinct objects created.
    pub objects: u64,
    /// Participants the records are attributed to (ids `1..=participants`).
    pub participants: u64,
    /// The closing object of up to 1024 evenly sampled clusters — targets
    /// whose backward closure spans their whole cluster, i.e. the
    /// worst-case (deepest) lineage queries this DAG can pose.
    pub targets: Vec<ObjectId>,
    /// The *first* object of the same sampled clusters — the objects most
    /// downstream derivation flowed from, i.e. the worst-case *forward*
    /// (descendants) queries.
    pub roots: Vec<ObjectId>,
}

fn dummy_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut b = vec![0u8; len];
    rng.fill_bytes(&mut b);
    b
}

/// Builds a `records`-record lineage DAG, deterministic in `seed`.
///
/// The operation mix is roughly 30% insert / 50% update / 20% aggregate
/// (of 2–4 existing objects), with seq ids following the paper's §2.1
/// numbering: inserts start at 0, updates advance the chain by one, and
/// an aggregate's record is numbered one past the largest input seq.
pub fn build_lineage_db(records: u64, seed: u64) -> LineageDag {
    let mut rng = StdRng::seed_from_u64(seed);
    let participants = (records / 1000).max(4);
    let db = Arc::new(ProvenanceDb::in_memory());

    let mut next_oid = 0u64;
    // Objects of the current cluster, as (oid, head seq).
    let mut cluster: Vec<(ObjectId, u64)> = Vec::new();
    let mut ops_in_cluster = 0usize;
    let mut last_created = ObjectId(0);
    let mut last_agg: Option<ObjectId> = None;
    let mut closers: Vec<ObjectId> = Vec::new();
    let mut firsts: Vec<ObjectId> = Vec::new();

    for _ in 0..records {
        if ops_in_cluster >= LINEAGE_CLUSTER_OPS {
            // Prefer the cluster's last aggregate — the deepest lineage the
            // cluster can pose — over a trailing plain insert.
            closers.push(last_agg.take().unwrap_or(last_created));
            firsts.push(cluster[0].0);
            cluster.clear();
            ops_in_cluster = 0;
        }
        ops_in_cluster += 1;
        let who = ParticipantId(1 + rng.gen_range(0..participants));
        let roll: u32 = rng.gen_range(0..100);

        let (oid, seq, kind, inputs) = if roll < 30 || cluster.len() < 2 {
            next_oid += 1;
            let oid = ObjectId(next_oid);
            cluster.push((oid, 0));
            last_created = oid;
            (oid, 0, RecordKind::Insert, Vec::new())
        } else if roll < 80 {
            let i = rng.gen_range(0..cluster.len());
            let (oid, head) = cluster[i];
            cluster[i].1 = head + 1;
            let input = InputRef {
                oid,
                hash: dummy_bytes(&mut rng, 32),
                prev_seq: Some(head),
            };
            (oid, head + 1, RecordKind::Update, vec![input])
        } else {
            // Aggregate 2–4 distinct cluster objects into a new one.
            let n = rng.gen_range(2..5usize).min(cluster.len());
            let mut picked: Vec<usize> = Vec::with_capacity(n);
            while picked.len() < n {
                let i = rng.gen_range(0..cluster.len());
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            let mut inputs: Vec<InputRef> = picked
                .iter()
                .map(|&i| {
                    let (oid, head) = cluster[i];
                    InputRef {
                        oid,
                        hash: dummy_bytes(&mut rng, 32),
                        prev_seq: Some(head),
                    }
                })
                .collect();
            inputs.sort_by_key(|i| i.oid);
            // §2.1: one past the largest input seq.
            let seq = 1 + inputs.iter().filter_map(|i| i.prev_seq).max().unwrap_or(0);
            next_oid += 1;
            let oid = ObjectId(next_oid);
            cluster.push((oid, seq));
            last_created = oid;
            last_agg = Some(oid);
            (oid, seq, RecordKind::Aggregate, inputs)
        };

        let rec = ProvenanceRecord {
            seq_id: seq,
            participant: who,
            kind,
            inputs,
            output_oid: oid,
            output_hash: dummy_bytes(&mut rng, 32),
            annotation: Vec::new(),
            // Sized like a 1024-bit RSA signature, cryptographically dummy.
            checksum: dummy_bytes(&mut rng, 128),
            checksum_format: ChecksumFormat::PerRecord,
        };
        db.append(rec.to_stored()).expect("in-memory append");
    }
    if ops_in_cluster > 0 {
        closers.push(last_agg.take().unwrap_or(last_created));
        firsts.push(cluster[0].0);
    }

    // Sample at most 1024 clusters, evenly across the log's life.
    let step = (closers.len() / 1024).max(1);
    let sample = |v: &[ObjectId]| v.iter().copied().step_by(step).take(1024).collect();

    LineageDag {
        db,
        records,
        objects: next_oid,
        participants,
        targets: sample(&closers),
        roots: sample(&firsts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = build_lineage_db(3000, 42);
        let b = build_lineage_db(3000, 42);
        assert_eq!(a.records, 3000);
        assert_eq!(a.objects, b.objects);
        let (ra, rb) = (a.db.all_records(), b.db.all_records());
        assert_eq!(ra, rb);
        // A different seed produces a different log.
        let c = build_lineage_db(3000, 43);
        assert_ne!(ra, c.db.all_records());
    }

    #[test]
    fn records_decode_and_follow_seq_rules() {
        let dag = build_lineage_db(2000, 7);
        let mut heads: std::collections::HashMap<ObjectId, u64> = Default::default();
        for stored in dag.db.all_records() {
            let rec = ProvenanceRecord::from_stored(&stored).expect("decodable");
            match rec.kind {
                RecordKind::Insert => assert_eq!(rec.seq_id, 0),
                RecordKind::Update => {
                    let prev = rec.inputs[0].prev_seq.unwrap();
                    assert_eq!(rec.seq_id, prev + 1);
                    assert_eq!(heads[&rec.output_oid], prev);
                }
                RecordKind::Aggregate => {
                    let max = rec.inputs.iter().filter_map(|i| i.prev_seq).max().unwrap();
                    assert_eq!(rec.seq_id, max + 1);
                }
            }
            heads.insert(rec.output_oid, rec.seq_id);
        }
        assert!(!dag.targets.is_empty());
        assert!(dag.participants >= 4);
    }

    #[test]
    fn cluster_bound_caps_backward_closures() {
        use tep_core::slice::{backward_closure, QueryBounds};
        let dag = build_lineage_db(4000, 11);
        for &t in dag.targets.iter().take(16) {
            let latest = dag.db.latest_for(t).unwrap();
            let closure = backward_closure(
                &QueryBounds::default(),
                (t, latest.seq_id),
                LINEAGE_CLUSTER_OPS + 1,
                |oid, seq| {
                    dag.db
                        .records_for(oid)
                        .iter()
                        .find(|r| r.seq_id == seq)
                        .and_then(|r| ProvenanceRecord::from_stored(r).ok())
                },
            );
            assert!(
                !closure.truncated,
                "closure of {t:?} exceeds the cluster bound"
            );
        }
    }
}
