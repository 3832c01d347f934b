//! Property tests for the incremental (dirty-log) subtree-hash cache and
//! the parallel crypto pipeline.
//!
//! The economical strategy's entire correctness burden is "a synced cache
//! is indistinguishable from recomputing every hash from scratch" — these
//! tests drive arbitrary operation sequences through a [`Forest`] +
//! [`HashCache`] pair and check that equivalence after every single
//! mutation, plus the batch pipeline's bit-equality with serial signing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use tepdb::core::{subtree_hash, HashCache, HashingStrategy};
use tepdb::model::ObjectId;
use tepdb::prelude::*;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// An abstract mutation for generated forest histories.
#[derive(Clone, Debug)]
enum FOp {
    Insert {
        parent_choice: usize,
        value: i64,
    },
    Update {
        target_choice: usize,
        value: i64,
    },
    Delete {
        target_choice: usize,
    },
    Aggregate {
        a_choice: usize,
        b_choice: usize,
        copy: bool,
    },
}

fn f_op() -> impl Strategy<Value = FOp> {
    prop_oneof![
        3 => (any::<usize>(), any::<i64>()).prop_map(|(p, v)| FOp::Insert {
            parent_choice: p,
            value: v
        }),
        3 => (any::<usize>(), any::<i64>()).prop_map(|(t, v)| FOp::Update {
            target_choice: t,
            value: v
        }),
        2 => any::<usize>().prop_map(|t| FOp::Delete { target_choice: t }),
        1 => (any::<usize>(), any::<usize>(), any::<bool>()).prop_map(|(a, b, copy)| {
            FOp::Aggregate {
                a_choice: a,
                b_choice: b,
                copy,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every mutation, syncing the dirty log and reading any root
    /// from the warm cache gives exactly the hash a from-scratch recompute
    /// gives — for arbitrary interleavings of inserts, updates, deletes and
    /// aggregations (both modes).
    #[test]
    fn cached_hashes_equal_full_recompute(ops in prop::collection::vec(f_op(), 1..32)) {
        let mut f = Forest::new();
        let mut cache = HashCache::new(ALG);
        let seed_root = f.insert(Value::Int(0), None).unwrap();
        let mut live: Vec<ObjectId> = vec![seed_root];

        for op in &ops {
            match op {
                FOp::Insert { parent_choice, value } => {
                    let parent = if parent_choice % 4 == 0 {
                        None
                    } else {
                        Some(live[parent_choice % live.len()])
                    };
                    let id = f.insert(Value::Int(*value), parent).unwrap();
                    live.push(id);
                }
                FOp::Update { target_choice, value } => {
                    let target = live[target_choice % live.len()];
                    f.update(target, Value::Int(*value)).unwrap();
                }
                FOp::Delete { target_choice } => {
                    let target = live[target_choice % live.len()];
                    if target != live[0]
                        && f.node(target).is_some_and(|n| n.is_leaf())
                    {
                        f.delete(target).unwrap();
                        live.retain(|&id| id != target);
                    }
                }
                FOp::Aggregate { a_choice, b_choice, copy } => {
                    let a = live[a_choice % live.len()];
                    let b = live[b_choice % live.len()];
                    if a == b
                        || f.ancestors(a).contains(&b)
                        || f.ancestors(b).contains(&a)
                    {
                        continue;
                    }
                    let mode = if *copy {
                        AggregateMode::CopySubtrees
                    } else {
                        AggregateMode::Atomic
                    };
                    let id = f.aggregate(&[a, b], Value::Int(-1), mode).unwrap();
                    live.push(id);
                }
            }

            // The incremental step: drain dirty marks, then every root's
            // cached hash must equal an independent full recompute.
            cache.sync(&mut f);
            let roots: Vec<ObjectId> = f.roots().collect();
            for r in roots {
                let cached = cache.get_or_compute(&f, r);
                prop_assert_eq!(cached, subtree_hash(ALG, &f, r));
            }
            prop_assert!(f.dirty_marks().is_empty());
        }
    }
}

struct SignerWorld {
    signer: Participant,
}

fn signer_world() -> &'static SignerWorld {
    static WORLD: OnceLock<SignerWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xD1B7);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        SignerWorld {
            signer: ca.enroll(ParticipantId(1), 512, &mut rng),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `complex_per_record` with any worker count produces a provenance
    /// store byte-identical to its single-worker run.
    #[test]
    fn parallel_batch_signing_is_bit_identical(
        vals in prop::collection::vec(any::<i64>(), 1..10),
        threads in 2usize..6,
    ) {
        let w = signer_world();
        let run = |threads: usize| {
            let mut t = ProvenanceTracker::new(
                TrackerConfig { alg: ALG, strategy: HashingStrategy::Economical },
                Arc::new(ProvenanceDb::in_memory()),
            );
            let (root, _) = t.insert(&w.signer, Value::text("db"), None).unwrap();
            let cells: Vec<ObjectId> = vals
                .iter()
                .map(|&v| t.insert(&w.signer, Value::Int(v), Some(root)).unwrap().0)
                .collect();
            let ops: Vec<PrimitiveOp> = cells
                .iter()
                .zip(&vals)
                .map(|(&c, &v)| PrimitiveOp::Update { id: c, value: Value::Int(v ^ 1) })
                .collect();
            t.complex_per_record(&w.signer, &ops, &[], threads).unwrap();
            t.db().all_records()
        };
        prop_assert_eq!(run(1), run(threads));
    }
}
