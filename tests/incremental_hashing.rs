//! Property tests for the incremental (dirty-log) subtree-hash cache and
//! the parallel crypto pipeline.
//!
//! The economical strategy's entire correctness burden is "a synced cache
//! is indistinguishable from recomputing every hash from scratch" — these
//! tests drive arbitrary operation sequences through a [`Forest`] +
//! [`HashCache`] pair and check that equivalence after every single
//! mutation, plus the batch pipeline's bit-equality with serial signing.
//! They also pin that a warm tracked operation's hashing work does not grow
//! with the number of roots, and that a restored tracker's cold cache
//! leaves the records it writes unchanged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use tepdb::core::{subtree_hash, HashCache, HashingStrategy};
use tepdb::model::ObjectId;
use tepdb::obs::Registry;
use tepdb::prelude::*;
use tepdb::storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tepdb::storage::{load_forest_with, save_forest_with};

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

    /// After every sync, rehashing the roots it dirtied leaves every root's
    /// cached hash equal to a from-scratch recompute — for arbitrary
    /// interleavings of inserts, updates, deletes and aggregations (both
    /// modes), synced after one to several mutations at a time.
    #[test]
    fn cached_hashes_equal_full_recompute(
        ops in prop::collection::vec((f_op(), any::<bool>()), 1..32),
    ) {
        let mut f = Forest::new();
        let mut cache = HashCache::new(ALG);
        let seed_root = f.insert(Value::Int(0), None).unwrap();
        let mut live: Vec<ObjectId> = vec![seed_root];

        for (i, (op, sync)) in ops.iter().enumerate() {
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
            if !sync && i + 1 < ops.len() {
                continue;
            }

            // The incremental step: drain dirty marks and rehash the roots
            // they dirtied; then every root's cached hash must already
            // equal an independent full recompute.
            cache.sync(&mut f);
            cache.rehash_roots(&f);
            for r in f.roots() {
                let full = subtree_hash(ALG, &f, r);
                prop_assert_eq!(cache.get(r), Some(full.as_slice()));
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

const ECONOMICAL: TrackerConfig = TrackerConfig {
    alg: ALG,
    strategy: HashingStrategy::Economical,
};

/// A warm tracked update does the same hashing work — cache hits, cache
/// misses and nodes hashed — on a forest with 2 roots as on one with
/// 2 + 2 000 aggregate roots: it visits only the root it dirtied.
#[test]
fn warm_update_work_does_not_grow_with_the_root_count() {
    let w = signer_world();
    let run = |aggregates: i64| {
        let mut f = Forest::new();
        let table = f.insert(Value::text("t"), None).unwrap();
        let row = f.insert(Value::Null, Some(table)).unwrap();
        let cell = f.insert(Value::Int(0), Some(row)).unwrap();
        let other = f.insert(Value::Int(1), None).unwrap();
        for i in 0..aggregates {
            f.aggregate(&[row, other], Value::Int(i), AggregateMode::Atomic)
                .unwrap();
        }
        let registry = Registry::new();
        let mut t = ProvenanceTracker::adopt(f, ECONOMICAL, Arc::new(ProvenanceDb::in_memory()));
        t.attach_obs(&registry);
        t.update(&w.signer, cell, Value::Int(1)).unwrap(); // the cold walk
        let counts = || {
            (
                registry.counter_value("tep_core_cache_hits_total"),
                registry.counter_value("tep_core_cache_misses_total"),
            )
        };
        let (hits, misses) = counts();
        let m = t.update(&w.signer, cell, Value::Int(2)).unwrap();
        let (hits_after, misses_after) = counts();
        (hits_after - hits, misses_after - misses, m.nodes_hashed)
    };
    let two_roots = run(0);
    assert_eq!(two_roots.2, 3, "cell, row and table");
    assert_eq!(run(2_000), two_roots);
}

/// Runs a fixed tracked history of inserts, updates, deletes, complex
/// operations and aggregates; with `restore_midway` the second half runs on
/// a tracker restored from a snapshot of the first half's forest. Returns
/// every stored record and each final root's tracked hash, checked against
/// a full recompute.
fn tracked_history(
    config: TrackerConfig,
    restore_midway: bool,
) -> (Vec<StoredRecord>, Vec<Vec<u8>>) {
    let p = &signer_world().signer;
    let mut t = ProvenanceTracker::new(config, Arc::new(ProvenanceDb::in_memory()));
    let (db, _) = t.insert(p, Value::text("db"), None).unwrap();
    let (row, _) = t.insert(p, Value::Null, Some(db)).unwrap();
    let cells: Vec<ObjectId> = (0..4)
        .map(|i| t.insert(p, Value::Int(i), Some(row)).unwrap().0)
        .collect();
    let (other, _) = t.insert(p, Value::Int(7), None).unwrap();
    let (copy, _) = t
        .aggregate(
            p,
            &[row, other],
            Value::text("copy"),
            AggregateMode::CopySubtrees,
        )
        .unwrap();
    t.update(p, cells[1], Value::Int(10)).unwrap();
    t.delete(p, cells[3]).unwrap();
    t.complex(
        p,
        &[
            PrimitiveOp::Update {
                id: cells[0],
                value: Value::Int(20),
            },
            PrimitiveOp::Insert {
                id: None,
                value: Value::Int(21),
                parent: Some(row),
            },
            PrimitiveOp::Update {
                id: other,
                value: Value::Int(22),
            },
        ],
    )
    .unwrap();
    let (sum, _) = t
        .aggregate(p, &[cells[0], other], Value::Int(42), AggregateMode::Atomic)
        .unwrap();

    if restore_midway {
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        save_forest_with(Arc::clone(&vfs), t.forest(), "/history/forest.snap").unwrap();
        let forest = load_forest_with(vfs, "/history/forest.snap").unwrap();
        t = ProvenanceTracker::restore(forest, config, Arc::clone(t.db()));
    }

    t.update(p, cells[2], Value::Int(11)).unwrap();
    let copied_row = t.forest().node(copy).unwrap().children().next().unwrap();
    t.insert(p, Value::Int(30), Some(copied_row)).unwrap();
    t.delete(p, cells[0]).unwrap();
    t.complex(
        p,
        &[
            PrimitiveOp::Update {
                id: db,
                value: Value::text("db2"),
            },
            PrimitiveOp::Update {
                id: sum,
                value: Value::Int(43),
            },
        ],
    )
    .unwrap();
    t.aggregate(p, &[copy, db], Value::Null, AggregateMode::Atomic)
        .unwrap();
    t.update(p, other, Value::Int(8)).unwrap();

    let roots: Vec<ObjectId> = t.forest().roots().collect();
    let hashes = roots
        .into_iter()
        .map(|r| {
            let h = t.object_hash(r).unwrap();
            assert_eq!(h, subtree_hash(ALG, t.forest(), r));
            h
        })
        .collect();
    (t.db().all_records(), hashes)
}

/// A tracker restored in the middle of a history starts with a cold cache
/// and walks every root once; the records and hashes it goes on to produce
/// are byte-identical to an uninterrupted run's and to the Basic strategy's,
/// which rehashes everything on every operation.
#[test]
fn a_restore_midway_changes_no_record() {
    let basic = TrackerConfig {
        strategy: HashingStrategy::Basic,
        ..ECONOMICAL
    };
    let reference = tracked_history(basic, false);
    assert_eq!(tracked_history(ECONOMICAL, false), reference);
    assert_eq!(tracked_history(ECONOMICAL, true), reference);
}
