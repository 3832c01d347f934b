//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§5).
//!
//! Each `run_*` function is pure measurement machinery shared by the
//! `repro` binary (which prints paper-style tables) and the Criterion
//! benches (which wrap the same code for statistically rigorous timing).

use crate::stats::{ns_to_ms, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use tep_core::hashing::{forest_hash, HashCache, HashingStrategy};
use tep_core::prelude::*;
use tep_core::Metrics;
use tep_crypto::pki::Participant;
use tep_model::{Forest, ObjectId};
use tep_storage::ProvenanceDb;
use tep_workloads::{
    paper_database, setup_a_updates, setup_b_delete_rows, setup_b_insert_rows,
    setup_b_update_cells, setup_c_mix, stream_title_database, ComplexOp, MixSpec, TablePlan,
    PAPER_C_MIXES, PAPER_TABLES,
};

/// Shared experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Hash algorithm (the paper used SHA-1).
    pub alg: HashAlgorithm,
    /// RSA modulus size (the paper used 1024-bit keys → 128-byte checksums).
    pub key_bits: usize,
    /// Repetitions per data point (the paper used 100).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            alg: HashAlgorithm::Sha1,
            key_bits: 1024,
            runs: 5,
            seed: 2009,
        }
    }
}

impl ExperimentConfig {
    /// Enrolls a signer (and its key directory) for tracked experiments.
    pub fn make_signer(&self) -> (Participant, KeyDirectory) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5157_9CA5);
        let ca = CertificateAuthority::new(self.key_bits.max(512), self.alg, &mut rng);
        let signer = ca.enroll(ParticipantId(1), self.key_bits, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), self.alg);
        keys.register(signer.certificate().clone()).unwrap();
        (signer, keys)
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — average hashing time for a database vs. size
// ---------------------------------------------------------------------------

/// One Figure 6 data point.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Number of tables in the combination (Table 1(b)).
    pub tables: usize,
    /// Total node count.
    pub nodes: usize,
    /// Full-database hashing time (ms).
    pub time_ms: Summary,
}

/// Hashes each of the four paper databases from scratch, `cfg.runs` times.
pub fn run_fig6(cfg: &ExperimentConfig) -> Vec<Fig6Row> {
    (1..=4)
        .map(|k| {
            let db = paper_database(k, cfg.seed + k as u64);
            let samples: Vec<f64> = (0..cfg.runs)
                .map(|_| {
                    let mut cache = HashCache::new(cfg.alg);
                    let t = Instant::now();
                    let h = forest_hash(cfg.alg, &db.forest, &mut cache);
                    let elapsed = ns_to_ms(t.elapsed().as_nanos() as u64);
                    std::hint::black_box(h);
                    elapsed
                })
                .collect();
            Fig6Row {
                tables: k,
                nodes: db.node_count(),
                time_ms: Summary::of(&samples),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 7 — hashing the output tree: Basic vs Economical
// ---------------------------------------------------------------------------

/// One Figure 7 data point.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Number of cells updated by the complex operation.
    pub cells: usize,
    /// Number of distinct rows the updates land in.
    pub rows: usize,
    /// Output-tree hashing time with the Basic strategy (ms).
    pub basic_ms: Summary,
    /// Output-tree hashing time with the Economical strategy (ms).
    pub economical_ms: Summary,
}

/// The paper's Setup A sweep: 1 update; 400n updates in 400n rows
/// (n = 1…10); 4000n updates in 4000 rows (n = 2…8).
pub fn fig7_cell_counts() -> Vec<(usize, usize)> {
    let mut out = vec![(1usize, 1usize)];
    for n in 1..=10 {
        out.push((400 * n, 400 * n));
    }
    for n in 2..=8 {
        out.push((4000 * n, 4000));
    }
    out
}

/// Measures output-tree hashing only (no signing — Figure 7 isolates the
/// hashing strategies) across the full paper sweep.
pub fn run_fig7(cfg: &ExperimentConfig) -> Vec<Fig7Row> {
    run_fig7_points(cfg, &fig7_cell_counts())
}

/// Figure 7 measurement for specific `(cells, rows)` points.
pub fn run_fig7_points(cfg: &ExperimentConfig, points: &[(usize, usize)]) -> Vec<Fig7Row> {
    points
        .iter()
        .copied()
        .map(|(cells, rows)| {
            let mut basic = Vec::with_capacity(cfg.runs);
            let mut economical = Vec::with_capacity(cfg.runs);
            for run in 0..cfg.runs {
                let db = paper_database(1, cfg.seed);
                let mut forest = db.forest;
                let handle = &db.tables[0];
                let ops = setup_a_updates(handle, cells, rows, cfg.seed + run as u64);

                // Warm a cache on the pre-state (the "input tree" is hashed
                // either way; Figure 7 plots the OUTPUT walk).
                let mut cache = HashCache::new(cfg.alg);
                cache.get_or_compute(&forest, db.root);
                forest.clear_dirty();

                // Apply the updates; the forest's dirty log records the
                // touched paths.
                for op in &ops {
                    op.apply(&mut forest).expect("setup A ops are valid");
                }

                // Economical: drain the dirty log, recompute bottom-up.
                let mut eco_cache = cache.clone();
                let t = Instant::now();
                eco_cache.sync(&mut forest);
                let h1 = eco_cache.get_or_compute(&forest, db.root);
                economical.push(ns_to_ms(t.elapsed().as_nanos() as u64));

                // Basic: full re-walk of the output tree.
                let mut basic_cache = cache;
                let t = Instant::now();
                basic_cache.clear();
                let h2 = basic_cache.get_or_compute(&forest, db.root);
                basic.push(ns_to_ms(t.elapsed().as_nanos() as u64));

                assert_eq!(h1, h2, "strategies must agree");
            }
            Fig7Row {
                cells,
                rows,
                basic_ms: Summary::of(&basic),
                economical_ms: Summary::of(&economical),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 — time/space overhead by operation type (Setup B)
// ---------------------------------------------------------------------------

/// The four Setup B workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetupBWorkload {
    /// 500 row-delete complex operations.
    Deletes500,
    /// 500 row-insert complex operations.
    Inserts500,
    /// 4000 cell updates grouped into 500 per-row complex operations.
    Updates4000In500Rows,
    /// 4000 cell updates as 4000 single-update complex operations.
    Updates4000In4000Rows,
}

impl SetupBWorkload {
    /// All four workloads in the paper's order.
    pub const ALL: [SetupBWorkload; 4] = [
        SetupBWorkload::Deletes500,
        SetupBWorkload::Inserts500,
        SetupBWorkload::Updates4000In500Rows,
        SetupBWorkload::Updates4000In4000Rows,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SetupBWorkload::Deletes500 => "500 row deletes",
            SetupBWorkload::Inserts500 => "500 row inserts",
            SetupBWorkload::Updates4000In500Rows => "4000 updates / 500 rows",
            SetupBWorkload::Updates4000In4000Rows => "4000 updates / 4000 rows",
        }
    }
}

/// One Figure 8/9 data point.
#[derive(Clone, Debug)]
pub struct SetupBRow {
    /// Which workload.
    pub workload: SetupBWorkload,
    /// Total checksum-overhead time across the workload (ms).
    pub total_ms: Summary,
    /// Phase breakdown (from the last run).
    pub metrics: Metrics,
}

/// Runs one Setup B workload once, returning accumulated metrics.
pub fn run_setup_b_once(
    cfg: &ExperimentConfig,
    signer: &Participant,
    workload: SetupBWorkload,
    run_seed: u64,
) -> Metrics {
    let db = paper_database(1, cfg.seed);
    let mut plan = TablePlan::new(
        &db.tables[0],
        PAPER_TABLES[0].num_attrs,
        db.forest.next_id_hint(),
    );
    let groups: Vec<ComplexOp> = match workload {
        SetupBWorkload::Deletes500 => setup_b_delete_rows(&mut plan, 500, run_seed),
        SetupBWorkload::Inserts500 => setup_b_insert_rows(&mut plan, 500, run_seed),
        SetupBWorkload::Updates4000In500Rows => setup_b_update_cells(&plan, 4000, 500, run_seed),
        SetupBWorkload::Updates4000In4000Rows => setup_b_update_cells(&plan, 4000, 4000, run_seed),
    };
    let mut tracker = ProvenanceTracker::adopt(
        db.forest,
        TrackerConfig {
            alg: cfg.alg,
            strategy: HashingStrategy::Economical,
        },
        Arc::new(ProvenanceDb::in_memory()),
    );
    let mut total = Metrics::default();
    for group in &groups {
        // Figures 8/9 measure the paper's scheme: one signature per record.
        let report = tracker
            .complex_per_record(signer, group, &[], 1)
            .expect("setup B ops are valid");
        total.accumulate(&report.metrics);
    }
    total
}

/// Runs all Setup B workloads `cfg.runs` times (Figures 8 and 9).
pub fn run_setup_b(cfg: &ExperimentConfig, signer: &Participant) -> Vec<SetupBRow> {
    SetupBWorkload::ALL
        .iter()
        .map(|&workload| {
            let mut samples = Vec::with_capacity(cfg.runs);
            let mut last = Metrics::default();
            for run in 0..cfg.runs {
                let m = run_setup_b_once(cfg, signer, workload, cfg.seed + 31 * run as u64);
                samples.push(ns_to_ms(m.total_ns()));
                last = m;
            }
            SetupBRow {
                workload,
                total_ms: Summary::of(&samples),
                metrics: last,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 10 & 11 — time/space for mixed operations (Setup C)
// ---------------------------------------------------------------------------

/// One Figure 10/11 data point.
#[derive(Clone, Debug)]
pub struct SetupCRow {
    /// The operation mix.
    pub mix: MixSpec,
    /// Total checksum-overhead time (ms).
    pub total_ms: Summary,
    /// Phase breakdown (from the last run): hashing / signing / storing.
    pub metrics: Metrics,
}

/// Runs one Setup C mix once.
pub fn run_setup_c_once(
    cfg: &ExperimentConfig,
    signer: &Participant,
    mix: MixSpec,
    run_seed: u64,
) -> Metrics {
    let db = paper_database(1, cfg.seed);
    let mut plan = TablePlan::new(
        &db.tables[0],
        PAPER_TABLES[0].num_attrs,
        db.forest.next_id_hint(),
    );
    let groups = setup_c_mix(&mut plan, mix, run_seed);
    let mut tracker = ProvenanceTracker::adopt(
        db.forest,
        TrackerConfig {
            alg: cfg.alg,
            strategy: HashingStrategy::Economical,
        },
        Arc::new(ProvenanceDb::in_memory()),
    );
    let mut total = Metrics::default();
    for group in &groups {
        // Figures 10/11 measure the paper's scheme: one signature per record.
        let report = tracker
            .complex_per_record(signer, group, &[], 1)
            .expect("setup C ops are valid");
        total.accumulate(&report.metrics);
    }
    total
}

/// Runs every Setup C mix `cfg.runs` times (Figures 10 and 11).
pub fn run_setup_c(cfg: &ExperimentConfig, signer: &Participant) -> Vec<SetupCRow> {
    PAPER_C_MIXES
        .iter()
        .map(|&mix| {
            let mut samples = Vec::with_capacity(cfg.runs);
            let mut last = Metrics::default();
            for run in 0..cfg.runs {
                let m = run_setup_c_once(cfg, signer, mix, cfg.seed + 97 * run as u64);
                samples.push(ns_to_ms(m.total_ns()));
                last = m;
            }
            SetupCRow {
                mix,
                total_ms: Summary::of(&samples),
                metrics: last,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §5.2 — large-scale streaming hash
// ---------------------------------------------------------------------------

/// Result of the streaming hash experiment.
#[derive(Clone, Debug)]
pub struct LargeResult {
    /// Rows generated and hashed.
    pub rows: u64,
    /// Total nodes hashed.
    pub nodes: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Average per-node hashing time in milliseconds (the paper reports
    /// 0.02156 ms/node on 2009 hardware).
    pub ms_per_node: f64,
}

/// Streams and times the Title database at the given row count.
pub fn run_large(alg: HashAlgorithm, rows: u64) -> LargeResult {
    let t = Instant::now();
    let result = stream_title_database(alg, rows);
    let seconds = t.elapsed().as_secs_f64();
    LargeResult {
        rows,
        nodes: result.nodes,
        seconds,
        ms_per_node: seconds * 1e3 / result.nodes as f64,
    }
}

// ---------------------------------------------------------------------------
// Extension X2 — local vs global checksum chaining (§3.2)
// ---------------------------------------------------------------------------

/// Result of the chaining-concurrency ablation.
#[derive(Clone, Debug)]
pub struct ChainingResult {
    /// Worker thread count.
    pub threads: usize,
    /// Updates per thread.
    pub ops_per_thread: usize,
    /// Wall time with per-object (local) chains, one ledger per thread (ms).
    pub local_ms: f64,
    /// Wall time with one global chain serializing all participants (ms).
    pub global_ms: f64,
}

impl ChainingResult {
    /// Updates per second achieved by each thread under local chaining.
    pub fn local_ops_per_thread_per_sec(&self) -> f64 {
        self.ops_per_thread as f64 / (self.local_ms / 1e3)
    }

    /// Updates per second achieved by each thread under global chaining.
    pub fn global_ops_per_thread_per_sec(&self) -> f64 {
        self.ops_per_thread as f64 / (self.global_ms / 1e3)
    }
}

/// Busy-waits for exactly `d`. `thread::sleep` rounds up to the OS timer
/// granularity and jitters with scheduler load (±15% swings observed at
/// 200µs), which drowned out the local-vs-global signal; a calibrated spin
/// is deterministic to well under a microsecond.
fn spin_wait(d: std::time::Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Compares per-object chains (participants work in parallel) against a
/// single global chain (every record serialized through one mutex-guarded
/// chain head) — the §3.2 argument for local chaining.
///
/// `commit_latency` models the per-record commit cost that cannot be
/// overlapped under a global chain (a durable write or a round-trip to a
/// shared provenance repository): building record *i+1* of a chain needs
/// record *i*'s checksum, so a **global** chain pays the latency
/// sequentially across *all* participants, while **local** chains pay it
/// sequentially only within each participant's own object and overlap
/// across participants. This keeps the comparison meaningful even on a
/// single-core host, where raw CPU parallelism cannot show.
pub fn run_chaining(
    cfg: &ExperimentConfig,
    threads: usize,
    ops_per_thread: usize,
) -> ChainingResult {
    let participants = chaining_participants(cfg, threads);
    ChainingResult {
        threads,
        ops_per_thread,
        local_ms: chaining_local_ms(cfg, &participants, ops_per_thread),
        global_ms: chaining_global_ms(cfg, &participants, ops_per_thread),
    }
}

/// The simulated per-record commit latency (durable write / repository
/// round-trip) that chaining order forces to serialize.
pub const CHAINING_COMMIT_LATENCY: std::time::Duration = std::time::Duration::from_micros(200);

/// Enrolls one participant per worker thread, deterministically from
/// `cfg.seed`.
pub fn chaining_participants(cfg: &ExperimentConfig, threads: usize) -> Vec<Participant> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A1);
    let ca = CertificateAuthority::new(cfg.key_bits.max(512), cfg.alg, &mut rng);
    (0..threads)
        .map(|i| ca.enroll(ParticipantId(i as u64 + 1), cfg.key_bits, &mut rng))
        .collect()
}

/// Local chains: each participant owns an object; chains never contend
/// (one ledger per thread, as §3.2 describes). Commit latency overlaps
/// across participants. Returns wall time in ms.
pub fn chaining_local_ms(
    cfg: &ExperimentConfig,
    participants: &[Participant],
    ops_per_thread: usize,
) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for p in participants {
            s.spawn(move || {
                let mut ledger = AtomicLedger::new(cfg.alg, Arc::new(ProvenanceDb::in_memory()));
                let obj = ledger.insert(p, tep_model::Value::Int(0)).unwrap();
                for i in 0..ops_per_thread as i64 {
                    ledger.update(p, obj, tep_model::Value::Int(i)).unwrap();
                    spin_wait(CHAINING_COMMIT_LATENCY);
                }
            });
        }
    });
    ns_to_ms(t.elapsed().as_nanos() as u64)
}

/// Global chain: one shared ledger and one shared object — every record
/// must take the lock, extend the single chain, and commit before the
/// next participant can chain onto it. Returns wall time in ms.
pub fn chaining_global_ms(
    cfg: &ExperimentConfig,
    participants: &[Participant],
    ops_per_thread: usize,
) -> f64 {
    use parking_lot::Mutex;

    let ledger = Mutex::new(AtomicLedger::new(
        cfg.alg,
        Arc::new(ProvenanceDb::in_memory()),
    ));
    let obj = ledger
        .lock()
        .insert(&participants[0], tep_model::Value::Int(0))
        .unwrap();
    let t = Instant::now();
    std::thread::scope(|s| {
        for p in participants {
            let ledger = &ledger;
            s.spawn(move || {
                for i in 0..ops_per_thread as i64 {
                    let mut guard = ledger.lock();
                    guard.update(p, obj, tep_model::Value::Int(i)).unwrap();
                    // The commit is part of the critical section: the next
                    // record needs this record's (durable) checksum.
                    spin_wait(CHAINING_COMMIT_LATENCY);
                }
            });
        }
    });
    ns_to_ms(t.elapsed().as_nanos() as u64)
}

// ---------------------------------------------------------------------------
// Extension — parameter ablation: hash algorithm × RSA key size
// ---------------------------------------------------------------------------

/// One ablation data point.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Hash algorithm.
    pub alg: HashAlgorithm,
    /// RSA modulus bits.
    pub key_bits: usize,
    /// Total checksum overhead for the fixed workload (ms).
    pub total_ms: Summary,
    /// Phase breakdown from the last run.
    pub metrics: Metrics,
    /// Bytes per stored checksum row.
    pub row_bytes_per_record: u64,
}

/// Fixed workload for the ablation: 100 single-cell updates (each a
/// complex op producing 4 records on the depth-4 tree).
fn ablation_workload(cfg: &ExperimentConfig) -> (tep_model::Forest, Vec<ComplexOp>) {
    let db = paper_database(1, cfg.seed);
    let plan = TablePlan::new(
        &db.tables[0],
        PAPER_TABLES[0].num_attrs,
        db.forest.next_id_hint(),
    );
    let groups = setup_b_update_cells(&plan, 100, 100, cfg.seed ^ 0xAB);
    (db.forest, groups)
}

/// Sweeps the scheme's two cryptographic parameters — hash function
/// (SHA-1 as in the paper vs SHA-256) and RSA key size (512/1024/2048) —
/// over a fixed update workload. Quantifies the cost of upgrading the
/// paper's 2009 parameters to modern ones.
pub fn run_ablation(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    let mut out = Vec::new();
    for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
        for key_bits in [512usize, 1024, 2048] {
            let sub_cfg = ExperimentConfig {
                alg,
                key_bits,
                ..*cfg
            };
            let (signer, _) = sub_cfg.make_signer();
            let mut samples = Vec::with_capacity(cfg.runs);
            let mut last = Metrics::default();
            for _ in 0..cfg.runs {
                let (forest, groups) = ablation_workload(&sub_cfg);
                let mut tracker = ProvenanceTracker::adopt(
                    forest,
                    TrackerConfig {
                        alg,
                        strategy: HashingStrategy::Economical,
                    },
                    Arc::new(ProvenanceDb::in_memory()),
                );
                let mut total = Metrics::default();
                for group in &groups {
                    // Row sizes per (alg, key) are the paper's per-record rows.
                    let report = tracker
                        .complex_per_record(&signer, group, &[], 1)
                        .expect("valid ops");
                    total.accumulate(&report.metrics);
                }
                samples.push(ns_to_ms(total.total_ns()));
                last = total;
            }
            out.push(AblationRow {
                alg,
                key_bits,
                total_ms: Summary::of(&samples),
                row_bytes_per_record: last.row_bytes.checked_div(last.records).unwrap_or(0),
                metrics: last,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Extension — verification cost vs. history length
// ---------------------------------------------------------------------------

/// One verification-cost data point.
#[derive(Clone, Debug)]
pub struct VerifyRow {
    /// Chain length (records).
    pub chain_len: usize,
    /// Time to collect + verify the provenance object (ms).
    pub verify_ms: Summary,
}

/// Measures recipient-side verification time as history grows.
pub fn run_verify_cost(cfg: &ExperimentConfig, lens: &[usize]) -> Vec<VerifyRow> {
    let (signer, keys) = cfg.make_signer();
    lens.iter()
        .map(|&len| {
            assert!(len >= 1);
            let mut ledger = AtomicLedger::new(cfg.alg, Arc::new(ProvenanceDb::in_memory()));
            let obj = ledger.insert(&signer, tep_model::Value::Int(0)).unwrap();
            for i in 1..len as i64 {
                ledger
                    .update(&signer, obj, tep_model::Value::Int(i))
                    .unwrap();
            }
            let hash = ledger.object_hash(obj).unwrap();
            let samples: Vec<f64> = (0..cfg.runs)
                .map(|_| {
                    let t = Instant::now();
                    let prov = ledger.provenance_of(obj).unwrap();
                    let v = Verifier::new(&keys, cfg.alg).verify(&hash, &prov);
                    let elapsed = ns_to_ms(t.elapsed().as_nanos() as u64);
                    assert!(v.verified());
                    elapsed
                })
                .collect();
            VerifyRow {
                chain_len: len,
                verify_ms: Summary::of(&samples),
            }
        })
        .collect()
}

/// Builds a bare forest for hashing micro-experiments (used by benches).
pub fn table1_forest(seed: u64) -> (Forest, ObjectId) {
    let db = paper_database(1, seed);
    (db.forest, db.root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            alg: HashAlgorithm::Sha256,
            key_bits: 512,
            runs: 2,
            seed: 7,
        }
    }

    #[test]
    fn fig6_rows_scale_with_nodes() {
        let cfg = tiny_cfg();
        let rows = run_fig6(&cfg);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].nodes, 36_002);
        assert_eq!(rows[3].nodes, 118_005);
        // Time grows with database size.
        assert!(rows[3].time_ms.mean > rows[0].time_ms.mean);
    }

    #[test]
    fn fig7_cell_counts_match_paper_sweep() {
        let counts = fig7_cell_counts();
        assert_eq!(counts.len(), 1 + 10 + 7);
        assert_eq!(counts[0], (1, 1));
        assert_eq!(counts[10], (4000, 4000));
        assert_eq!(counts[17], (32_000, 4000));
    }

    #[test]
    fn fig7_economical_beats_basic_for_small_updates() {
        let cfg = tiny_cfg();
        // Only measure the smallest point to keep the test fast.
        let rows = run_fig7_points(&ExperimentConfig { runs: 1, ..cfg }, &[(1, 1)]);
        let one = &rows[0];
        assert!(
            one.economical_ms.mean < one.basic_ms.mean,
            "1-cell update: economical {} should beat basic {}",
            one.economical_ms.mean,
            one.basic_ms.mean
        );
    }

    #[test]
    fn setup_b_record_counts_match_analysis() {
        let cfg = ExperimentConfig {
            runs: 1,
            ..tiny_cfg()
        };
        let (signer, _) = cfg.make_signer();
        // Deletes: each row-delete op touches only table+root → 2 records.
        let m = run_setup_b_once(&cfg, &signer, SetupBWorkload::Deletes500, 3);
        assert_eq!(m.records, 500 * 2);
        // Inserts: 9 created + table + root = 11 records per op.
        let m = run_setup_b_once(&cfg, &signer, SetupBWorkload::Inserts500, 3);
        assert_eq!(m.records, 500 * 11);
        // Updates in 500 rows: 8 cells + row + table + root = 11 per op.
        let m = run_setup_b_once(&cfg, &signer, SetupBWorkload::Updates4000In500Rows, 3);
        assert_eq!(m.records, 500 * 11);
        // Updates in 4000 rows: cell + row + table + root = 4 per op.
        let m = run_setup_b_once(&cfg, &signer, SetupBWorkload::Updates4000In4000Rows, 3);
        assert_eq!(m.records, 4000 * 4);
    }

    #[test]
    fn setup_c_space_decreases_with_delete_share() {
        let cfg = ExperimentConfig {
            runs: 1,
            ..tiny_cfg()
        };
        let (signer, _) = cfg.make_signer();
        let low_del = run_setup_c_once(&cfg, &signer, PAPER_C_MIXES[0], 5);
        let high_del = run_setup_c_once(&cfg, &signer, PAPER_C_MIXES[3], 5);
        assert!(
            high_del.row_bytes < low_del.row_bytes,
            "more deletes → fewer records → less space ({} vs {})",
            high_del.row_bytes,
            low_del.row_bytes
        );
    }

    #[test]
    fn large_scales_node_count() {
        let r = run_large(HashAlgorithm::Sha1, 1000);
        assert_eq!(r.nodes, 3002);
        assert!(r.seconds > 0.0);
        assert!(r.ms_per_node > 0.0);
    }

    #[test]
    fn verify_cost_grows_with_chain() {
        let cfg = tiny_cfg();
        let rows = run_verify_cost(&cfg, &[2, 32]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].verify_ms.mean > rows[0].verify_ms.mean);
    }

    #[test]
    fn chaining_both_modes_complete() {
        let cfg = tiny_cfg();
        let r = run_chaining(&cfg, 2, 3);
        assert!(r.local_ms > 0.0);
        assert!(r.global_ms > 0.0);
    }
}
