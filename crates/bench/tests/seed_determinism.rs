//! Seed-determinism regression: the whole pipeline — RSA keygen, PKCS#1
//! v1.5 signatures, record encoding, the durable CRC-framed log, and the
//! deterministic metric counts of an instrumented workload spanning every
//! layer — must be bit-reproducible from a seed. The paper-figure reruns
//! and `benchmarks/`' seeded workloads rely on it: two runs with the same
//! seed must produce byte-identical logs/signatures and identical
//! deterministic metric counts.

use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use tep_bench::experiments::ExperimentConfig;
use tep_core::hashing::HashingStrategy;
use tep_core::slice::{QueryOp, QuerySpec};
use tep_core::{ProvenanceTracker, TrackerConfig, Verifier};
use tep_model::Value;
use tep_net::{serve_with_registry, Catalog, Client, ClientConfig, ServerConfig};
use tep_obs::{MetricValue, Registry};
use tep_storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tep_storage::{record_recovery, ObservedVfs, ProvenanceDb};

fn small_config() -> ExperimentConfig {
    ExperimentConfig {
        key_bits: 512,
        ..Default::default()
    }
}

/// Runs a seeded workload onto a durable log and returns the raw log
/// bytes plus every record's signature.
fn durable_log_bytes(cfg: &ExperimentConfig) -> (Vec<u8>, Vec<Vec<u8>>) {
    let (signer, _keys) = cfg.make_signer();
    let vfs = FaultVfs::new(FaultConfig::default());
    let path = Path::new("/determinism.teplog");
    let db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), path).unwrap());
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: cfg.alg,
            ..Default::default()
        },
        Arc::clone(&db),
    );
    let (root, _) = tracker.insert(&signer, Value::text("dbase"), None).unwrap();
    let (row, _) = tracker.insert(&signer, Value::Null, Some(root)).unwrap();
    let mut cells = Vec::new();
    for i in 0..4i64 {
        let (cell, _) = tracker.insert(&signer, Value::Int(i), Some(row)).unwrap();
        cells.push(cell);
    }
    for (i, &cell) in cells.iter().enumerate() {
        tracker
            .update(&signer, cell, Value::Int(10 + i as i64))
            .unwrap();
    }
    db.sync().unwrap();

    let signatures = db
        .all_records()
        .iter()
        .map(|r| r.checksum.clone())
        .collect();
    let mut bytes = Vec::new();
    vfs.open_rw(path).unwrap().read_to_end(&mut bytes).unwrap();
    (bytes, signatures)
}

/// Runs a small, fully instrumented workload spanning every layer —
/// sign/verify (crypto), tracked inserts/updates and batch verification
/// (core), a durable store behind an [`ObservedVfs`] (storage), one verified
/// loopback fetch (net) and two verified queries — all recording into a
/// single registry. Returns the registry's deterministic counts (counter
/// values and histogram observation counts; histogram entries are suffixed
/// `_count`), sorted by name.
fn run_instrumented_metrics(cfg: &ExperimentConfig) -> Vec<(String, u64)> {
    let registry = Registry::new();
    let span = registry.span("instrumented_workload");

    // Crypto: signer + key directory with latency instrumentation.
    let (mut signer, mut keys) = cfg.make_signer();
    signer.attach_obs(&registry);
    keys.attach_obs(&registry);

    // Storage: a durable store on a deterministic in-memory disk, every I/O
    // operation counted by the ObservedVfs decorator.
    let vfs = ObservedVfs::wrap(FaultVfs::new(FaultConfig::default()), &registry);
    let db = Arc::new(ProvenanceDb::durable_with(vfs, Path::new("/metrics.teplog")).unwrap());
    record_recovery(&registry, &db.recovery());

    // Core: a tracked mini-database (root → table → 4 rows × 2 cells) with
    // cache/tracker instrumentation, then a round of cell updates.
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: cfg.alg,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    tracker.attach_obs(&registry);
    let (root, _) = tracker
        .insert(&signer, Value::text("metrics-db"), None)
        .unwrap();
    let (table, _) = tracker
        .insert(&signer, Value::text("t0"), Some(root))
        .unwrap();
    let mut cells = Vec::new();
    for r in 0..4i64 {
        let (row, _) = tracker.insert(&signer, Value::Null, Some(table)).unwrap();
        for c in 0..2i64 {
            let (cell, _) = tracker
                .insert(&signer, Value::Int(r * 2 + c), Some(row))
                .unwrap();
            cells.push(cell);
        }
    }
    for (i, &cell) in cells.iter().enumerate() {
        tracker
            .update(&signer, cell, Value::Int(100 + i as i64))
            .unwrap();
    }
    db.sync().unwrap();

    // Batch verification of the root object's full history.
    let prov = tep_core::provenance::collect(&db, root).unwrap();
    let hash = tracker.object_hash(root).unwrap();
    let mut verifier = Verifier::new(&keys, cfg.alg);
    verifier.attach_obs(&registry);
    assert!(verifier.verify(&hash, &prov).verified());

    // Net: one verified loopback fetch, server and client recording into
    // the same registry (connections, frames, bytes, streaming verify).
    let catalog = Arc::new(Catalog::new(
        tracker.forest().clone(),
        Arc::clone(&db),
        cfg.alg,
        vec![root],
    ));
    let server = serve_with_registry(
        catalog,
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
        registry.clone(),
    )
    .unwrap();
    let mut client = Client::new(server.addr(), ClientConfig::new(cfg.alg));
    client.attach_obs(&registry);
    let report = client.fetch_verified(root, &keys).unwrap();
    assert!(report.verification.verified());

    // Query: two verifiable QUERY/QRESULT round-trips through the same
    // server (whose engine records into the same registry) — ancestors of
    // the root and an audit of the signer — each slice proof re-verified
    // on receive. Deterministic: the workload above is seeded, so the
    // query counters and slice-size histogram counts are pinned too.
    let rep = client
        .query(&QuerySpec::new(QueryOp::Ancestors, root), &keys)
        .unwrap();
    assert!(rep.verification.verified());
    let rep = client.query(&QuerySpec::audit(signer.id()), &keys).unwrap();
    assert!(rep.verification.verified());
    server.shutdown();
    span.finish();

    registry
        .snapshot()
        .into_iter()
        // The event loop's wakeup counter ticks with wall time (every
        // `poll(2)` return, including idle timeout ticks), not with the
        // seeded workload — it is the one metric in the registry two
        // same-seed runs legitimately disagree on (see
        // `tep_obs::names::NET_EPOLL_WAKEUPS`).
        .filter(|s| s.name != tep_obs::names::NET_EPOLL_WAKEUPS)
        .map(|s| {
            let count = s.value.deterministic_count();
            let name = match s.value {
                MetricValue::Histogram { .. } => format!("{}_count", s.name),
                _ => s.name,
            };
            (name, count)
        })
        .collect()
}

#[test]
fn same_seed_produces_byte_identical_logs_and_signatures() {
    let cfg = small_config();
    let (bytes_a, sigs_a) = durable_log_bytes(&cfg);
    let (bytes_b, sigs_b) = durable_log_bytes(&cfg);
    assert!(!bytes_a.is_empty());
    assert_eq!(sigs_a, sigs_b, "signatures drifted between same-seed runs");
    assert_eq!(bytes_a, bytes_b, "log bytes drifted between same-seed runs");
}

#[test]
fn different_seed_produces_different_signatures() {
    // Guards against the test above passing vacuously (e.g. the seed being
    // ignored): a different seed yields different keys, hence signatures.
    let (_, sigs_a) = durable_log_bytes(&small_config());
    let (_, sigs_b) = durable_log_bytes(&ExperimentConfig {
        seed: 2010,
        ..small_config()
    });
    assert_ne!(sigs_a, sigs_b);
}

#[test]
fn same_seed_produces_identical_metric_counts() {
    let cfg = small_config();
    let a = run_instrumented_metrics(&cfg);
    let b = run_instrumented_metrics(&cfg);
    assert_eq!(a, b, "deterministic metric counts drifted");

    // The instrumented workload must actually span every layer: at least
    // one nonzero counter per crate prefix.
    for prefix in [
        "tep_crypto_",
        "tep_core_",
        "tep_storage_",
        "tep_net_",
        "tep_query_",
    ] {
        assert!(
            a.iter().any(|(name, v)| name.starts_with(prefix) && *v > 0),
            "no nonzero {prefix}* metric in {a:?}",
        );
    }
}
