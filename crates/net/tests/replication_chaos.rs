//! Replication chaos: primary→replica catch-up, Merkle anti-entropy, and
//! read fan-out under partitions, power cycles, and lying peers.
//!
//! The invariant under test extends the chaos-soak quartet to replicas:
//! **every** seeded run must end either
//!
//! 1. byte-identical-converged — the replica's record set equals the
//!    primary's and their shard Merkle roots agree — or
//! 2. in *attributed* tamper evidence, with the replica's verified local
//!    state untouched,
//!
//! and a power cycle mid-catch-up never loses a durably-acknowledged
//! verified prefix: the recovered store is always a byte-identical subset
//! of what the primary served, and the next catch-up resumes from the
//! last durable checkpoint rather than starting over.
//!
//! The sweep seed comes from `TEP_CHAOS_SEED` (CI sweeps {1, 2009,
//! 31337}, one per job); unset, all three run.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::attack::Tamper;
use tep_core::hashing::HashingStrategy;
use tep_core::merkle::shard_tree_of;
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::verify::{EvidenceKind, TamperEvidence};
use tep_core::{ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, Participant, ParticipantId};
use tep_model::{AggregateMode, ObjectId, Value};
use tep_net::wire::Message;
use tep_net::{
    serve, serve_with_registry, AeStatus, Catalog, Client, ClientConfig, FanoutFetcher, FaultKind,
    FaultListener, FaultPlan, NetError, ProxyAction, Replica, ReplicaConfig, ServerConfig,
    ServerHandle, TamperProxy,
};
use tep_obs::Registry;
use tep_storage::vfs::{FaultConfig, FaultVfs};
use tep_storage::ProvenanceDb;
use tep_workloads::seeds_from_env;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// A primary with two chains and an aggregate (so catch-up exercises both
/// fresh appends and cross-object re-verification), parameterized by the
/// value of one final "tail" update — two worlds built with different
/// tails share a byte-identical history prefix and diverge only there,
/// which is exactly what a lying primary looks like to a replica.
struct PrimaryWorld {
    keys: KeyDirectory,
    signer: Participant,
    tracker: ProvenanceTracker,
    db: Arc<ProvenanceDb>,
    a: ObjectId,
    offered: Vec<ObjectId>,
}

fn build_primary(tail: i64) -> PrimaryWorld {
    // Fixed seed: twin worlds get identical keys and (deterministic RSA
    // signatures) byte-identical records for every shared operation.
    let mut rng = StdRng::seed_from_u64(0x5EED_2009);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let signer = ca.enroll(ParticipantId(1), 512, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    keys.register(signer.certificate().clone()).unwrap();

    let db = Arc::new(ProvenanceDb::in_memory());
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let (a, _) = tracker.insert(&signer, Value::Int(0), None).unwrap();
    for i in 1..7i64 {
        tracker.update(&signer, a, Value::Int(i)).unwrap();
    }
    let (b, _) = tracker.insert(&signer, Value::Int(100), None).unwrap();
    for i in 1..4i64 {
        tracker.update(&signer, b, Value::Int(100 + i)).unwrap();
    }
    let (agg, _) = tracker
        .aggregate(&signer, &[a, b], Value::Int(777), AggregateMode::Atomic)
        .unwrap();
    // The divergence point: everything above is shared between twins.
    tracker.update(&signer, a, Value::Int(tail)).unwrap();
    PrimaryWorld {
        keys,
        signer,
        tracker,
        db,
        a,
        offered: vec![a, b, agg],
    }
}

impl PrimaryWorld {
    /// Serves a fresh catalog snapshot (rebuilt so post-construction
    /// appends are visible to new servers).
    fn serve(&self) -> ServerHandle {
        serve(
            self.catalog(),
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
        )
        .unwrap()
    }

    fn catalog(&self) -> Arc<Catalog> {
        Arc::new(Catalog::new(
            self.tracker.forest().clone(),
            Arc::clone(&self.db),
            ALG,
            self.offered.clone(),
        ))
    }
}

/// Small durability batches so a 13-record catch-up seals many
/// checkpoints — every crash point lands between interesting states.
fn replica_cfg() -> ReplicaConfig {
    let mut cfg = ReplicaConfig::new(ALG);
    cfg.batch = 2;
    cfg
}

const REPLICA_LOG: &str = "/replica.db";
const CKPT_DIR: &str = "/ckpt";

/// A replica with its own faultable in-memory filesystem.
fn fresh_replica(primary: SocketAddr, fault: FaultConfig) -> (Replica, Arc<FaultVfs>) {
    let vfs = FaultVfs::new(fault);
    let db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), REPLICA_LOG).unwrap());
    let repl = Replica::new(
        primary,
        replica_cfg(),
        db,
        vfs.clone(),
        PathBuf::from(CKPT_DIR),
    );
    (repl, vfs)
}

/// Rebinds an existing replica's durable state to a (possibly different)
/// primary address — a heal, a restart, or a re-point at a liar.
fn rebind(repl: &Replica, vfs: &Arc<FaultVfs>, primary: SocketAddr) -> Replica {
    Replica::new(
        primary,
        replica_cfg(),
        Arc::clone(repl.db()),
        vfs.clone(),
        PathBuf::from(CKPT_DIR),
    )
}

fn record_set(db: &ProvenanceDb) -> HashSet<Vec<u8>> {
    db.all_records().into_iter().map(|r| r.to_bytes()).collect()
}

/// Byte-identical convergence: equal shard Merkle roots *and* equal
/// record byte sets (the roots already imply it; the set diff makes
/// failures readable).
fn assert_converged(primary: &ProvenanceDb, replica: &ProvenanceDb) {
    let p = shard_tree_of(ALG, primary);
    let r = shard_tree_of(ALG, replica);
    assert_eq!(p.leaf_count(), r.leaf_count(), "object counts differ");
    assert_eq!(p.root(), r.root(), "shard Merkle roots differ");
    assert_eq!(
        record_set(primary),
        record_set(replica),
        "record sets are not byte-identical"
    );
}

/// Every record the replica holds must be byte-identical to one the
/// primary serves — a replica never invents or mutates history, crashed
/// or not.
fn assert_verified_subset(replica: &ProvenanceDb, primary: &ProvenanceDb) {
    let p = record_set(primary);
    for r in replica.all_records() {
        assert!(
            p.contains(&r.to_bytes()),
            "replica holds a record the primary never served (oid {} seq {})",
            r.oid,
            r.seq_id
        );
    }
}

/// Nonzero `tep_core_evidence_*` counters, sorted by name.
fn evidence_counts(reg: &Registry) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = reg
        .snapshot()
        .into_iter()
        .filter(|s| s.name.starts_with("tep_core_evidence_"))
        .filter_map(|s| match s.value {
            tep_obs::MetricValue::Counter(n) if n > 0 => Some((s.name, n)),
            _ => None,
        })
        .collect();
    v.sort();
    v
}

fn evidence_kinds(err: &NetError) -> Vec<EvidenceKind> {
    match err {
        NetError::TamperDetected { issues, .. } => issues.iter().map(|i| i.kind()).collect(),
        other => panic!("expected TamperDetected, got: {other}"),
    }
}

/// A man-in-the-middle that applies `tamper` to matching PROV frames —
/// the wire attacker every replication evidence path must be equivalent
/// to.
fn tamper_mutator(tamper: Tamper) -> tep_net::proxy::Mutator {
    Box::new(move |_frame, msg| {
        let Message::Prov { record } = msg else {
            return ProxyAction::Forward;
        };
        let Ok(rec) = ProvenanceRecord::from_stored(record) else {
            return ProxyAction::Forward;
        };
        let mut holder = ProvenanceObject {
            target: rec.output_oid,
            records: vec![rec],
        };
        if !tep_core::attack::apply_tamper(&mut holder, &tamper) {
            return ProxyAction::Forward;
        }
        match holder.records.into_iter().next() {
            Some(t) => ProxyAction::Replace(Message::Prov {
                record: t.to_stored(),
            }),
            None => ProxyAction::Drop,
        }
    })
}

#[test]
fn clean_catch_up_converges_byte_identically() {
    let w = build_primary(1000);
    let srv = w.serve();
    let (repl, _vfs) = fresh_replica(srv.addr(), FaultConfig::default());

    let report = repl.catch_up(&w.keys).unwrap();
    assert_eq!(report.objects, 3);
    assert_eq!(report.new_records, w.db.len() as u64);
    assert!(
        report.reverified > 0,
        "the aggregate's stream re-verifies its input chains"
    );
    assert_eq!(report.resumed, 0, "a fresh replica has nothing to resume");

    let ae = repl.anti_entropy(&w.keys).unwrap();
    assert_eq!(ae.status, AeStatus::Converged);
    assert_eq!(ae.passes, 1);
    assert_eq!(ae.rounds, 1, "converged shards cost one root exchange");
    assert!(ae.repaired.is_empty());
    assert_converged(&w.db, repl.db());

    // An immediate second catch-up is pure resume: every object proves
    // its position from the sealed checkpoint and streams nothing new.
    let again = repl.catch_up(&w.keys).unwrap();
    assert_eq!(again.new_records, 0);
    assert_eq!(again.resumed, 3);
    assert_eq!(again.reverified, 0);
    srv.shutdown();
}

/// Satellite: the `tep_net_repl_*` metric names are API — pinned here as
/// exact exposition lines so a rename or unit change fails loudly.
#[test]
fn replication_metrics_have_pinned_exposition() {
    let w = build_primary(1000);
    let srv = w.serve();
    let reg = Registry::new();
    let (mut repl, _vfs) = fresh_replica(srv.addr(), FaultConfig::default());
    repl.attach_obs(&reg);

    let report = repl.catch_up(&w.keys).unwrap();
    let ae = repl.anti_entropy(&w.keys).unwrap();
    assert_eq!(ae.status, AeStatus::Converged);

    let text = reg.render_text();
    for want in [
        "tep_net_repl_role 1".to_string(),
        format!("tep_net_repl_catchup_records_total {}", report.new_records),
        "tep_net_repl_checkpoint_resumes_total 0".to_string(),
        format!("tep_net_repl_anti_entropy_rounds_total {}", ae.rounds),
        "tep_net_repl_converged_total 1".to_string(),
        "tep_net_repl_divergence_depth_count 0".to_string(),
    ] {
        assert!(
            text.lines().any(|l| l == want),
            "missing exposition line {want:?} in:\n{text}"
        );
    }
    srv.shutdown();
}

#[test]
fn incremental_catch_up_resumes_every_object_from_its_checkpoint() {
    let mut w = build_primary(1000);
    let srv = w.serve();
    let (repl, vfs) = fresh_replica(srv.addr(), FaultConfig::default());
    repl.catch_up(&w.keys).unwrap();
    srv.shutdown();

    // The primary moves on while the replica is detached.
    for i in 0..3i64 {
        w.tracker
            .update(&w.signer, w.a, Value::Int(2000 + i))
            .unwrap();
    }

    let srv = w.serve();
    let reg = Registry::new();
    let mut repl = rebind(&repl, &vfs, srv.addr());
    repl.attach_obs(&reg);
    let report = repl.catch_up(&w.keys).unwrap();
    assert_eq!(
        report.resumed, 3,
        "every object resumes from its durable checkpoint"
    );
    assert_eq!(report.new_records, 3, "only the appended tail streams");
    assert_eq!(
        report.reverified, 0,
        "resume skips everything already verified"
    );
    assert_eq!(
        reg.counter_value("tep_net_repl_checkpoint_resumes_total"),
        3
    );
    assert_converged(&w.db, repl.db());
    srv.shutdown();
}

/// The tentpole crash sweep: a power cut at *every* Nth mutating storage
/// op of a catch-up. After each cut the replica power-cycles, reopens
/// through recovery, and must (a) hold only byte-identical verified
/// records, (b) finish the interrupted catch-up — resuming from the last
/// durable checkpoint when one survives — and (c) converge to the
/// primary's shard root. A crash must never read as tamper evidence.
#[test]
fn replica_power_cycle_at_every_catch_up_op_resumes_and_converges() {
    let w = build_primary(1000);
    let srv = w.serve();

    for seed in seeds_from_env("TEP_CHAOS_SEED") {
        // Dry run sizes the op space of one full catch-up.
        let (repl, vfs) = fresh_replica(
            srv.addr(),
            FaultConfig {
                seed,
                ..FaultConfig::default()
            },
        );
        repl.catch_up(&w.keys).unwrap();
        assert_converged(&w.db, repl.db());
        let total_ops = vfs.ops();
        let step = (total_ops / 12).max(1);

        let mut crashed_runs = 0u64;
        let mut resumed_after_crash = 0u64;
        let mut k = 1;
        // One control point past the end never fires.
        while k <= total_ops + step {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                crash_at_op: Some(k),
                ..FaultConfig::default()
            });
            let outcome = match ProvenanceDb::durable_with(vfs.clone(), REPLICA_LOG) {
                Ok(db) => {
                    let repl = Replica::new(
                        srv.addr(),
                        replica_cfg(),
                        Arc::new(db),
                        vfs.clone(),
                        PathBuf::from(CKPT_DIR),
                    );
                    repl.catch_up(&w.keys).map(|_| repl)
                }
                // Power cut while opening the store: same recovery path.
                Err(_) => Err(NetError::Protocol("replica store lost power while opening")),
            };
            match outcome {
                Ok(repl) => {
                    assert!(
                        !vfs.crashed(),
                        "seed {seed} op {k}: catch-up reported success after a power cut"
                    );
                    assert_converged(&w.db, repl.db());
                }
                Err(err) => {
                    crashed_runs += 1;
                    assert!(
                        !matches!(err, NetError::TamperDetected { .. }),
                        "seed {seed} op {k}: a local power cut must never read as tamper evidence: {err}"
                    );
                    vfs.power_cycle();
                    let db =
                        Arc::new(ProvenanceDb::durable_with(vfs.clone(), REPLICA_LOG).unwrap());
                    // The durably-recovered prefix is verified history,
                    // byte-identical to the primary's — never torn junk,
                    // never an unverified record.
                    assert_verified_subset(&db, &w.db);
                    let repl = Replica::new(
                        srv.addr(),
                        replica_cfg(),
                        db,
                        vfs.clone(),
                        PathBuf::from(CKPT_DIR),
                    );
                    let rep = repl.catch_up(&w.keys).unwrap();
                    resumed_after_crash += rep.resumed;
                    assert_converged(&w.db, repl.db());
                    let ae = repl.anti_entropy(&w.keys).unwrap();
                    assert_eq!(ae.status, AeStatus::Converged, "seed {seed} op {k}");
                }
            }
            k += step;
        }
        assert!(
            crashed_runs > 0,
            "seed {seed}: sweep never exercised a crash (total_ops = {total_ops})"
        );
        assert!(
            resumed_after_crash > 0,
            "seed {seed}: no post-crash catch-up ever resumed from a durable checkpoint"
        );
    }
    srv.shutdown();
}

/// A symmetric partition (both directions reset at a seeded frame) is a
/// clean retryable error — no evidence, no state damage — and healing
/// the path lets the same durable replica state converge.
#[test]
fn symmetric_partition_heals_into_convergence_without_evidence() {
    let w = build_primary(1000);
    let srv = w.serve();

    for seed in seeds_from_env("TEP_CHAOS_SEED") {
        for frame in [0u64, 3, 9] {
            let reg = Registry::new();
            let fl = FaultListener::spawn(
                srv.addr(),
                FaultPlan {
                    kind: FaultKind::Reset,
                    frame,
                    seed,
                    once: false,
                },
            )
            .unwrap();
            let (mut repl, vfs) = fresh_replica(fl.addr(), FaultConfig::default());
            repl.attach_obs(&reg);
            let err = repl.catch_up(&w.keys).unwrap_err();
            assert!(
                err.is_retryable(),
                "seed {seed} frame {frame}: a partition must read as retryable, got: {err}"
            );
            assert!(
                evidence_counts(&reg).is_empty(),
                "seed {seed} frame {frame}: partition produced evidence: {:?}",
                evidence_counts(&reg)
            );
            fl.shutdown();

            // Heal: same durable state, direct path to the primary.
            let mut healed = rebind(&repl, &vfs, srv.addr());
            healed.attach_obs(&reg);
            healed.catch_up(&w.keys).unwrap();
            let ae = healed.anti_entropy(&w.keys).unwrap();
            assert_eq!(ae.status, AeStatus::Converged);
            assert_converged(&w.db, healed.db());
            assert!(evidence_counts(&reg).is_empty());
        }
    }
    srv.shutdown();
}

/// A wire attacker tampering with the replication stream earns the same
/// attributed evidence pipeline as any fetch client — and nothing the
/// attacker touched is ever persisted.
#[test]
fn tampered_catch_up_stream_is_attributed_and_never_persisted() {
    let w = build_primary(1000);
    let srv = w.serve();
    let last = collect(&w.db, w.a)
        .unwrap()
        .records
        .last()
        .cloned()
        .unwrap();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        tamper_mutator(Tamper::FlipOutputHash {
            oid: last.output_oid,
            seq: last.seq_id,
        }),
    )
    .unwrap();

    let reg = Registry::new();
    let (mut repl, _vfs) = fresh_replica(proxy.addr(), FaultConfig::default());
    repl.attach_obs(&reg);
    let err = repl.catch_up(&w.keys).unwrap_err();
    assert!(
        !evidence_kinds(&err).is_empty(),
        "tampered stream must carry attributed evidence"
    );
    assert!(
        !evidence_counts(&reg).is_empty(),
        "evidence must reach the counters"
    );
    // Whatever was persisted before the abort is verified history.
    assert_verified_subset(repl.db(), &w.db);
    proxy.shutdown();
    srv.shutdown();
}

/// A DENIAL has to prove itself to a replica exactly as it does to a
/// client: a man-in-the-middle answering the catch-up FETCH with a denial
/// whose proof is garbage earns `ForgedDenial`, counted once, and nothing
/// is appended.
#[test]
fn forged_denial_during_catch_up_is_attributed_and_nothing_is_appended() {
    let w = build_primary(1000);
    let srv = w.serve();
    let mut replaced = false;
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| match msg {
            Message::Prov { .. } if !replaced => {
                replaced = true;
                ProxyAction::Replace(Message::Denial {
                    proof: vec![0xDE; 48],
                })
            }
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let reg = Registry::new();
    let (mut repl, _vfs) = fresh_replica(proxy.addr(), FaultConfig::default());
    repl.attach_obs(&reg);
    let err = repl.catch_up(&w.keys).unwrap_err();
    assert_eq!(evidence_kinds(&err), vec![EvidenceKind::ForgedDenial]);
    assert_eq!(
        evidence_counts(&reg),
        vec![("tep_core_evidence_forged_denial_total".to_string(), 1)]
    );
    assert_eq!(
        repl.db().len(),
        0,
        "a forged denial must not persist anything"
    );
    proxy.shutdown();
    srv.shutdown();
}

/// Evidence found *after* a catch-up resumed from its durable checkpoint
/// reaches the counters like any other: the restored verifier reports into
/// the replica's registry.
#[test]
fn tamper_after_a_checkpoint_resume_is_counted_exactly_once() {
    let mut w = build_primary(1000);
    let srv = w.serve();
    let (repl, vfs) = fresh_replica(srv.addr(), FaultConfig::default());
    repl.catch_up(&w.keys).unwrap();
    srv.shutdown();

    // The primary moves on; the newest record is the one tampered in flight.
    for i in 0..3i64 {
        w.tracker
            .update(&w.signer, w.a, Value::Int(2000 + i))
            .unwrap();
    }
    let last = collect(&w.db, w.a)
        .unwrap()
        .records
        .last()
        .cloned()
        .unwrap();
    let srv = w.serve();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        tamper_mutator(Tamper::FlipOutputHash {
            oid: last.output_oid,
            seq: last.seq_id,
        }),
    )
    .unwrap();

    let reg = Registry::new();
    let before = record_set(repl.db());
    let mut resumed = rebind(&repl, &vfs, proxy.addr());
    resumed.attach_obs(&reg);
    let err = resumed.catch_up(&w.keys).unwrap_err();
    assert_eq!(evidence_kinds(&err), vec![EvidenceKind::BadSignature]);
    assert_eq!(
        reg.counter_value("tep_net_repl_checkpoint_resumes_total"),
        1,
        "the tampered object's transfer must have opened with RESUME"
    );
    assert_eq!(
        evidence_counts(&reg),
        vec![("tep_core_evidence_bad_signature_total".to_string(), 1)]
    );
    // The two clean records ahead of the flipped one were verified and kept.
    assert_eq!(resumed.db().len(), before.len() + 2);
    assert_verified_subset(resumed.db(), &w.db);
    proxy.shutdown();
    srv.shutdown();
}

/// Two ways to bend the stream's shape, each refused by a replica with the
/// very rejection a fetching client gives (same variant, same frame): a
/// PROV frame after the DATA frames, and a DATA frame whose depth tags
/// skip a level — the latter counted as `malformed_stream` evidence.
#[test]
fn misshapen_streams_are_refused_by_a_replica_exactly_as_by_a_client() {
    let w = build_primary(1000);
    let srv = w.serve();
    type Scenario = (&'static str, fn() -> tep_net::proxy::Mutator, u64);
    let scenarios: [Scenario; 2] = [
        (
            "PROV after DATA",
            || {
                let mut first_prov = None;
                Box::new(move |_frame, msg| match msg {
                    Message::Prov { .. } if first_prov.is_none() => {
                        first_prov = Some(msg.clone());
                        ProxyAction::Forward
                    }
                    Message::Done { .. } => ProxyAction::Replace(first_prov.clone().unwrap()),
                    _ => ProxyAction::Forward,
                })
            },
            0,
        ),
        (
            "malformed data stream",
            || {
                Box::new(|_frame, msg| {
                    let Message::Data { entries } = msg else {
                        return ProxyAction::Forward;
                    };
                    let mut entries = entries.clone();
                    entries[0].depth = 3;
                    ProxyAction::Replace(Message::Data { entries })
                })
            },
            1,
        ),
    ];
    for (name, mutator, malformed_evidence) in scenarios {
        let proxy = TamperProxy::spawn(srv.addr(), mutator()).unwrap();
        let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
        let to_client = client.fetch_verified(w.a, &w.keys).unwrap_err();
        drop(client);
        proxy.shutdown();

        let proxy = TamperProxy::spawn(srv.addr(), mutator()).unwrap();
        let reg = Registry::new();
        let (mut repl, _vfs) = fresh_replica(proxy.addr(), FaultConfig::default());
        repl.attach_obs(&reg);
        let to_replica = repl.catch_up(&w.keys).unwrap_err();
        proxy.shutdown();

        assert!(
            format!("{to_replica}").contains(name),
            "{name}: got {to_replica}"
        );
        assert_eq!(
            format!("{to_replica:?}"),
            format!("{to_client:?}"),
            "{name}"
        );
        assert_eq!(
            reg.counter_value("tep_core_evidence_malformed_stream_total"),
            malformed_evidence,
            "{name}"
        );
        assert_verified_subset(repl.db(), &w.db);
    }
    srv.shutdown();
}

/// A lying primary — same object set, conflicting history — is caught
/// twice over: the RESUME proof-of-position rejects it during catch-up,
/// and the anti-entropy descent locates the divergent object and refuses
/// to "converge" over verified local state.
#[test]
fn lying_primary_yields_divergence_evidence_and_leaves_state_untouched() {
    let honest = build_primary(1000);
    let liar = build_primary(666);

    // The twin construction really does give a shared byte-identical
    // prefix with divergence only at the tail write.
    let h = collect(&honest.db, honest.a).unwrap();
    let l = collect(&liar.db, liar.a).unwrap();
    assert_eq!(h.records.len(), l.records.len());
    let n = h.records.len();
    for i in 0..n - 1 {
        assert_eq!(
            h.records[i].to_stored().to_bytes(),
            l.records[i].to_stored().to_bytes(),
            "twin worlds lost determinism at record {i}"
        );
    }
    assert_ne!(
        h.records[n - 1].to_stored().to_bytes(),
        l.records[n - 1].to_stored().to_bytes()
    );

    let hsrv = honest.serve();
    let (repl, vfs) = fresh_replica(hsrv.addr(), FaultConfig::default());
    repl.catch_up(&honest.keys).unwrap();
    hsrv.shutdown();

    let lsrv = liar.serve();
    let reg = Registry::new();
    let before = record_set(repl.db());
    let mut at_liar = rebind(&repl, &vfs, lsrv.addr());
    at_liar.attach_obs(&reg);

    // Catch-up: the liar cannot confirm the replica's resume digest.
    let err = at_liar.catch_up(&honest.keys).unwrap_err();
    assert_eq!(evidence_kinds(&err), vec![EvidenceKind::ResumeMismatch]);
    assert_eq!(
        record_set(repl.db()),
        before,
        "evidence must never mutate verified local state"
    );

    // Anti-entropy: divergence located in the tree, repair fetch meets
    // conflicting verified history, attributed at the located depth.
    let err = at_liar.anti_entropy(&honest.keys).unwrap_err();
    assert_eq!(evidence_kinds(&err), vec![EvidenceKind::ReplicaDivergence]);
    assert_eq!(record_set(repl.db()), before);

    let counts = evidence_counts(&reg);
    assert!(
        counts
            .iter()
            .any(|(name, c)| name == "tep_core_evidence_replica_divergence_total" && *c == 1),
        "{counts:?}"
    );
    assert!(
        counts
            .iter()
            .any(|(name, _)| name == "tep_core_evidence_resume_mismatch_total"),
        "{counts:?}"
    );
    let text = reg.render_text();
    assert!(
        text.lines()
            .any(|l| l == "tep_net_repl_divergence_depth_count 1"),
        "divergence depth must be observed:\n{text}"
    );
    lsrv.shutdown();
}

/// A forged anti-entropy root (mutated in flight, as a man-in-the-middle
/// would) fails the descent's self-authentication and is terminal
/// `ForgedRoot` evidence — never a repair, never a retry loop.
#[test]
fn forged_anti_entropy_root_is_terminal_forgery_evidence() {
    let w = build_primary(1000);
    let srv = w.serve();
    let (repl, vfs) = fresh_replica(srv.addr(), FaultConfig::default());
    repl.catch_up(&w.keys).unwrap();

    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| match msg {
            Message::AeResp {
                leaf_count,
                depth,
                hash,
                children,
                oid,
                signed_root,
            } => {
                let mut forged = hash.clone();
                forged[0] ^= 0x01;
                ProxyAction::Replace(Message::AeResp {
                    leaf_count: *leaf_count,
                    depth: *depth,
                    hash: forged,
                    children: children.clone(),
                    oid: *oid,
                    signed_root: signed_root.clone(),
                })
            }
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let reg = Registry::new();
    let before = record_set(repl.db());
    let mut through_proxy = rebind(&repl, &vfs, proxy.addr());
    through_proxy.attach_obs(&reg);
    let err = through_proxy.anti_entropy(&w.keys).unwrap_err();
    match &err {
        NetError::TamperDetected { issues, .. } => {
            assert!(
                matches!(issues[..], [TamperEvidence::ForgedRoot { .. }]),
                "{issues:?}"
            );
        }
        other => panic!("expected ForgedRoot evidence, got: {other}"),
    }
    let counts = evidence_counts(&reg);
    assert!(
        counts
            .iter()
            .any(|(name, c)| name == "tep_core_evidence_forged_root_total" && *c == 1),
        "{counts:?}"
    );
    assert_eq!(record_set(repl.db()), before);
    proxy.shutdown();
    srv.shutdown();
}

/// A bit flip in the replica's own log is *accidental* damage: recovery
/// quarantines it with an attributed report (not tamper evidence), the
/// stale checkpoint fails its covers-local check instead of hiding the
/// hole, and the next catch-up re-fetches and re-verifies exactly the
/// missing history.
#[test]
fn bit_flipped_replica_log_is_quarantined_then_self_heals() {
    let w = build_primary(1000);
    let srv = w.serve();

    for seed in seeds_from_env("TEP_CHAOS_SEED") {
        let (repl, vfs) = fresh_replica(
            srv.addr(),
            FaultConfig {
                seed,
                ..FaultConfig::default()
            },
        );
        repl.catch_up(&w.keys).unwrap();
        drop(repl);

        let len = vfs.file_bytes(Path::new(REPLICA_LOG)).unwrap().len();
        let offset = (len / 2) + (seed as usize % 32);
        assert!(vfs.corrupt_byte(Path::new(REPLICA_LOG), offset));

        let db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), REPLICA_LOG).unwrap());
        let rec = db.recovery();
        assert!(
            rec.quarantined_bytes > 0 || rec.truncated_bytes > 0 || rec.decode_failures > 0,
            "seed {seed}: corruption went unattributed: {rec:?}"
        );
        assert!(
            db.len() < w.db.len(),
            "seed {seed}: recovery kept a corrupt record"
        );
        assert_verified_subset(&db, &w.db);

        let reg = Registry::new();
        let mut repl = Replica::new(
            srv.addr(),
            replica_cfg(),
            db,
            vfs.clone(),
            PathBuf::from(CKPT_DIR),
        );
        repl.attach_obs(&reg);
        let report = repl.catch_up(&w.keys).unwrap();
        assert!(
            report.new_records > 0,
            "seed {seed}: the quarantined hole must be re-fetched"
        );
        let ae = repl.anti_entropy(&w.keys).unwrap();
        assert_eq!(ae.status, AeStatus::Converged);
        assert_converged(&w.db, repl.db());
        assert!(
            evidence_counts(&reg).is_empty(),
            "seed {seed}: local disk damage is not tamper evidence: {:?}",
            evidence_counts(&reg)
        );
    }
    srv.shutdown();
}

/// FETCH fan-out: reads rotate across replica endpoints, fail over on
/// retryable errors (a dead endpoint), and *never* fail over past tamper
/// evidence.
#[test]
fn fetch_fanout_rotates_fails_over_and_never_masks_evidence() {
    let w = build_primary(1000);
    let psrv = w.serve();

    // Two replicas, each serving its own verified copy of the records
    // (the data forest is shared — replicating it is out of scope).
    let mut servers = Vec::new();
    let mut registries = Vec::new();
    for _ in 0..2 {
        let (repl, _vfs) = fresh_replica(psrv.addr(), FaultConfig::default());
        repl.catch_up(&w.keys).unwrap();
        let reg = Registry::new();
        let catalog = Arc::new(Catalog::new(
            w.tracker.forest().clone(),
            Arc::clone(repl.db()),
            ALG,
            w.offered.clone(),
        ));
        let srv = serve_with_registry(
            catalog,
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            reg.clone(),
        )
        .unwrap();
        servers.push(srv);
        registries.push(reg);
    }
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();

    // Rotation: four fetches over two replicas touch both.
    let mut fan = FanoutFetcher::new(&addrs, ClientConfig::new(ALG));
    assert_eq!(fan.len(), 2);
    for _ in 0..4 {
        fan.fetch_verified(w.a, &w.keys).unwrap();
    }
    for (i, reg) in registries.iter().enumerate() {
        assert_eq!(
            reg.counter_value("tep_net_fetches_total"),
            2,
            "replica {i} never served its share of the rotation"
        );
        assert_eq!(
            reg.counter_value("tep_net_connections_total"),
            1,
            "replica {i}: the endpoint's client keeps its connection"
        );
    }

    // Failover: a dead endpoint is retryable, the fetch still verifies.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut fan = FanoutFetcher::new(&[dead, addrs[0]], ClientConfig::new(ALG));
    fan.fetch_verified(w.a, &w.keys).unwrap();

    // Evidence is terminal: a tampering endpoint first in rotation must
    // surface its evidence, not be papered over by the honest replica.
    let last = collect(&w.db, w.a)
        .unwrap()
        .records
        .last()
        .cloned()
        .unwrap();
    let proxy = TamperProxy::spawn(
        addrs[0],
        tamper_mutator(Tamper::FlipOutputHash {
            oid: last.output_oid,
            seq: last.seq_id,
        }),
    )
    .unwrap();
    let mut cfg = ClientConfig::new(ALG);
    cfg.retry.max_attempts = 1;
    let mut fan = FanoutFetcher::new(&[proxy.addr(), addrs[1]], cfg);
    let err = fan.fetch_verified(w.a, &w.keys).unwrap_err();
    assert!(
        !evidence_kinds(&err).is_empty(),
        "fan-out masked tamper evidence by rotating away from it"
    );
    proxy.shutdown();
    for s in servers {
        s.shutdown();
    }
    psrv.shutdown();
}
