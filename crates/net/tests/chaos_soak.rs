//! Chaos soak: wire faults × FaultVfs × tampering, all through
//! TamperProxy, over a seeded matrix.
//!
//! The invariant under test, from the robustness roadmap: **every** run
//! ends in exactly one of
//!
//! 1. complete + verified (byte-identical to the uncut baseline),
//! 2. resumed + verified (ditto),
//! 3. a clean *retryable* error,
//! 4. attributed tamper evidence,
//!
//! — never a hang, never a panic, never a silently short verified result.
//! "Byte-identical" is enforced by diffing the rolling record-stream
//! digest (which covers every record byte, in order), the record/node
//! totals, and the recomputed object hash against an uncut transfer.
//!
//! The sweep seed comes from `TEP_CHAOS_SEED` (CI sweeps {1, 2009,
//! 31337}, one per job); unset, all three run.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::attack::Tamper;
use tep_core::hashing::HashingStrategy;
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::verify::EvidenceKind;
use tep_core::{ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{Forest, ObjectId, Value};
use tep_net::proxy::at_frame;
use tep_net::wire::Message;
use tep_net::{
    serve_with_registry, Catalog, Client, ClientConfig, ErrorCode, NetError, ProxyAction,
    RetryPolicy, ServerConfig, TamperProxy,
};
use tep_storage::vfs::{FaultConfig, FaultVfs};
use tep_storage::ProvenanceDb;
use tep_workloads::{schedule, seeds_from_env, WireFault};

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// Stall must exceed the client's read timeout to register as a fault.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_millis(350);
const STALL: Duration = Duration::from_millis(600);

struct ChaosWorld {
    catalog: Arc<Catalog>,
    keys: KeyDirectory,
    forest: Forest,
    chain: ObjectId,
    prov: ProvenanceObject,
}

static WORLD: OnceLock<ChaosWorld> = OnceLock::new();

fn world() -> &'static ChaosWorld {
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC4405);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();

        let db = Arc::new(ProvenanceDb::in_memory());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Economical,
            },
            Arc::clone(&db),
        );
        let (chain, _) = tracker.insert(&alice, Value::Int(0), None).unwrap();
        for i in 1..12i64 {
            tracker.update(&alice, chain, Value::Int(i)).unwrap();
        }
        let prov = collect(&db, chain).unwrap();
        let forest = tracker.forest().clone();
        let catalog = Arc::new(Catalog::new(forest.clone(), db, ALG, vec![chain]));
        ChaosWorld {
            catalog,
            keys,
            forest,
            chain,
            prov,
        }
    })
}

fn start_server() -> tep_net::ServerHandle {
    serve_with_registry(
        Arc::clone(&world().catalog),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
        tep_obs::Registry::new(),
    )
    .unwrap()
}

fn chaos_client(addr: SocketAddr, max_attempts: u32, resume: bool) -> Client {
    let mut cfg = ClientConfig::new(ALG);
    cfg.resume = resume;
    cfg.read_timeout = CLIENT_READ_TIMEOUT;
    cfg.retry = RetryPolicy {
        max_attempts,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    Client::new(addr, cfg)
}

fn to_action(fault: WireFault, seed: u64) -> ProxyAction {
    match fault {
        WireFault::CutBoundary => ProxyAction::Cut,
        WireFault::CutMidFrame => ProxyAction::CutMidFrame { seed },
        WireFault::BitFlip => ProxyAction::BitFlip { seed },
        WireFault::Stall => ProxyAction::Stall(STALL),
        WireFault::Reset => ProxyAction::Reset,
    }
}

/// The uncut reference transfer every chaos run is diffed against.
struct Baseline {
    records: u64,
    nodes: u64,
    stream_digest: Vec<u8>,
    object_hash: Vec<u8>,
    /// Downstream frames of a full transfer: HELLO, OFFER, one PROV per
    /// record, the DATA chunks, DONE.
    frames: u64,
}

fn baseline(srv_addr: SocketAddr) -> Baseline {
    let w = world();
    let mut cl = chaos_client(srv_addr, 1, true);
    let rep = cl.fetch_verified(w.chain, &w.keys).unwrap();
    assert!(rep.verification.verified());
    assert_eq!(rep.resumed, 0);
    let data_frames = cl.counters().frames_received - 3 - rep.records; // HELLO+OFFER+DONE
    Baseline {
        records: rep.records,
        nodes: rep.nodes,
        stream_digest: rep.stream_digest,
        object_hash: rep.object_hash,
        frames: 3 + rep.records + data_frames,
    }
}

/// One-shot faults with a retrying, resuming client: every run in the
/// seeded matrix must recover to a verified transfer byte-identical to
/// the baseline — cut, torn, flipped, stalled, or reset, at every
/// downstream frame.
#[test]
fn seeded_fault_matrix_always_recovers_byte_identically() {
    let w = world();
    let srv = start_server();
    let base = baseline(srv.addr());
    assert_eq!(base.records, w.prov.records.len() as u64);

    let mut runs = 0u64;
    let mut resumed_runs = 0u64;
    for seed in seeds_from_env("TEP_CHAOS_SEED") {
        for point in schedule(seed, base.frames, 2) {
            let fl = TamperProxy::spawn(
                srv.addr(),
                at_frame(point.frame, to_action(point.fault, point.seed), true),
            )
            .unwrap();
            let mut cl = chaos_client(fl.addr(), 5, true);
            let ctx = format!("seed {seed} {:?} at frame {}", point.fault, point.frame);
            let rep = cl
                .fetch_verified(w.chain, &w.keys)
                .unwrap_or_else(|e| panic!("{ctx}: one-shot fault did not recover: {e}"));
            assert!(rep.verification.verified(), "{ctx}");
            assert_eq!(rep.records, base.records, "{ctx}: short record set");
            assert_eq!(rep.nodes, base.nodes, "{ctx}: short data set");
            assert_eq!(
                rep.stream_digest, base.stream_digest,
                "{ctx}: record bytes differ"
            );
            assert_eq!(rep.object_hash, base.object_hash, "{ctx}: hash differs");
            runs += 1;
            resumed_runs += u64::from(rep.resumed > 0);
            fl.shutdown();
        }
    }
    assert!(runs >= 40, "matrix too small to be a soak ({runs} runs)");
    assert!(
        resumed_runs > 0,
        "at least some cut transfers must have exercised RESUME"
    );
    srv.shutdown();
}

/// Persistent faults (firing on every connection) with resume disabled:
/// the client must land on a clean *retryable* error once the attempt cap
/// is spent — not a hang, not a panic, and above all not a short verified
/// result.
#[test]
fn persistent_faults_end_in_clean_retryable_errors() {
    let w = world();
    let srv = start_server();
    let base = baseline(srv.addr());

    for kind in [
        WireFault::CutBoundary,
        WireFault::CutMidFrame,
        WireFault::BitFlip,
        WireFault::Reset,
    ] {
        for frame in [0, 2, base.frames / 2, base.frames - 1] {
            let fl = TamperProxy::spawn(
                srv.addr(),
                at_frame(frame, to_action(kind, 0x5EED ^ frame), false),
            )
            .unwrap();
            let mut cl = chaos_client(fl.addr(), 2, false);
            let ctx = format!("{kind:?} every connection at frame {frame}");
            let err = cl.fetch_verified(w.chain, &w.keys).expect_err(&format!(
                "{ctx}: cannot complete through a persistent fault"
            ));
            assert!(err.is_retryable(), "{ctx}: got terminal error {err}");
            assert_eq!(cl.counters().retries, 1, "{ctx}: attempt cap not honored");
            assert!(fl.fired() >= 2, "{ctx}: fault should fire per attempt");
            fl.shutdown();
        }
    }
    srv.shutdown();
}

/// FaultVfs composition: the served records themselves come from a
/// database that lost power mid-write and recovered. Whatever survived,
/// the client ends verified-complete, with attributed evidence (the
/// recovered history no longer explains the live data), or with a clean
/// protocol error — never a partial result presented as verified.
#[test]
fn crash_recovered_stores_never_yield_partial_verified_results() {
    let w = world();
    let total = w.prov.records.len();
    let path = std::path::Path::new("chaos.db");

    // Dry run to size the mutating-op space.
    let vfs = FaultVfs::new(FaultConfig {
        seed: 7,
        ..FaultConfig::default()
    });
    {
        let db = ProvenanceDb::durable_with(vfs.clone(), path).unwrap();
        for rec in &w.prov.records {
            db.append(rec.to_stored()).unwrap();
        }
        db.sync().unwrap();
    }
    let total_ops = vfs.ops();
    assert!(total_ops > 3, "workload too small to crash interestingly");

    let mut complete = 0u64;
    let mut evidence = 0u64;
    let mut refused = 0u64;
    let step = (total_ops / 10).max(1);
    let mut crash_points: Vec<u64> = (1..=total_ops).step_by(step as usize).collect();
    crash_points.push(total_ops + 100); // never fires: the fully durable case
    for crash_at in crash_points {
        let vfs = FaultVfs::new(FaultConfig {
            seed: 0xD15C ^ crash_at,
            crash_at_op: Some(crash_at),
            ..FaultConfig::default()
        });
        {
            let Ok(db) = ProvenanceDb::durable_with(vfs.clone(), path) else {
                continue; // crashed during open: nothing to serve
            };
            for rec in &w.prov.records {
                if db.append(rec.to_stored()).is_err() {
                    break;
                }
            }
            let _ = db.sync();
        }
        vfs.power_cycle();
        let Ok(db) = ProvenanceDb::durable_with(vfs.clone(), path) else {
            continue;
        };
        let recovered = db.records_for(w.chain).len();
        assert!(recovered <= total, "recovery invented records");

        let catalog = Arc::new(Catalog::new(
            w.forest.clone(),
            Arc::new(db),
            ALG,
            vec![w.chain],
        ));
        let srv = serve_with_registry(
            catalog,
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            tep_obs::Registry::new(),
        )
        .unwrap();
        // A one-shot wire cut on top of the crash-recovered store: the
        // net and storage fault planes compose.
        let fl = TamperProxy::spawn(srv.addr(), at_frame(3, ProxyAction::Cut, true)).unwrap();
        let mut cl = chaos_client(fl.addr(), 5, true);
        let ctx = format!("crash at op {crash_at} ({recovered}/{total} records recovered)");
        match cl.fetch_verified(w.chain, &w.keys) {
            Ok(rep) => {
                assert_eq!(
                    rep.records, total as u64,
                    "{ctx}: verified a SHORT transfer — the invariant is broken"
                );
                assert_eq!(rep.object_hash, {
                    let mut cl2 = chaos_client(srv.addr(), 1, false);
                    // recovered == total here, so a direct fetch agrees
                    cl2.fetch_verified(w.chain, &w.keys).unwrap().object_hash
                });
                complete += 1;
            }
            Err(NetError::TamperDetected { issues, .. }) => {
                assert!(!issues.is_empty(), "{ctx}: evidence must be attributed");
                evidence += 1;
            }
            Err(NetError::Remote {
                code: ErrorCode::UnknownObject,
                ..
            }) => {
                assert_eq!(recovered, 0, "{ctx}: refused despite surviving records");
                refused += 1;
            }
            Err(other) => panic!("{ctx}: outcome outside the invariant set: {other}"),
        }
        fl.shutdown();
        srv.shutdown();
    }
    assert!(complete >= 1, "the never-crashing control case must verify");
    assert!(
        evidence + refused >= 1,
        "no crash point damaged the store; sweep is vacuous"
    );
}

/// TamperProxy composition: a tampered stream that is *also* cut and
/// resumed must surface the same evidence kind as the uncut tampered
/// stream — resumption must not launder or reclassify an attack.
/// A proxy mutator that applies `tamper` to whichever PROV record it
/// matches, recomputing the frame CRC as a real attacker would.
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

/// The tamper every proxy-based test applies: flip the newest record's
/// output hash (the paper's canonical R1 violation).
fn flip_last_tamper() -> Tamper {
    let last = world().prov.records.last().unwrap();
    Tamper::FlipOutputHash {
        oid: last.output_oid,
        seq: last.seq_id,
    }
}

#[test]
fn resumed_tampered_stream_reports_the_same_evidence_kind() {
    let w = world();
    let srv = start_server();
    let tamper = flip_last_tamper();

    let kind_of = |err: NetError| -> Vec<EvidenceKind> {
        match err {
            NetError::TamperDetected { issues, .. } => issues.iter().map(|i| i.kind()).collect(),
            other => panic!("expected TamperDetected, got: {other}"),
        }
    };

    // Uncut tampered run.
    let proxy = TamperProxy::spawn(srv.addr(), tamper_mutator(tamper.clone())).unwrap();
    let mut cl = chaos_client(proxy.addr(), 1, true);
    let uncut_kinds = kind_of(cl.fetch_verified(w.chain, &w.keys).unwrap_err());
    proxy.shutdown();

    // Cut, resumed, tampered run: same attack, interrupted mid-stream.
    let proxy = TamperProxy::spawn(srv.addr(), tamper_mutator(tamper)).unwrap();
    let fl = TamperProxy::spawn(proxy.addr(), at_frame(5, ProxyAction::Cut, true)).unwrap();
    let mut cl = chaos_client(fl.addr(), 4, true);
    let resumed_kinds = kind_of(cl.fetch_verified(w.chain, &w.keys).unwrap_err());
    assert_eq!(
        uncut_kinds, resumed_kinds,
        "resumption reclassified the attack"
    );
    assert_eq!(
        cl.counters().retries,
        1,
        "the cut was retried once; the evidence never was"
    );
    fl.shutdown();
    proxy.shutdown();
    srv.shutdown();
}

/// A generously-budgeted client for the thousand-connection soak: on a
/// loaded single-core box a thread may sit descheduled for whole seconds,
/// so the per-read timeout and retry budget are sized for scheduling
/// noise, not for fault detection (the soak's faults are cuts and
/// tampering, not stalls).
fn soak_client(addr: SocketAddr, max_attempts: u32, resume: bool) -> Client {
    let mut cfg = ClientConfig::new(ALG);
    cfg.resume = resume;
    cfg.read_timeout = Duration::from_secs(10);
    cfg.retry = RetryPolicy {
        max_attempts,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        deadline: Duration::from_secs(120),
    };
    Client::new(addr, cfg)
}

/// Every `tep_core_evidence_*` counter in `reg` with a nonzero total,
/// sorted by name — the per-kind evidence ledger.
fn evidence_counts(reg: &tep_obs::Registry) -> Vec<(String, u64)> {
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

/// The value of counter `name` in a STATS text exposition.
fn stats_counter(stats: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("{name} not in stats"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{name} not a counter: {e}"))
}

/// The event-loop rewrite's scale target: 1000+ concurrent connections
/// multiplexed on the one server thread, with clean, cut, persistently
/// faulty, and tampered traffic interleaved. Every connection must settle
/// in the invariant quartet — complete, resumed, clean retryable error,
/// attributed evidence — and the evidence ledger must account for each
/// tampered connection **exactly, per kind**: the expected counts are 8×
/// whatever one control run of the same attack records, so a detection
/// that goes missing (or fires twice) under load fails the soak.
#[test]
fn thousand_connection_soak_settles_every_outcome() {
    const CLEAN: usize = 1000;
    const CUT: usize = 8;
    const FAULTY: usize = 8;
    const TAMPERED: usize = 8;

    let w = world();
    let srv = serve_with_registry(
        Arc::clone(&w.catalog),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig {
            queue_depth: 2048,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            request_deadline: Duration::from_secs(60),
        },
        tep_obs::Registry::new(),
    )
    .unwrap();
    let base = Arc::new(baseline(srv.addr()));
    let addr = srv.addr();

    // Control: the per-kind evidence one flipped-hash transfer records.
    let expected = {
        let control_reg = tep_obs::Registry::new();
        let proxy = TamperProxy::spawn(addr, tamper_mutator(flip_last_tamper())).unwrap();
        let mut cl = soak_client(proxy.addr(), 1, true);
        cl.attach_obs(&control_reg);
        let err = cl.fetch_verified(w.chain, &w.keys).unwrap_err();
        assert!(
            matches!(err, NetError::TamperDetected { .. }),
            "control run must detect the flip: {err}"
        );
        proxy.shutdown();
        evidence_counts(&control_reg)
    };
    assert!(!expected.is_empty(), "control run recorded no evidence");

    let tamper_reg = tep_obs::Registry::new();
    let mut handles = Vec::with_capacity(CLEAN + CUT + FAULTY + TAMPERED);
    let spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new()
            .name(name)
            .stack_size(256 * 1024)
            .spawn(body)
            .expect("spawn soak thread")
    };

    for i in 0..CLEAN {
        let base = Arc::clone(&base);
        handles.push(spawn(
            format!("soak-clean-{i}"),
            Box::new(move || {
                // Stagger the connect wave so the kernel accept queue is
                // not hit by 1000 SYNs in the same millisecond.
                std::thread::sleep(Duration::from_millis((i % 64) as u64));
                let w = world();
                let mut cl = soak_client(addr, 8, true);
                let rep = cl
                    .fetch_verified(w.chain, &w.keys)
                    .unwrap_or_else(|e| panic!("clean #{i}: {e}"));
                assert!(rep.verification.verified(), "clean #{i}");
                assert_eq!(rep.records, base.records, "clean #{i}: short record set");
                assert_eq!(rep.nodes, base.nodes, "clean #{i}: short data set");
                assert_eq!(
                    rep.stream_digest, base.stream_digest,
                    "clean #{i}: record bytes differ"
                );
                assert_eq!(
                    rep.object_hash, base.object_hash,
                    "clean #{i}: hash differs"
                );
            }),
        ));
    }

    for i in 0..CUT {
        let base = Arc::clone(&base);
        handles.push(spawn(
            format!("soak-cut-{i}"),
            Box::new(move || {
                let w = world();
                let fl = TamperProxy::spawn(
                    addr,
                    // Frames 4..9: 2-7 PROV records delivered before the
                    // cut, so a checkpoint always exists.
                    at_frame(4 + (i as u64 % 6), ProxyAction::Cut, true),
                )
                .unwrap();
                let mut cl = soak_client(fl.addr(), 8, true);
                let rep = cl
                    .fetch_verified(w.chain, &w.keys)
                    .unwrap_or_else(|e| panic!("cut #{i}: did not recover: {e}"));
                assert!(rep.verification.verified(), "cut #{i}");
                assert!(rep.resumed >= 1, "cut #{i}: recovered without RESUME");
                assert_eq!(
                    rep.stream_digest, base.stream_digest,
                    "cut #{i}: record bytes differ"
                );
                assert_eq!(rep.object_hash, base.object_hash, "cut #{i}: hash differs");
                fl.shutdown();
            }),
        ));
    }

    for i in 0..FAULTY {
        handles.push(spawn(
            format!("soak-faulty-{i}"),
            Box::new(move || {
                let w = world();
                let fl = TamperProxy::spawn(addr, at_frame(2, ProxyAction::Cut, false)).unwrap();
                let mut cl = soak_client(fl.addr(), 2, false);
                let err = cl
                    .fetch_verified(w.chain, &w.keys)
                    .expect_err("faulty: cannot complete through a persistent cut");
                assert!(err.is_retryable(), "faulty #{i}: terminal error {err}");
                fl.shutdown();
            }),
        ));
    }

    for i in 0..TAMPERED {
        let reg = tamper_reg.clone();
        handles.push(spawn(
            format!("soak-tamper-{i}"),
            Box::new(move || {
                let w = world();
                let proxy = TamperProxy::spawn(addr, tamper_mutator(flip_last_tamper())).unwrap();
                let mut cl = soak_client(proxy.addr(), 1, true);
                cl.attach_obs(&reg);
                let err = cl
                    .fetch_verified(w.chain, &w.keys)
                    .expect_err("tampered: must not verify");
                assert!(
                    matches!(err, NetError::TamperDetected { .. }),
                    "tampered #{i}: wrong failure class: {err}"
                );
                proxy.shutdown();
            }),
        ));
    }

    for h in handles {
        h.join().expect("soak thread panicked");
    }

    // Per-kind exactness: 8 tampered connections, each recording exactly
    // the control run's evidence — no more (double counting under load),
    // no less (detections lost in the fan-in).
    let want: Vec<(String, u64)> = expected
        .iter()
        .map(|(name, n)| (name.clone(), n * TAMPERED as u64))
        .collect();
    assert_eq!(
        evidence_counts(&tamper_reg),
        want,
        "evidence ledger must account for all {TAMPERED} tampered connections exactly"
    );

    // The one event-loop thread really did carry the whole fleet.
    let mut cl = soak_client(addr, 3, true);
    let stats = cl.stats().unwrap();
    let conns = stats_counter(&stats, "tep_net_connections_total");
    assert!(
        conns >= (CLEAN + CUT + FAULTY + TAMPERED) as u64,
        "server saw only {conns} connections"
    );
    srv.shutdown();
}
