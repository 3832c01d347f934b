//! Tenant-isolation chaos soak: every fault plane — FaultVfs (disk),
//! TamperProxy (wire faults and content) — aimed at tenant A,
//! across the seeded matrix, while tenant B keeps fetching.
//!
//! The bulkhead invariant under test, from the robustness roadmap:
//!
//! 1. tenant B converges **byte-identical** to its uncut baseline on
//!    every fetch (stream digest, record/node totals, object hash),
//!    with zero evidence, zero shed, zero retries, and no added
//!    quarantine — exact counter accounting, not "roughly unharmed";
//! 2. tenant A's damage is **fully attributed**: per-tenant labeled
//!    evidence counters match a control run exactly (`control × N`),
//!    quota sheds carry the tenant-scaled `Retry-After` hint, disk
//!    corruption lands in A's federated report only;
//! 3. probes for unknown or disabled tenants get the typed,
//!    non-retryable `ERR unknown-tenant` without burning retry budget.
//!
//! The sweep seed comes from `TEP_CHAOS_SEED` (CI sweeps {1, 2009,
//! 31337}, one per job); unset, all three run.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::attack::Tamper;
use tep_core::hashing::HashingStrategy;
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::tenant::{federated_verify, TenantDirectory};
use tep_core::verify::EvidenceKind;
use tep_core::{ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::CertificateAuthority;
use tep_model::{Forest, ObjectId, TenantId, Value};
use tep_net::proxy::at_frame;
use tep_net::wire::{FrameReader, FrameWriter, Message, WIRE_VERSION};
use tep_net::TransferCounters;
use tep_net::{
    serve, Catalog, Client, ClientConfig, ErrorCode, NetError, ProxyAction, RetryPolicy,
    ServerConfig, TamperProxy, TenantSpec,
};
use tep_obs::{names, Registry};
use tep_storage::vfs::{FaultConfig, FaultVfs};
use tep_storage::{shard_path, TenantShards, Vfs};
use tep_workloads::seeds_from_env;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// The tenant every attack is aimed at.
const A: TenantId = TenantId(1);
/// The bystander tenant that must converge byte-identically throughout.
const B: TenantId = TenantId(2);
/// Disabled, i.e. left off the served tenant list: probes must see exactly
/// `ERR unknown-tenant`, the same answer as a tenant that never existed.
const DISABLED: TenantId = TenantId(3);
/// Never provisioned.
const UNKNOWN: TenantId = TenantId(99);

/// Records per tenant chain (insert + 11 updates, as in the chaos soak).
const RECORDS: u64 = 12;
/// Counted tampered runs per seed; evidence must equal `control × N`.
const TAMPERED_RUNS: u64 = 3;

/// Everything one seed's world needs: per-tenant signing identities, a
/// sharded store with a fault injector per tenant's disk, and the two
/// populated chains.
struct World {
    dir: TenantDirectory,
    vfs_a: Arc<FaultVfs>,
    vfs_b: Arc<FaultVfs>,
    root: String,
    forest_a: Forest,
    forest_b: Forest,
    chain_a: ObjectId,
    chain_b: ObjectId,
    prov_a: ProvenanceObject,
}

fn specs_for(w: &World) -> Vec<(TenantId, Arc<dyn Vfs>)> {
    vec![
        (A, Arc::clone(&w.vfs_a) as Arc<dyn Vfs>),
        (B, Arc::clone(&w.vfs_b) as Arc<dyn Vfs>),
    ]
}

/// Writes `RECORDS` chained records into `tenant`'s shard, signed by the
/// tenant's own PKI-minted signer.
fn populate(dir: &TenantDirectory, shards: &TenantShards, tenant: TenantId) -> (Forest, ObjectId) {
    let signer = dir.signer(tenant).unwrap();
    let db = shards.shard(tenant).unwrap();
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let (chain, _) = tracker.insert(&signer, Value::Int(0), None).unwrap();
    for i in 1..RECORDS as i64 {
        tracker.update(&signer, chain, Value::Int(i)).unwrap();
    }
    db.sync().unwrap();
    (tracker.forest().clone(), chain)
}

fn build_world(seed: u64) -> (World, TenantShards) {
    let mut rng = StdRng::seed_from_u64(0x7E4A_11CE ^ seed);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let mut dir = TenantDirectory::new(&ca);
    dir.mint(&ca, A, 512, &mut rng);
    dir.mint(&ca, B, 512, &mut rng);
    let vfs_a = FaultVfs::new(FaultConfig::default());
    let vfs_b = FaultVfs::new(FaultConfig::default());
    let root = format!("/tenant-iso-{seed}");
    let mut w = World {
        dir,
        vfs_a,
        vfs_b,
        root,
        forest_a: Forest::default(),
        forest_b: Forest::default(),
        chain_a: ObjectId(0),
        chain_b: ObjectId(0),
        prov_a: ProvenanceObject {
            target: ObjectId(0),
            records: Vec::new(),
        },
    };
    let shards = TenantShards::open_with(&w.root, specs_for(&w));
    (w.forest_a, w.chain_a) = populate(&w.dir, &shards, A);
    (w.forest_b, w.chain_b) = populate(&w.dir, &shards, B);
    w.prov_a = collect(&shards.shard(A).unwrap(), w.chain_a).unwrap();
    (w, shards)
}

/// A client scoped to `tenant`, with a generous read timeout (loaded CI
/// boxes deschedule threads for whole seconds) and a tight backoff.
fn tenant_client(addr: SocketAddr, tenant: TenantId, max_attempts: u32, resume: bool) -> Client {
    let mut cfg = ClientConfig::for_tenant(ALG, tenant);
    cfg.resume = resume;
    cfg.read_timeout = Duration::from_secs(10);
    cfg.retry = RetryPolicy {
        max_attempts,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(10),
        deadline: Duration::from_secs(60),
    };
    Client::new(addr, cfg)
}

/// The byte-level profile of an uncut transfer, diffed against every
/// later fetch of the same chain.
struct Baseline {
    records: u64,
    nodes: u64,
    stream_digest: Vec<u8>,
    object_hash: Vec<u8>,
}

fn baseline_of(
    cl: &mut Client,
    chain: ObjectId,
    dir: &TenantDirectory,
    tenant: TenantId,
) -> Baseline {
    let rep = cl.fetch_verified(chain, dir.keys(tenant).unwrap()).unwrap();
    assert!(rep.verification.verified());
    assert_eq!(rep.resumed, 0);
    Baseline {
        records: rep.records,
        nodes: rep.nodes,
        stream_digest: rep.stream_digest,
        object_hash: rep.object_hash,
    }
}

/// Tenant B's whole contract in one helper: a single-attempt fetch that
/// verifies byte-identical to the baseline with no resume and no retry.
fn assert_b_identical(addr: SocketAddr, w: &World, reg_b: &Registry, base: &Baseline, ctx: &str) {
    let mut cl = tenant_client(addr, B, 1, true);
    cl.attach_obs(reg_b);
    let rep = cl
        .fetch_verified(w.chain_b, w.dir.keys(B).unwrap())
        .unwrap_or_else(|e| panic!("{ctx}: tenant B fetch failed: {e}"));
    assert!(rep.verification.verified(), "{ctx}");
    assert_eq!(rep.records, base.records, "{ctx}: B short record set");
    assert_eq!(rep.nodes, base.nodes, "{ctx}: B short data set");
    assert_eq!(
        rep.stream_digest, base.stream_digest,
        "{ctx}: B record bytes differ"
    );
    assert_eq!(rep.object_hash, base.object_hash, "{ctx}: B hash differs");
    assert_eq!(rep.resumed, 0, "{ctx}: B should never need to resume");
    assert_eq!(
        cl.counters().retries,
        0,
        "{ctx}: B burned retry budget under A's attack"
    );
}

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

/// Every `tep_core_evidence_*` counter in `reg` with a nonzero total,
/// sorted by name — the per-kind evidence ledger.
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

/// Opens a raw connection, completes HELLO as `tenant`, and keeps it open
/// — occupying one slot of the tenant's connection quota.
fn hold_tenant_conn(
    addr: SocketAddr,
    tenant: TenantId,
) -> (FrameReader<TcpStream>, FrameWriter<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let counters = Arc::new(TransferCounters::new());
    let mut writer = FrameWriter::new(stream.try_clone().unwrap(), Arc::clone(&counters));
    let mut reader = FrameReader::new(stream, counters);
    writer
        .write_message(&Message::Hello {
            version: WIRE_VERSION,
            alg: ALG,
            tenant: tenant.raw(),
        })
        .unwrap();
    match reader.read_message().unwrap() {
        Some(Message::Hello { .. }) => {}
        other => panic!("held connection was not admitted: {other:?}"),
    }
    (reader, writer)
}

/// The soak. One full pass per seed in the `TEP_CHAOS_SEED` matrix.
#[test]
fn attacks_on_tenant_a_never_reach_tenant_b() {
    for seed in seeds_from_env("TEP_CHAOS_SEED") {
        let (w, shards) = build_world(seed);
        let keys_a = w.dir.keys(A).unwrap();
        let reg_b = Registry::new();

        // ---- Serve both tenants from their own shards, A under a
        // 1-connection quota; DISABLED is not listed.
        let catalog_a = Arc::new(Catalog::new(
            w.forest_a.clone(),
            shards.shard(A).unwrap(),
            ALG,
            vec![w.chain_a],
        ));
        let catalog_b = Arc::new(Catalog::new(
            w.forest_b.clone(),
            shards.shard(B).unwrap(),
            ALG,
            vec![w.chain_b],
        ));
        let srv = serve(
            vec![
                TenantSpec::new(A, catalog_a).with_max_connections(1),
                TenantSpec::new(B, Arc::clone(&catalog_b)),
            ],
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            Registry::new(),
        )
        .unwrap();
        let addr = srv.addr();
        let reg = srv.registry();
        let mut b_fetches = 0u64;

        let base_b = {
            let mut cl = tenant_client(addr, B, 1, true);
            cl.attach_obs(&reg_b);
            b_fetches += 1;
            baseline_of(&mut cl, w.chain_b, &w.dir, B)
        };
        assert_eq!(base_b.records, RECORDS);

        // ---- Quota: a held connection fills A's only slot. The next A
        // client is shed with the deterministic tenant-scaled hint
        // (backlog of exactly 1 ⇒ (1+1)·25 = 50 ms), retryable — while B
        // streams right through.
        let held = hold_tenant_conn(addr, A);
        let mut cl = tenant_client(addr, A, 1, true);
        let err = cl
            .fetch_verified(w.chain_a, keys_a)
            .expect_err("seed {seed}: A's quota is full; the fetch cannot be admitted");
        match &err {
            NetError::Remote {
                code: ErrorCode::Busy,
                retry_after,
                detail,
            } => {
                assert_eq!(
                    *retry_after,
                    Some(Duration::from_millis(50)),
                    "seed {seed}: hint must be scaled to a backlog of exactly 1"
                );
                assert!(
                    detail.contains("t1"),
                    "seed {seed}: unattributed shed: {detail}"
                );
            }
            other => panic!("seed {seed}: expected a quota shed, got {other}"),
        }
        assert!(
            err.is_retryable(),
            "seed {seed}: a shed must stay retryable"
        );
        assert_eq!(
            reg.counter_value(&names::with_tenant(names::NET_TENANT_QUOTA_SHEDS, A.raw())),
            1,
            "seed {seed}: exactly one labeled quota shed"
        );
        assert_eq!(reg.counter_value(names::NET_TENANT_QUOTA_SHEDS), 1);
        assert_eq!(
            reg.counter_value(&names::with_tenant(names::NET_SHED, A.raw())),
            1
        );
        b_fetches += 1;
        assert_b_identical(addr, &w, &reg_b, &base_b, "while A is at quota");
        drop(held);

        // A's own uncut baseline (retry budget rides out the just-dropped
        // held connection's close racing the event loop).
        let base_a = {
            let mut cl = tenant_client(addr, A, 4, true);
            baseline_of(&mut cl, w.chain_a, &w.dir, A)
        };
        assert_eq!(base_a.records, RECORDS);

        // ---- TamperProxy at A: a control run fixes the expected per-kind
        // evidence, then N counted runs must record exactly control × N in
        // A's ledger — no detection lost, none double-counted.
        let last = w.prov_a.records.last().unwrap();
        let tamper = Tamper::FlipOutputHash {
            oid: last.output_oid,
            seq: last.seq_id,
        };
        let expected = {
            let reg_ctrl = Registry::new();
            let proxy = TamperProxy::spawn(addr, tamper_mutator(tamper.clone())).unwrap();
            let mut cl = tenant_client(proxy.addr(), A, 4, true);
            cl.attach_obs(&reg_ctrl);
            let err = cl.fetch_verified(w.chain_a, keys_a).unwrap_err();
            assert!(
                matches!(err, NetError::TamperDetected { .. }),
                "seed {seed}: control run must detect the flip: {err}"
            );
            proxy.shutdown();
            evidence_counts(&reg_ctrl)
        };
        assert!(
            !expected.is_empty(),
            "seed {seed}: control run recorded no evidence"
        );

        let reg_a = Registry::new();
        for run in 0..TAMPERED_RUNS {
            let proxy = TamperProxy::spawn(addr, tamper_mutator(tamper.clone())).unwrap();
            let mut cl = tenant_client(proxy.addr(), A, 4, true);
            cl.attach_obs(&reg_a);
            let err = cl.fetch_verified(w.chain_a, keys_a).unwrap_err();
            assert!(
                matches!(err, NetError::TamperDetected { .. }),
                "seed {seed} run {run}: wrong failure class: {err}"
            );
            proxy.shutdown();
        }
        let want: Vec<(String, u64)> = expected
            .iter()
            .map(|(name, n)| (name.clone(), n * TAMPERED_RUNS))
            .collect();
        assert_eq!(
            evidence_counts(&reg_a),
            want,
            "seed {seed}: A's evidence ledger must account for all {TAMPERED_RUNS} tampered runs exactly"
        );
        b_fetches += 1;
        assert_b_identical(addr, &w, &reg_b, &base_b, "after tampered runs at A");

        // ---- Wire cuts at A: a persistent cut ends in a clean retryable
        // error once the attempt cap is spent.
        let fl = TamperProxy::spawn(addr, at_frame(4, ProxyAction::Cut, false)).unwrap();
        let mut cl = tenant_client(fl.addr(), A, 2, false);
        let err = cl
            .fetch_verified(w.chain_a, keys_a)
            .expect_err("seed {seed}: cannot complete through a persistent cut");
        assert!(err.is_retryable(), "seed {seed}: terminal error {err}");
        assert!(
            fl.fired() >= 2,
            "seed {seed}: fault should fire per attempt"
        );
        fl.shutdown();
        b_fetches += 1;
        assert_b_identical(addr, &w, &reg_b, &base_b, "after persistent cuts at A");

        // ---- Probes: unknown and disabled tenants get the same typed,
        // non-retryable refusal, and burn no retry budget.
        for probe in [UNKNOWN, DISABLED] {
            let mut cl = tenant_client(addr, probe, 4, true);
            let err = cl
                .fetch_verified(w.chain_a, keys_a)
                .expect_err("an unprovisioned tenant cannot fetch");
            match &err {
                NetError::Remote {
                    code: ErrorCode::UnknownTenant,
                    retry_after,
                    detail,
                } => {
                    assert_eq!(
                        *retry_after, None,
                        "seed {seed}: no backoff hint on a terminal refusal"
                    );
                    assert!(
                        detail.contains(&format!("t{}", probe.raw())),
                        "seed {seed}: unattributed refusal: {detail}"
                    );
                }
                other => panic!("seed {seed}: probe {} got {other}", probe.label()),
            }
            assert!(!err.is_retryable(), "seed {seed}: refusal must be terminal");
            assert_eq!(
                cl.counters().retries,
                0,
                "seed {seed}: probe {} burned retry budget",
                probe.label()
            );
        }
        assert_eq!(
            reg.counter_value(names::NET_TENANT_REJECTIONS),
            2,
            "seed {seed}: exactly the two probes rejected"
        );

        // ---- Final exact sweep: B's side of the ledger is all zeros and
        // every one of its connections is accounted for.
        b_fetches += 1;
        assert_b_identical(addr, &w, &reg_b, &base_b, "final sweep");
        assert_eq!(
            reg.counter_value(&names::with_tenant(names::NET_CONNECTIONS, B.raw())),
            b_fetches,
            "seed {seed}: every B connection accounted for, none shed"
        );
        assert_eq!(
            reg.counter_value(&names::with_tenant(names::NET_TENANT_QUOTA_SHEDS, B.raw())),
            0,
            "seed {seed}: B must never be quota-shed"
        );
        assert_eq!(
            reg.counter_value(&names::with_tenant(names::NET_SHED, B.raw())),
            0,
            "seed {seed}: B must never be shed"
        );
        assert!(
            reg.counter_value(&names::with_tenant(names::NET_CONNECTIONS, A.raw()))
                >= 2 + TAMPERED_RUNS,
            "seed {seed}: A's admissions undercounted"
        );
        assert!(
            evidence_counts(&reg_b).is_empty(),
            "seed {seed}: evidence bled into B's ledger: {:?}",
            evidence_counts(&reg_b)
        );
        srv.shutdown();
        drop(shards);

        // ---- FaultVfs at A: flip one byte in A's shard file only, reopen
        // both shards on the same injectors, and verify federated
        // attribution is exact: A quarantined and attributed, B clean.
        let offset = 180 + (seed % 64) as usize;
        assert!(
            w.vfs_a
                .corrupt_byte(&shard_path(Path::new(&w.root), A), offset),
            "seed {seed}: corruption must land inside A's shard"
        );
        let shards = TenantShards::open_with(&w.root, specs_for(&w));
        let ra = shards.recovery(A).unwrap();
        let rb = shards.recovery(B).unwrap();
        assert!(
            ra.is_degraded(),
            "seed {seed}: A's corruption must quarantine"
        );
        assert!(!rb.is_degraded(), "seed {seed}: B must reopen clean");
        assert_eq!(
            rb.quarantined_bytes, 0,
            "seed {seed}: no added quarantine at B"
        );
        assert_eq!(shards.shard(B).unwrap().len() as u64, RECORDS);

        let fed_reg = Registry::new();
        let report = federated_verify(&w.dir, &shards, |_, _| None, Some(&fed_reg));
        let ta = report.tenant(A).unwrap();
        let tb = report.tenant(B).unwrap();
        assert!(!ta.verified(), "seed {seed}: A must carry the damage");
        assert!(
            ta.issues
                .iter()
                .any(|i| i.kind() == EvidenceKind::StorageQuarantine),
            "seed {seed}: A's damage must be attributed to quarantined storage: {:?}",
            ta.issues
        );
        assert!(
            tb.verified(),
            "seed {seed}: B must verify clean: {:?}",
            tb.issues
        );
        assert!(
            tb.denial_checked,
            "seed {seed}: B's denial tree must self-check"
        );
        assert!(
            fed_reg.counter_value(&names::with_tenant(
                &EvidenceKind::StorageQuarantine.counter_name(),
                A.raw()
            )) >= 1,
            "seed {seed}: quarantine must be counted against A"
        );
        for kind in EvidenceKind::ALL {
            assert_eq!(
                fed_reg.counter_value(&names::with_tenant(&kind.counter_name(), B.raw())),
                0,
                "seed {seed}: B must have zero {kind} evidence"
            );
        }

        // ---- Serve round two over the damaged store: B still converges
        // byte-identical to its pre-attack baseline; A either completes in
        // full or fails attributed — never a silently short verified result.
        let srv2 = serve(
            vec![
                TenantSpec::new(
                    A,
                    Arc::new(Catalog::new(
                        w.forest_a.clone(),
                        shards.shard(A).unwrap(),
                        ALG,
                        vec![w.chain_a],
                    )),
                ),
                TenantSpec::new(
                    B,
                    Arc::new(Catalog::new(
                        w.forest_b.clone(),
                        shards.shard(B).unwrap(),
                        ALG,
                        vec![w.chain_b],
                    )),
                ),
            ],
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            Registry::new(),
        )
        .unwrap();
        assert_b_identical(
            srv2.addr(),
            &w,
            &reg_b,
            &base_b,
            "serving over A's corrupted disk",
        );
        let mut cl = tenant_client(srv2.addr(), A, 2, true);
        match cl.fetch_verified(w.chain_a, keys_a) {
            Ok(rep) => {
                assert_eq!(
                    rep.records, base_a.records,
                    "seed {seed}: verified a SHORT transfer — the invariant is broken"
                );
                assert_eq!(rep.object_hash, base_a.object_hash, "seed {seed}");
            }
            Err(NetError::TamperDetected { issues, .. }) => {
                assert!(
                    !issues.is_empty(),
                    "seed {seed}: evidence must be attributed"
                );
            }
            Err(NetError::Remote {
                code: ErrorCode::UnknownObject,
                ..
            }) => {}
            Err(other) => panic!("seed {seed}: outcome outside the invariant set: {other}"),
        }
        assert!(
            evidence_counts(&reg_b).is_empty(),
            "seed {seed}: A's disk corruption bled into B's ledger"
        );
        srv2.shutdown();
    }
}
