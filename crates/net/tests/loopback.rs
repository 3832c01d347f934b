//! End-to-end loopback tests: a real TCP server, a real client, and a
//! man-in-the-middle proxy applying the paper's §2.2 attacks *on the wire*.
//!
//! The headline assertions:
//!
//! * an untampered transfer is accepted and its recomputed object hash
//!   matches the sender's,
//! * **every** [`Tamper`] variant applied in flight is rejected by the
//!   client's streaming verifier, with the offending wire frame attributed
//!   for mid-stream (signature-class) evidence,
//! * data-frame mutation and data substitution are caught as R4/R5
//!   output mismatches,
//! * transient failures (refused connections, busy servers, truncated
//!   streams) are retried with backoff — but tamper evidence never is.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::attack::{all_single_record_tampers, apply_tamper, Tamper};
use tep_core::hashing::HashingStrategy;
use tep_core::metrics::TransferCounters;
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::verify::TamperEvidence;
use tep_core::{ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{AggregateMode, ObjectId, Value};
use tep_net::proxy::Mutator;
use tep_net::wire::{FrameReader, FrameWriter, Message};
use tep_net::{
    serve, Catalog, Client, ClientConfig, ErrorCode, NetError, ProxyAction, RetryPolicy,
    ServerConfig, TamperProxy, WIRE_VERSION,
};
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// A fully built provenance world shared by every test in this binary
/// (RSA keygen is the expensive part; build it once).
struct NetWorld {
    catalog: Arc<Catalog>,
    keys: KeyDirectory,
    /// Compound object: a small database root with a table, rows, cells.
    root: ObjectId,
    root_hash: Vec<u8>,
    /// Aggregate with non-linear (DAG) provenance.
    agg: ObjectId,
    agg_hash: Vec<u8>,
    /// The aggregate's full provenance DAG, for tamper enumeration.
    prov_agg: ProvenanceObject,
    /// Registered participant who authored nothing (reattribution target).
    mallory: ParticipantId,
}

static WORLD: OnceLock<NetWorld> = OnceLock::new();

fn world() -> &'static NetWorld {
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x9E7_BEEF);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mallory = ca.enroll(ParticipantId(3), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        for p in [&alice, &bob, &mallory] {
            keys.register(p.certificate().clone()).unwrap();
        }

        let db = Arc::new(ProvenanceDb::in_memory());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Economical,
            },
            Arc::clone(&db),
        );

        // Compound object: db root → table → 3 rows × 2 cells, plus updates.
        let (root, _) = tracker
            .insert(&alice, Value::Text("customers".into()), None)
            .unwrap();
        let (table, _) = tracker
            .insert(&bob, Value::Text("orders".into()), Some(root))
            .unwrap();
        let mut last_cell = None;
        for r in 0..3i64 {
            let (row, _) = tracker.insert(&alice, Value::Null, Some(table)).unwrap();
            for c in 0..2i64 {
                let (cell, _) = tracker
                    .insert(&bob, Value::Int(r * 10 + c), Some(row))
                    .unwrap();
                last_cell = Some(cell);
            }
        }
        tracker
            .update(&alice, last_cell.unwrap(), Value::Int(777))
            .unwrap();

        // Non-linear provenance: d = agg(a, c) where c = agg(a, b).
        let (a, _) = tracker.insert(&alice, Value::Int(1), None).unwrap();
        let (b, _) = tracker.insert(&bob, Value::Int(2), None).unwrap();
        tracker.update(&bob, b, Value::Int(3)).unwrap();
        let (c, _) = tracker
            .aggregate(&bob, &[a, b], Value::Int(4), AggregateMode::Atomic)
            .unwrap();
        tracker.update(&alice, a, Value::Int(5)).unwrap();
        let (agg, _) = tracker
            .aggregate(&alice, &[a, c], Value::Int(9), AggregateMode::Atomic)
            .unwrap();

        let root_hash = tracker.object_hash(root).unwrap();
        let agg_hash = tracker.object_hash(agg).unwrap();
        let prov_agg = collect(&db, agg).unwrap();
        let catalog = Arc::new(Catalog::new(
            tracker.forest().clone(),
            db,
            ALG,
            vec![root, agg],
        ));

        NetWorld {
            catalog,
            keys,
            root,
            root_hash,
            agg,
            agg_hash,
            prov_agg,
            mallory: mallory.id(),
        }
    })
}

fn start_server() -> tep_net::ServerHandle {
    serve(
        Arc::clone(&world().catalog),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
    )
    .unwrap()
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr, ClientConfig::new(ALG))
}

/// A client that fails fast (short timeouts, tiny backoff) for tests that
/// exercise the retry machinery.
fn impatient_client(addr: SocketAddr, max_attempts: u32) -> Client {
    let mut cfg = ClientConfig::new(ALG);
    cfg.read_timeout = Duration::from_millis(400);
    cfg.retry = RetryPolicy {
        max_attempts,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    Client::new(addr, cfg)
}

#[test]
fn honest_transfer_is_accepted_and_hash_matches_sender() {
    let w = world();
    let srv = start_server();
    let mut cl = client(srv.addr());

    // Compound object: hash recomputed from the streamed subtree matches
    // the sender's, and the totals match the OFFER manifest.
    let rep = cl.fetch_verified(w.root, &w.keys).unwrap();
    assert!(rep.verification.verified());
    assert_eq!(rep.object_hash, w.root_hash);
    let entry = rep
        .offer
        .iter()
        .find(|e| e.oid == w.root)
        .expect("root is offered");
    assert_eq!(rep.records, entry.records);
    assert_eq!(rep.nodes, entry.nodes);
    assert_eq!(rep.nodes, 11, "root + table + 3 rows + 6 cells");

    // DAG aggregate over the same connection-oriented client.
    let rep = cl.fetch_verified(w.agg, &w.keys).unwrap();
    assert!(rep.verification.verified());
    assert_eq!(rep.object_hash, w.agg_hash);
    assert_eq!(rep.nodes, 1, "atomic aggregate is a single node");
    assert_eq!(
        rep.records, 6,
        "DAG history rides along: a (insert+update), b (insert+update), c, d"
    );

    // Counters saw real traffic and no failures.
    let snap = cl.counters();
    assert_eq!(
        snap.frames_sent, 3,
        "one HELLO, two FETCHes: the second fetch reuses the connection"
    );
    assert_eq!(snap.conn_reuses, 1);
    assert!(snap.frames_received > snap.frames_sent);
    assert!(snap.bytes_received > snap.bytes_sent);
    assert_eq!(snap.verify_failures, 0);
    assert_eq!(snap.retries, 0);
    let server_snap = srv.counters();
    assert!(server_snap.frames_sent >= snap.frames_received);
    srv.shutdown();
}

#[test]
fn offer_manifest_lists_served_objects() {
    let w = world();
    let srv = start_server();
    let offer = client(srv.addr()).offer().unwrap();
    assert_eq!(offer.len(), 2);
    for oid in [w.root, w.agg] {
        let e = offer.iter().find(|e| e.oid == oid).expect("offered");
        assert!(e.records > 0);
        assert!(e.nodes > 0);
    }
}

#[test]
fn concurrent_clients_all_verify() {
    let w = world();
    let srv = start_server();
    let addr = srv.addr();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut cl = client(addr);
                let rep = cl.fetch_verified(w.root, &w.keys).unwrap();
                assert_eq!(rep.object_hash, w.root_hash);
                let rep = cl.fetch_verified(w.agg, &w.keys).unwrap();
                assert_eq!(rep.object_hash, w.agg_hash);
            });
        }
    });
    srv.shutdown();
}

#[test]
fn unknown_object_is_refused() {
    let w = world();
    let srv = start_server();
    let err = client(srv.addr())
        .fetch_verified(ObjectId(0xDEAD_0BED), &w.keys)
        .unwrap_err();
    match err {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownObject),
        other => panic!("expected UnknownObject, got: {other}"),
    }
}

#[test]
fn version_and_algorithm_skew_are_refused() {
    let w = world();
    let srv = start_server();

    // Raw wire: a client speaking a future protocol version.
    let counters = Arc::new(TransferCounters::new());
    let stream = TcpStream::connect(srv.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap(), Arc::clone(&counters));
    let mut writer = FrameWriter::new(stream, counters);
    writer
        .write_message(&Message::Hello {
            version: WIRE_VERSION + 1,
            alg: ALG,
            tenant: 0,
        })
        .unwrap();
    match reader.read_message().unwrap() {
        Some(Message::Error { code, .. }) => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected ERR version-mismatch, got {other:?}"),
    }

    // Same version, different hash algorithm: also refused.
    let mut cl = Client::new(srv.addr(), ClientConfig::new(HashAlgorithm::Sha1));
    match cl.fetch_verified(w.root, &w.keys).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("expected VersionMismatch, got: {other}"),
    }
}

/// A mutator that applies one [`Tamper`] to the matching PROV frame in
/// flight, re-framing with a valid CRC — exactly what an attacker on the
/// path can do (the CRC only guards against accidents).
fn tamper_mutator(tamper: Tamper) -> Mutator {
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
        if !apply_tamper(&mut holder, &tamper) {
            return ProxyAction::Forward; // not the targeted record
        }
        match holder.records.into_iter().next() {
            Some(tampered) => ProxyAction::Replace(Message::Prov {
                record: tampered.to_stored(),
            }),
            None => ProxyAction::Drop, // Tamper::Remove
        }
    })
}

#[test]
fn every_wire_tamper_is_detected_and_never_retried() {
    let w = world();
    let srv = start_server();
    let tampers = all_single_record_tampers(&w.prov_agg, w.mallory);
    assert!(
        tampers.len() >= 20,
        "DAG history should enumerate a rich tamper surface, got {}",
        tampers.len()
    );

    for tamper in tampers {
        let proxy = TamperProxy::spawn(srv.addr(), tamper_mutator(tamper.clone())).unwrap();
        let mut cl = client(proxy.addr());
        let err = cl.fetch_verified(w.agg, &w.keys).unwrap_err();
        match err {
            NetError::TamperDetected { frame, issues } => {
                assert!(!issues.is_empty(), "{tamper:?}: evidence must be reported");
                // Signature-class tampers are caught the moment the
                // offending record's frame arrives; only removal can defer
                // evidence to end-of-transfer (chain holes found at finish).
                if !matches!(tamper, Tamper::Remove { .. }) {
                    assert!(
                        frame.is_some(),
                        "{tamper:?}: expected mid-stream frame attribution"
                    );
                    assert!(
                        issues
                            .iter()
                            .any(|i| matches!(i, TamperEvidence::BadSignature { .. })),
                        "{tamper:?}: expected a bad signature, got {issues:?}"
                    );
                }
            }
            other => panic!("{tamper:?} produced `{other}` instead of TamperDetected"),
        }
        let snap = cl.counters();
        assert!(snap.verify_failures >= 1, "{tamper:?}: failure not counted");
        assert_eq!(snap.retries, 0, "{tamper:?}: tamper evidence was retried");
        proxy.shutdown();
    }
    srv.shutdown();
}

#[test]
fn data_mutation_in_flight_is_detected_as_output_mismatch() {
    // R4: the data is modified but the provenance is left intact — the
    // recomputed object hash no longer matches the newest record.
    let w = world();
    let srv = start_server();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| {
            let Message::Data { entries } = msg else {
                return ProxyAction::Forward;
            };
            let mut entries = entries.clone();
            entries[0].value = Value::Int(666_666);
            ProxyAction::Replace(Message::Data { entries })
        }),
    )
    .unwrap();
    let mut cl = client(proxy.addr());
    match cl.fetch_verified(w.root, &w.keys).unwrap_err() {
        NetError::TamperDetected { frame, issues } => {
            assert!(frame.is_none(), "hash evidence appears at end-of-transfer");
            assert!(issues
                .iter()
                .any(|i| matches!(i, TamperEvidence::OutputMismatch { .. })));
        }
        other => panic!("expected TamperDetected, got: {other}"),
    }
    assert_eq!(cl.counters().retries, 0);
}

#[test]
fn data_substitution_in_flight_is_detected() {
    // R5: the provenance is genuine but describes a *different* object —
    // the proxy swaps the delivered data node's identity.
    let w = world();
    let srv = start_server();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| {
            let Message::Data { entries } = msg else {
                return ProxyAction::Forward;
            };
            let mut entries = entries.clone();
            entries[0].id = ObjectId(entries[0].id.0 + 1);
            ProxyAction::Replace(Message::Data { entries })
        }),
    )
    .unwrap();
    let mut cl = client(proxy.addr());
    match cl.fetch_verified(w.agg, &w.keys).unwrap_err() {
        NetError::TamperDetected { issues, .. } => {
            assert!(issues
                .iter()
                .any(|i| matches!(i, TamperEvidence::OutputMismatch { .. })));
        }
        other => panic!("expected TamperDetected, got: {other}"),
    }
}

#[test]
fn truncated_transfer_is_never_accepted() {
    // The proxy swallows DONE: the client must not accept the (complete-
    // looking) records + data without the closing frame.
    let w = world();
    let srv = start_server();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| match msg {
            Message::Done { .. } => ProxyAction::Drop,
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();
    let mut cl = impatient_client(proxy.addr(), 2);
    let err = cl.fetch_verified(w.root, &w.keys).unwrap_err();
    assert!(
        matches!(err, NetError::Wire(_)),
        "expected a wire-level failure, got: {err}"
    );
    assert_eq!(cl.counters().retries, 1, "timeouts are retryable");
}

#[test]
fn refused_connection_is_retried_with_backoff() {
    // Grab an ephemeral port, then close the listener: connecting fails
    // deterministically, and every attempt should be counted.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut cl = impatient_client(dead_addr, 3);
    let err = cl.fetch_verified(world().root, &world().keys).unwrap_err();
    assert!(matches!(err, NetError::Wire(_)), "got: {err}");
    assert_eq!(cl.counters().retries, 2);
}

#[test]
fn busy_server_refuses_with_protocol_error() {
    // queue_depth 0: the accept loop refuses every connection with ERR
    // busy instead of queueing it.
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 0,
        ..ServerConfig::default()
    };
    let srv = serve(
        Arc::clone(&world().catalog),
        "127.0.0.1:0".parse().unwrap(),
        cfg,
    )
    .unwrap();
    let mut cl = impatient_client(srv.addr(), 2);
    match cl.fetch_verified(world().root, &world().keys).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected ERR busy, got: {other}"),
    }
    assert_eq!(cl.counters().retries, 1, "busy is retryable");
    srv.shutdown();
}

#[test]
fn unknown_tenant_fails_fast_without_burning_retry_budget() {
    // The server provisions only tenant 0; a client scoped to tenant 5
    // must get the typed `ERR unknown-tenant` and stop immediately —
    // unlike `busy`, which is retried above.
    let srv = start_server();
    let mut cfg = ClientConfig::for_tenant(ALG, tep_model::TenantId(5));
    cfg.retry = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let mut cl = Client::new(srv.addr(), cfg);
    match cl.fetch_verified(world().root, &world().keys).unwrap_err() {
        NetError::Remote { code, detail, .. } => {
            assert_eq!(code, ErrorCode::UnknownTenant);
            assert!(detail.contains("t5"), "detail names the tenant: {detail}");
        }
        other => panic!("expected ERR unknown-tenant, got: {other}"),
    }
    assert_eq!(cl.counters().retries, 0, "unknown tenant is terminal");
    srv.shutdown();
}
