//! The RESUME protocol, end to end: interrupted transfers continue from
//! the last verified record and land byte-identical to an uncut run,
//! malformed or dishonest resume points are refused without a single
//! record, and the server's overload/deadline machinery answers with
//! retryable protocol errors instead of silence.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::hashing::HashingStrategy;
use tep_core::metrics::TransferCounters;
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::streaming::RecordStreamDigest;
use tep_core::verify::{StreamingVerifier, TamperEvidence};
use tep_core::{ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{Forest, ObjectId, Value};
use tep_net::wire::{FrameReader, FrameWriter, Message};
use tep_net::{
    serve, Catalog, Client, ClientConfig, ErrorCode, FaultKind, FaultListener, FaultPlan, NetError,
    ProxyAction, RetryPolicy, ServerConfig, TamperProxy, WIRE_VERSION,
};
use tep_obs::names;
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// A single-object world with a long linear history: one insert plus a
/// chain of updates, so a transfer has enough PROV frames to cut at
/// interesting points. Downstream frame layout: HELLO = 0, OFFER = 1,
/// PROV = 2..2+records, then one DATA frame, then DONE.
struct ResumeWorld {
    catalog: Arc<Catalog>,
    keys: KeyDirectory,
    forest: Forest,
    chain: ObjectId,
    chain_hash: Vec<u8>,
    prov: ProvenanceObject,
}

static WORLD: OnceLock<ResumeWorld> = OnceLock::new();

fn world() -> &'static ResumeWorld {
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5E5_0FF5);
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

        let chain_hash = tracker.object_hash(chain).unwrap();
        let prov = collect(&db, chain).unwrap();
        let forest = tracker.forest().clone();
        let catalog = Arc::new(Catalog::new(forest.clone(), db, ALG, vec![chain]));
        ResumeWorld {
            catalog,
            keys,
            forest,
            chain,
            chain_hash,
            prov,
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

/// A client with fast failure detection and tiny backoff; `resume = false`
/// makes every retry refetch from record zero.
fn client_with(addr: SocketAddr, resume: bool) -> Client {
    let mut cfg = ClientConfig::new(ALG);
    cfg.resume = resume;
    cfg.read_timeout = Duration::from_millis(800);
    cfg.retry = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    Client::new(addr, cfg)
}

fn resume_client(addr: SocketAddr) -> Client {
    client_with(addr, true)
}

/// The server-side rolling digest over the first `k` records, recomputed
/// the same way both endpoints do.
fn digest_over(prov: &ProvenanceObject, oid: ObjectId, k: usize) -> Vec<u8> {
    let mut d = RecordStreamDigest::new(ALG, oid);
    for rec in &prov.records[..k] {
        d.push(&rec.to_stored().to_bytes());
    }
    d.current().to_vec()
}

#[test]
fn cut_transfer_resumes_and_matches_uncut_baseline() {
    let w = world();
    let srv = start_server();
    let baseline = resume_client(srv.addr())
        .fetch_verified(w.chain, &w.keys)
        .unwrap();
    assert_eq!(baseline.resumed, 0);
    assert_eq!(baseline.object_hash, w.chain_hash);
    let records = baseline.records;

    // Cut at a PROV frame, at the DATA frame, and at DONE: every resumed
    // transfer must deliver the byte-identical record sequence (equal
    // rolling digests), the same totals, and the same recomputed hash.
    let mut last_saving = 0;
    for cut_frame in [3, 7, 2 + records, 2 + records + 1] {
        let cut = || {
            FaultListener::spawn(
                srv.addr(),
                FaultPlan {
                    kind: FaultKind::CutBoundary,
                    frame: cut_frame,
                    seed: cut_frame,
                    once: true,
                },
            )
            .unwrap()
        };
        let fl = cut();
        let mut cl = resume_client(fl.addr());
        let rep = cl.fetch_verified(w.chain, &w.keys).unwrap();
        assert_eq!(fl.fired(), 1, "cut at frame {cut_frame} never fired");
        assert!(rep.verification.verified());
        assert_eq!(rep.records, baseline.records, "cut at {cut_frame}");
        assert_eq!(
            rep.stream_digest, baseline.stream_digest,
            "cut at {cut_frame}"
        );
        assert_eq!(rep.object_hash, baseline.object_hash, "cut at {cut_frame}");
        assert!(
            rep.resumed >= 1,
            "cut at {cut_frame} after verified records should RESUME"
        );
        assert_eq!(cl.counters().retries, 1);
        fl.shutdown();

        // What RESUME buys on the wire: the same cut against a client that
        // refetches from record zero costs strictly more bytes, and the
        // later the cut, the more verified prefix there is to not resend.
        let fl = cut();
        let mut refetch = client_with(fl.addr(), false);
        refetch.fetch_verified(w.chain, &w.keys).unwrap();
        fl.shutdown();
        let (resumed, refetched) = (
            cl.counters().bytes_received,
            refetch.counters().bytes_received,
        );
        assert!(
            resumed < refetched,
            "cut at {cut_frame}: resumed {resumed} B, refetched {refetched} B"
        );
        let saving = refetched - resumed;
        assert!(
            saving >= last_saving,
            "cut at {cut_frame}: saving fell from {last_saving} B to {saving} B"
        );
        last_saving = saving;
    }
    assert!(
        srv.registry().counter_value(names::NET_RESUMES) >= 4,
        "server should have counted the resumes"
    );
    srv.shutdown();
}

#[test]
fn resume_disabled_refetches_from_zero_and_still_verifies() {
    let w = world();
    let srv = start_server();
    let fl = FaultListener::spawn(
        srv.addr(),
        FaultPlan {
            kind: FaultKind::CutBoundary,
            frame: 7,
            seed: 7,
            once: true,
        },
    )
    .unwrap();
    let mut cl = client_with(fl.addr(), false);
    let rep = cl.fetch_verified(w.chain, &w.keys).unwrap();
    assert_eq!(rep.resumed, 0, "resume is off; the retry starts over");
    assert_eq!(rep.object_hash, w.chain_hash);
    assert_eq!(rep.records, w.prov.records.len() as u64);
    fl.shutdown();
    srv.shutdown();
}

/// Raw-wire sweep of resume offsets: a provable offset gets RESUME_OK
/// echoing exactly the claimed position, an unprovable one gets
/// `ERR resume-mismatch` — and in no case does the server start streaming
/// records for a claim it did not verify.
#[test]
fn resume_offsets_are_honored_exactly_or_refused() {
    let w = world();
    let srv = start_server();
    let total = w.prov.records.len() as u64;

    let counters = Arc::new(TransferCounters::new());
    let stream = TcpStream::connect(srv.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap(), Arc::clone(&counters));
    let mut writer = FrameWriter::new(stream, counters);
    writer
        .write_message(&Message::Hello {
            version: WIRE_VERSION,
            alg: ALG,
            tenant: 0,
        })
        .unwrap();
    assert!(matches!(
        reader.read_message().unwrap(),
        Some(Message::Hello { .. })
    ));
    assert!(matches!(
        reader.read_message().unwrap(),
        Some(Message::Offer { .. })
    ));

    // Provable offsets: 0 (empty prefix), mid-stream, the full stream.
    for k in [0, 3, total] {
        writer
            .write_message(&Message::Resume {
                oid: w.chain,
                records: k,
                digest: digest_over(&w.prov, w.chain, k as usize),
            })
            .unwrap();
        match reader.read_message().unwrap() {
            Some(Message::ResumeOk { records, digest }) => {
                assert_eq!(records, k);
                assert_eq!(digest, digest_over(&w.prov, w.chain, k as usize));
            }
            other => panic!("offset {k}: expected RESUME_OK, got {other:?}"),
        }
        // The rest of the transfer follows: exactly total - k records.
        let mut prov_frames = 0u64;
        loop {
            match reader.read_message().unwrap() {
                Some(Message::Prov { .. }) => prov_frames += 1,
                Some(Message::Data { .. }) => {}
                Some(Message::Done { records, .. }) => {
                    assert_eq!(records, total, "DONE totals cover the whole object");
                    break;
                }
                other => panic!("offset {k}: unexpected {other:?}"),
            }
        }
        assert_eq!(prov_frames, total - k, "offset {k} skipped wrong count");
    }

    // Unprovable offsets: beyond the end, absurdly huge, or a valid offset
    // claimed with the wrong digest. Refused, connection stays usable.
    let cases: Vec<(u64, Vec<u8>)> = vec![
        (total + 1, digest_over(&w.prov, w.chain, 0)),
        (u64::MAX, digest_over(&w.prov, w.chain, 0)),
        (3, vec![0xAB; 32]),
        (0, Vec::new()),
    ];
    for (k, digest) in cases {
        writer
            .write_message(&Message::Resume {
                oid: w.chain,
                records: k,
                digest,
            })
            .unwrap();
        match reader.read_message().unwrap() {
            Some(Message::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::ResumeMismatch, "offset {k}");
            }
            other => panic!("offset {k}: expected ERR resume-mismatch, got {other:?}"),
        }
    }
    srv.shutdown();
}

/// A checkpoint sealed by the verifier, then damaged in any way — bit
/// flips, truncation, random bytes — must refuse to restore. The blob is
/// self-authenticating; there is no input that restores to a verifier
/// state other than the one sealed.
#[test]
fn pristine_checkpoint_restores_and_roundtrips_digest() {
    let w = world();
    let mut v = StreamingVerifier::new(&w.keys, ALG, w.chain);
    for rec in &w.prov.records[..5] {
        let parsed = ProvenanceRecord::from_stored(&rec.to_stored()).unwrap();
        assert_eq!(v.push_record(&parsed), 0);
    }
    let blob = v.checkpoint().expect("clean verifier must checkpoint");
    let restored = StreamingVerifier::restore(&w.keys, &blob).unwrap();
    assert_eq!(restored.stream_digest(), v.stream_digest());
    assert_eq!(
        v.stream_digest(),
        digest_over(&w.prov, w.chain, 5).as_slice(),
        "client digest and server recomputation must agree"
    );
}

fn sealed_checkpoint() -> Vec<u8> {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let w = world();
        let mut v = StreamingVerifier::new(&w.keys, ALG, w.chain);
        for rec in &w.prov.records[..5] {
            let parsed = ProvenanceRecord::from_stored(&rec.to_stored()).unwrap();
            v.push_record(&parsed);
        }
        v.checkpoint().unwrap()
    })
    .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single bit flip anywhere in the blob breaks the seal.
    #[test]
    fn flipped_checkpoints_never_restore(pos in any::<usize>(), bit in 0usize..8) {
        let w = world();
        let mut blob = sealed_checkpoint();
        let pos = pos % blob.len();
        blob[pos] ^= 1 << bit;
        prop_assert!(StreamingVerifier::restore(&w.keys, &blob).is_err(),
            "flip at byte {pos} bit {bit} restored");
    }

    /// Any truncation breaks the seal.
    #[test]
    fn truncated_checkpoints_never_restore(cut in any::<usize>()) {
        let w = world();
        let blob = sealed_checkpoint();
        let cut = cut % blob.len(); // strictly shorter than the original
        prop_assert!(StreamingVerifier::restore(&w.keys, &blob[..cut]).is_err());
    }

    /// Arbitrary bytes are not a checkpoint.
    #[test]
    fn random_blobs_never_restore(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let w = world();
        prop_assert!(StreamingVerifier::restore(&w.keys, &bytes).is_err());
    }
}

/// A man-in-the-middle (or a lying server) that *accepts* the resume but
/// confirms a digest it cannot prove: terminal tamper evidence, never a
/// retry — the two ends disagree about history.
#[test]
fn forged_resume_ok_is_tamper_evidence_and_never_retried() {
    let w = world();
    let srv = start_server();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| {
            let Message::ResumeOk { records, digest } = msg else {
                return ProxyAction::Forward;
            };
            let mut digest = digest.clone();
            digest[0] ^= 0x01;
            ProxyAction::Replace(Message::ResumeOk {
                records: *records,
                digest,
            })
        }),
    )
    .unwrap();
    // Cut the first connection after a few verified records so the second
    // one opens with RESUME — which the proxy then forges.
    let fl = FaultListener::spawn(
        proxy.addr(),
        FaultPlan {
            kind: FaultKind::CutBoundary,
            frame: 6,
            seed: 6,
            once: true,
        },
    )
    .unwrap();
    let mut cl = resume_client(fl.addr());
    match cl.fetch_verified(w.chain, &w.keys).unwrap_err() {
        NetError::TamperDetected { issues, .. } => {
            assert!(
                issues
                    .iter()
                    .any(|i| matches!(i, TamperEvidence::ResumeMismatch { .. })),
                "expected resume-mismatch evidence, got {issues:?}"
            );
        }
        other => panic!("expected TamperDetected, got: {other}"),
    }
    let snap = cl.counters();
    assert_eq!(
        snap.retries, 1,
        "only the cut was retried, never the forgery"
    );
    assert!(snap.verify_failures >= 1);
    fl.shutdown();
    proxy.shutdown();
    srv.shutdown();
}

/// Relays one client connection to `upstream` frame by frame, request then
/// reply; with `hang_up_on_resume`, closes both sides the moment the
/// client's RESUME has been read — a cut at the frame boundary, with the
/// client waiting for RESUME_OK.
fn relay_scripted(client: TcpStream, upstream: SocketAddr, hang_up_on_resume: bool) {
    let counters = Arc::new(TransferCounters::new());
    let server = TcpStream::connect(upstream).unwrap();
    let mut from_client = FrameReader::new(client.try_clone().unwrap(), Arc::clone(&counters));
    let mut to_client = FrameWriter::new(client, Arc::clone(&counters));
    let mut from_server = FrameReader::new(server.try_clone().unwrap(), Arc::clone(&counters));
    let mut to_server = FrameWriter::new(server, counters);
    while let Ok(Some(request)) = from_client.read_message() {
        if hang_up_on_resume && matches!(request, Message::Resume { .. }) {
            return;
        }
        if to_server.write_message(&request).is_err() {
            return;
        }
        loop {
            let Ok(Some(reply)) = from_server.read_message() else {
                return;
            };
            let last = matches!(
                (&request, &reply),
                (Message::Hello { .. }, Message::Offer { .. })
                    | (_, Message::Done { .. } | Message::Error { .. })
            );
            if to_client.write_message(&reply).is_err() {
                return;
            }
            if last {
                break;
            }
        }
    }
}

/// A cut while the client waits for RESUME_OK is a cut like any other
/// (DESIGN §6.6): `Interrupted`, retried, and the checkpoint that opened
/// the failed attempt opens the next one too.
#[test]
fn cut_while_awaiting_resume_ok_is_retried_and_still_resumes() {
    let w = world();
    let srv = start_server();
    // Connection 1 is cut after four verified records, so connection 2
    // opens with RESUME — and is hung up on; connection 3 goes through.
    let fl = FaultListener::spawn(
        srv.addr(),
        FaultPlan {
            kind: FaultKind::CutBoundary,
            frame: 6,
            seed: 6,
            once: true,
        },
    )
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let upstream = fl.addr();
    let script = std::thread::spawn(move || {
        for connection in 1..=3 {
            let (client, _) = listener.accept().unwrap();
            relay_scripted(client, upstream, connection == 2);
        }
    });

    let mut cl = resume_client(addr);
    let rep = cl
        .fetch_verified(w.chain, &w.keys)
        .expect("a cut awaiting RESUME_OK must be retried, not terminal");
    assert_eq!(rep.resumed, 1, "the third connection resumes");
    assert_eq!(rep.records, w.prov.records.len() as u64);
    assert_eq!(rep.object_hash, w.chain_hash);
    assert_eq!(cl.counters().retries, 2);
    assert_eq!(srv.registry().counter_value(names::NET_RESUMES), 1);
    drop(cl);
    script.join().unwrap();
    fl.shutdown();
    srv.shutdown();
}

#[test]
fn shed_watermark_refuses_with_busy_and_retry_after_hint() {
    let w = world();
    let cfg = ServerConfig {
        shed_watermark: 0,
        ..ServerConfig::default()
    };
    let srv = serve(Arc::clone(&w.catalog), "127.0.0.1:0".parse().unwrap(), cfg).unwrap();
    let mut cl = resume_client(srv.addr());
    match cl.fetch_verified(w.chain, &w.keys).unwrap_err() {
        NetError::Remote {
            code, retry_after, ..
        } => {
            assert_eq!(code, ErrorCode::Busy);
            assert_eq!(
                retry_after,
                Some(Duration::from_millis(25)),
                "empty backlog floors the hint at 25ms"
            );
        }
        other => panic!("expected ERR busy, got: {other}"),
    }
    assert_eq!(cl.counters().retries, 3, "busy is retryable to the cap");
    assert!(srv.registry().counter_value(names::NET_SHED) >= 4);
    assert!(srv.registry().counter_value(names::NET_BUSY_REJECTIONS) >= 4);

    // Every tep_net_* failure counter is its own line in the exposition —
    // write aborts must be distinguishable from sheds and panics.
    let text = srv.registry().render_text();
    for name in [
        names::NET_SHED,
        names::NET_WRITE_ABORTS,
        names::NET_DEADLINE_CLOSES,
        names::NET_RESUMES,
        names::NET_BUSY_REJECTIONS,
    ] {
        assert!(text.contains(name), "{name} missing from render_text");
    }
    srv.shutdown();
}

#[test]
fn connection_deadline_closes_with_retryable_error() {
    let w = world();
    let cfg = ServerConfig {
        connection_deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    let srv = serve(Arc::clone(&w.catalog), "127.0.0.1:0".parse().unwrap(), cfg).unwrap();
    let mut cl = resume_client(srv.addr());
    let err = cl.fetch_verified(w.chain, &w.keys).unwrap_err();
    assert!(err.is_retryable(), "deadline closes invite a reconnect");
    match err {
        NetError::Remote {
            code, retry_after, ..
        } => {
            assert_eq!(code, ErrorCode::Deadline);
            assert_eq!(retry_after, Some(Duration::from_millis(10)));
        }
        other => panic!("expected ERR deadline, got: {other}"),
    }
    assert!(srv.registry().counter_value(names::NET_DEADLINE_CLOSES) >= 4);
    srv.shutdown();
}

/// The retry loop's wall-clock deadline caps total time even when the
/// attempt budget is effectively unlimited.
#[test]
fn retry_wall_clock_deadline_caps_total_time() {
    // A port with nothing listening: every attempt fails fast with a
    // connection error, so only the deadline can stop the loop early.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let mut cfg = ClientConfig::new(ALG);
    cfg.retry = RetryPolicy {
        max_attempts: u32::MAX,
        base: Duration::from_millis(20),
        cap: Duration::from_millis(40),
        deadline: Duration::from_millis(200),
    };
    let mut cl = Client::new(dead_addr, cfg);
    let started = Instant::now();
    let err = cl.fetch_verified(world().chain, &world().keys).unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, NetError::Wire(_)), "got: {err}");
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline failed to stop the loop ({elapsed:?})"
    );
    let retries = cl.counters().retries;
    assert!(
        (1..30).contains(&retries),
        "expected a handful of deadline-bounded retries, got {retries}"
    );
}

// Quiet the unused-field warning: the forest is consumed by chaos_soak's
// sibling world, but keeping it here documents the catalog's inputs.
#[test]
fn world_forest_serves_the_chain() {
    let w = world();
    assert!(w.forest.contains(w.chain));
}
