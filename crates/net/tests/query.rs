//! End-to-end QUERY/QRESULT loopback: a real TCP server running the query
//! engine, a real client re-verifying every slice proof on receive, and a
//! man-in-the-middle proxy tampering with QRESULT frames in flight
//! (recomputing the CRC, as a real attacker would).

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::slice::{QueryAnswer, QueryBounds, QueryOp, QuerySpec, SliceProof};
use tep_core::{ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{AggregateMode, ObjectId, Value};
use tep_net::{
    serve_with_registry, Catalog, Client, ClientConfig, ErrorCode, NetError, ProxyAction,
    ServerConfig, TamperProxy,
};
use tep_obs::Registry;
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

struct QueryWorld {
    catalog: Arc<Catalog>,
    keys: KeyDirectory,
    alice: ParticipantId,
    a: ObjectId,
    b: ObjectId,
    c: ObjectId,
    d: ObjectId,
}

static WORLD: OnceLock<QueryWorld> = OnceLock::new();

/// Diamond DAG (same shape as the tep-query unit tests): `c = agg[a, b]`,
/// `d = agg[a, c]`, so `a` appears twice in d's lineage.
fn world() -> &'static QueryWorld {
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x0DA7A);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();
        keys.register(bob.certificate().clone()).unwrap();

        let db = Arc::new(ProvenanceDb::in_memory());
        let mut tracker = ProvenanceTracker::new(TrackerConfig::default(), Arc::clone(&db));
        let (a, _) = tracker.insert(&alice, Value::Int(1), None).unwrap();
        let (b, _) = tracker.insert(&bob, Value::Int(2), None).unwrap();
        let (c, _) = tracker
            .aggregate(&bob, &[a, b], Value::Int(3), AggregateMode::Atomic)
            .unwrap();
        let (d, _) = tracker
            .aggregate(&alice, &[a, c], Value::Int(4), AggregateMode::Atomic)
            .unwrap();

        let catalog = Arc::new(Catalog::new(
            tracker.forest().clone(),
            db,
            ALG,
            vec![a, b, c, d],
        ));
        QueryWorld {
            catalog,
            keys,
            alice: alice.id(),
            a,
            b,
            c,
            d,
        }
    })
}

fn start_server() -> tep_net::ServerHandle {
    serve_with_registry(
        Arc::clone(&world().catalog),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
        Registry::new(),
    )
    .unwrap()
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr, ClientConfig::new(ALG))
}

fn objects(answer: &QueryAnswer) -> Vec<ObjectId> {
    match answer {
        QueryAnswer::Objects(o) => o.clone(),
        other => panic!("expected object answer, got {other:?}"),
    }
}

#[test]
fn every_operator_roundtrips_and_reverifies_client_side() {
    let w = world();
    let srv = start_server();
    let mut cl = client(srv.addr());

    let rep = cl
        .query(&QuerySpec::new(QueryOp::Ancestors, w.d), &w.keys)
        .unwrap();
    assert!(rep.verification.verified());
    assert_eq!(objects(&rep.proof.answer), vec![w.a, w.b, w.c]);

    let rep = cl
        .query(&QuerySpec::new(QueryOp::Descendants, w.a), &w.keys)
        .unwrap();
    assert!(rep.verification.verified());
    assert_eq!(objects(&rep.proof.answer), vec![w.c, w.d]);

    let rep = cl
        .query(&QuerySpec::new(QueryOp::LineageSlice, w.d), &w.keys)
        .unwrap();
    assert!(rep.verification.verified());
    assert_eq!(objects(&rep.proof.answer), vec![w.a, w.b, w.c]);

    let rep = cl.query(&QuerySpec::audit(w.alice), &w.keys).unwrap();
    assert!(rep.verification.verified());
    assert_eq!(objects(&rep.proof.answer), vec![w.a, w.d]);

    let rep = cl
        .query(&QuerySpec::new(QueryOp::Polynomial, w.d), &w.keys)
        .unwrap();
    assert!(rep.verification.verified());
    match &rep.proof.answer {
        QueryAnswer::Polynomial(p) => {
            // d = a · (a · b): the diamond on a squares its variable.
            assert_eq!(p.eval(|_| 2), 8);
            assert_eq!(p.terms.len(), 1);
        }
        other => panic!("expected polynomial answer, got {other:?}"),
    }

    // The server counted each request under its operator.
    let text = srv.registry().render_text();
    for op in ["ancestors", "descendants", "lineage", "audit", "polynomial"] {
        assert!(
            text.contains(&format!("tep_query_requests_{op}_total 1")),
            "missing per-operator counter for {op} in:\n{text}"
        );
    }
    assert!(text.contains("tep_net_queries_total 5"), "{text}");
}

#[test]
fn bounded_query_travels_with_boundary_links() {
    let w = world();
    let srv = start_server();
    let mut cl = client(srv.addr());
    let spec = QuerySpec {
        op: QueryOp::Ancestors,
        target: w.d,
        participant: None,
        bounds: QueryBounds {
            max_depth: Some(1),
            seq_range: None,
        },
    };
    let rep = cl.query(&spec, &w.keys).unwrap();
    assert!(rep.verification.verified());
    assert_eq!(objects(&rep.proof.answer), vec![w.a, w.c]);
    // b is clipped behind the depth bound; its chain checksum rides along.
    assert!(!rep.proof.boundary.is_empty());
}

#[test]
fn query_errors_surface_as_remote_refusals() {
    let w = world();
    let srv = start_server();
    let mut cl = client(srv.addr());

    let err = cl
        .query(&QuerySpec::new(QueryOp::Ancestors, ObjectId(404)), &w.keys)
        .unwrap_err();
    match err {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownObject),
        other => panic!("expected remote refusal, got {other}"),
    }

    // An audit with no participant is a bad request, not evidence.
    let bad = QuerySpec {
        op: QueryOp::AuditSlice,
        target: ObjectId(0),
        participant: None,
        bounds: QueryBounds::default(),
    };
    let err = cl.query(&bad, &w.keys).unwrap_err();
    match err {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected remote refusal, got {other}"),
    }

    // The connectionable errors left the server usable: a clean query
    // still round-trips afterwards.
    let rep = cl
        .query(&QuerySpec::new(QueryOp::Ancestors, w.c), &w.keys)
        .unwrap();
    assert!(rep.verification.verified());
}

/// In-flight QRESULT tampering: the proxy decodes the frame, flips one
/// byte inside the proof body, and re-frames with a valid CRC. The client
/// must reject (decode failure or attributed evidence) and never retry.
#[test]
fn tampered_qresult_is_rejected_and_never_retried() {
    let w = world();
    let srv = start_server();

    // Flip a byte near the end of the proof (inside the answer section).
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| match msg {
            tep_net::Message::QResult { proof } => {
                let mut bad = proof.clone();
                let i = bad.len() - 3;
                bad[i] ^= 0x01;
                ProxyAction::Replace(tep_net::Message::QResult { proof: bad })
            }
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let mut cl = client(proxy.addr());
    let err = cl
        .query(&QuerySpec::new(QueryOp::Ancestors, w.d), &w.keys)
        .unwrap_err();
    assert!(
        matches!(err, NetError::TamperDetected { .. } | NetError::Protocol(_)),
        "tampered proof must be terminal, got: {err}"
    );
    assert!(!err.is_retryable(), "tamper evidence must never be retried");
    assert_eq!(cl.counters().retries, 0);
    proxy.shutdown();
}

/// A proxy answering a *different question* (replaying a valid proof for
/// another target) is caught by the spec echo check.
#[test]
fn replayed_answer_for_the_wrong_question_is_rejected() {
    let w = world();
    let srv = start_server();

    // Capture d's ancestors proof, then replay it for c's query.
    let mut cl = client(srv.addr());
    let good = cl
        .query(&QuerySpec::new(QueryOp::Ancestors, w.d), &w.keys)
        .unwrap();
    let replay = good.proof.to_bytes();

    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| match msg {
            tep_net::Message::QResult { .. } => ProxyAction::Replace(tep_net::Message::QResult {
                proof: replay.clone(),
            }),
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let mut cl = client(proxy.addr());
    let err = cl
        .query(&QuerySpec::new(QueryOp::Ancestors, w.c), &w.keys)
        .unwrap_err();
    match err {
        NetError::TamperDetected { issues, .. } => {
            assert!(!issues.is_empty());
        }
        other => panic!("expected tamper evidence, got {other}"),
    }
    proxy.shutdown();
}

/// The one bit flip a slice proof cannot catch itself: bit 1 of the op
/// byte (byte 10) turns a lineage proof into an ancestors proof whose
/// records answer that question too, so it verifies clean. The client's
/// spec echo check catches it as tamper evidence, never retried.
#[test]
fn flipped_op_bit_is_caught_by_the_spec_echo() {
    let w = world();
    let srv = start_server();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| match msg {
            tep_net::Message::QResult { proof } => {
                let mut bad = proof.clone();
                bad[10] ^= 1 << 1;
                ProxyAction::Replace(tep_net::Message::QResult { proof: bad })
            }
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let mut cl = client(proxy.addr());
    let err = cl
        .query(&QuerySpec::new(QueryOp::LineageSlice, w.d), &w.keys)
        .unwrap_err();
    match err {
        NetError::TamperDetected { ref issues, .. } => assert_eq!(
            issues,
            &[tep_core::verify::TamperEvidence::OutputMismatch { oid: w.d }]
        ),
        ref other => panic!("expected tamper evidence, got {other}"),
    }
    assert!(!err.is_retryable());
    assert_eq!(cl.counters().retries, 0);
    proxy.shutdown();
}

/// The QRESULT wire bytes are exactly the canonical proof encoding: what
/// the client verified is byte-identical to what `SliceProof::to_bytes`
/// produces for the decoded proof.
#[test]
fn qresult_bytes_are_canonical() {
    let w = world();
    let srv = start_server();
    let mut cl = client(srv.addr());
    let rep = cl
        .query(&QuerySpec::new(QueryOp::LineageSlice, w.d), &w.keys)
        .unwrap();
    let bytes = rep.proof.to_bytes();
    assert_eq!(SliceProof::from_bytes(&bytes).unwrap(), rep.proof);
}
