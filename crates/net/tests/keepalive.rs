//! The client's kept connection, end to end: dial, HELLO and the OFFER are
//! paid once per [`Client`]; a connection is kept only after a response
//! that ended cleanly; a kept connection that died while idle is replaced
//! by one uncounted dial; and nothing a previous request left behind —
//! tamper evidence, a half-read stream, a fetch-scaled timeout, another
//! tenant's scope — reaches the next request.
//!
//! Downstream frame layout of the 12-record chain on one connection:
//! HELLO = 0, OFFER = 1, first fetch PROV = 2..=13, DATA = 14, DONE = 15,
//! second fetch PROV = 16..=27, DATA = 28, DONE = 29.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::attack::{apply_tamper, Tamper};
use tep_core::provenance::ProvenanceObject;
use tep_core::slice::{QueryOp, QuerySpec};
use tep_core::{ProvenanceRecord, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{AggregateMode, ObjectId, TenantId, Value};
use tep_net::{
    serve, serve_tenants, Catalog, Client, ClientConfig, FaultKind, FaultListener, FaultPlan,
    Message, NetError, OfferEntry, ProxyAction, RetryPolicy, ServerConfig, ServerHandle,
    TamperProxy, TenantSpec,
};
use tep_obs::{names, Registry};
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;
const RECORDS: u64 = 12;

struct World {
    catalog: Arc<Catalog>,
    keys: KeyDirectory,
    alice: ParticipantId,
    /// One insert plus eleven updates: twelve PROV frames per fetch.
    chain: ObjectId,
    /// `agg[chain, other]`, so lineage queries have something to walk.
    agg: ObjectId,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x4B_EE9A);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();

        let db = Arc::new(ProvenanceDb::in_memory());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                ..TrackerConfig::default()
            },
            Arc::clone(&db),
        );
        let (chain, _) = tracker.insert(&alice, Value::Int(0), None).unwrap();
        for i in 1..RECORDS as i64 {
            tracker.update(&alice, chain, Value::Int(i)).unwrap();
        }
        let (other, _) = tracker.insert(&alice, Value::Int(100), None).unwrap();
        let (agg, _) = tracker
            .aggregate(
                &alice,
                &[chain, other],
                Value::Int(7),
                AggregateMode::Atomic,
            )
            .unwrap();
        let catalog = Arc::new(Catalog::new(
            tracker.forest().clone(),
            db,
            ALG,
            vec![chain, other, agg],
        ));
        World {
            catalog,
            keys,
            alice: alice.id(),
            chain,
            agg,
        }
    })
}

fn start_server(cfg: ServerConfig) -> ServerHandle {
    serve(
        Arc::clone(&world().catalog),
        "127.0.0.1:0".parse().unwrap(),
        cfg,
    )
    .unwrap()
}

/// Fast failure detection and tiny backoff, so a counted retry costs
/// milliseconds and an uncounted redial is told apart by the counters.
fn client_cfg() -> ClientConfig {
    let mut cfg = ClientConfig::new(ALG);
    cfg.read_timeout = Duration::from_millis(800);
    cfg.retry = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    cfg
}

fn connections(srv: &ServerHandle) -> u64 {
    srv.registry().counter_value(names::NET_CONNECTIONS)
}

fn query_specs() -> [QuerySpec; 4] {
    let w = world();
    [
        QuerySpec::new(QueryOp::LineageSlice, w.agg),
        QuerySpec::new(QueryOp::Ancestors, w.agg),
        QuerySpec::new(QueryOp::Descendants, w.chain),
        QuerySpec::audit(w.alice),
    ]
}

/// (a) Dial, HELLO and OFFER are paid once: 120 requests, one connection,
/// and every report is identical to what a fresh client per call returns.
#[test]
fn one_client_one_connection_and_reports_match_fresh_clients() {
    let w = world();
    let srv = start_server(ServerConfig::default());
    let control_srv = start_server(ServerConfig::default());
    let specs = query_specs();
    let oids = [w.chain, w.agg];

    let mut cl = Client::new(srv.addr(), client_cfg());
    for i in 0..100 {
        let oid = oids[i % oids.len()];
        let kept = cl.fetch_verified(oid, &w.keys).unwrap();
        let fresh = Client::new(control_srv.addr(), client_cfg())
            .fetch_verified(oid, &w.keys)
            .unwrap();
        assert_eq!(format!("{kept:?}"), format!("{fresh:?}"), "fetch #{i}");
    }
    for i in 0..20 {
        let spec = &specs[i % specs.len()];
        let kept = cl.query(spec, &w.keys).unwrap();
        let fresh = Client::new(control_srv.addr(), client_cfg())
            .query(spec, &w.keys)
            .unwrap();
        assert_eq!(kept.proof.to_bytes(), fresh.proof.to_bytes(), "query #{i}");
        assert_eq!(
            format!("{:?}", kept.verification),
            format!("{:?}", fresh.verification)
        );
    }

    assert_eq!(connections(&srv), 1, "one client, one connection");
    assert_eq!(connections(&control_srv), 120, "the control dials per call");
    let snap = cl.counters();
    assert_eq!(snap.retries, 0);
    assert_eq!(snap.stale_redials, 0);
    assert_eq!(snap.conn_reuses, 119, "every request but the first");
    assert_eq!(snap.frames_sent, 121, "one HELLO, 120 requests");

    // `offer()` keeps its meaning — it dials — and `disconnect()` closes.
    cl.offer().unwrap();
    assert_eq!(connections(&srv), 2);
    cl.disconnect();
    cl.fetch_verified(w.chain, &w.keys).unwrap();
    assert_eq!(connections(&srv), 3);
    assert_eq!(cl.counters().retries, 0);
    srv.shutdown();
    control_srv.shutdown();
}

/// (b) The server idle-closes a silent kept connection; the next request
/// finds it dead before any response frame and redials once, uncounted.
#[test]
fn idle_closed_connection_is_redialed_without_a_counted_retry() {
    let w = world();
    let srv = start_server(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let mut cl = Client::new(srv.addr(), client_cfg());
    let first = cl.fetch_verified(w.chain, &w.keys).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let second = cl.fetch_verified(w.chain, &w.keys).unwrap();
    assert_eq!(first.stream_digest, second.stream_digest);
    assert_eq!(second.resumed, 0);

    let snap = cl.counters();
    assert_eq!(snap.stale_redials, 1);
    assert_eq!(snap.retries, 0, "a stale redial is not a retry");
    assert_eq!(snap.conn_reuses, 0);
    assert_eq!(connections(&srv), 2);
    srv.shutdown();
}

/// (c) Same, when the server itself went away and came back on the port.
#[test]
fn server_restart_between_requests_is_redialed_without_a_counted_retry() {
    let w = world();
    let srv = start_server(ServerConfig::default());
    let addr = srv.addr();
    let mut cl = Client::new(addr, client_cfg());
    let first = cl.fetch_verified(w.chain, &w.keys).unwrap();
    srv.shutdown();

    let srv = serve(Arc::clone(&w.catalog), addr, ServerConfig::default()).unwrap();
    let second = cl.fetch_verified(w.chain, &w.keys).unwrap();
    assert_eq!(first.stream_digest, second.stream_digest);

    let snap = cl.counters();
    assert_eq!(snap.stale_redials, 1);
    assert_eq!(snap.retries, 0);
    assert_eq!(connections(&srv), 1, "the restarted server saw one dial");
    srv.shutdown();
}

/// The other way a kept connection is found stale: the server answers the
/// request with its own retryable `ERR deadline` at dispatch — one frame,
/// none of the answer. A scripted server does exactly that on its first
/// connection's second request; the client must redial, uncounted.
#[test]
fn retryable_err_at_dispatch_on_a_reused_connection_is_redialed() {
    use std::net::TcpListener;
    use tep_core::metrics::TransferCounters;
    use tep_net::wire::{FrameReader, FrameWriter};
    use tep_net::{ErrorCode, WIRE_VERSION};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // Replies to STATS per connection: `None` = ERR deadline.
        let script: [&[Option<&str>]; 2] = [&[Some("one"), None], &[Some("two")]];
        for replies in script {
            let (stream, _) = listener.accept().unwrap();
            let counters = Arc::new(TransferCounters::new());
            let mut reader = FrameReader::new(stream.try_clone().unwrap(), Arc::clone(&counters));
            let mut writer = FrameWriter::new(stream, counters);
            assert!(matches!(
                reader.read_message().unwrap(),
                Some(Message::Hello { .. })
            ));
            writer
                .write_message(&Message::Hello {
                    version: WIRE_VERSION,
                    alg: ALG,
                    tenant: TenantId::DEFAULT.raw(),
                })
                .unwrap();
            writer
                .write_message(&Message::Offer {
                    entries: Vec::new(),
                })
                .unwrap();
            for reply in replies {
                assert!(matches!(
                    reader.read_message().unwrap(),
                    Some(Message::StatsRequest)
                ));
                let msg = match reply {
                    Some(text) => Message::Stats {
                        text: (*text).into(),
                    },
                    None => Message::Error {
                        code: ErrorCode::Deadline,
                        retry_after_ms: 10,
                        detail: "request deadline exceeded".into(),
                    },
                };
                writer.write_message(&msg).unwrap();
            }
        }
    });

    let mut cl = Client::new(addr, client_cfg());
    assert_eq!(cl.stats().unwrap(), "one");
    assert_eq!(cl.stats().unwrap(), "two", "answered on the redial");
    let snap = cl.counters();
    assert_eq!(snap.stale_redials, 1);
    assert_eq!(snap.retries, 0, "no backoff, no attempt consumed");
    server.join().unwrap();
}

/// (d) Evidence on the second request of a kept connection: detected,
/// never retried, the connection is dropped, and the next fetch verifies
/// on a new one. The mutator keys on "a DONE has passed", not on a frame
/// index, because the proxy's index restarts only when the client redials.
#[test]
fn tamper_on_a_reused_connection_is_terminal_and_drops_it() {
    let w = world();
    let srv = start_server(ServerConfig::default());
    let mut dones = 0u32;
    let mut flipped = false;
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| match msg {
            Message::Done { .. } => {
                dones += 1;
                ProxyAction::Forward
            }
            Message::Prov { record } if dones == 1 && !flipped => {
                flipped = true;
                let rec = ProvenanceRecord::from_stored(record).unwrap();
                let tamper = Tamper::FlipOutputHash {
                    oid: rec.output_oid,
                    seq: rec.seq_id,
                };
                let mut holder = ProvenanceObject {
                    target: rec.output_oid,
                    records: vec![rec],
                };
                assert!(apply_tamper(&mut holder, &tamper));
                ProxyAction::Replace(Message::Prov {
                    record: holder.records[0].to_stored(),
                })
            }
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let mut cl = Client::new(proxy.addr(), client_cfg());
    let honest = cl.fetch_verified(w.chain, &w.keys).unwrap();
    match cl.fetch_verified(w.chain, &w.keys).unwrap_err() {
        NetError::TamperDetected { frame, issues } => {
            assert!(!issues.is_empty());
            assert_eq!(
                frame,
                Some(16),
                "per-connection index: the second fetch's first PROV"
            );
        }
        other => panic!("expected tamper evidence, got: {other}"),
    }
    let snap = cl.counters();
    assert_eq!(snap.retries, 0, "evidence is never retried");
    assert_eq!(snap.stale_redials, 0, "nor laundered through a redial");
    assert_eq!(snap.verify_failures, 1);
    assert_eq!(connections(&srv), 1);

    // The evidence-bearing connection is gone; the path is honest now.
    let again = cl.fetch_verified(w.chain, &w.keys).unwrap();
    assert_eq!(again.stream_digest, honest.stream_digest);
    assert_eq!(connections(&srv), 2, "verified on a new connection");
    assert_eq!(cl.counters().retries, 0);
    proxy.shutdown();
    srv.shutdown();
}

/// (e) A cut after response frames arrived on a *reused* connection takes
/// the ordinary path: checkpoint, one counted retry, RESUME.
#[test]
fn cut_mid_stream_on_a_reused_connection_resumes_as_before() {
    let w = world();
    let srv = start_server(ServerConfig::default());
    for kind in [FaultKind::CutBoundary, FaultKind::CutMidFrame] {
        let fl = FaultListener::spawn(
            srv.addr(),
            FaultPlan {
                kind,
                frame: 16 + 5, // sixth PROV of the second fetch
                seed: 21,
                once: true,
            },
        )
        .unwrap();
        let mut cl = Client::new(fl.addr(), client_cfg());
        let first = cl.fetch_verified(w.chain, &w.keys).unwrap();
        assert_eq!(fl.fired(), 0);
        let second = cl.fetch_verified(w.chain, &w.keys).unwrap();
        assert_eq!(fl.fired(), 1, "{kind:?} never fired");
        assert_eq!(second.resumed, 1, "{kind:?}");
        assert_eq!(second.records, RECORDS);
        assert_eq!(second.stream_digest, first.stream_digest, "{kind:?}");
        assert_eq!(second.object_hash, first.object_hash, "{kind:?}");
        let snap = cl.counters();
        assert_eq!(snap.retries, 1, "{kind:?}: one counted retry");
        assert_eq!(snap.stale_redials, 0, "{kind:?}: frames had arrived");
        fl.shutdown();
    }
    assert_eq!(srv.registry().counter_value(names::NET_RESUMES), 2);
    srv.shutdown();
}

/// (g) A fetch scales the read timeout to the offered size; the next
/// request on the same connection must run under the base timeout again.
/// The proxy inflates the OFFER (fetch timeout = base + 20 s) and then
/// sits on the QRESULT for longer than the base timeout: the query has to
/// time out, not wait the stall out.
#[test]
fn request_after_a_deep_fetch_runs_under_the_base_timeout() {
    let w = world();
    let srv = start_server(ServerConfig::default());
    let stall = Duration::from_millis(1500);
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| match msg {
            Message::Offer { entries } => ProxyAction::Replace(Message::Offer {
                entries: entries
                    .iter()
                    .map(|e| OfferEntry {
                        records: 1_000_000,
                        ..e.clone()
                    })
                    .collect(),
            }),
            Message::QResult { .. } => {
                std::thread::sleep(stall);
                ProxyAction::Forward
            }
            _ => ProxyAction::Forward,
        }),
    )
    .unwrap();

    let mut cfg = client_cfg();
    cfg.read_timeout = Duration::from_millis(200);
    cfg.retry.max_attempts = 1;
    let mut cl = Client::new(proxy.addr(), cfg);
    cl.fetch_verified(w.chain, &w.keys).unwrap();
    let started = Instant::now();
    let err = cl.query(&query_specs()[0], &w.keys).unwrap_err();
    assert!(err.is_retryable(), "a timeout, got: {err}");
    assert!(
        started.elapsed() < stall,
        "the query waited {:?}: it ran under the fetch's scaled timeout",
        started.elapsed()
    );
    proxy.shutdown();
    srv.shutdown();
}

/// (h) A connection carries one tenant's scope for life, and a client
/// only ever reuses its own: two tenants, two connections, each admitted
/// under its own label.
#[test]
fn clients_of_different_tenants_never_share_a_connection() {
    let w = world();
    let (t1, t2) = (TenantId(1), TenantId(2));
    let srv = serve_tenants(
        vec![
            TenantSpec::new(t1, Arc::clone(&w.catalog)),
            TenantSpec::new(t2, Arc::clone(&w.catalog)),
        ],
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
        Registry::new(),
    )
    .unwrap();
    let tenant_client = |addr: SocketAddr, t: TenantId| {
        let mut cfg = client_cfg();
        cfg.tenant = t;
        Client::new(addr, cfg)
    };
    let mut one = tenant_client(srv.addr(), t1);
    let mut two = tenant_client(srv.addr(), t2);
    for _ in 0..5 {
        for cl in [&mut one, &mut two] {
            cl.fetch_verified(w.chain, &w.keys).unwrap();
        }
    }
    let reg = srv.registry();
    assert_eq!(reg.counter_value(names::NET_CONNECTIONS), 2);
    for t in [t1, t2] {
        assert_eq!(
            reg.counter_value(&names::with_tenant(names::NET_CONNECTIONS, t.raw())),
            1,
            "tenant {} admitted exactly its own client's connection",
            t.raw()
        );
    }
    assert_eq!(one.counters().conn_reuses, 4);
    assert_eq!(two.counters().conn_reuses, 4);
    srv.shutdown();
}
