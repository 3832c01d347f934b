//! Pins the server's own counter block: a fixed script of requests
//! against a two-tenant server must leave exactly these `tep_net_*`
//! counter lines in its registry's exposition, byte for byte.
//!
//! Wall-clock metrics are skipped: the wake-up counter, the connection
//! gauges and the turnaround histogram.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::hashing::HashingStrategy;
use tep_core::slice::{QueryOp, QuerySpec};
use tep_core::{ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{Forest, TenantId, Value};
use tep_net::{
    serve, Catalog, Client, ClientConfig, ErrorCode, NetError, RetryPolicy, ServerConfig,
    TenantSpec,
};
use tep_obs::Registry;
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;
const A: TenantId = TenantId(1);
const B: TenantId = TenantId(2);
const UNKNOWN: TenantId = TenantId(99);

/// Every server-owned counter the script touches or registers, with its
/// final value. Client-side names (retries, reuses, redials, verify
/// failures) are not the server's to count.
const EXPECTED: &str = "\
tep_net_ae_requests_total 0
tep_net_busy_rejections_total 0
tep_net_bytes_received_total 122
tep_net_bytes_sent_total 1807
tep_net_connections_total 3
tep_net_connections_total{tenant=\"t1\"} 1
tep_net_connections_total{tenant=\"t2\"} 0
tep_net_deadline_closes_total 0
tep_net_denials_total 0
tep_net_fetches_total 1
tep_net_frames_received_total 5
tep_net_frames_sent_total 10
tep_net_queries_total 1
tep_net_range_requests_total 0
tep_net_resumes_total 0
tep_net_shed_total 1
tep_net_shed_total{tenant=\"t1\"} 1
tep_net_shed_total{tenant=\"t2\"} 0
tep_net_stats_requests_total 0
tep_net_tenant_quota_sheds_total 1
tep_net_tenant_quota_sheds_total{tenant=\"t1\"} 1
tep_net_tenant_quota_sheds_total{tenant=\"t2\"} 0
tep_net_tenant_rejections_total 1
tep_net_worker_panics_total 0
tep_net_write_aborts_total 0
";

fn client(addr: SocketAddr, tenant: TenantId) -> Client {
    let mut cfg = ClientConfig::for_tenant(ALG, tenant);
    cfg.retry = RetryPolicy {
        max_attempts: 1,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(1),
        deadline: Duration::from_secs(10),
    };
    Client::new(addr, cfg)
}

/// The `tep_net_*` counter lines of an exposition, in order.
fn counter_lines(text: &str) -> Vec<&str> {
    let mut counters = Vec::new();
    let mut is_counter = false;
    for line in text.lines() {
        if let Some(ty) = line.strip_prefix("# TYPE ") {
            is_counter = ty.ends_with(" counter");
        } else if is_counter
            && line.starts_with("tep_net_")
            && !line.starts_with("tep_net_epoll_wakeups_total")
        {
            counters.push(line);
        }
    }
    counters
}

#[test]
fn the_server_counts_a_fixed_script_exactly() {
    let mut rng = StdRng::seed_from_u64(0x5EB7);
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
    let (root, _) = tracker
        .insert(&alice, Value::Text("root".into()), None)
        .unwrap();
    tracker.insert(&alice, Value::Int(7), Some(root)).unwrap();
    tracker
        .update(&alice, root, Value::Text("root2".into()))
        .unwrap();
    let catalog_a = Arc::new(Catalog::new(tracker.forest().clone(), db, ALG, vec![root]));
    let catalog_b = Arc::new(Catalog::new(
        Forest::new(),
        Arc::new(ProvenanceDb::in_memory()),
        ALG,
        Vec::new(),
    ));

    let srv = serve(
        vec![
            TenantSpec::new(A, catalog_a).with_max_connections(1),
            TenantSpec::new(B, catalog_b),
        ],
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
        Registry::new(),
    )
    .unwrap();

    // Tenant A fetches and queries on one kept connection, which holds
    // A's only slot.
    let mut a = client(srv.addr(), A);
    let rep = a.fetch_verified(root, &keys).unwrap();
    assert_eq!(rep.records, 3);
    let rep = a
        .query(&QuerySpec::new(QueryOp::LineageSlice, root), &keys)
        .unwrap();
    assert!(rep.verification.verified());

    // A second A connection is shed at the quota.
    match client(srv.addr(), A).offer() {
        Err(NetError::Remote {
            code: ErrorCode::Busy,
            ..
        }) => {}
        other => panic!("expected a quota shed, got {other:?}"),
    }
    // A tenant the server does not serve is refused.
    match client(srv.addr(), UNKNOWN).offer() {
        Err(NetError::Remote {
            code: ErrorCode::UnknownTenant,
            ..
        }) => {}
        other => panic!("expected unknown-tenant, got {other:?}"),
    }

    let text = srv.registry().render_text();
    let got = counter_lines(&text);
    let expected: Vec<&str> = EXPECTED.lines().collect();
    for line in &expected {
        assert!(
            got.contains(line),
            "missing `{line}` in:\n{}",
            got.join("\n")
        );
    }
    for line in &got {
        assert!(
            expected.contains(line) || line.ends_with(" 0"),
            "unexpected `{line}`"
        );
    }
    drop(a);
    srv.shutdown();
}
