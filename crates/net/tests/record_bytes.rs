//! A record is its bytes on the exchange path: the server sends the row it
//! read, and every digest over a record stream hashes rows as they were
//! read or arrived. On generated histories that mix per-record (v2) and
//! batched (v3) bodies in one log, four digests of one object's stream
//! must agree:
//!
//! 1. the client's stream digest, folded over the rows that arrived;
//! 2. the server's RESUME digest, over the rows it read;
//! 3. the replica's local digest, over the rows it holds — a replica whose
//!    catch-up was cut resumes only when that digest equals its sealed
//!    checkpoint's;
//! 4. `RecordStreamDigest` over `to_stored().to_bytes()` of the collected
//!    records, the encoding the other three never compute.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tep_core::hashing::HashingStrategy;
use tep_core::provenance::{collect, collect_rows};
use tep_core::streaming::RecordStreamDigest;
use tep_core::{ChecksumFormat, ProvenanceTracker, TrackerConfig};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, ParticipantId};
use tep_model::{AggregateMode, ObjectId, PrimitiveOp, Value};
use tep_net::proxy::at_frame;
use tep_net::wire::{FrameReader, FrameWriter, Message};
use tep_net::{
    serve_with_registry, Catalog, Client, ClientConfig, ProxyAction, Replica, ReplicaConfig,
    ServerConfig, TamperProxy, TransferCounters, WIRE_VERSION,
};
use tep_obs::Registry;
use tep_storage::vfs::{FaultConfig, FaultVfs};
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// A generated history ending in an aggregate over a table and two root
/// objects: single-record updates of the roots sign per record (v2);
/// updates of nested cells and row inserts emit several records and sign
/// once (v3). Returns the store, the forest, the keys and the aggregate.
fn history(seed: u64) -> (Arc<ProvenanceDb>, tep_model::Forest, KeyDirectory, ObjectId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let signers = [1, 2].map(|id| ca.enroll(ParticipantId(id), 512, &mut rng));
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    for s in &signers {
        keys.register(s.certificate().clone()).unwrap();
    }
    let db = Arc::new(ProvenanceDb::in_memory());
    let mut t = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            strategy: HashingStrategy::Economical,
        },
        Arc::clone(&db),
    );
    let p = &signers[0];
    let (table, _) = t.insert(p, Value::text("t"), None).unwrap();
    let (a, _) = t.insert(p, Value::Int(0), None).unwrap();
    let (b, _) = t.insert(p, Value::Int(0), None).unwrap();
    let mut cells = Vec::new();
    for step in 0..12 + rng.next_u64() % 12 {
        let p = &signers[(rng.next_u64() % 2) as usize];
        let v = Value::Int(step as i64);
        match rng.next_u64() % 4 {
            0 => {
                let row = t.forest().next_id_hint();
                let cell = ObjectId(row.raw() + 1);
                let ops = [
                    PrimitiveOp::Insert {
                        id: Some(row),
                        value: Value::Null,
                        parent: Some(table),
                    },
                    PrimitiveOp::Insert {
                        id: Some(cell),
                        value: v,
                        parent: Some(row),
                    },
                ];
                t.complex(p, &ops).unwrap();
                cells.push(cell);
            }
            1 if !cells.is_empty() => {
                let cell = cells[(rng.next_u64() as usize) % cells.len()];
                t.update(p, cell, v).unwrap();
            }
            2 => t.update(p, a, v).map(|_| ()).unwrap(),
            _ => t.update(p, b, v).map(|_| ()).unwrap(),
        }
    }
    let (agg, _) = t
        .aggregate(p, &[table, a, b], Value::Int(-1), AggregateMode::Atomic)
        .unwrap();
    t.update(p, agg, Value::Int(-2)).unwrap();
    (db, t.forest().clone(), keys, agg)
}

/// The stream digest over the first `k` collected records, each encoded
/// from the decoded record.
fn reference_digest(db: &ProvenanceDb, oid: ObjectId, k: usize) -> Vec<u8> {
    let mut d = RecordStreamDigest::new(ALG, oid);
    for r in &collect(db, oid).unwrap().records[..k] {
        d.push(&r.to_stored().to_bytes());
    }
    d.current().to_vec()
}

/// The server's RESUME digest at offset `k`, asked for on a raw
/// connection with `claim` as the client's digest: `Some` is the digest
/// RESUME_OK echoes, `None` a refusal.
fn server_resume_digest(
    addr: std::net::SocketAddr,
    oid: ObjectId,
    k: u64,
    claim: Vec<u8>,
) -> Option<Vec<u8>> {
    let counters = Arc::new(TransferCounters::new());
    let stream = TcpStream::connect(addr).unwrap();
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
    for _ in 0..2 {
        reader.read_message().unwrap(); // HELLO, OFFER
    }
    writer
        .write_message(&Message::Resume {
            oid,
            records: k,
            digest: claim,
        })
        .unwrap();
    match reader.read_message().unwrap() {
        Some(Message::ResumeOk { records, digest }) => {
            assert_eq!(records, k);
            Some(digest)
        }
        _ => None,
    }
}

#[test]
fn client_server_replica_and_reference_digests_agree_on_mixed_bodies() {
    for seed in 1..=4u64 {
        let (db, forest, keys, target) = history(seed);
        let records = collect(&db, target).unwrap().records;
        let total = records.len();
        let formats: Vec<ChecksumFormat> = records.iter().map(|r| r.checksum_format).collect();
        assert!(
            formats.contains(&ChecksumFormat::PerRecord)
                && formats.contains(&ChecksumFormat::Batched),
            "seed {seed}: the history mixes v2 and v3 bodies: {formats:?}"
        );
        let reference = reference_digest(&db, target, total);

        let catalog = Catalog::new(forest, Arc::clone(&db), ALG, vec![target]);
        let srv = serve_with_registry(
            Arc::new(catalog),
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            Registry::new(),
        )
        .unwrap();

        // 1. The client's fold, over the rows that arrived.
        let fetched = Client::new(srv.addr(), ClientConfig::new(ALG))
            .fetch_verified(target, &keys)
            .unwrap();
        assert_eq!(fetched.records, total as u64);
        assert_eq!(fetched.stream_digest, reference, "seed {seed}: client");

        // 2. The server's RESUME digest, at the end and midway.
        for k in [total, total / 2] {
            let claim = reference_digest(&db, target, k);
            let echoed = server_resume_digest(srv.addr(), target, k as u64, claim.clone());
            assert_eq!(echoed, Some(claim), "seed {seed}: server at {k}");
        }

        // 3. A replica cut before the last record holds a sealed prefix;
        // it resumes only if its local digest over the rows it holds
        // equals the checkpoint's, then lands the reference digest. (The
        // target's own records sort last, and the replica collects its
        // prefix from the target's newest local record, so the cut comes
        // after the aggregate.)
        let vfs = FaultVfs::new(FaultConfig::default());
        let replica_db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), "/replica.db").unwrap());
        let mut cfg = ReplicaConfig::new(ALG);
        cfg.batch = 1;
        let replica = |addr| {
            Replica::new(
                addr,
                cfg,
                Arc::clone(&replica_db),
                vfs.clone(),
                PathBuf::from("/ckpt"),
            )
        };
        // HELLO = 0, OFFER = 1, PROV from 2: the last record is cut.
        let cut = 2 + total as u64 - 1;
        let proxy = TamperProxy::spawn(srv.addr(), at_frame(cut, ProxyAction::Cut, true)).unwrap();
        assert!(replica(proxy.addr()).catch_up(&keys).is_err());
        proxy.shutdown();
        let held = replica_db.len();
        assert_eq!(held, total - 1, "seed {seed}: every record before the cut");
        let report = replica(srv.addr()).catch_up(&keys).unwrap();
        assert_eq!(report.resumed, 1, "seed {seed}: the replica resumed");
        assert_eq!(report.new_records, (total - held) as u64);
        let mut local = RecordStreamDigest::new(ALG, target);
        let mut scratch = Vec::new();
        for row in &collect_rows(&replica_db, target).unwrap() {
            local.push_row(row, &mut scratch);
        }
        assert_eq!(
            local.current(),
            reference.as_slice(),
            "seed {seed}: replica"
        );

        srv.shutdown();
    }
}

/// A replica cut halfway through the aggregate's stream holds a prefix of
/// its inputs' chains and none of the aggregate's own records. It rebuilds
/// the verified prefix from the slots its sealed checkpoint was pushed, in
/// push order, resumes there, and lands the reference digest.
#[test]
fn a_replica_cut_midway_resumes_from_the_slots_it_verified() {
    for seed in 1..=4u64 {
        let (db, forest, keys, target) = history(seed);
        let total = collect(&db, target).unwrap().records.len();
        let reference = reference_digest(&db, target, total);
        let catalog = Catalog::new(forest, Arc::clone(&db), ALG, vec![target]);
        let srv = serve_with_registry(
            Arc::new(catalog),
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            Registry::new(),
        )
        .unwrap();
        let vfs = FaultVfs::new(FaultConfig::default());
        let replica_db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), "/replica.db").unwrap());
        let mut cfg = ReplicaConfig::new(ALG);
        cfg.batch = 1;
        let replica = |addr| {
            Replica::new(
                addr,
                cfg,
                Arc::clone(&replica_db),
                vfs.clone(),
                PathBuf::from("/ckpt"),
            )
        };
        // HELLO = 0, OFFER = 1, PROV from 2: half the records arrive.
        let cut = 2 + total as u64 / 2;
        let proxy = TamperProxy::spawn(srv.addr(), at_frame(cut, ProxyAction::Cut, true)).unwrap();
        assert!(replica(proxy.addr()).catch_up(&keys).is_err());
        proxy.shutdown();
        let held = replica_db.len();
        assert_eq!(held, total / 2, "seed {seed}: every record before the cut");
        assert!(
            replica_db.latest_for(target).is_none(),
            "seed {seed}: the cut comes before the aggregate's records"
        );
        let report = replica(srv.addr()).catch_up(&keys).unwrap();
        assert_eq!(report.resumed, 1, "seed {seed}: the replica resumed");
        assert_eq!(report.new_records, (total - held) as u64);
        let mut local = RecordStreamDigest::new(ALG, target);
        let mut scratch = Vec::new();
        for row in &collect_rows(&replica_db, target).unwrap() {
            local.push_row(row, &mut scratch);
        }
        assert_eq!(
            local.current(),
            reference.as_slice(),
            "seed {seed}: replica"
        );

        srv.shutdown();
    }
}
