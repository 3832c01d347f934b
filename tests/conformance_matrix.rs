//! Conformance matrix: guarantees **R1–R8** × `attack::Tamper` × surface.
//!
//! Every guarantee with a defined attack is exercised on each surface that
//! can express the attack:
//!
//! * **in-memory** — tamper a collected [`ProvenanceObject`], batch-verify;
//! * **storage reopen** — persist the tampered records through the durable
//!   CRC-framed log on a [`FaultVfs`], power-cycle, reopen, re-collect,
//!   and verify via [`Verifier::verify_recovered`];
//! * **wire** — serve the honest catalog and replay the tamper in flight
//!   through a [`TamperProxy`], letting the receiver's streaming verifier
//!   catch it — once with a fetching [`Client`] as the receiver, once with
//!   a [`Replica`] catching up;
//! * **query slice** — plant the tamper inside a [`SliceProof`] answering a
//!   lineage query over the same history, and let the recipient's
//!   [`Verifier::verify_slice`] attribute it;
//! * **omission** — attacks on what the server *refuses to say*: a forged
//!   denial of an object it does hold, a range answer that silently drops
//!   a proven member, and a pre-compaction stale state served after a
//!   sealed checkpoint attested more history — in memory, on the wire,
//!   and against a replica's pinned signed root;
//! * **cross-tenant replay** — tenant A's *genuine* signed artifacts
//!   (records, denials) presented inside tenant B's scope, against the
//!   sharded store and over the wire: B's verifier must attribute every
//!   one (A's signer is not in B's key directory) and accept none.
//!
//! Each detection is asserted twice: the verdict itself, and the matching
//! `tep_core_evidence_<kind>_total` counter in a per-case [`Registry`] —
//! the counters must account for *exactly* the reported evidence, kind by
//! kind, on every surface.
//!
//! Attacks that require injecting frames (forged insertion / forged
//! append, R3/R6) have no wire form — a path attacker can drop or mutate
//! frames but cannot mint them mid-stream without breaking framing — so
//! those (guarantee, wire) pairs are intentionally absent.

use std::collections::HashMap;
use std::io::{Seek, SeekFrom};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tepdb::core::attack::{apply_tamper, collusion_splice, forge_insertion, Tamper};
use tepdb::core::checkpoint::Checkpoint;
use tepdb::core::denial::{DenialProof, RangeProof, SignedDenial, SignedRange, SignedRoot};
use tepdb::core::merkle::shard_tree_of;
use tepdb::core::provenance::ProvenanceObject;
use tepdb::core::slice::{QueryAnswer, QueryOp, QuerySpec, SliceProof};
use tepdb::core::verify::EvidenceKind;
use tepdb::core::{
    collect, ProvenanceRecord, ProvenanceTracker, TamperEvidence, TrackerConfig, Verifier,
};
use tepdb::model::ObjectId;
use tepdb::net::proxy::Mutator;
use tepdb::net::wire::Message;
use tepdb::net::{
    serve, serve_with_registry, AeStatus, Catalog, Client, ClientConfig, NetError, ProxyAction,
    Replica, ReplicaConfig, ServerConfig, ServerHandle, TamperProxy,
};
use tepdb::obs::{names, Registry};
use tepdb::prelude::*;
use tepdb::storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tepdb::storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// One shared provenance world (RSA keygen is the expensive part).
struct World {
    keys: KeyDirectory,
    bob: Participant,
    mallory: Participant,
    /// Atomic object with a 5-record history: alice@0, bob@1, alice@2,
    /// bob@3, carol@4 — bob's records sandwich alice@2 (collusion splice)
    /// and carol@4 is the honest successor that exposes it.
    doc: ObjectId,
    doc_hash: Vec<u8>,
    /// A second object with the same value: its hash must not vouch for
    /// `doc`'s provenance (R5).
    other_hash: Vec<u8>,
    clean: ProvenanceObject,
    catalog: Arc<Catalog>,
}

static WORLD: OnceLock<World> = OnceLock::new();

fn world() -> &'static World {
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC04F);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let carol = ca.enroll(ParticipantId(3), 512, &mut rng);
        let mallory = ca.enroll(ParticipantId(4), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        for p in [&alice, &bob, &carol, &mallory] {
            keys.register(p.certificate().clone()).unwrap();
        }

        let db = Arc::new(ProvenanceDb::in_memory());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                ..Default::default()
            },
            Arc::clone(&db),
        );
        let (doc, _) = tracker.insert(&alice, Value::Int(0), None).unwrap();
        tracker.update(&bob, doc, Value::Int(1)).unwrap();
        tracker.update(&alice, doc, Value::Int(2)).unwrap();
        tracker.update(&bob, doc, Value::Int(3)).unwrap();
        tracker.update(&carol, doc, Value::Int(4)).unwrap();
        let (other, _) = tracker.insert(&bob, Value::Int(4), None).unwrap();

        let doc_hash = tracker.object_hash(doc).unwrap();
        let other_hash = tracker.object_hash(other).unwrap();
        let clean = collect(&db, doc).unwrap();
        let catalog = Arc::new(Catalog::new(tracker.forest().clone(), db, ALG, vec![doc]));

        World {
            keys,
            bob,
            mallory,
            doc,
            doc_hash,
            other_hash,
            clean,
            catalog,
        }
    })
}

/// An attack from the §2.2 toolkit, in matrix form.
enum Attack {
    /// A single-record mutation/removal (replayable on the wire).
    Tamper(Tamper),
    /// Mallory forges a record at an *interior* slot (R3).
    ForgeInterior,
    /// Mallory appends a forged most-recent record that tracks no real
    /// operation (R3 footnote 5 / R6): caught by the data comparison.
    ForgeAppend,
    /// Bob splices alice@2 out between his own records and re-signs (R7);
    /// carol's honest successor exposes it.
    Splice,
    /// The data is modified out-of-band, provenance left intact (R4).
    DataModification,
    /// Genuine provenance presented for a *different* object (R5).
    Substitution,
}

struct Case {
    guarantee: &'static str,
    name: &'static str,
    attack: Attack,
    /// The evidence kind that must be reported (in-memory and wire).
    expect: EvidenceKind,
    /// Kind expected after a storage round-trip. Differs only for
    /// `ForgeInterior`: the store's duplicate-slot collapse keeps one
    /// record per `(oid, seq)`, so the forgery surfaces as the successor's
    /// broken signature instead of a duplicate.
    expect_storage: EvidenceKind,
}

fn cases() -> Vec<Case> {
    let doc = world().doc;
    let mallory = world().mallory.id();
    let mut out = vec![
        Case {
            guarantee: "R1",
            name: "flip output hash",
            attack: Attack::Tamper(Tamper::FlipOutputHash { oid: doc, seq: 2 }),
            expect: EvidenceKind::BadSignature,
            expect_storage: EvidenceKind::BadSignature,
        },
        Case {
            guarantee: "R1",
            name: "flip input hash",
            attack: Attack::Tamper(Tamper::FlipInputHash {
                oid: doc,
                seq: 2,
                input: 0,
            }),
            expect: EvidenceKind::BadSignature,
            expect_storage: EvidenceKind::BadSignature,
        },
        Case {
            guarantee: "R1",
            name: "flip checksum",
            attack: Attack::Tamper(Tamper::FlipChecksum { oid: doc, seq: 2 }),
            expect: EvidenceKind::BadSignature,
            expect_storage: EvidenceKind::BadSignature,
        },
        Case {
            guarantee: "R2",
            name: "remove interior record",
            attack: Attack::Tamper(Tamper::Remove { oid: doc, seq: 2 }),
            expect: EvidenceKind::MissingRecord,
            expect_storage: EvidenceKind::MissingRecord,
        },
        Case {
            guarantee: "R3",
            name: "forge interior insertion",
            attack: Attack::ForgeInterior,
            expect: EvidenceKind::DuplicateRecord,
            expect_storage: EvidenceKind::BadSignature,
        },
        Case {
            guarantee: "R4",
            name: "modify data out-of-band",
            attack: Attack::DataModification,
            expect: EvidenceKind::OutputMismatch,
            expect_storage: EvidenceKind::OutputMismatch,
        },
        Case {
            guarantee: "R5",
            name: "substitute provenance of another object",
            attack: Attack::Substitution,
            expect: EvidenceKind::OutputMismatch,
            expect_storage: EvidenceKind::OutputMismatch,
        },
        Case {
            guarantee: "R6",
            name: "forged untracked append",
            attack: Attack::ForgeAppend,
            expect: EvidenceKind::OutputMismatch,
            expect_storage: EvidenceKind::OutputMismatch,
        },
        Case {
            guarantee: "R7",
            name: "collusion splice with honest successor",
            attack: Attack::Splice,
            expect: EvidenceKind::BadSignature,
            expect_storage: EvidenceKind::BadSignature,
        },
        Case {
            guarantee: "R8",
            name: "reattribute to another participant",
            attack: Attack::Tamper(Tamper::Reattribute {
                oid: doc,
                seq: 1,
                to: mallory,
            }),
            expect: EvidenceKind::BadSignature,
            expect_storage: EvidenceKind::BadSignature,
        },
    ];
    // Sanity: every guarantee appears.
    for g in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"] {
        assert!(out.iter().any(|c| c.guarantee == g), "no case for {g}");
    }
    out.sort_by_key(|c| c.guarantee);
    out
}

/// Builds the (claimed object hash, provenance) pair the verifier is
/// handed after the attack.
fn scenario(w: &World, attack: &Attack) -> (Vec<u8>, ProvenanceObject) {
    let mut prov = w.clean.clone();
    let hash = match attack {
        Attack::Tamper(t) => {
            assert!(apply_tamper(&mut prov, t), "tamper target must exist");
            w.doc_hash.clone()
        }
        Attack::ForgeInterior => {
            forge_insertion(&mut prov, ALG, &w.mallory, w.doc, 2, vec![0u8; 32]).unwrap();
            w.doc_hash.clone()
        }
        Attack::ForgeAppend => {
            forge_insertion(&mut prov, ALG, &w.mallory, w.doc, 5, vec![0u8; 32]).unwrap();
            w.doc_hash.clone()
        }
        Attack::Splice => {
            collusion_splice(&mut prov, ALG, w.doc, 1, 3, &w.bob).unwrap();
            w.doc_hash.clone()
        }
        Attack::DataModification => {
            let mut h = w.doc_hash.clone();
            h[0] ^= 0x01;
            h
        }
        Attack::Substitution => w.other_hash.clone(),
    };
    (hash, prov)
}

/// The per-kind evidence counters must account for exactly the reported
/// issues — every detected kind incremented by its multiplicity, every
/// other kind untouched.
fn assert_evidence_counters(reg: &Registry, issues: &[TamperEvidence], ctx: &str) {
    let mut want: HashMap<EvidenceKind, u64> = HashMap::new();
    for issue in issues {
        *want.entry(issue.kind()).or_insert(0) += 1;
    }
    for kind in EvidenceKind::ALL {
        assert_eq!(
            reg.counter_value(&kind.counter_name()),
            want.get(&kind).copied().unwrap_or(0),
            "{ctx}: `{kind}` counter does not match reported evidence",
        );
    }
}

// ---------------------------------------------------------------------------
// Surface 1: in-memory batch verification
// ---------------------------------------------------------------------------

#[test]
fn in_memory_surface_detects_every_attack() {
    let w = world();
    for case in cases() {
        let ctx = format!("{} ({}, in-memory)", case.guarantee, case.name);
        let (hash, prov) = scenario(w, &case.attack);
        let reg = Registry::new();
        let mut verifier = Verifier::new(&w.keys, ALG);
        verifier.attach_obs(&reg);
        let v = verifier.verify(&hash, &prov);
        assert!(!v.verified(), "{ctx}: attack went undetected");
        assert!(
            v.issues.iter().any(|i| i.kind() == case.expect),
            "{ctx}: expected {:?} among {:?}",
            case.expect,
            v.issues,
        );
        assert_evidence_counters(&reg, &v.issues, &ctx);
        assert_eq!(
            reg.counter_value("tep_core_verify_tampered_total"),
            1,
            "{ctx}"
        );
    }
}

// ---------------------------------------------------------------------------
// Surface 2: durable log round-trip (write → power-cycle → recover)
// ---------------------------------------------------------------------------

#[test]
fn storage_reopen_surface_detects_every_attack() {
    let w = world();
    let path = Path::new("/matrix.teplog");
    for case in cases() {
        let ctx = format!("{} ({}, storage reopen)", case.guarantee, case.name);
        let (hash, prov) = scenario(w, &case.attack);

        // Persist the tampered records (reverse order so a forged
        // duplicate shadows the original in the store's tie-keeping
        // index), then simulate power loss and recover.
        let vfs = FaultVfs::new(FaultConfig::default());
        {
            let db = ProvenanceDb::durable_with(vfs.clone(), path).unwrap();
            for r in prov.records.iter().rev() {
                db.append(r.to_stored()).unwrap();
            }
            db.sync().unwrap();
        }
        vfs.power_cycle();
        let db = ProvenanceDb::durable_with(vfs, path).unwrap();
        assert!(
            !db.recovery().is_degraded(),
            "{ctx}: synced log must recover clean"
        );

        let recovered = collect(&db, w.doc).unwrap();
        let reg = Registry::new();
        let mut verifier = Verifier::new(&w.keys, ALG);
        verifier.attach_obs(&reg);
        let v = verifier.verify_recovered(&hash, &recovered, &db.recovery());
        assert!(!v.verified(), "{ctx}: attack went undetected");
        assert!(
            v.issues.iter().any(|i| i.kind() == case.expect_storage),
            "{ctx}: expected {:?} among {:?}",
            case.expect_storage,
            v.issues,
        );
        assert_evidence_counters(&reg, &v.issues, &ctx);
    }
}

/// Storage-layer tampering below the record level: flipping a byte of the
/// log itself quarantines the damaged range at reopen, and
/// `verify_recovered` folds that into `StorageQuarantine` evidence — a
/// damaged chain never verifies clean.
#[test]
fn storage_quarantine_is_reported_as_evidence() {
    let w = world();
    let path = Path::new("/quarantine.teplog");
    let vfs = FaultVfs::new(FaultConfig::default());
    {
        let db = ProvenanceDb::durable_with(vfs.clone(), path).unwrap();
        for r in &w.clean.records {
            db.append(r.to_stored()).unwrap();
        }
        db.sync().unwrap();
    }
    let len = {
        let mut f = vfs.open_rw(path).unwrap();
        f.seek(SeekFrom::End(0)).unwrap()
    };
    assert!(vfs.corrupt_byte(path, (len / 2) as usize));
    vfs.power_cycle();

    let db = ProvenanceDb::durable_with(vfs, path).unwrap();
    assert!(db.recovery().is_degraded(), "corruption must quarantine");
    let recovered = collect(&db, w.doc).unwrap();
    let reg = Registry::new();
    let mut verifier = Verifier::new(&w.keys, ALG);
    verifier.attach_obs(&reg);
    let v = verifier.verify_recovered(&w.doc_hash, &recovered, &db.recovery());
    assert!(!v.verified(), "quarantined storage must not verify clean");
    assert!(
        v.issues
            .iter()
            .any(|i| i.kind() == EvidenceKind::StorageQuarantine),
        "expected StorageQuarantine among {:?}",
        v.issues,
    );
    assert_evidence_counters(&reg, &v.issues, "storage quarantine");
}

// ---------------------------------------------------------------------------
// Surface 3: the wire (streaming verify-on-receive)
// ---------------------------------------------------------------------------

/// Replays an offline-tampered provenance object in flight: PROV frames
/// whose record was removed are dropped, mutated ones are re-framed with
/// a valid CRC — exactly what a path attacker can do.
fn replay_mutator(tampered: ProvenanceObject) -> Mutator {
    let map: HashMap<(ObjectId, u64), ProvenanceRecord> = tampered
        .records
        .into_iter()
        .map(|r| ((r.output_oid, r.seq_id), r))
        .collect();
    Box::new(move |_frame, msg| {
        let Message::Prov { record } = msg else {
            return ProxyAction::Forward;
        };
        let Ok(rec) = ProvenanceRecord::from_stored(record) else {
            return ProxyAction::Forward;
        };
        match map.get(&(rec.output_oid, rec.seq_id)) {
            None => ProxyAction::Drop,
            Some(t) if *t != rec => ProxyAction::Replace(Message::Prov {
                record: t.to_stored(),
            }),
            Some(_) => ProxyAction::Forward,
        }
    })
}

/// The in-flight form of each attack, when one exists.
fn wire_mutator(w: &World, attack: &Attack) -> Option<Mutator> {
    match attack {
        Attack::Tamper(_) | Attack::Splice => {
            let (_, tampered) = scenario(w, attack);
            Some(replay_mutator(tampered))
        }
        // R4 on the wire: mutate the data frame, leave provenance intact.
        Attack::DataModification => Some(Box::new(|_frame, msg| {
            let Message::Data { entries } = msg else {
                return ProxyAction::Forward;
            };
            let mut entries = entries.clone();
            entries[0].value = Value::Int(666_666);
            ProxyAction::Replace(Message::Data { entries })
        })),
        // R5 on the wire: deliver a different object under genuine
        // provenance by swapping the data node's identity.
        Attack::Substitution => Some(Box::new(|_frame, msg| {
            let Message::Data { entries } = msg else {
                return ProxyAction::Forward;
            };
            let mut entries = entries.clone();
            entries[0].id = ObjectId(entries[0].id.0 + 1);
            ProxyAction::Replace(Message::Data { entries })
        })),
        // Frame injection is not in a path attacker's toolkit.
        Attack::ForgeInterior | Attack::ForgeAppend => None,
    }
}

/// Whoever receives a transfer gets the same scrutiny (§2.2): the wire
/// surface runs each attack against a fetching client and against a fresh
/// replica catching up into a durable store. Both return the rejection.
type Receiver = fn(&World, SocketAddr, &Registry) -> Result<(), NetError>;

fn receivers() -> [(&'static str, Receiver); 2] {
    [
        ("client", |w, addr, reg| {
            let mut client = Client::new(addr, ClientConfig::new(ALG));
            client.attach_obs(reg);
            client.fetch_verified(w.doc, &w.keys).map(drop)
        }),
        ("replica", |w, addr, reg| {
            let vfs = FaultVfs::new(FaultConfig::default());
            let log = Path::new("/wire-replica.teplog");
            let db = Arc::new(ProvenanceDb::durable_with(vfs.clone(), log).unwrap());
            let ckpts = PathBuf::from("/wire-ckpt");
            let mut repl = Replica::new(addr, ReplicaConfig::new(ALG), db, vfs, ckpts);
            repl.attach_obs(reg);
            repl.catch_up(&w.keys).map(drop)
        }),
    ]
}

#[test]
fn wire_surface_detects_every_expressible_attack() {
    let w = world();
    let srv = serve(
        Arc::clone(&w.catalog),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut covered = 0;
    for case in cases() {
        if wire_mutator(w, &case.attack).is_none() {
            continue;
        }
        covered += 1;
        for (receiver, receive) in receivers() {
            let ctx = format!("{} ({}, wire, {receiver})", case.guarantee, case.name);
            let mutator = wire_mutator(w, &case.attack).unwrap();
            let proxy = TamperProxy::spawn(srv.addr(), mutator).unwrap();
            let reg = Registry::new();
            match receive(w, proxy.addr(), &reg) {
                Err(NetError::TamperDetected { issues, .. }) => {
                    assert!(
                        issues.iter().any(|i| i.kind() == case.expect),
                        "{ctx}: expected {:?} among {:?}",
                        case.expect,
                        issues,
                    );
                    assert_evidence_counters(&reg, &issues, &ctx);
                }
                other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
            }
            assert_eq!(
                reg.counter_value("tep_net_verify_failures_total"),
                1,
                "{ctx}: transfer failure not counted",
            );
            proxy.shutdown();
        }
    }
    // R1 (×3), R2, R4, R5, R7, R8 all have wire forms.
    assert_eq!(covered, 8, "wire coverage shrank");
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Surface 4: query slices (`Verifier::verify_slice`)
// ---------------------------------------------------------------------------

/// The honest lineage slice of `doc`: its full 5-record chain, produced by
/// a real `tep_query::QueryEngine` over a store holding the clean history.
fn honest_doc_slice(w: &World) -> SliceProof {
    let db = Arc::new(ProvenanceDb::in_memory());
    for r in &w.clean.records {
        db.append(r.to_stored()).unwrap();
    }
    let engine = tepdb::query::QueryEngine::new(db, ALG);
    engine
        .execute(&QuerySpec::new(QueryOp::LineageSlice, w.doc))
        .unwrap()
}

/// The slice form of each attack, when one exists, with the evidence kind
/// `verify_slice` must attribute. Record-level attacks transplant the
/// tampered records into the proof; the R4 analogue tampers the *answer*
/// (the slice's counterpart of delivering modified data). R5
/// (substitution — a genuine proof presented for a different question) is
/// intentionally absent: it is caught by the recipient's spec-echo check
/// in `Client::query`, exercised in the tep-net query tests, before
/// `verify_slice` ever runs.
fn slice_scenario(w: &World, case: &Case) -> Option<(SliceProof, EvidenceKind)> {
    let mut proof = honest_doc_slice(w);
    let expect = match &case.attack {
        Attack::Tamper(_) | Attack::ForgeInterior | Attack::ForgeAppend | Attack::Splice => {
            let (_, tampered) = scenario(w, &case.attack);
            proof.records = tampered.records;
            proof.records.sort_by_key(|r| (r.output_oid, r.seq_id));
            match case.attack {
                // Coverage re-traversal: the interior gap is a missing
                // record, a forged most-recent record lies outside the
                // closure from the anchored target seq.
                Attack::Tamper(Tamper::Remove { .. }) => EvidenceKind::MissingRecord,
                Attack::ForgeInterior => EvidenceKind::DuplicateRecord,
                Attack::ForgeAppend => EvidenceKind::ExtraneousRecord,
                _ => EvidenceKind::BadSignature,
            }
        }
        // R4's slice analogue: the records are honest, the claimed answer
        // is not — the recomputed answer must win.
        Attack::DataModification => {
            let QueryAnswer::Objects(ref mut oids) = proof.answer else {
                panic!("lineage answers are object lists");
            };
            oids.push(ObjectId(999));
            EvidenceKind::OutputMismatch
        }
        Attack::Substitution => return None,
    };
    Some((proof, expect))
}

#[test]
fn query_slice_surface_detects_every_expressible_attack() {
    let w = world();
    let mut covered = 0;
    for case in cases() {
        let Some((proof, expect)) = slice_scenario(w, &case) else {
            continue;
        };
        covered += 1;
        let ctx = format!("{} ({}, query slice)", case.guarantee, case.name);
        let reg = Registry::new();
        let mut verifier = Verifier::new(&w.keys, ALG);
        verifier.attach_obs(&reg);
        let v = verifier.verify_slice(&proof);
        assert!(!v.verified(), "{ctx}: attack went undetected");
        assert!(
            v.issues.iter().any(|i| i.kind() == expect),
            "{ctx}: expected {:?} among {:?}",
            expect,
            v.issues,
        );
        assert_evidence_counters(&reg, &v.issues, &ctx);
    }
    // Everything except R5's substitution has a slice form.
    assert_eq!(covered, 9, "query-slice coverage shrank");

    // Control: the honest slice verifies clean on this surface too.
    let reg = Registry::new();
    let mut verifier = Verifier::new(&w.keys, ALG);
    verifier.attach_obs(&reg);
    let v = verifier.verify_slice(&honest_doc_slice(w));
    assert!(v.verified(), "honest slice must verify: {:?}", v.issues);
    assert_evidence_counters(&reg, &[], "honest query slice");
}

// ---------------------------------------------------------------------------
// Control: the honest path stays clean on every surface
// ---------------------------------------------------------------------------

#[test]
fn honest_history_verifies_on_every_surface() {
    let w = world();

    // In-memory.
    let reg = Registry::new();
    let mut verifier = Verifier::new(&w.keys, ALG);
    verifier.attach_obs(&reg);
    assert!(verifier.verify(&w.doc_hash, &w.clean).verified());
    assert_evidence_counters(&reg, &[], "honest in-memory");
    assert_eq!(reg.counter_value("tep_core_verify_tampered_total"), 0);

    // Storage reopen.
    let path = Path::new("/honest.teplog");
    let vfs = FaultVfs::new(FaultConfig::default());
    {
        let db = ProvenanceDb::durable_with(vfs.clone(), path).unwrap();
        for r in &w.clean.records {
            db.append(r.to_stored()).unwrap();
        }
        db.sync().unwrap();
    }
    vfs.power_cycle();
    let db = ProvenanceDb::durable_with(vfs, path).unwrap();
    let recovered = collect(&db, w.doc).unwrap();
    let reg = Registry::new();
    let mut verifier = Verifier::new(&w.keys, ALG);
    verifier.attach_obs(&reg);
    assert!(verifier
        .verify_recovered(&w.doc_hash, &recovered, &db.recovery())
        .verified());
    assert_evidence_counters(&reg, &[], "honest storage reopen");

    // Wire.
    let srv = serve(
        Arc::clone(&w.catalog),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let reg = Registry::new();
    let mut client = Client::new(srv.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    let report = client.fetch_verified(w.doc, &w.keys).unwrap();
    assert!(report.verification.verified());
    assert_eq!(report.object_hash, w.doc_hash);
    assert_evidence_counters(&reg, &[], "honest wire");
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Surface 5: omission — authenticated denial, range completeness, and
// compaction-checkpoint continuity
// ---------------------------------------------------------------------------

/// A deterministic two-object history signed by one participant. Worlds
/// built from the same seed share identical keys and a byte-identical
/// operation prefix, so `omission_history(3, 3)` is exactly the state
/// `omission_history(5, 1000)` had two records ago — a rollback — while
/// `omission_history(5, 2000)` is a same-length twin whose final record
/// was swapped — a rewrite under a sealed checkpoint.
struct OmissionWorld {
    keys: KeyDirectory,
    signer: Arc<Participant>,
    tracker: ProvenanceTracker,
    db: Arc<ProvenanceDb>,
    doc: ObjectId,
    doc2: ObjectId,
    doc_hash: Vec<u8>,
}

fn omission_history(updates: u64, tail: i64) -> OmissionWorld {
    let mut rng = StdRng::seed_from_u64(0x0DE_11A2);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let signer = ca.enroll(ParticipantId(7), 512, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    keys.register(signer.certificate().clone()).unwrap();

    let db = Arc::new(ProvenanceDb::in_memory());
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            ..Default::default()
        },
        Arc::clone(&db),
    );
    let (doc, _) = tracker.insert(&signer, Value::Int(0), None).unwrap();
    let (doc2, _) = tracker.insert(&signer, Value::Int(50), None).unwrap();
    for i in 1..updates {
        tracker.update(&signer, doc, Value::Int(i as i64)).unwrap();
    }
    tracker.update(&signer, doc, Value::Int(tail)).unwrap();
    let doc_hash = tracker.object_hash(doc).unwrap();
    OmissionWorld {
        keys,
        signer: Arc::new(signer),
        tracker,
        db,
        doc,
        doc2,
        doc_hash,
    }
}

impl OmissionWorld {
    /// A signing catalog: misses become signed denials, range requests
    /// carry completeness proofs, anti-entropy summaries attach the
    /// signed shard root.
    fn catalog(&self) -> Arc<Catalog> {
        Arc::new(
            Catalog::new(
                self.tracker.forest().clone(),
                Arc::clone(&self.db),
                ALG,
                vec![self.doc, self.doc2],
            )
            .with_signer(Arc::clone(&self.signer)),
        )
    }

    /// An ID guaranteed absent from the shard (only `doc`/`doc2` bear
    /// records).
    fn absent(&self) -> ObjectId {
        ObjectId(self.doc.raw().max(self.doc2.raw()) + 101)
    }

    /// The shard members, ascending — what a complete range answer over
    /// everything must return.
    fn members(&self) -> Vec<ObjectId> {
        let mut m = vec![self.doc, self.doc2];
        m.sort_unstable_by_key(|o| o.raw());
        m
    }
}

#[test]
fn omission_in_memory_surface_detects_every_attack() {
    let a = omission_history(5, 1000);
    let tree = shard_tree_of(ALG, &a.db);
    let log_records = a.db.len() as u64;
    let root = SignedRoot::sign(&tree, log_records, &a.signer).unwrap();
    let absent = a.absent();
    let (lo, hi) = (ObjectId(0), absent);

    // Controls: an honest denial and an honest range answer verify clean.
    let reg = Registry::new();
    let mut verifier = Verifier::new(&a.keys, ALG);
    verifier.attach_obs(&reg);
    let honest = SignedDenial {
        root: root.clone(),
        proof: DenialProof::prove(&tree, absent).unwrap(),
    };
    assert!(verifier.verify_denial(&honest).verified());
    let range = SignedRange {
        root: root.clone(),
        proof: RangeProof::prove(&tree, lo, hi),
    };
    assert!(verifier.verify_range(&range, &a.members()).verified());
    assert_evidence_counters(&reg, &[], "honest denial + range (in-memory)");

    // Omission attack: deny an object the shard does hold, forged from
    // the honest witnesses around a neighbouring gap.
    let ctx = "deny existing object (in-memory)";
    let reg = Registry::new();
    let mut verifier = Verifier::new(&a.keys, ALG);
    verifier.attach_obs(&reg);
    let mut forged = DenialProof::prove(&tree, absent).unwrap();
    forged.absent = a.doc;
    let v = verifier.verify_denial(&SignedDenial {
        root: root.clone(),
        proof: forged,
    });
    assert_eq!(
        v.issues,
        vec![TamperEvidence::ForgedDenial { oid: a.doc }],
        "{ctx}"
    );
    assert_evidence_counters(&reg, &v.issues, ctx);

    // Omission attack: withhold a proven range member.
    let ctx = "withhold range member (in-memory)";
    let reg = Registry::new();
    let mut verifier = Verifier::new(&a.keys, ALG);
    verifier.attach_obs(&reg);
    let v = verifier.verify_range(&range, &a.members()[..1]);
    assert_eq!(
        v.issues,
        vec![TamperEvidence::IncompleteResponse { lo, hi }],
        "{ctx}"
    );
    assert_evidence_counters(&reg, &v.issues, ctx);

    // Its dual: pad the answer with a member the proof never covered.
    let ctx = "pad range answer (in-memory)";
    let reg = Registry::new();
    let mut verifier = Verifier::new(&a.keys, ALG);
    verifier.attach_obs(&reg);
    let mut padded = a.members();
    padded.push(absent);
    let v = verifier.verify_range(&range, &padded);
    assert_eq!(
        v.issues,
        vec![TamperEvidence::ForgedDenial { oid: absent }],
        "{ctx}"
    );
    assert_evidence_counters(&reg, &v.issues, ctx);

    // Omission attack: serve pre-compaction stale state — a same-length
    // twin history whose record at a sealed-and-anchored slot was
    // rewritten. The twin verifies clean on its own; only the checkpoint
    // exposes the swap.
    let sealed = Checkpoint::capture(ALG, &a.db, 0).seal(&a.signer).unwrap();
    let reg = Registry::new();
    let mut verifier = Verifier::new(&a.keys, ALG);
    verifier.attach_obs(&reg);
    let v =
        verifier.verify_through_checkpoint(&a.doc_hash, &collect(&a.db, a.doc).unwrap(), &sealed);
    assert!(
        v.verified(),
        "honest state through checkpoint: {:?}",
        v.issues
    );
    assert_evidence_counters(&reg, &[], "honest state through checkpoint");

    let ctx = "stale state under sealed checkpoint (in-memory)";
    let twin = omission_history(5, 2000);
    let stale = collect(&twin.db, twin.doc).unwrap();
    let anchored_seq = a.db.records_for(a.doc).len() as u64 - 1;
    let reg = Registry::new();
    let mut verifier = Verifier::new(&a.keys, ALG);
    verifier.attach_obs(&reg);
    assert!(
        verifier.verify(&twin.doc_hash, &stale).verified(),
        "the twin must be internally clean — only the checkpoint catches it"
    );
    let v = verifier.verify_through_checkpoint(&twin.doc_hash, &stale, &sealed);
    assert_eq!(
        v.issues,
        vec![TamperEvidence::CheckpointMismatch {
            oid: a.doc,
            seq: anchored_seq,
        }],
        "{ctx}"
    );
    // The clean twin verify above recorded nothing; the counters must
    // account for exactly the checkpoint mismatch.
    assert_evidence_counters(&reg, &v.issues, ctx);
}

#[test]
fn omission_wire_surface_detects_every_attack() {
    let w = omission_history(5, 1000);
    let tree = shard_tree_of(ALG, &w.db);
    let log_records = w.db.len() as u64;
    let absent = w.absent();
    let (lo, hi) = (ObjectId(0), absent);
    let server_reg = Registry::new();
    let srv = serve_with_registry(
        w.catalog(),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
        server_reg.clone(),
    )
    .unwrap();

    // Control: a miss is an authenticated denial the client verifies and
    // accepts as terminal — with zero evidence recorded.
    let reg = Registry::new();
    let mut client = Client::new(srv.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    match client.fetch_verified(absent, &w.keys) {
        Err(NetError::Denied {
            oid,
            log_records: at,
        }) => {
            assert_eq!(oid, absent);
            assert_eq!(at, log_records, "denial must attest the log high-water");
        }
        other => panic!("honest wire denial: expected Denied, got {other:?}"),
    }
    assert_evidence_counters(&reg, &[], "honest wire denial");

    // Omission attack: deny an existing object — a path attacker swaps
    // the object's stream for a *genuine* denial replayed from an absent
    // ID. The denial verifies; it just doesn't answer the question.
    let ctx = "deny existing object (wire)";
    let replay = SignedDenial {
        root: SignedRoot::sign(&tree, log_records, &w.signer).unwrap(),
        proof: DenialProof::prove(&tree, absent).unwrap(),
    }
    .to_bytes();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| {
            if matches!(msg, Message::Prov { .. }) {
                ProxyAction::Replace(Message::Denial {
                    proof: replay.clone(),
                })
            } else {
                ProxyAction::Forward
            }
        }),
    )
    .unwrap();
    let reg = Registry::new();
    let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    match client.fetch_verified(w.doc, &w.keys) {
        Err(NetError::TamperDetected { issues, .. }) => {
            assert_eq!(
                issues,
                vec![TamperEvidence::ForgedDenial { oid: w.doc }],
                "{ctx}"
            );
            assert_evidence_counters(&reg, &issues, ctx);
        }
        other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
    }
    proxy.shutdown();

    // Omission attack: mutate an honest denial in flight — caught as a
    // forgery against the requested ID, whichever byte was damaged.
    let ctx = "mutated denial (wire)";
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| {
            let Message::Denial { proof } = msg else {
                return ProxyAction::Forward;
            };
            let mut proof = proof.clone();
            let last = proof.len() - 1;
            proof[last] ^= 0x01;
            ProxyAction::Replace(Message::Denial { proof })
        }),
    )
    .unwrap();
    let reg = Registry::new();
    let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    match client.fetch_verified(absent, &w.keys) {
        Err(NetError::TamperDetected { issues, .. }) => {
            assert_eq!(
                issues,
                vec![TamperEvidence::ForgedDenial { oid: absent }],
                "{ctx}"
            );
            assert_evidence_counters(&reg, &issues, ctx);
        }
        other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
    }
    proxy.shutdown();

    // Control: the honest range lists every member, completeness-proven.
    let reg = Registry::new();
    let mut client = Client::new(srv.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    let report = client.range(lo, hi, &w.keys).unwrap();
    assert_eq!(report.members, w.members());
    assert_eq!(report.log_records, log_records);
    assert_evidence_counters(&reg, &[], "honest wire range");

    // Omission attack: withhold a range match in flight.
    let ctx = "withhold range member (wire)";
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(|_frame, msg| {
            let Message::RangeResp { oids, proof } = msg else {
                return ProxyAction::Forward;
            };
            let mut oids = oids.clone();
            oids.pop();
            ProxyAction::Replace(Message::RangeResp {
                oids,
                proof: proof.clone(),
            })
        }),
    )
    .unwrap();
    let reg = Registry::new();
    let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    match client.range(lo, hi, &w.keys) {
        Err(NetError::TamperDetected { issues, .. }) => {
            assert_eq!(
                issues,
                vec![TamperEvidence::IncompleteResponse { lo, hi }],
                "{ctx}"
            );
            assert_evidence_counters(&reg, &issues, ctx);
        }
        other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
    }
    proxy.shutdown();

    // Its dual: pad the answer with an unproven member.
    let ctx = "pad range answer (wire)";
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| {
            let Message::RangeResp { oids, proof } = msg else {
                return ProxyAction::Forward;
            };
            let mut oids = oids.clone();
            oids.push(absent);
            ProxyAction::Replace(Message::RangeResp {
                oids,
                proof: proof.clone(),
            })
        }),
    )
    .unwrap();
    let reg = Registry::new();
    let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
    client.attach_obs(&reg);
    match client.range(lo, hi, &w.keys) {
        Err(NetError::TamperDetected { issues, .. }) => {
            assert_eq!(
                issues,
                vec![TamperEvidence::ForgedDenial { oid: absent }],
                "{ctx}"
            );
            assert_evidence_counters(&reg, &issues, ctx);
        }
        other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
    }
    proxy.shutdown();

    // The server's own ledger of what it proved: two signed denials (the
    // honest control and the one mutated in flight — the replayed-denial
    // case streamed `doc` normally) and three proven range answers.
    assert_eq!(server_reg.counter_value(names::NET_DENIALS), 2);
    assert_eq!(server_reg.counter_value(names::NET_RANGE_REQUESTS), 3);
    srv.shutdown();
}

/// Binds a server on an exact (recently freed) address, retrying while
/// the OS releases the old listener.
fn serve_at(catalog: Arc<Catalog>, addr: SocketAddr) -> ServerHandle {
    for _ in 0..50 {
        match serve(Arc::clone(&catalog), addr, ServerConfig::default()) {
            Ok(h) => return h,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    panic!("could not rebind {addr}");
}

/// Omission across replication: a replica pins the primary's signed root
/// high-water; a primary later serving a pre-compaction rollback — fewer
/// cumulative log records under a validly signed root — is terminal
/// `CheckpointMismatch` evidence, and the pin never regresses.
#[test]
fn omission_replica_surface_detects_stale_root() {
    let a = omission_history(5, 1000);
    let rolled = omission_history(3, 3);
    assert_eq!(
        shard_tree_of(ALG, &rolled.db).leaf_count(),
        shard_tree_of(ALG, &a.db).leaf_count(),
        "the rollback must look like the same shard, just older"
    );

    let srv = serve(
        a.catalog(),
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = srv.addr();

    let vfs = FaultVfs::new(FaultConfig::default());
    let db =
        Arc::new(ProvenanceDb::durable_with(vfs.clone(), Path::new("/om-replica.teplog")).unwrap());
    let reg = Registry::new();
    let mut repl = Replica::new(
        addr,
        ReplicaConfig::new(ALG),
        db,
        vfs.clone(),
        PathBuf::from("/om-ckpt"),
    );
    repl.attach_obs(&reg);

    // Control: honest sync pins the attested high-water, evidence-free.
    repl.catch_up(&a.keys).unwrap();
    let ae = repl.anti_entropy(&a.keys).unwrap();
    assert_eq!(ae.status, AeStatus::Converged);
    assert_eq!(repl.pinned_log_records(), a.db.len() as u64);
    assert_evidence_counters(&reg, &[], "honest replica sync");
    srv.shutdown();

    // The primary "restores from backup": same signer, same objects, two
    // fewer records — rebound on the same address, so to the replica it
    // IS its primary, with excised history resurrected.
    let srv = serve_at(rolled.catalog(), addr);
    let err = repl.anti_entropy(&a.keys).unwrap_err();
    match &err {
        NetError::TamperDetected { issues, .. } => {
            assert_eq!(
                *issues,
                vec![TamperEvidence::CheckpointMismatch {
                    oid: ObjectId(0),
                    seq: rolled.db.len() as u64,
                }],
                "replica stale root"
            );
            assert_evidence_counters(&reg, issues, "replica stale root");
        }
        other => panic!("replica stale root: expected TamperDetected, got {other}"),
    }
    assert_eq!(
        repl.pinned_log_records(),
        a.db.len() as u64,
        "a rejected stale root must not move the pin"
    );
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Surface 6: cross-tenant replay — tenant A's genuine artifacts presented
// inside tenant B's scope
// ---------------------------------------------------------------------------

/// Two tenants with PKI-minted signers and independent shards, each
/// holding a 5-record chain built by the *same* deterministic recipe — so
/// the two chains carry identical object ids and seq numbers, and a
/// replayed record from A aligns perfectly with its slot in B. The
/// perfectly aligned replay is the strongest form of the attack: nothing
/// structural gives it away, only the signature scope can. Tenant A also
/// holds a second chain (`extra_a`) at an id unused in B's scope — the
/// storage-replay vector, since the store's duplicate-slot collapse keeps
/// the first record per `(oid, seq)` and would silently shadow a
/// colliding replay.
struct TenantReplayWorld {
    dir: tepdb::core::tenant::TenantDirectory,
    shards: tepdb::storage::TenantShards,
    forest_a: Forest,
    forest_b: Forest,
    chain_a: ObjectId,
    chain_b: ObjectId,
    extra_a: ObjectId,
}

const TEN_A: tepdb::model::TenantId = tepdb::model::TenantId(1);
const TEN_B: tepdb::model::TenantId = tepdb::model::TenantId(2);

fn tenant_replay_world() -> TenantReplayWorld {
    use tepdb::core::tenant::TenantDirectory;
    use tepdb::storage::TenantShards;

    let mut rng = StdRng::seed_from_u64(0x7E42_C04F);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let mut dir = TenantDirectory::new(&ca);
    dir.mint(&ca, TEN_A, 512, &mut rng);
    dir.mint(&ca, TEN_B, 512, &mut rng);
    let shards = TenantShards::open_with(
        "/replay-matrix",
        vec![
            (TEN_A, FaultVfs::new(FaultConfig::default()) as Arc<dyn Vfs>),
            (TEN_B, FaultVfs::new(FaultConfig::default()) as Arc<dyn Vfs>),
        ],
    );
    let populate = |tenant, extra: bool| {
        let signer = dir.signer(tenant).unwrap();
        let db = shards.shard(tenant).unwrap();
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                ..Default::default()
            },
            Arc::clone(&db),
        );
        let (chain, _) = tracker.insert(&signer, Value::Int(0), None).unwrap();
        for i in 1..5 {
            tracker.update(&signer, chain, Value::Int(i)).unwrap();
        }
        let extra_chain = extra.then(|| {
            let (e, _) = tracker.insert(&signer, Value::Int(100), None).unwrap();
            tracker.update(&signer, e, Value::Int(101)).unwrap();
            e
        });
        db.sync().unwrap();
        (tracker.forest().clone(), chain, extra_chain)
    };
    let (forest_a, chain_a, extra_a) = populate(TEN_A, true);
    let (forest_b, chain_b, _) = populate(TEN_B, false);
    // Identical recipes ⇒ identical ids: the replay aligns slot-for-slot.
    assert_eq!(chain_a.raw(), chain_b.raw());
    TenantReplayWorld {
        dir,
        shards,
        forest_a,
        forest_b,
        chain_a,
        chain_b,
        extra_a: extra_a.unwrap(),
    }
}

/// The tenant-labeled mirror of [`assert_evidence_counters`]: `tenant`'s
/// per-kind ledger must equal exactly the issues attributed to it.
fn assert_tenant_evidence_counters(
    reg: &Registry,
    tenant: tepdb::model::TenantId,
    issues: &[TamperEvidence],
    ctx: &str,
) {
    let mut want: HashMap<EvidenceKind, u64> = HashMap::new();
    for issue in issues {
        *want.entry(issue.kind()).or_insert(0) += 1;
    }
    for kind in EvidenceKind::ALL {
        assert_eq!(
            reg.counter_value(&names::with_tenant(&kind.counter_name(), tenant.raw())),
            want.get(&kind).copied().unwrap_or(0),
            "{ctx}: tenant {} `{kind}` counter does not match reported evidence",
            tenant.label(),
        );
    }
}

/// Storage form: A's rows for a chain B has never seen, appended
/// byte-for-byte into B's shard (colliding slots would be shadowed by the
/// store's first-wins collapse and never reach a verifier). The federated
/// verify must attribute every replayed record in B's scope (A's signer
/// has no certificate there), leave A's own report clean, and keep the
/// per-tenant evidence ledgers exact.
#[test]
fn cross_tenant_replay_storage_surface_attributes_never_accepts() {
    use tepdb::core::tenant::federated_verify;

    let w = tenant_replay_world();
    let a = w.shards.shard(TEN_A).unwrap();
    let b = w.shards.shard(TEN_B).unwrap();
    for rec in a.records_for(w.extra_a) {
        b.append(rec.clone()).unwrap();
    }

    let ctx = "cross-tenant replay (storage)";
    let reg = Registry::new();
    let report = federated_verify(&w.dir, &w.shards, |_, _| None, Some(&reg));
    let ta = report.tenant(TEN_A).unwrap();
    let tb = report.tenant(TEN_B).unwrap();
    assert!(
        ta.verified(),
        "{ctx}: A's own scope must stay clean: {:?}",
        ta.issues
    );
    assert!(
        !tb.verified(),
        "{ctx}: replay must not be accepted in B's scope"
    );
    assert!(
        tb.issues
            .iter()
            .any(|i| i.kind() == EvidenceKind::UnknownParticipant),
        "{ctx}: replayed records must be unattributable in B's scope: {:?}",
        tb.issues,
    );
    assert_tenant_evidence_counters(&reg, TEN_B, &tb.issues, ctx);
    assert_tenant_evidence_counters(&reg, TEN_A, &[], ctx);
}

/// Wire form: both tenants served from their shards; a path attacker
/// splices tenant A's genuine signed records into tenant B's stream,
/// slot-for-slot. B's client verifies under B's key directory and must
/// attribute every record — the strongest replay (structurally perfect,
/// cryptographically genuine, only mis-scoped) is still caught.
#[test]
fn cross_tenant_replay_wire_surface_attributes_never_accepts() {
    use tepdb::net::{serve_tenants, TenantSpec};

    let w = tenant_replay_world();
    let replayed = collect(&w.shards.shard(TEN_A).unwrap(), w.chain_a).unwrap();
    let srv = serve_tenants(
        vec![
            TenantSpec::new(
                TEN_A,
                Arc::new(Catalog::new(
                    w.forest_a.clone(),
                    w.shards.shard(TEN_A).unwrap(),
                    ALG,
                    vec![w.chain_a],
                )),
            ),
            TenantSpec::new(
                TEN_B,
                Arc::new(Catalog::new(
                    w.forest_b.clone(),
                    w.shards.shard(TEN_B).unwrap(),
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

    let ctx = "cross-tenant replay (wire)";
    let proxy = TamperProxy::spawn(srv.addr(), replay_mutator(replayed)).unwrap();
    let reg = Registry::new();
    let mut client = Client::new(proxy.addr(), ClientConfig::for_tenant(ALG, TEN_B));
    client.attach_obs(&reg);
    match client.fetch_verified(w.chain_b, w.dir.keys(TEN_B).unwrap()) {
        Err(NetError::TamperDetected { issues, .. }) => {
            assert!(
                issues
                    .iter()
                    .any(|i| i.kind() == EvidenceKind::UnknownParticipant),
                "{ctx}: expected UnknownParticipant among {issues:?}",
            );
            assert_evidence_counters(&reg, &issues, ctx);
        }
        other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
    }
    proxy.shutdown();

    // Denial replay: tenant A's *genuinely signed* denial spliced into
    // B's stream in place of the records. Valid under A's keys, a forgery
    // under B's — exactly what scoped key directories exist to catch.
    let ctx = "cross-tenant denial replay (wire)";
    let a_db = w.shards.shard(TEN_A).unwrap();
    let tree = shard_tree_of(ALG, &a_db);
    let absent = ObjectId(w.chain_a.raw() + 101);
    let replay = SignedDenial {
        root: SignedRoot::sign(&tree, a_db.len() as u64, &w.dir.signer(TEN_A).unwrap()).unwrap(),
        proof: DenialProof::prove(&tree, absent).unwrap(),
    }
    .to_bytes();
    let proxy = TamperProxy::spawn(
        srv.addr(),
        Box::new(move |_frame, msg| {
            if matches!(msg, Message::Prov { .. }) {
                ProxyAction::Replace(Message::Denial {
                    proof: replay.clone(),
                })
            } else {
                ProxyAction::Forward
            }
        }),
    )
    .unwrap();
    let reg = Registry::new();
    let mut client = Client::new(proxy.addr(), ClientConfig::for_tenant(ALG, TEN_B));
    client.attach_obs(&reg);
    match client.fetch_verified(w.chain_b, w.dir.keys(TEN_B).unwrap()) {
        Err(NetError::TamperDetected { issues, .. }) => {
            assert_eq!(
                issues,
                vec![TamperEvidence::ForgedDenial { oid: w.chain_b }],
                "{ctx}"
            );
            assert_evidence_counters(&reg, &issues, ctx);
        }
        other => panic!("{ctx}: expected TamperDetected, got {other:?}"),
    }
    proxy.shutdown();

    // Control: both tenants' honest fetches verify clean in their own
    // scopes on the same server.
    for (tenant, chain) in [(TEN_A, w.chain_a), (TEN_B, w.chain_b)] {
        let reg = Registry::new();
        let mut client = Client::new(srv.addr(), ClientConfig::for_tenant(ALG, tenant));
        client.attach_obs(&reg);
        let rep = client
            .fetch_verified(chain, w.dir.keys(tenant).unwrap())
            .unwrap_or_else(|e| panic!("honest fetch for {}: {e}", tenant.label()));
        assert!(rep.verification.verified());
        assert_evidence_counters(&reg, &[], "honest tenant-scoped fetch");
    }
    srv.shutdown();
}
