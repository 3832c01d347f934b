//! The system under test, as the benchmark sees it.
//!
//! Every call into a tepdb library crate is made from this file and from
//! nowhere else: the rest of the harness speaks plain data (`u64` object
//! ids, `i64` values, byte vectors). The `use` lists below plus the method
//! calls in this file are the benchmark's whole API surface; README.md
//! lists it so a refactor knows what has to stay source-compatible (or be
//! re-pointed here, and only here).
//!
//! Fixed configuration (the paper's): SHA-1, RSA-1024, Economical hashing,
//! `RealVfs`, default `ServerConfig` / `ClientConfig`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tep_core::attack::{apply_tamper, Tamper};
use tep_core::hashing::HashingStrategy;
use tep_core::metrics::Metrics;
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::record::ProvenanceRecord;
use tep_core::slice::{QueryOp, QuerySpec, SliceProof};
use tep_core::streaming::RecordStreamDigest;
use tep_core::tracker::{ProvenanceTracker, TrackerConfig};
use tep_core::verify::{TamperEvidence, Verifier};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{CertificateAuthority, KeyDirectory, Participant, ParticipantId};
use tep_model::{AggregateMode, Forest, ObjectId, PrimitiveOp, Value};
use tep_net::proxy::{ProxyAction, TamperProxy};
use tep_net::wire::{decode_message, encode_message_into, Message, OfferEntry};
use tep_net::{
    serve_with_registry, Catalog, Client, ClientConfig, NetError, ServerConfig, ServerHandle,
};
use tep_obs::names::NET_EPOLL_WAKEUPS;
use tep_obs::Registry;
use tep_query::{sidecar_path, QueryEngine};
use tep_storage::vfs::{real_vfs, FaultConfig, FaultVfs};
use tep_storage::{ObservedVfs, ProvenanceDb, StoredRecord};

use crate::gen::{IngestOp, Query, QueryKind};

const ALG: HashAlgorithm = HashAlgorithm::Sha1;
const KEY_BITS: usize = 1024;

/// One line for the run header.
pub const CONFIG: &str = "sha1 rsa-1024 economical RealVfs fsync-per-op default-net-config";

/// What a failed call reports; the harness prints it and stops.
pub type Fail = String;

fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> Fail {
    move |e| format!("{what}: {e}")
}

/// The metric registry of a traced instance (`None` in the timed run).
#[derive(Clone, Default)]
pub struct Obs(Option<Registry>);

impl Obs {
    pub fn off() -> Obs {
        Obs(None)
    }

    pub fn on() -> Obs {
        Obs(Some(Registry::new()))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Current value of a library counter (0 when tracing is off).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.as_ref().map_or(0, |r| r.counter_value(name))
    }
}

// --------------------------------------------------------------------------
// crypto
// --------------------------------------------------------------------------

/// Participants `1..=n` with 1024-bit keys and the directory that
/// resolves them.
pub struct Pki {
    signers: Vec<Participant>,
    keys: KeyDirectory,
}

impl Pki {
    /// Key material is a fixture, not a workload input: it is generated from
    /// `key_seed` (a harness constant), so prime-search luck does not ride
    /// on `--seed`.
    /// `between_keys` runs after each key pair (the harness samples its
    /// reference clock there).
    pub fn generate(
        n: usize,
        key_seed: u64,
        obs: &Obs,
        mut between_keys: impl FnMut(),
    ) -> Result<Pki, Fail> {
        let mut rng = StdRng::seed_from_u64(key_seed);
        let ca = CertificateAuthority::new(KEY_BITS, ALG, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        let mut signers = Vec::with_capacity(n);
        for i in 0..n {
            between_keys();
            let mut p = ca.enroll(ParticipantId(i as u64 + 1), KEY_BITS, &mut rng);
            keys.register(p.certificate().clone())
                .map_err(fail("register certificate"))?;
            if let Some(reg) = &obs.0 {
                p.attach_obs(reg);
            }
            signers.push(p);
        }
        if let Some(reg) = &obs.0 {
            keys.attach_obs(reg);
        }
        Ok(Pki { signers, keys })
    }

    pub fn len(&self) -> usize {
        self.signers.len()
    }

    /// `crypto` probe: one direct signature by participant `who` (0-based).
    pub fn sign(&self, who: usize, msg: &[u8]) -> Result<Vec<u8>, Fail> {
        self.signers[who].sign(ALG, msg).map_err(fail("sign"))
    }

    /// `crypto` probe: one direct signature check.
    pub fn verify(&self, who: usize, msg: &[u8], sig: &[u8]) -> Result<(), Fail> {
        self.keys
            .verify_signature(self.signers[who].id(), ALG, msg, sig)
            .map_err(fail("verify a genuine signature"))
    }
}

// --------------------------------------------------------------------------
// storage
// --------------------------------------------------------------------------

/// A durable provenance store on the real file system.
#[derive(Clone)]
pub struct Store {
    db: Arc<ProvenanceDb>,
    path: PathBuf,
}

impl Store {
    /// Opens (creating or replaying) the log at `path`. A traced instance
    /// routes its I/O through `ObservedVfs`.
    pub fn open(path: &Path, obs: &Obs) -> Result<Store, Fail> {
        let db = match &obs.0 {
            Some(reg) => ProvenanceDb::durable_with(ObservedVfs::wrap(real_vfs(), reg), path),
            None => ProvenanceDb::durable(path),
        }
        .map_err(fail("open store"))?;
        Ok(Store {
            db: Arc::new(db),
            path: path.to_path_buf(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flush + fsync: the acknowledgement point of every write op.
    pub fn sync(&self) -> Result<(), Fail> {
        self.db.sync().map_err(fail("sync"))
    }

    pub fn records(&self) -> usize {
        self.db.len()
    }

    /// `true` when the open found nothing to repair.
    pub fn recovered_clean(&self) -> bool {
        let r = self.db.recovery();
        r.truncated_bytes == 0 && r.gaps.is_empty() && r.decode_failures == 0
    }

    pub fn log_bytes(&self) -> Result<u64, Fail> {
        Ok(std::fs::metadata(&self.path)
            .map_err(fail("stat log"))?
            .len())
    }

    /// Every `step`-th stored row, for the encode/decode probes.
    pub fn sample_rows(&self, step: usize) -> Vec<Row> {
        self.db
            .all_records()
            .into_iter()
            .step_by(step.max(1))
            .map(Row)
            .collect()
    }

    /// `storage` probe: per-object index lookup; returns the chain length.
    pub fn lookup(&self, oid: u64) -> usize {
        self.db.records_for(ObjectId(oid)).len()
    }
}

/// A stored provenance row (opaque to the harness).
pub struct Row(StoredRecord);

impl Row {
    pub fn encode(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<(), Fail> {
        StoredRecord::from_bytes(bytes)
            .map(|_| ())
            .map_err(fail("decode a row the store encoded"))
    }
}

// --------------------------------------------------------------------------
// core: the producer path
// --------------------------------------------------------------------------

/// The library's own phase split of one tracked operation (Fig. 10).
#[derive(Clone, Copy, Default)]
pub struct OpCost {
    pub hash_ns: u64,
    pub sign_ns: u64,
    pub store_ns: u64,
    pub records: u64,
    pub nodes_hashed: u64,
}

impl OpCost {
    pub fn add(&mut self, o: &OpCost) {
        self.hash_ns += o.hash_ns;
        self.sign_ns += o.sign_ns;
        self.store_ns += o.store_ns;
        self.records += o.records;
        self.nodes_hashed += o.nodes_hashed;
    }
}

impl From<Metrics> for OpCost {
    fn from(m: Metrics) -> OpCost {
        OpCost {
            hash_ns: m.hash_ns(),
            sign_ns: m.sign_ns,
            store_ns: m.store_ns,
            records: m.records,
            nodes_hashed: m.nodes_hashed,
        }
    }
}

/// A provenance tracker writing into a [`Store`].
pub struct Writer {
    tracker: ProvenanceTracker,
}

fn tracker_config() -> TrackerConfig {
    TrackerConfig {
        alg: ALG,
        strategy: HashingStrategy::Economical,
    }
}

impl Writer {
    pub fn new(store: &Store, obs: &Obs) -> Writer {
        Self::attach(
            ProvenanceTracker::new(tracker_config(), Arc::clone(&store.db)),
            obs,
        )
    }

    /// The restart path: keeps the data forest, rebuilds every chain head
    /// from the (reopened) store.
    pub fn restore(self, store: &Store, obs: &Obs) -> Writer {
        let forest = self.tracker.forest().clone();
        Self::attach(
            ProvenanceTracker::restore(forest, tracker_config(), Arc::clone(&store.db)),
            obs,
        )
    }

    fn attach(mut tracker: ProvenanceTracker, obs: &Obs) -> Writer {
        if let Some(reg) = &obs.0 {
            tracker.attach_obs(reg);
        }
        Writer { tracker }
    }

    /// Tracked insert of one node holding an integer (`None` = a `Null`
    /// structural node).
    pub fn insert(
        &mut self,
        pki: &Pki,
        who: usize,
        value: Option<i64>,
        parent: Option<u64>,
    ) -> Result<(u64, OpCost), Fail> {
        let value = value.map_or(Value::Null, Value::Int);
        let (id, m) = self
            .tracker
            .insert(&pki.signers[who], value, parent.map(ObjectId))
            .map_err(fail("tracked insert"))?;
        Ok((id.raw(), m.into()))
    }

    pub fn update(&mut self, pki: &Pki, who: usize, oid: u64, value: i64) -> Result<OpCost, Fail> {
        self.tracker
            .update(&pki.signers[who], ObjectId(oid), Value::Int(value))
            .map(OpCost::from)
            .map_err(fail("tracked update"))
    }

    /// Untracked-in-effect delete of a root leaf: no ancestors, so no record
    /// is emitted; the object's chain is retired and its records stay.
    pub fn retire(&mut self, pki: &Pki, who: usize, oid: u64) -> Result<(), Fail> {
        self.tracker
            .delete(&pki.signers[who], ObjectId(oid))
            .map(|_| ())
            .map_err(fail("retire object"))
    }

    /// Atomic-mode aggregation of `inputs` into a new root object.
    pub fn aggregate(
        &mut self,
        pki: &Pki,
        who: usize,
        inputs: &[u64],
        value: i64,
    ) -> Result<(u64, OpCost), Fail> {
        let inputs: Vec<ObjectId> = inputs.iter().copied().map(ObjectId).collect();
        let (id, m) = self
            .tracker
            .aggregate(
                &pki.signers[who],
                &inputs,
                Value::Int(value),
                AggregateMode::Atomic,
            )
            .map_err(fail("tracked aggregate"))?;
        Ok((id.raw(), m.into()))
    }

    /// One `ingest_mixed` operation; returns the ids it created.
    pub fn apply(
        &mut self,
        pki: &Pki,
        who: usize,
        op: &IngestOp,
    ) -> Result<(Vec<u64>, OpCost), Fail> {
        let signer = &pki.signers[who];
        let prims: Vec<PrimitiveOp> = match op {
            IngestOp::Update { cells } => cells
                .iter()
                .map(|&(id, v)| PrimitiveOp::Update {
                    id: ObjectId(id),
                    value: Value::Int(v),
                })
                .collect(),
            IngestOp::InsertRow { table, values } => {
                let row = self.tracker.forest().next_id_hint();
                let mut prims = vec![PrimitiveOp::Insert {
                    id: Some(row),
                    value: Value::Null,
                    parent: Some(ObjectId(*table)),
                }];
                prims.extend(
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| PrimitiveOp::Insert {
                            id: Some(ObjectId(row.raw() + 1 + i as u64)),
                            value: Value::Int(v),
                            parent: Some(row),
                        }),
                );
                prims
            }
            IngestOp::DeleteRow { row, cells } => cells
                .iter()
                .chain(std::iter::once(row))
                .map(|&id| PrimitiveOp::Delete { id: ObjectId(id) })
                .collect(),
            IngestOp::Aggregate { rows, value } => {
                let (id, cost) = self.aggregate(pki, who, rows, *value)?;
                return Ok((vec![id], cost));
            }
        };
        let report = self
            .tracker
            .complex(signer, &prims)
            .map_err(fail("tracked complex op"))?;
        let created = report.created.iter().map(|o| o.raw()).collect();
        Ok((created, report.metrics.into()))
    }

    /// Current hash of `subtree(oid)`: what a recipient recomputes.
    pub fn object_hash(&mut self, oid: u64) -> Result<Vec<u8>, Fail> {
        self.tracker
            .object_hash(ObjectId(oid))
            .map_err(fail("object hash"))
    }

    /// A snapshot of the data forest, for a server catalog.
    pub fn data(&self) -> Data {
        Data(self.tracker.forest().clone())
    }
}

/// A snapshot of the data forest (opaque to the harness).
pub struct Data(Forest);

// --------------------------------------------------------------------------
// core: the recipient path, in process
// --------------------------------------------------------------------------

/// An object's provenance as the server would ship it (opaque).
pub struct Prov(ProvenanceObject);

impl Prov {
    /// `core` probe: `provenance::collect`.
    pub fn collect(store: &Store, oid: u64) -> Result<Prov, Fail> {
        collect(&store.db, ObjectId(oid))
            .map(Prov)
            .map_err(fail("collect provenance"))
    }

    pub fn records(&self) -> usize {
        self.0.records.len()
    }

    /// The rolling record-stream digest a correct transfer of this object
    /// must end with.
    pub fn stream_digest(&self) -> Vec<u8> {
        let mut d = RecordStreamDigest::new(ALG, self.0.target);
        for r in &self.0.records {
            d.push(&r.to_stored().to_bytes());
        }
        d.current().to_vec()
    }

    /// `core` probe: full in-process verification; `Ok(records checked)`.
    pub fn verify(&self, pki: &Pki, object_hash: &[u8], obs: &Obs) -> Result<usize, Fail> {
        let mut verifier = Verifier::new(&pki.keys, ALG);
        if let Some(reg) = &obs.0 {
            verifier.attach_obs(reg);
        }
        let v = verifier.verify(object_hash, &self.0);
        if v.verified() {
            Ok(v.records_checked)
        } else {
            Err(format!(
                "object #{} failed verification: {:?}",
                self.0.target.raw(),
                v.issues
            ))
        }
    }

    /// Tamper canary: flips one bit of the newest record's output hash and
    /// demands evidence that names that record.
    pub fn canary(&self, pki: &Pki, object_hash: &[u8]) -> Result<(), Fail> {
        let last = self.0.latest().ok_or("canary: object has no records")?;
        let (oid, seq) = (last.output_oid, last.seq_id);
        let mut forged = self.0.clone();
        if !apply_tamper(&mut forged, &Tamper::FlipOutputHash { oid, seq }) {
            return Err("canary: tamper did not apply".into());
        }
        let v = Verifier::new(&pki.keys, ALG).verify(object_hash, &forged);
        let attributed = v.issues.iter().any(
            |i| matches!(i, TamperEvidence::BadSignature { oid: o, seq: s } if *o == oid && *s == seq),
        );
        if v.verified() || !attributed {
            return Err(format!(
                "canary: flipped bit in #{}:{seq} was not attributed: {:?}",
                oid.raw(),
                v.issues
            ));
        }
        Ok(())
    }

    /// The PROV/DONE messages of this object's transfer, for the codec probe.
    pub fn wire_messages(&self, offer: &[Offered]) -> Vec<WireMsg> {
        let mut out = vec![WireMsg(Message::Offer {
            entries: offer
                .iter()
                .map(|o| OfferEntry {
                    oid: ObjectId(o.oid),
                    records: o.records,
                    nodes: o.nodes,
                })
                .collect(),
        })];
        out.extend(self.0.records.iter().map(|r| {
            WireMsg(Message::Prov {
                record: r.to_stored(),
            })
        }));
        out.push(WireMsg(Message::Done {
            records: self.0.records.len() as u64,
            nodes: 0,
        }));
        out
    }
}

/// A wire message (opaque).
pub struct WireMsg(Message);

impl WireMsg {
    /// `net` probe: encode into `buf` (cleared first), decode it back;
    /// returns the payload size.
    pub fn roundtrip(&self, buf: &mut Vec<u8>) -> Result<usize, Fail> {
        buf.clear();
        encode_message_into(&self.0, buf);
        decode_message(buf).map_err(fail("decode own message"))?;
        Ok(buf.len())
    }
}

// --------------------------------------------------------------------------
// net
// --------------------------------------------------------------------------

/// A running provenance server.
pub struct Server {
    handle: ServerHandle,
}

impl Server {
    /// Serves `store` (and the data snapshot) on an ephemeral loopback port.
    /// The server always keeps a registry; a traced instance shares its own.
    pub fn start(data: Data, store: &Store, offered: &[u64], obs: &Obs) -> Result<Server, Fail> {
        let catalog = Catalog::new(
            data.0,
            Arc::clone(&store.db),
            ALG,
            offered.iter().copied().map(ObjectId).collect(),
        );
        let registry = obs.0.clone().unwrap_or_default();
        let addr: SocketAddr = ([127, 0, 0, 1], 0).into();
        serve_with_registry(Arc::new(catalog), addr, ServerConfig::default(), registry)
            .map(|handle| Server { handle })
            .map_err(fail("start server"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Event-loop wake-ups so far (`poll(2)` returns).
    pub fn wakeups(&self) -> u64 {
        self.handle.registry().counter_value(NET_EPOLL_WAKEUPS)
    }
}

/// One OFFER entry.
#[derive(Clone, Copy)]
pub struct Offered {
    pub oid: u64,
    pub records: u64,
    pub nodes: u64,
}

/// What one verified fetch delivered.
pub struct Fetched {
    pub records: u64,
    pub stream_digest: Vec<u8>,
    pub object_hash: Vec<u8>,
}

/// Client-side traffic counters.
#[derive(Clone, Copy, Default)]
pub struct Traffic {
    pub frames_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub retries: u64,
    pub verify_failures: u64,
}

/// A fetching / querying client: one connection per call, closed loop.
pub struct Remote {
    client: Client,
}

impl Remote {
    pub fn new(addr: SocketAddr, obs: &Obs) -> Remote {
        let mut client = Client::new(addr, ClientConfig::new(ALG));
        if let Some(reg) = &obs.0 {
            client.attach_obs(reg);
        }
        Remote { client }
    }

    /// connect + HELLO + OFFER, nothing else.
    pub fn offer(&mut self) -> Result<Vec<Offered>, Fail> {
        let entries = self.client.offer().map_err(fail("offer"))?;
        Ok(entries
            .iter()
            .map(|e| Offered {
                oid: e.oid.raw(),
                records: e.records,
                nodes: e.nodes,
            })
            .collect())
    }

    /// `Client::fetch_verified`; an `Ok` is a fully verified transfer.
    pub fn fetch(&mut self, pki: &Pki, oid: u64) -> Result<Fetched, Fail> {
        let rep = self
            .client
            .fetch_verified(ObjectId(oid), &pki.keys)
            .map_err(fail("fetch_verified"))?;
        if !rep.verification.verified() {
            return Err(format!("fetch of #{oid} returned unverified"));
        }
        Ok(Fetched {
            records: rep.records,
            stream_digest: rep.stream_digest,
            object_hash: rep.object_hash,
        })
    }

    /// `Client::query`: the proof is re-verified locally before it returns.
    pub fn query(&mut self, pki: &Pki, q: &Query) -> Result<Answer, Fail> {
        let rep = self
            .client
            .query(&spec_of(q), &pki.keys)
            .map_err(fail("query"))?;
        if !rep.verification.verified() {
            return Err(format!("{q:?} returned unverified"));
        }
        Ok(Answer { proof: rep.proof })
    }

    pub fn traffic(&self) -> Traffic {
        let s = self.client.counters();
        Traffic {
            frames_received: s.frames_received,
            bytes_sent: s.bytes_sent,
            bytes_received: s.bytes_received,
            retries: s.retries,
            verify_failures: s.verify_failures,
        }
    }
}

/// `Ok` iff `err` is tamper evidence that was neither retried nor empty.
fn expect_tamper<T>(what: &str, r: Result<T, NetError>, client: &Client) -> Result<(), Fail> {
    match r {
        Err(NetError::TamperDetected { issues, .. }) if !issues.is_empty() => {
            if client.counters().retries != 0 {
                return Err(format!("{what}: tamper evidence was retried"));
            }
            Ok(())
        }
        Err(e) => Err(format!("{what}: expected tamper evidence, got `{e}`")),
        Ok(_) => Err(format!("{what}: a tampered transfer was ACCEPTED")),
    }
}

/// Tamper canary on the wire: a man in the middle flips one bit of the
/// first PROV record's output hash (re-framed with a valid CRC); the fetch
/// must end in attributed evidence.
pub fn canary_fetch(server: &Server, pki: &Pki, oid: u64) -> Result<(), Fail> {
    let mut done = false;
    let proxy = TamperProxy::spawn(
        server.addr(),
        Box::new(move |_frame, msg| {
            let Message::Prov { record } = msg else {
                return ProxyAction::Forward;
            };
            if done {
                return ProxyAction::Forward;
            }
            let Ok(rec) = ProvenanceRecord::from_stored(record) else {
                return ProxyAction::Forward;
            };
            let tamper = Tamper::FlipOutputHash {
                oid: rec.output_oid,
                seq: rec.seq_id,
            };
            let mut holder = ProvenanceObject {
                target: rec.output_oid,
                records: vec![rec],
            };
            apply_tamper(&mut holder, &tamper);
            done = true;
            ProxyAction::Replace(Message::Prov {
                record: holder.records[0].to_stored(),
            })
        }),
    )
    .map_err(fail("spawn tamper proxy"))?;
    let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
    let outcome = client.fetch_verified(ObjectId(oid), &pki.keys);
    let verdict = expect_tamper("fetch canary", outcome, &client);
    proxy.shutdown();
    verdict
}

/// Tamper canary for queries: one bit of a proof record's checksum is
/// flipped in flight (the proof stays canonical, so it decodes); the client
/// must reject it with evidence.
pub fn canary_query(server: &Server, pki: &Pki, q: &Query) -> Result<(), Fail> {
    let proxy = TamperProxy::spawn(
        server.addr(),
        Box::new(|_frame, msg| {
            let Message::QResult { proof } = msg else {
                return ProxyAction::Forward;
            };
            let Ok(mut p) = SliceProof::from_bytes(proof) else {
                return ProxyAction::Forward;
            };
            let Some(r) = p.records.first_mut() else {
                return ProxyAction::Forward;
            };
            r.checksum[0] ^= 0x01;
            ProxyAction::Replace(Message::QResult {
                proof: p.to_bytes(),
            })
        }),
    )
    .map_err(fail("spawn tamper proxy"))?;
    let mut client = Client::new(proxy.addr(), ClientConfig::new(ALG));
    let outcome = client.query(&spec_of(q), &pki.keys);
    let verdict = expect_tamper("query canary", outcome, &client);
    proxy.shutdown();
    verdict
}

// --------------------------------------------------------------------------
// query
// --------------------------------------------------------------------------

fn spec_of(q: &Query) -> QuerySpec {
    match q.kind {
        QueryKind::Audit => QuerySpec::audit(ParticipantId(q.target)),
        kind => QuerySpec::new(
            match kind {
                QueryKind::Lineage => QueryOp::LineageSlice,
                QueryKind::Ancestors => QueryOp::Ancestors,
                QueryKind::Descendants => QueryOp::Descendants,
                QueryKind::Polynomial => QueryOp::Polynomial,
                QueryKind::Audit => unreachable!("handled above"),
            },
            ObjectId(q.target),
        ),
    }
}

/// A query result: the answer (comparable) and the size of its proof.
pub struct Answer {
    proof: SliceProof,
}

impl Answer {
    pub fn same_as(&self, other: &Answer) -> bool {
        self.proof.answer == other.proof.answer
            && self.proof.records.len() == other.proof.records.len()
    }

    pub fn records(&self) -> usize {
        self.proof.records.len()
    }

    pub fn proof_bytes(&self) -> usize {
        self.proof.to_bytes().len()
    }

    /// `core` probe: `Verifier::verify_slice` of this proof.
    pub fn verify(&self, pki: &Pki) -> Result<(), Fail> {
        let v = Verifier::new(&pki.keys, ALG).verify_slice(&self.proof);
        if v.verified() {
            Ok(())
        } else {
            Err(format!(
                "a genuine proof failed verify_slice: {:?}",
                v.issues
            ))
        }
    }
}

/// The in-process query engine (the reference the wire answers are held to).
pub struct Engine {
    engine: QueryEngine,
}

impl Engine {
    /// An engine whose index loads from / saves to the store's `.tepidx`.
    pub fn with_sidecar(store: &Store, obs: &Obs) -> Engine {
        let mut engine =
            QueryEngine::with_sidecar(Arc::clone(&store.db), ALG, &sidecar_path(&store.path));
        if let Some(reg) = &obs.0 {
            engine.attach_obs(reg);
        }
        Engine { engine }
    }

    /// Indexes records appended since the last call; returns how many.
    pub fn sync(&self) -> usize {
        self.engine.sync()
    }

    pub fn save_sidecar(&self) -> Result<(), Fail> {
        self.engine.save_index().map_err(fail("save sidecar"))
    }

    pub fn execute(&self, q: &Query) -> Result<Answer, Fail> {
        self.engine
            .execute(&spec_of(q))
            .map(|proof| Answer { proof })
            .map_err(fail("execute query"))
    }
}

// --------------------------------------------------------------------------
// durability
// --------------------------------------------------------------------------

/// Replays `ops` through a tracker on a simulated disk, syncing after each
/// and noting the acknowledged record count; then cuts the power (unflushed
/// bytes are discarded by the simulated disk itself), reopens, and checks
/// that nothing acknowledged is missing. Returns the acknowledged count.
pub fn durability_replay(
    pki: &Pki,
    seed: u64,
    run: impl FnOnce(&mut Writer, &Store) -> Result<(), Fail>,
) -> Result<usize, Fail> {
    let vfs = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    let path = PathBuf::from("/durability.teplog");
    let open = |vfs: &Arc<FaultVfs>| -> Result<Store, Fail> {
        let db = ProvenanceDb::durable_with(Arc::clone(vfs) as _, &path)
            .map_err(fail("open simulated store"))?;
        Ok(Store {
            db: Arc::new(db),
            path: path.clone(),
        })
    };
    let store = open(&vfs)?;
    let mut writer = Writer::new(&store, &Obs::off());
    run(&mut writer, &store)?;
    let acked = store.db.all_records();
    // One more op that is never synced: it may or may not survive.
    writer.insert(pki, 0, Some(0), None)?;
    drop(writer);
    drop(store);
    vfs.power_cycle();
    let reopened = open(&vfs)?;
    let after = reopened.db.all_records();
    if after.len() < acked.len() || after[..acked.len()] != acked[..] {
        return Err(format!(
            "durability: {} records acknowledged, {} present after power loss",
            acked.len(),
            after.len()
        ));
    }
    if reopened.db.recovery().is_degraded() {
        return Err("durability: store reopened degraded".into());
    }
    Ok(acked.len())
}
