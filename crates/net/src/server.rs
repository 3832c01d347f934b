//! Readiness-driven event-loop TCP server for provenance exchange.
//!
//! std-only: a single thread multiplexes the listener and every live
//! connection over raw `poll(2)` (see `sys` — no mio/tokio).
//! Each connection is a nonblocking socket owned by a [`Conn`] state
//! machine (`Handshake → Ready → Streaming → Draining`) with its own read
//! and write buffers. Outbound frames are only appended to the write
//! buffer; one flush at the end of each turn (and one per
//! `DATA_CHUNK_BYTES` queued while a stream runs) hands them to the
//! socket, so a reply costs one `write`, not one per frame.
//!
//! Graceful degradation under load is unchanged from the worker-pool
//! predecessor: connections arriving while the server already owns
//! `queue_depth` active connections are refused with `ERR busy` *plus* a `Retry-After` hint scaled to the backlog, every
//! request is bounded by a wall-clock deadline (`ERR deadline` + close,
//! resumable) while an idle timer bounds the silence between requests, and
//! a peer that vanishes mid-transfer is counted in
//! `tep_net_write_aborts_total` rather than folded into generic i/o noise.
//!
//! Fairness: per readiness wakeup each connection ingests a bounded number
//! of bytes and each streaming job queues frames only until its write
//! buffer reaches a high watermark — a slow-reading peer parks its
//! connection on `POLLOUT` instead of starving the loop, and a fast one
//! cannot monopolize a wakeup.
//!
//! Per connection the server speaks the `wire` protocol:
//!
//! ```text
//! client  HELLO ───────────▶
//!         ◀─────────── HELLO   (version/alg must match; else ERR + close)
//!         ◀─────────── OFFER   (manifest of served objects)
//! client  FETCH oid ───────▶
//!         ◀─ PROV × N         (records of the full provenance DAG,
//!                              sorted by (output_oid, seq_id))
//!         ◀─ DATA × M         (data subtree, depth-tagged DFS preorder)
//!         ◀─ DONE             (totals)
//!         … more FETCHes, or client closes …
//! ```
//!
//! A client resuming a cut transfer sends `RESUME oid k digest` instead of
//! `FETCH`; the server recomputes the record-stream digest over the first
//! `k` records it would have sent and answers `RESUME_OK` + the tail of
//! the stream only if the prefix is byte-identical — otherwise
//! `ERR resume-mismatch` (see `tep_core::streaming::RecordStreamDigest`).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tep_core::denial::{DenialProof, RangeProof, SignedDenial, SignedRange, SignedRoot};
use tep_core::merkle::{shard_tree_of, ShardTree};
use tep_core::metrics::{TransferCounters, TransferSnapshot};
use tep_core::provenance::{collect, ProvenanceObject};
use tep_core::streaming::RecordStreamDigest;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::Participant;
use tep_model::{Forest, ObjectId, TenantId};
use tep_obs::{names, Counter, Gauge, Histogram, Registry};
use tep_query::{QueryEngine, QueryError};
use tep_storage::crc::frame_crc;
use tep_storage::ProvenanceDb;

use crate::sys;
use crate::wire::{
    decode_message, frame_message_into, DataEntry, ErrorCode, Message, OfferEntry, WireError,
    DATA_CHUNK_BYTES, MAX_FRAME, WIRE_VERSION,
};

/// What a server serves: a snapshot of the data forest, the provenance
/// store, and the set of objects offered to clients.
pub struct Catalog {
    forest: Forest,
    db: Arc<ProvenanceDb>,
    alg: HashAlgorithm,
    offered: Vec<ObjectId>,
    /// When set, misses are answered with signed non-membership proofs
    /// (DENIAL frames) and RANGE_REQ is served with completeness proofs;
    /// without it the server falls back to plain `ERR unknown-object`.
    signer: Option<Arc<Participant>>,
}

impl Catalog {
    /// Builds a catalog offering `offered` (deduplicated, sorted).
    pub fn new(
        forest: Forest,
        db: Arc<ProvenanceDb>,
        alg: HashAlgorithm,
        mut offered: Vec<ObjectId>,
    ) -> Self {
        offered.sort();
        offered.dedup();
        Catalog {
            forest,
            db,
            alg,
            offered,
            signer: None,
        }
    }

    /// Equips the catalog with a signing identity: misses become signed
    /// DENIAL proofs, range requests carry completeness proofs, and
    /// anti-entropy summary replies attach the signed shard root.
    pub fn with_signer(mut self, signer: Arc<Participant>) -> Self {
        self.signer = Some(signer);
        self
    }

    /// The hash algorithm this catalog's hashes use.
    pub fn alg(&self) -> HashAlgorithm {
        self.alg
    }

    /// The OFFER manifest.
    pub(crate) fn offer_entries(&self) -> Vec<OfferEntry> {
        self.offered
            .iter()
            .map(|&oid| OfferEntry {
                oid,
                records: self.db.records_for(oid).len() as u64,
                nodes: if self.forest.contains(oid) {
                    self.forest.subtree_ids(oid).len() as u64
                } else {
                    0
                },
            })
            .collect()
    }

    fn is_offered(&self, oid: ObjectId) -> bool {
        self.offered.binary_search(&oid).is_ok()
    }

    /// The depth-tagged DFS preorder walk of `root`'s data subtree.
    fn data_entries(&self, root: ObjectId) -> Vec<DataEntry> {
        let mut out = Vec::new();
        let mut work = vec![(0u16, root)];
        while let Some((depth, id)) = work.pop() {
            let Some(node) = self.forest.node(id) else {
                continue;
            };
            out.push(DataEntry {
                depth,
                id,
                value: node.value().clone(),
            });
            let kids: Vec<ObjectId> = node.children().collect();
            for &c in kids.iter().rev() {
                work.push((depth + 1, c));
            }
        }
        out
    }
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum connections the event loop serves concurrently: a
    /// connection arriving while the server already owns this many is
    /// refused at accept with `ERR busy` and a `Retry-After` hint.
    pub queue_depth: usize,
    /// How long a connection may sit idle (no request bytes arriving)
    /// before it is closed.
    pub read_timeout: Duration,
    /// How long an outbound backlog may make zero progress (peer not
    /// reading) before the connection is closed.
    pub write_timeout: Duration,
    /// Wall-clock budget **per request** (the name predates kept
    /// connections): armed when a request is dispatched, checked between
    /// the frames of its reply. Exceeding it mid-stream sends
    /// `ERR deadline` and closes — the client can reconnect and RESUME —
    /// so a slow-reading peer holds a connection slot for a bounded time
    /// no matter how many frames remain. A connection that keeps issuing
    /// requests which each finish inside the budget lives on; how long it
    /// may sit silent between them is [`Self::read_timeout`]'s job.
    pub connection_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            connection_deadline: Duration::from_secs(30),
        }
    }
}

/// The `Retry-After` hint sent with a shed connection, scaled to the
/// backlog the refused client would have waited behind (deterministic, so
/// tests can pin it).
fn shed_retry_after_ms(backlog: usize) -> u64 {
    ((backlog as u64).saturating_add(1))
        .saturating_mul(25)
        .min(1_000)
}

/// The poll timeout: bounds how stale the loop's view of the shutdown
/// flag, connection deadlines, and idle timers can get.
const POLL_TICK: Duration = Duration::from_millis(10);

/// Bytes read into a connection's buffer per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// `read` calls per connection per wakeup — bounds how much one chatty
/// peer can ingest before the loop moves on (fairness).
const READ_ROUND_LIMIT: usize = 4;

/// A streaming job stops queueing frames once this much outbound data is
/// pending; it resumes when `POLLOUT` drains the backlog. Bounds per-
/// connection memory against a slow reader and bounds the work one
/// connection does per wakeup (fairness).
const WBUF_HIGH: usize = 256 * 1024;

/// Accepted connections per wakeup — bounds accept work so a connect
/// storm cannot starve established connections.
const ACCEPT_BURST: usize = 128;

/// Backlog offset at which a partially-drained write buffer is compacted
/// (consumed prefix memmoved away) instead of growing forever.
const WBUF_COMPACT: usize = 32 * 1024;

/// On shutdown, connections get at most this long (and never more than
/// `write_timeout`) to flush queued frames before being force-closed.
const SHUTDOWN_GRACE_CAP: Duration = Duration::from_millis(500);

/// Locks `m`, recovering from poison. A thread that panicked while
/// holding a server lock must not wedge shutdown — the protected data's
/// invariants (a list of joinable threads) hold at every await point, so
/// the contents are safe to reuse.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one dispatch with panic isolation: a panicking connection handler
/// is counted in [`TransferCounters::worker_panics`] and the event loop
/// lives on to serve every other connection. Per-connection state is
/// owned by the closure and the connection is closed afterwards, so no
/// broken invariants escape (hence `AssertUnwindSafe`).
fn run_isolated(counters: &TransferCounters, f: impl FnOnce()) {
    if panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
        counters.worker_panic();
    }
}

struct Shared {
    shutdown: AtomicBool,
}

/// Server-level counters in the metric registry (frame/byte traffic is
/// mirrored separately by the observed [`TransferCounters`]). Names come
/// from [`tep_obs::names`] so the harnesses asserting on them cannot
/// drift.
#[derive(Clone)]
struct ServerObs {
    connections: Counter,
    busy_rejections: Counter,
    fetches: Counter,
    resumes: Counter,
    stats_requests: Counter,
    queries: Counter,
    ae_requests: Counter,
    denials: Counter,
    range_requests: Counter,
    shed: Counter,
    deadline_closes: Counter,
    write_aborts: Counter,
    /// HELLOs naming an unprovisioned (or disabled) tenant. Deliberately
    /// *unlabeled*: the tenant id in a rejected HELLO is attacker-chosen,
    /// so labeling by it would hand peers unbounded metric cardinality.
    tenant_rejections: Counter,
    /// HELLOs refused because the named tenant was over its connection
    /// quota (also counted per tenant via a labeled counter).
    tenant_quota_sheds: Counter,
}

impl ServerObs {
    fn new(registry: &Registry) -> Self {
        ServerObs {
            connections: registry.counter(names::NET_CONNECTIONS),
            busy_rejections: registry.counter(names::NET_BUSY_REJECTIONS),
            fetches: registry.counter(names::NET_FETCHES),
            resumes: registry.counter(names::NET_RESUMES),
            stats_requests: registry.counter(names::NET_STATS_REQUESTS),
            queries: registry.counter(names::NET_QUERIES),
            ae_requests: registry.counter(names::NET_AE_REQUESTS),
            denials: registry.counter(names::NET_DENIALS),
            range_requests: registry.counter(names::NET_RANGE_REQUESTS),
            shed: registry.counter(names::NET_SHED),
            deadline_closes: registry.counter(names::NET_DEADLINE_CLOSES),
            write_aborts: registry.counter(names::NET_WRITE_ABORTS),
            tenant_rejections: registry.counter(names::NET_TENANT_REJECTIONS),
            tenant_quota_sheds: registry.counter(names::NET_TENANT_QUOTA_SHEDS),
        }
    }
}

/// Event-loop instrumentation: wakeup counter, connection-state gauges,
/// and the request-frame turnaround histogram.
#[derive(Clone)]
struct LoopObs {
    wakeups: Counter,
    open: Gauge,
    handshake: Gauge,
    ready: Gauge,
    streaming: Gauge,
    draining: Gauge,
    turnaround: Histogram,
}

impl LoopObs {
    fn new(registry: &Registry) -> Self {
        LoopObs {
            wakeups: registry.counter(names::NET_EPOLL_WAKEUPS),
            open: registry.gauge(names::NET_OPEN_CONNECTIONS),
            handshake: registry.gauge(names::NET_CONNS_HANDSHAKE),
            ready: registry.gauge(names::NET_CONNS_READY),
            streaming: registry.gauge(names::NET_CONNS_STREAMING),
            draining: registry.gauge(names::NET_CONNS_DRAINING),
            turnaround: registry.latency_histogram(names::NET_FRAME_TURNAROUND),
        }
    }
}

/// One tenant's serving surface plus its admission-control knobs, handed
/// to [`serve_tenants`]. Each tenant gets its own catalog (typically over
/// its own shard of a [`tep_storage::TenantShards`] root) so a fault or
/// quarantine in one tenant's log never touches another's.
pub struct TenantSpec {
    /// The tenant scope this catalog serves.
    pub tenant: TenantId,
    /// What this tenant's connections can fetch/query.
    pub catalog: Arc<Catalog>,
    /// A disabled tenant is rejected at HELLO with `ERR unknown-tenant`,
    /// deliberately indistinguishable from an unprovisioned one.
    pub enabled: bool,
    /// Max concurrently admitted connections for this tenant. Beyond it,
    /// HELLO answers retryable `ERR busy` with a `Retry-After` scaled to
    /// *this tenant's* backlog — one tenant's connect storm cannot eat
    /// another tenant's slots.
    pub max_connections: usize,
    /// Per-tenant wall-clock budget per request; the effective budget is
    /// the tighter of this and the server-wide
    /// [`ServerConfig::connection_deadline`].
    pub deadline: Option<Duration>,
}

impl TenantSpec {
    /// A spec with no quota and no extra deadline budget: enabled,
    /// unlimited connections, server-wide deadline only.
    pub fn new(tenant: TenantId, catalog: Arc<Catalog>) -> Self {
        TenantSpec {
            tenant,
            catalog,
            enabled: true,
            max_connections: usize::MAX,
            deadline: None,
        }
    }

    /// Marks the tenant provisioned-but-disabled (rejected at HELLO).
    pub fn disabled(mut self) -> Self {
        self.enabled = false;
        self
    }

    /// Caps concurrently admitted connections for this tenant.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }
}

/// Per-tenant serving state: the catalog, query engine, anti-entropy
/// caches, admission knobs, and tenant-labeled counters. Everything a
/// dispatch touches after admission lives here, so request handling for
/// tenant A can never read (or poison) tenant B's state.
struct TenantEnv {
    catalog: Arc<Catalog>,
    enabled: bool,
    max_connections: usize,
    deadline: Option<Duration>,
    /// Connections currently admitted under this tenant's scope; the
    /// quota check compares against this, the event loop decrements it
    /// when an admitted connection closes.
    active: AtomicUsize,
    /// Serves QUERY frames over this tenant's record log; its secondary
    /// indexes tail the log lazily on each request.
    query: QueryEngine,
    /// Anti-entropy shard tree over this tenant's record log, cached
    /// behind a record-count watermark: rebuilt only when the log has
    /// grown since the cached build (the log is append-only, so equal
    /// length ⇒ identical tree).
    ae_cache: Mutex<Option<(usize, Arc<ShardTree>)>>,
    /// Signed shard root, cached behind the same record-count watermark
    /// as `ae_cache` (signing is an RSA operation — far too expensive to
    /// redo per miss). `None` until first use or when the catalog has no
    /// signer.
    root_cache: Mutex<Option<(usize, Arc<SignedRoot>)>>,
    /// Tenant-labeled mirrors of the admission counters (the unlabeled
    /// aggregates stay in [`ServerObs`]).
    connections: Counter,
    shed: Counter,
    quota_sheds: Counter,
}

impl TenantEnv {
    fn new(spec: TenantSpec, registry: &Registry) -> (u64, Self) {
        let t = spec.tenant.raw();
        let mut query = QueryEngine::new(Arc::clone(&spec.catalog.db), spec.catalog.alg);
        query.attach_obs(registry);
        let env = TenantEnv {
            catalog: spec.catalog,
            enabled: spec.enabled,
            max_connections: spec.max_connections,
            deadline: spec.deadline,
            active: AtomicUsize::new(0),
            query,
            ae_cache: Mutex::new(None),
            root_cache: Mutex::new(None),
            connections: registry.counter(&names::with_tenant(names::NET_CONNECTIONS, t)),
            shed: registry.counter(&names::with_tenant(names::NET_SHED, t)),
            quota_sheds: registry.counter(&names::with_tenant(names::NET_TENANT_QUOTA_SHEDS, t)),
        };
        (t, env)
    }

    /// The current shard tree, rebuilding on record-log growth.
    fn shard_tree(&self) -> Arc<ShardTree> {
        let mut cache = self.ae_cache.lock().unwrap_or_else(PoisonError::into_inner);
        let len = self.catalog.db.len();
        match cache.as_ref() {
            Some((watermark, tree)) if *watermark == len => Arc::clone(tree),
            _ => {
                let tree = Arc::new(shard_tree_of(self.catalog.alg, &self.catalog.db));
                *cache = Some((len, Arc::clone(&tree)));
                tree
            }
        }
    }

    /// The signed shard root over `tree`, re-signed only on record-log
    /// growth. `None` when the catalog has no signing identity (or the
    /// signer's key refuses, which 512-bit test keys never do).
    ///
    /// `log_records` is the *cumulative* log high-water mark — frames
    /// excised by compaction still count — so a replica holding an older
    /// root can detect a server rolled back to a pre-compaction state.
    fn signed_root(&self, tree: &ShardTree) -> Option<Arc<SignedRoot>> {
        let signer = self.catalog.signer.as_ref()?;
        let mut cache = self
            .root_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let len = self.catalog.db.len();
        if let Some((watermark, root)) = cache.as_ref() {
            if *watermark == len {
                return Some(Arc::clone(root));
            }
        }
        let excised = self
            .catalog
            .db
            .recovery()
            .compaction
            .map(|s| s.excised_frames)
            .unwrap_or(0);
        let root = Arc::new(SignedRoot::sign(tree, excised + len as u64, signer).ok()?);
        *cache = Some((len, Arc::clone(&root)));
        Some(root)
    }
}

/// Everything a connection's dispatch path needs, bundled so the event
/// loop can hand out `&Env` alongside a `&mut Conn` (disjoint fields).
/// Per-tenant state hangs off `tenants`; a connection resolves its
/// [`TenantEnv`] once admitted and never touches another tenant's.
struct Env {
    tenants: BTreeMap<u64, TenantEnv>,
    counters: Arc<TransferCounters>,
    obs: ServerObs,
    loop_obs: LoopObs,
    registry: Registry,
}

/// Connection state-machine phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Accepted; waiting for the client's HELLO.
    Handshake,
    /// Handshake done; waiting for FETCH/RESUME/STATS.
    Ready,
    /// A transfer job is emitting PROV/DATA/DONE frames.
    Streaming,
    /// A terminal reply is queued; close once it flushes.
    Draining,
}

/// An in-flight transfer: the collected provenance, the data subtree, and
/// cursors marking how much of each has been queued. DONE totals always
/// cover the *whole* object (a RESUME skips sending the verified prefix
/// but the totals the client checks are unchanged).
struct StreamJob {
    prov: ProvenanceObject,
    data: Vec<DataEntry>,
    next_record: usize,
    data_pos: usize,
    done_queued: bool,
}

/// The next frame a streaming job wants queued (computed under a short
/// borrow of the job, queued after the borrow ends).
enum StreamStep {
    Prov(Box<Message>),
    Data(Vec<DataEntry>),
    Done { records: u64, nodes: u64 },
    Finished,
}

/// What a round of reads produced.
enum FillOutcome {
    /// Bytes arrived (or the socket simply had nothing more).
    Open,
    /// The peer closed its write side cleanly.
    Eof,
    /// The socket errored.
    Error,
}

/// One connection owned by the event loop: nonblocking stream, state
/// machine phase, and read/write buffers. Generic over the stream so the
/// state machine is unit-testable against scripted fakes; the event loop
/// itself uses `Conn<TcpStream>`.
struct Conn<S> {
    stream: S,
    state: ConnState,
    /// Refused at accept time (`ERR busy` queued); excluded from the
    /// backlog count that scales other clients' `Retry-After` hints.
    refused: bool,
    closed: bool,
    /// An abortable reply (PROV/DATA/DONE/ResumeOk/retryable ERR) has
    /// bytes not yet handed to the kernel; losing the connection now is a
    /// *write abort*, not a clean close.
    abort_owed: bool,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The tenant scope this connection was admitted under (set by a
    /// successful HELLO); every subsequent request resolves state through
    /// it. `None` until the handshake completes.
    tenant: Option<u64>,
    job: Option<StreamJob>,
    /// Wall-clock budget of one request: the server-wide
    /// [`ServerConfig::connection_deadline`], tightened at HELLO by the
    /// tenant's. `None` = unbounded.
    budget: Option<Duration>,
    /// When the request in progress runs out of `budget`: armed at accept
    /// (for the handshake) and re-armed each time a request is dispatched.
    /// `None` when unbounded, or for budgets so large the Instant would
    /// overflow — which means "effectively unbounded" anyway.
    deadline: Option<Instant>,
    read_activity: Instant,
    write_activity: Instant,
}

impl<S: Read + Write> Conn<S> {
    fn new(stream: S, budget: Option<Duration>, now: Instant) -> Self {
        let mut conn = Conn {
            stream,
            state: ConnState::Handshake,
            refused: false,
            closed: false,
            abort_owed: false,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            tenant: None,
            job: None,
            budget,
            deadline: None,
            read_activity: now,
            write_activity: now,
        };
        conn.arm_deadline(now);
        conn
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Starts the deadline clock: of the handshake at accept, then of each
    /// request as it is dispatched.
    fn arm_deadline(&mut self, now: Instant) {
        self.deadline = self.budget.and_then(|b| now.checked_add(b));
    }

    /// Frames are only parsed before and between requests — never while a
    /// reply is streaming or draining (pipelined requests wait in `rbuf`).
    fn wants_read(&self) -> bool {
        !self.closed && matches!(self.state, ConnState::Handshake | ConnState::Ready)
    }

    fn wanted_events(&self) -> i16 {
        let mut ev = 0;
        if self.wants_read() {
            ev |= sys::POLLIN;
        }
        if self.pending_write() > 0 {
            ev |= sys::POLLOUT;
        }
        ev
    }

    fn close_now(&mut self) {
        self.closed = true;
    }

    /// Closes a connection that still owed abortable reply bytes: the
    /// peer vanished (or stalled past its budget) mid-transfer.
    fn close_aborting(&mut self, obs: &ServerObs) {
        if self.abort_owed {
            self.abort_owed = false;
            obs.write_aborts.inc();
        }
        self.closed = true;
    }

    /// Terminal reply queued: close as soon as the backlog flushes.
    fn drain_then_close(&mut self) {
        self.job = None;
        if self.pending_write() == 0 {
            self.closed = true;
        } else {
            self.state = ConnState::Draining;
        }
    }

    fn compact_wbuf(&mut self) {
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= WBUF_COMPACT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Encodes `msg` onto the end of the write buffer. Nothing reaches the
    /// socket until [`Self::flush`], the one writer.
    fn queue_frame(&mut self, msg: &Message, abortable: bool, env: &Env) {
        if self.closed {
            return;
        }
        let start = self.wbuf.len();
        frame_message_into(msg, &mut self.wbuf);
        env.counters.frame_sent((self.wbuf.len() - start) as u64);
        if abortable {
            self.abort_owed = true;
        }
    }

    /// Refuses the request in progress with `ERR code`. The reply is owed
    /// like any other (abortable) and the connection stays usable.
    fn refuse(&mut self, code: ErrorCode, detail: impl Into<String>, env: &Env) {
        self.refuse_with(code, 0, detail, true, env);
    }

    /// Queues `ERR code`, with a `Retry-After` hint when `retry_after_ms`
    /// is non-zero. Whether the connection then closes is the caller's call.
    fn refuse_with(
        &mut self,
        code: ErrorCode,
        retry_after_ms: u64,
        detail: impl Into<String>,
        abortable: bool,
        env: &Env,
    ) {
        let refusal = Message::Error {
            code,
            retry_after_ms,
            detail: detail.into(),
        };
        self.queue_frame(&refusal, abortable, env);
    }

    /// Drains the write backlog as far as the socket allows — the one place
    /// a connection writes to its socket.
    fn flush(&mut self, obs: &ServerObs, now: Instant) {
        while !self.closed && self.pending_write() > 0 {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => break,
                Ok(n) => {
                    self.wpos += n;
                    self.write_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_aborting(obs);
                    return;
                }
            }
        }
        if self.pending_write() == 0 {
            self.wbuf.clear();
            self.wpos = 0;
            self.abort_owed = false;
            if self.state == ConnState::Draining {
                self.closed = true;
            }
        } else {
            self.compact_wbuf();
        }
    }

    /// Reads a bounded amount into `rbuf` (nonblocking).
    fn fill(&mut self, now: Instant) -> FillOutcome {
        let mut tmp = [0u8; READ_CHUNK];
        let mut rounds = 0;
        while rounds < READ_ROUND_LIMIT {
            match self.stream.read(&mut tmp) {
                Ok(0) => return FillOutcome::Eof,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    self.read_activity = now;
                    rounds += 1;
                    if n < tmp.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FillOutcome::Error,
            }
        }
        FillOutcome::Open
    }

    fn compact_rbuf(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Tries to parse one complete frame out of `rbuf`. `Ok(None)` means
    /// "need more bytes"; errors (oversized, bad CRC, malformed body)
    /// close the connection — same as the blocking reader treating the
    /// stream as poisoned.
    fn try_parse(&mut self, counters: &TransferCounters) -> Result<Option<Message>, WireError> {
        let avail = self.rbuf.len() - self.rpos;
        if avail < 8 {
            self.compact_rbuf();
            return Ok(None);
        }
        let header = &self.rbuf[self.rpos..self.rpos + 8];
        let len = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
        if len as usize > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        if avail < 8 + len as usize {
            self.compact_rbuf();
            return Ok(None);
        }
        let payload = &self.rbuf[self.rpos + 8..self.rpos + 8 + len as usize];
        if frame_crc(len, payload) != crc {
            return Err(WireError::BadCrc);
        }
        let msg = decode_message(payload)?;
        self.rpos += 8 + len as usize;
        counters.frame_received(8 + len as u64);
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        Ok(Some(msg))
    }
}

fn past_deadline(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Tells the peer its request ran out of wall-clock budget. The error
/// is retryable client-side (reconnect + RESUME picks up where the stream
/// stopped), so the hint is small and flat.
fn refuse_deadline<S: Read + Write>(conn: &mut Conn<S>, env: &Env) {
    env.obs.deadline_closes.inc();
    conn.refuse_with(
        ErrorCode::Deadline,
        10,
        "request deadline exceeded; reconnect and RESUME",
        true,
        env,
    );
    conn.drain_then_close();
}

/// Routes one parsed frame through the connection's state machine.
fn dispatch<S: Read + Write>(conn: &mut Conn<S>, msg: Message, env: &Env, now: Instant) {
    match conn.state {
        ConnState::Handshake => on_hello(conn, msg, env, now),
        ConnState::Ready => {
            // An admitted connection always has a tenant; losing the
            // mapping mid-session (cannot happen under the current API,
            // which takes the tenant set at serve time) is unrecoverable.
            let Some(ten) = conn.tenant.and_then(|t| env.tenants.get(&t)) else {
                conn.close_now();
                return;
            };
            on_request(conn, msg, env, ten, now)
        }
        // Frames are never parsed in these states (`wants_read` is false).
        ConnState::Streaming | ConnState::Draining => {}
    }
}

/// The tighter of two optional budgets (`None` = unbounded).
fn tighter_budget(a: Option<Duration>, b: Option<Duration>) -> Option<Duration> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// HELLO admission: wire version → tenant provisioning → algorithm →
/// tenant connection quota, in that order.
///
/// An unknown *or disabled* tenant gets a typed, non-retryable
/// `ERR unknown-tenant` — distinct from `busy`, so a misconfigured client
/// fails fast instead of burning its retry budget against a scope that
/// will never admit it. A known tenant over its connection quota gets
/// retryable `ERR busy` with a `Retry-After` hint scaled to *that
/// tenant's* backlog, leaving other tenants' admission untouched.
fn on_hello<S: Read + Write>(conn: &mut Conn<S>, msg: Message, env: &Env, now: Instant) {
    let Message::Hello {
        version,
        alg,
        tenant,
    } = msg
    else {
        conn.refuse_with(ErrorCode::BadRequest, 0, "expected HELLO", false, env);
        conn.drain_then_close();
        return;
    };
    if version != WIRE_VERSION {
        conn.refuse_with(
            ErrorCode::VersionMismatch,
            0,
            format!("server speaks v{WIRE_VERSION}, client sent v{version}"),
            false,
            env,
        );
        conn.drain_then_close();
        return;
    }
    let ten = match env.tenants.get(&tenant) {
        Some(ten) if ten.enabled => ten,
        _ => {
            // Unprovisioned and disabled are deliberately the same answer:
            // a probe cannot distinguish "never existed" from "suspended".
            env.obs.tenant_rejections.inc();
            conn.refuse_with(
                ErrorCode::UnknownTenant,
                0,
                format!("tenant t{tenant} is not provisioned here"),
                false,
                env,
            );
            conn.drain_then_close();
            return;
        }
    };
    if alg != ten.catalog.alg() {
        conn.refuse_with(
            ErrorCode::VersionMismatch,
            0,
            format!(
                "tenant t{tenant} serves {:?}, client sent {alg:?}",
                ten.catalog.alg()
            ),
            false,
            env,
        );
        conn.drain_then_close();
        return;
    }
    let active = ten.active.load(Ordering::SeqCst);
    if active >= ten.max_connections {
        env.obs.shed.inc();
        env.obs.tenant_quota_sheds.inc();
        ten.shed.inc();
        ten.quota_sheds.inc();
        conn.refuse_with(
            ErrorCode::Busy,
            shed_retry_after_ms(active),
            format!("tenant t{tenant} connection quota reached"),
            false,
            env,
        );
        conn.drain_then_close();
        return;
    }
    ten.active.fetch_add(1, Ordering::SeqCst);
    ten.connections.inc();
    conn.tenant = Some(tenant);
    conn.budget = tighter_budget(conn.budget, ten.deadline);
    conn.arm_deadline(now);
    conn.queue_frame(
        &Message::Hello {
            version: WIRE_VERSION,
            alg: ten.catalog.alg(),
            tenant,
        },
        false,
        env,
    );
    conn.queue_frame(
        &Message::Offer {
            entries: ten.catalog.offer_entries(),
        },
        false,
        env,
    );
    conn.state = ConnState::Ready;
}

/// One request frame in the `Ready` state. The deadline is a per-request
/// budget: it is re-armed here, so a kept connection serves any number of
/// requests that each finish inside it. The check right after the re-arm
/// only fires for a zero budget — *after* the handshake, before dispatch,
/// so even that connection completes HELLO/OFFER and gets a protocol-level
/// `ERR deadline` instead of a hang.
fn on_request<S: Read + Write>(
    conn: &mut Conn<S>,
    msg: Message,
    env: &Env,
    ten: &TenantEnv,
    now: Instant,
) {
    conn.arm_deadline(now);
    if past_deadline(conn.deadline) {
        refuse_deadline(conn, env);
        return;
    }
    match msg {
        Message::Fetch { oid } => {
            env.obs.fetches.inc();
            if let Some(prov) = lookup(conn, oid, env, ten) {
                start_stream(conn, oid, prov, 0, env, ten, now);
            }
        }
        Message::Resume {
            oid,
            records,
            digest,
        } => {
            env.obs.resumes.inc();
            let Some(prov) = lookup(conn, oid, env, ten) else {
                return;
            };
            let total = prov.records.len() as u64;
            if records > total {
                conn.refuse(
                    ErrorCode::ResumeMismatch,
                    format!("resume offset {records} beyond end of stream ({total})"),
                    env,
                );
                return;
            }
            let mut ours = RecordStreamDigest::new(ten.catalog.alg, oid);
            for record in &prov.records[..records as usize] {
                ours.push(&record.to_stored().to_bytes());
            }
            if ours.current() != digest.as_slice() {
                conn.refuse(
                    ErrorCode::ResumeMismatch,
                    format!("record-stream digest disagrees at offset {records}"),
                    env,
                );
                return;
            }
            conn.queue_frame(
                &Message::ResumeOk {
                    records,
                    digest: ours.current().to_vec(),
                },
                true,
                env,
            );
            start_stream(conn, oid, prov, records as usize, env, ten, now);
        }
        Message::StatsRequest => {
            env.obs.stats_requests.inc();
            conn.queue_frame(
                &Message::Stats {
                    text: env.registry.render_text(),
                },
                false,
                env,
            );
        }
        Message::Query { spec } => {
            env.obs.queries.inc();
            match ten.query.execute(&spec) {
                Ok(proof) => {
                    let bytes = proof.to_bytes();
                    // The whole proof must travel as one frame (payload =
                    // type byte + proof) so the client verifies an atomic
                    // unit; an answer past the cap is refused, not split.
                    if bytes.len() + 1 > MAX_FRAME {
                        conn.refuse(
                            ErrorCode::BadRequest,
                            "slice proof exceeds frame cap; tighten the query bounds",
                            env,
                        );
                    } else {
                        conn.queue_frame(&Message::QResult { proof: bytes }, true, env);
                    }
                }
                Err(e) => {
                    let code = match e {
                        QueryError::UnknownObject(oid) => {
                            if deny(conn, oid, env, ten) {
                                return;
                            }
                            ErrorCode::UnknownObject
                        }
                        QueryError::MissingParticipant | QueryError::SliceTooLarge { .. } => {
                            ErrorCode::BadRequest
                        }
                    };
                    conn.refuse(code, e.to_string(), env);
                }
            }
        }
        Message::AeReq { level, index } => {
            env.obs.ae_requests.inc();
            let tree = ten.shard_tree();
            let reply = if level == crate::wire::AE_SUMMARY_LEVEL {
                let s = tree.summary();
                // Summary replies from a signing server carry the signed
                // root so replicas can pin a monotonic high-water mark;
                // node replies stay lean (the summary already vouched).
                let signed_root = ten.signed_root(&tree).map(|r| r.to_bytes());
                Some(Message::AeResp {
                    leaf_count: s.leaf_count,
                    depth: s.depth,
                    hash: s.root,
                    children: Vec::new(),
                    oid: None,
                    signed_root,
                })
            } else {
                tree.node_info(level, index).map(|info| Message::AeResp {
                    leaf_count: tree.leaf_count(),
                    depth: tree.depth(),
                    hash: info.hash,
                    children: info.children,
                    oid: info.oid,
                    signed_root: None,
                })
            };
            match reply {
                Some(resp) => conn.queue_frame(&resp, true, env),
                None => conn.refuse(
                    ErrorCode::BadRequest,
                    format!("no anti-entropy node at level {level} index {index}"),
                    env,
                ),
            }
        }
        Message::RangeReq { lo, hi } => {
            if lo > hi {
                conn.refuse(
                    ErrorCode::BadRequest,
                    format!("range lower bound {lo} exceeds upper bound {hi}"),
                    env,
                );
                return;
            }
            if ten.catalog.signer.is_none() {
                conn.refuse(
                    ErrorCode::BadRequest,
                    "server has no signing identity; completeness proofs unavailable",
                    env,
                );
                return;
            }
            let tree = ten.shard_tree();
            let Some(root) = ten.signed_root(&tree) else {
                conn.refuse(ErrorCode::BadRequest, "signing the shard root failed", env);
                return;
            };
            let range = SignedRange {
                root: (*root).clone(),
                proof: RangeProof::prove(&tree, lo, hi),
            };
            let oids: Vec<ObjectId> = range.proof.members.iter().map(|m| m.oid).collect();
            let bytes = range.to_bytes();
            if bytes.len() + oids.len() * 8 + 16 > MAX_FRAME {
                conn.refuse(
                    ErrorCode::BadRequest,
                    "range proof exceeds frame cap; tighten the bounds",
                    env,
                );
                return;
            }
            env.obs.range_requests.inc();
            conn.queue_frame(&Message::RangeResp { oids, proof: bytes }, true, env);
        }
        _ => {
            conn.refuse_with(
                ErrorCode::BadRequest,
                0,
                "expected FETCH, RESUME, QUERY, RANGE, AE, or STATS",
                false,
                env,
            );
            conn.drain_then_close();
        }
    }
}

/// Tries to answer a miss on `oid` with a signed non-membership proof.
///
/// Returns `false` (caller falls back to `ERR unknown-object`) when the
/// catalog has no signing identity — or when `oid` actually has records
/// in the shard tree, since a present ID admits no honest gap proof: an
/// offered-list miss on a present object stays a plain error rather than
/// a forged denial.
fn deny<S: Read + Write>(conn: &mut Conn<S>, oid: ObjectId, env: &Env, ten: &TenantEnv) -> bool {
    if ten.catalog.signer.is_none() {
        return false;
    }
    let tree = ten.shard_tree();
    let Some(proof) = DenialProof::prove(&tree, oid) else {
        return false;
    };
    let Some(root) = ten.signed_root(&tree) else {
        return false;
    };
    let denial = SignedDenial {
        root: (*root).clone(),
        proof,
    };
    env.obs.denials.inc();
    conn.queue_frame(
        &Message::Denial {
            proof: denial.to_bytes(),
        },
        true,
        env,
    );
    true
}

/// Looks up `oid`'s provenance, answering misses with a signed DENIAL
/// proof when the catalog can produce one, else `ERR unknown-object`
/// (the connection stays usable either way).
fn lookup<S: Read + Write>(
    conn: &mut Conn<S>,
    oid: ObjectId,
    env: &Env,
    ten: &TenantEnv,
) -> Option<ProvenanceObject> {
    if !ten.catalog.is_offered(oid) || !ten.catalog.forest.contains(oid) {
        if !deny(conn, oid, env, ten) {
            conn.refuse(
                ErrorCode::UnknownObject,
                format!("object {oid} is not offered"),
                env,
            );
        }
        return None;
    }
    match collect(&ten.catalog.db, oid) {
        Ok(p) => Some(p),
        Err(_) => {
            if !deny(conn, oid, env, ten) {
                conn.refuse(
                    ErrorCode::UnknownObject,
                    format!("object {oid} has no provenance"),
                    env,
                );
            }
            None
        }
    }
}

/// Begins streaming `prov` (records from `skip` onward — records are
/// already sorted by `(output_oid, seq_id)`, the topological order the
/// client's streaming verifier requires) followed by the full data
/// subtree and DONE with whole-object totals.
fn start_stream<S: Read + Write>(
    conn: &mut Conn<S>,
    oid: ObjectId,
    prov: ProvenanceObject,
    skip: usize,
    env: &Env,
    ten: &TenantEnv,
    now: Instant,
) {
    conn.job = Some(StreamJob {
        data: ten.catalog.data_entries(oid),
        prov,
        next_record: skip,
        data_pos: 0,
        done_queued: false,
    });
    conn.state = ConnState::Streaming;
    pump(conn, env, now);
}

/// The next `DATA` chunk: entries greedily packed by actual encoded size
/// so no frame exceeds the chunk target by more than one entry (identical
/// grouping to the worker-pool server, so resumed transfers stay
/// byte-identical).
fn next_data_chunk(job: &mut StreamJob) -> Vec<DataEntry> {
    let mut chunk = Vec::new();
    let mut chunk_bytes = 0usize;
    while job.data_pos < job.data.len() {
        let entry = &job.data[job.data_pos];
        let entry_bytes = 10 + tep_model::encode::value_bytes(&entry.value).len();
        if !chunk.is_empty() && chunk_bytes + entry_bytes > DATA_CHUNK_BYTES {
            break;
        }
        chunk_bytes += entry_bytes;
        chunk.push(entry.clone());
        job.data_pos += 1;
    }
    chunk
}

/// Advances a streaming job: queues PROV/DATA/DONE frames until the job
/// finishes or the write buffer reaches its high watermark (fairness —
/// `POLLOUT` resumes it later), then flushes. Each further
/// `DATA_CHUNK_BYTES` queued is flushed on the way, so a long stream
/// trickles out instead of waiting for the watermark. The request's
/// deadline is checked between frames; exceeding it sends `ERR deadline`
/// and closes, which a resuming client treats as a retryable cut.
fn pump<S: Read + Write>(conn: &mut Conn<S>, env: &Env, now: Instant) {
    let mut flush_at = conn.pending_write() + DATA_CHUNK_BYTES;
    while !conn.closed && conn.state == ConnState::Streaming && conn.pending_write() < WBUF_HIGH {
        if conn.pending_write() >= flush_at {
            conn.flush(&env.obs, now);
            flush_at = conn.pending_write() + DATA_CHUNK_BYTES;
            continue;
        }
        let Some(done_queued) = conn.job.as_ref().map(|j| j.done_queued) else {
            conn.state = ConnState::Ready;
            break;
        };
        if !done_queued && past_deadline(conn.deadline) {
            refuse_deadline(conn, env);
            break;
        }
        let step = {
            let job = conn.job.as_mut().expect("streaming connection owns a job");
            if job.next_record < job.prov.records.len() {
                let record = job.prov.records[job.next_record].to_stored();
                job.next_record += 1;
                StreamStep::Prov(Box::new(Message::Prov { record }))
            } else if job.data_pos < job.data.len() {
                StreamStep::Data(next_data_chunk(job))
            } else if !job.done_queued {
                job.done_queued = true;
                StreamStep::Done {
                    records: job.prov.records.len() as u64,
                    nodes: job.data.len() as u64,
                }
            } else {
                StreamStep::Finished
            }
        };
        match step {
            StreamStep::Prov(msg) => conn.queue_frame(&msg, true, env),
            StreamStep::Data(entries) => conn.queue_frame(&Message::Data { entries }, true, env),
            StreamStep::Done { records, nodes } => {
                conn.queue_frame(&Message::Done { records, nodes }, true, env)
            }
            StreamStep::Finished => {
                conn.job = None;
                conn.state = ConnState::Ready;
                // The idle clock measures silence *between* requests: it
                // starts when the reply ends, not when the request arrived.
                conn.read_activity = now;
            }
        }
    }
    conn.flush(&env.obs, now);
}

/// Fills the read buffer and parses/dispatches every complete frame
/// buffered so far. Returns after the connection stops wanting reads
/// (streaming, draining, closed) or the buffer runs dry; pipelined
/// requests left in `rbuf` are picked up when the state returns to
/// `Ready`.
fn service_readable<S: Read + Write>(conn: &mut Conn<S>, env: &Env, now: Instant) {
    let outcome = conn.fill(now);
    if matches!(outcome, FillOutcome::Error) {
        conn.close_aborting(&env.obs);
        return;
    }
    drain_parsed_frames(conn, env, now);
    if matches!(outcome, FillOutcome::Eof)
        && !conn.closed
        && matches!(conn.state, ConnState::Handshake | ConnState::Ready)
    {
        // Clean close from the peer: flush whatever is queued, then close.
        conn.drain_then_close();
    }
    conn.flush(&env.obs, now);
}

/// Parses and dispatches buffered frames while the connection is in a
/// frame-accepting state.
fn drain_parsed_frames<S: Read + Write>(conn: &mut Conn<S>, env: &Env, now: Instant) {
    while conn.wants_read() {
        match conn.try_parse(&env.counters) {
            Ok(Some(msg)) => {
                let started = Instant::now();
                let in_ready = conn.state == ConnState::Ready;
                let mut completed = false;
                run_isolated(&env.counters, || {
                    dispatch(conn, msg, env, now);
                    completed = true;
                });
                if !completed {
                    // The dispatch panicked mid-flight; its state is gone
                    // (unwound), so the connection cannot continue.
                    conn.close_now();
                }
                if in_ready {
                    env.loop_obs.turnaround.observe_duration(started.elapsed());
                }
            }
            Ok(None) => return,
            Err(_) => {
                // Oversized/corrupt/malformed frame: the stream is
                // poisoned — drop it (no protocol answer is trustworthy).
                conn.close_now();
                return;
            }
        }
    }
}

/// Per-tick timer sweep for one connection: idle requests and stalled
/// writers are bounded even when no readiness event ever fires.
fn check_timers<S: Read + Write>(
    conn: &mut Conn<S>,
    cfg: &ServerConfig,
    obs: &ServerObs,
    now: Instant,
) {
    if conn.closed {
        return;
    }
    if conn.pending_write() > 0 {
        if now.duration_since(conn.write_activity) >= cfg.write_timeout {
            conn.close_aborting(obs);
        }
    } else if matches!(conn.state, ConnState::Handshake | ConnState::Ready)
        && now.duration_since(conn.read_activity) >= cfg.read_timeout
    {
        conn.close_now();
    }
}

/// The single-threaded event loop: owns the listener and every
/// connection, multiplexed over `poll(2)`.
struct EventLoop {
    env: Env,
    cfg: ServerConfig,
    shared: Arc<Shared>,
    conns: Vec<Conn<TcpStream>>,
}

impl EventLoop {
    fn run(mut self, listener: TcpListener) {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut shutdown_since: Option<Instant> = None;
        loop {
            let now = Instant::now();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let since = *shutdown_since.get_or_insert(now);
                let grace = self.cfg.write_timeout.min(SHUTDOWN_GRACE_CAP);
                let grace_over = now.duration_since(since) >= grace;
                for c in &mut self.conns {
                    if (c.pending_write() == 0 && c.job.is_none()) || grace_over {
                        c.close_aborting(&self.env.obs);
                    }
                }
            }
            // Closed connections release their tenant's admission slot
            // exactly once: decremented here, then dropped by the retain.
            for c in &self.conns {
                if c.closed {
                    if let Some(te) = c.tenant.and_then(|t| self.env.tenants.get(&t)) {
                        te.active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            self.conns.retain(|c| !c.closed);
            if shutdown_since.is_some() && self.conns.is_empty() {
                break;
            }

            let poll_listener = shutdown_since.is_none();
            fds.clear();
            if poll_listener {
                fds.push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
            }
            for c in &self.conns {
                fds.push(sys::PollFd::new(c.stream.as_raw_fd(), c.wanted_events()));
            }
            let _ = sys::poll_fds(&mut fds, POLL_TICK);
            self.env.loop_obs.wakeups.inc();

            let base = usize::from(poll_listener);
            let n_existing = self.conns.len();
            if poll_listener && fds[0].readable() {
                self.accept_burst(&listener, now);
            }
            // New conns were appended past `n_existing`; indices of the
            // polled ones are unchanged.
            for i in 0..n_existing {
                self.handle_events(i, fds[base + i], now);
            }

            let now = Instant::now();
            for c in &mut self.conns {
                check_timers(c, &self.cfg, &self.env.obs, now);
            }
            self.publish_gauges();
        }
        self.conns.clear();
        self.publish_gauges();
    }

    fn accept_burst(&mut self, listener: &TcpListener, now: Instant) {
        for _ in 0..ACCEPT_BURST {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.env.obs.connections.inc();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let active = self.conns.iter().filter(|c| !c.refused).count();
                    let mut conn = Conn::new(stream, Some(self.cfg.connection_deadline), now);
                    if active >= self.cfg.queue_depth {
                        // Best-effort `ERR busy` + `Retry-After` so the
                        // refused client sees a protocol answer (and a
                        // backoff hint scaled to the backlog) rather than
                        // a bare RST.
                        self.env.obs.busy_rejections.inc();
                        self.env.obs.shed.inc();
                        conn.refused = true;
                        conn.refuse_with(
                            ErrorCode::Busy,
                            shed_retry_after_ms(active),
                            "accept queue full",
                            false,
                            &self.env,
                        );
                        conn.drain_then_close();
                        conn.flush(&self.env.obs, now);
                    }
                    if !conn.closed {
                        self.conns.push(conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn handle_events(&mut self, i: usize, pfd: sys::PollFd, now: Instant) {
        let conn = &mut self.conns[i];
        if conn.closed {
            return;
        }
        if pfd.error() {
            conn.close_aborting(&self.env.obs);
            return;
        }
        if pfd.writable() && conn.pending_write() > 0 {
            conn.flush(&self.env.obs, now);
        }
        if !conn.closed && conn.state == ConnState::Streaming && conn.pending_write() < WBUF_HIGH {
            let env = &self.env;
            run_isolated(&env.counters, || pump(conn, env, now));
        }
        let conn = &mut self.conns[i];
        if !conn.closed && pfd.readable() && conn.wants_read() {
            service_readable(conn, &self.env, now);
        }
        let conn = &mut self.conns[i];
        if !conn.closed && pfd.hangup() && !pfd.readable() {
            // Peer fully closed while we were not reading (streaming or
            // draining): any bytes still owed are lost.
            conn.close_aborting(&self.env.obs);
        }
    }

    /// Single-writer gauge refresh: absolute counts per state, published
    /// once per wakeup.
    fn publish_gauges(&self) {
        let mut handshake = 0i64;
        let mut ready = 0i64;
        let mut streaming = 0i64;
        let mut draining = 0i64;
        for c in &self.conns {
            match c.state {
                ConnState::Handshake => handshake += 1,
                ConnState::Ready => ready += 1,
                ConnState::Streaming => streaming += 1,
                ConnState::Draining => draining += 1,
            }
        }
        let lo = &self.env.loop_obs;
        lo.open.set(self.conns.len() as i64);
        lo.handshake.set(handshake);
        lo.ready.set(ready);
        lo.streaming.set(streaming);
        lo.draining.set(draining);
    }
}

/// A running server; dropping (or calling [`Self::shutdown`]) stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<TransferCounters>,
    registry: Registry,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregated transfer counters across all connections so far.
    pub fn counters(&self) -> TransferSnapshot {
        self.counters.snapshot()
    }

    /// The server's metric registry: `tep_net_*` counters plus whatever the
    /// caller pre-registered. This is the registry STATS frames expose.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stops accepting, drains in-flight connections (bounded grace), and
    /// joins the event-loop thread.
    pub fn shutdown(self) {
        self.stop();
    }

    fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in lock_recover(&self.threads).drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves `catalog`
/// until the returned handle is shut down or dropped. The server records
/// its `tep_net_*` metrics into a private registry, readable via
/// [`ServerHandle::registry`] or a STATS frame.
pub fn serve(
    catalog: Arc<Catalog>,
    addr: SocketAddr,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_with_registry(catalog, addr, cfg, Registry::new())
}

/// Like [`serve`], but records metrics into the caller's `registry` — so a
/// process embedding the server can expose net traffic next to its other
/// metrics (and a STATS frame shows them all). Single-tenant: the catalog
/// is provisioned under [`TenantId::DEFAULT`] with no quota, so existing
/// clients (which state tenant 0) are admitted unchanged.
pub fn serve_with_registry(
    catalog: Arc<Catalog>,
    addr: SocketAddr,
    cfg: ServerConfig,
    registry: Registry,
) -> io::Result<ServerHandle> {
    serve_tenants(
        vec![TenantSpec::new(TenantId::DEFAULT, catalog)],
        addr,
        cfg,
        registry,
    )
}

/// Serves a set of tenants from one listener, each under its own scope:
/// independent catalog (and thus shard/caches/query engine), its own
/// connection quota and deadline budget, and tenant-labeled admission
/// counters. Connections pick their tenant in HELLO; an unknown or
/// disabled tenant is refused with non-retryable `ERR unknown-tenant`.
pub fn serve_tenants(
    tenants: Vec<TenantSpec>,
    addr: SocketAddr,
    cfg: ServerConfig,
    registry: Registry,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
    });
    let counters = Arc::new(TransferCounters::observed(&registry));
    let env = Env {
        tenants: tenants
            .into_iter()
            .map(|spec| TenantEnv::new(spec, &registry))
            .collect(),
        counters: Arc::clone(&counters),
        obs: ServerObs::new(&registry),
        loop_obs: LoopObs::new(&registry),
        registry: registry.clone(),
    };
    let ev = EventLoop {
        env,
        cfg,
        shared: Arc::clone(&shared),
        conns: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("tep-net-loop".into())
        .spawn(move || ev.run(listener))?;

    Ok(ServerHandle {
        addr: local,
        shared,
        threads: Mutex::new(vec![thread]),
        counters,
        registry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::thread;

    #[test]
    fn run_isolated_catches_and_counts_panics() {
        let counters = TransferCounters::new();
        run_isolated(&counters, || {});
        assert_eq!(counters.snapshot().worker_panics, 0);
        run_isolated(&counters, || panic!("connection handler exploded"));
        run_isolated(&counters, || panic!("again"));
        assert_eq!(counters.snapshot().worker_panics, 2);
        // The thread is still alive to run more work.
        run_isolated(&counters, || {});
        assert_eq!(counters.snapshot().worker_panics, 2);
    }

    #[test]
    fn lock_recover_survives_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(VecDeque::from([1, 2, 3])));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        // Queue contents are still intact and usable.
        let mut q = lock_recover(&m);
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn wait_timeout_recovers_from_poison() {
        let m = Arc::new((Mutex::new(0u32), std::sync::Condvar::new()));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.0.lock().unwrap();
            panic!("poison");
        })
        .join();
        let guard = lock_recover(&m.0);
        let (guard, timeout) =
            m.1.wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
        assert!(timeout.timed_out());
        assert_eq!(*guard, 0);
    }

    #[test]
    fn shed_hint_scales_with_backlog_and_saturates() {
        assert_eq!(shed_retry_after_ms(0), 25);
        assert_eq!(shed_retry_after_ms(3), 100);
        assert_eq!(shed_retry_after_ms(1_000_000), 1_000);
        assert_eq!(shed_retry_after_ms(usize::MAX), 1_000);
    }

    // ── Connection state machine against scripted streams ──────────────
    //
    // Every state (Handshake/Ready/Streaming/Draining) crossed with the
    // readiness events the loop can deliver (readable, writable, error,
    // EOF) and the I/O shapes a nonblocking socket produces (short reads,
    // short writes, WouldBlock, hard errors).

    use std::io::Cursor;
    use std::sync::OnceLock;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tep_core::hashing::HashingStrategy;
    use tep_core::{ProvenanceTracker, TrackerConfig};
    use tep_crypto::pki::{CertificateAuthority, ParticipantId};
    use tep_model::Value;

    use crate::wire::FrameReader;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    /// A scripted nonblocking stream: reads pop chunks off a queue (an
    /// empty chunk is EOF, an empty queue is WouldBlock), writes collect
    /// into a buffer and can be capped short, blocked, or broken.
    #[derive(Default)]
    struct FakeStream {
        to_read: VecDeque<Vec<u8>>,
        written: Vec<u8>,
        /// Max bytes accepted per write call (short writes).
        write_cap: Option<usize>,
        /// All writes return WouldBlock.
        blocked: bool,
        /// All writes return BrokenPipe.
        broken: bool,
        /// `write` calls so far, whatever they returned.
        writes: usize,
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.to_read.pop_front() {
                None => Err(io::ErrorKind::WouldBlock.into()),
                Some(chunk) if chunk.is_empty() => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.to_read.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
            }
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.broken {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            if self.blocked {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.write_cap.map_or(buf.len(), |cap| cap.min(buf.len()));
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The expensive world parts (RSA keygen), built once per process:
    /// a catalog offering one compound object (root + one child node,
    /// three provenance records).
    fn shared_world() -> &'static (Arc<Catalog>, ObjectId) {
        static WORLD: OnceLock<(Arc<Catalog>, ObjectId)> = OnceLock::new();
        WORLD.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xE7E7);
            let ca = CertificateAuthority::new(512, ALG, &mut rng);
            let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
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
            let catalog = Arc::new(Catalog::new(tracker.forest().clone(), db, ALG, vec![root]));
            (catalog, root)
        })
    }

    fn test_env() -> (Env, ObjectId) {
        let (catalog, root) = shared_world();
        test_env_with(
            vec![TenantSpec::new(TenantId::DEFAULT, Arc::clone(catalog))],
            *root,
        )
    }

    fn test_env_with(tenants: Vec<TenantSpec>, root: ObjectId) -> (Env, ObjectId) {
        let registry = Registry::new();
        let env = Env {
            tenants: tenants
                .into_iter()
                .map(|spec| TenantEnv::new(spec, &registry))
                .collect(),
            counters: Arc::new(TransferCounters::new()),
            obs: ServerObs::new(&registry),
            loop_obs: LoopObs::new(&registry),
            registry: registry.clone(),
        };
        (env, root)
    }

    fn frame(msg: &Message) -> Vec<u8> {
        let mut f = Vec::new();
        frame_message_into(msg, &mut f);
        f
    }

    fn hello() -> Message {
        Message::Hello {
            version: WIRE_VERSION,
            alg: ALG,
            tenant: TenantId::DEFAULT.raw(),
        }
    }

    /// Decodes every frame the connection has written so far.
    fn written_messages(conn: &Conn<FakeStream>) -> Vec<Message> {
        let mut r = FrameReader::new(
            Cursor::new(conn.stream.written.clone()),
            Arc::new(TransferCounters::new()),
        );
        let mut out = Vec::new();
        while let Some(m) = r.read_message().expect("clean reply stream") {
            out.push(m);
        }
        out
    }

    /// Pumps the read path until the script runs dry or the conn closes.
    fn drive(conn: &mut Conn<FakeStream>, env: &Env) {
        for _ in 0..200 {
            if conn.closed || conn.stream.to_read.is_empty() {
                break;
            }
            service_readable(conn, env, Instant::now());
        }
        if !conn.closed {
            service_readable(conn, env, Instant::now());
        }
    }

    fn handshaken(env: &Env) -> Conn<FakeStream> {
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, env);
        assert_eq!(conn.state, ConnState::Ready);
        conn
    }

    #[test]
    fn handshake_completes_across_byte_sized_reads() {
        let (env, _) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        for b in frame(&hello()) {
            conn.stream.to_read.push_back(vec![b]);
        }
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        let replies = written_messages(&conn);
        assert!(matches!(replies[0], Message::Hello { .. }));
        assert!(matches!(replies[1], Message::Offer { .. }));
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn handshake_version_mismatch_answers_and_closes() {
        let (env, _) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&Message::Hello {
            version: WIRE_VERSION + 1,
            alg: ALG,
            tenant: TenantId::DEFAULT.raw(),
        }));
        drive(&mut conn, &env);
        assert!(conn.closed);
        let replies = written_messages(&conn);
        assert!(matches!(
            &replies[..],
            [Message::Error {
                code: ErrorCode::VersionMismatch,
                ..
            }]
        ));
    }

    #[test]
    fn handshake_non_hello_is_a_bad_request() {
        let (env, root) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert!(conn.closed);
        match &written_messages(&conn)[..] {
            [Message::Error { code, detail, .. }] => {
                assert_eq!(*code, ErrorCode::BadRequest);
                assert_eq!(detail, "expected HELLO");
            }
            other => panic!("unexpected replies: {other:?}"),
        }
    }

    #[test]
    fn hello_unknown_tenant_is_a_typed_nonretryable_error() {
        let (env, _) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&Message::Hello {
            version: WIRE_VERSION,
            alg: ALG,
            tenant: 9,
        }));
        drive(&mut conn, &env);
        assert!(conn.closed);
        assert_eq!(env.obs.tenant_rejections.value(), 1);
        // Distinct from busy: no Retry-After, non-retryable error code.
        match &written_messages(&conn)[..] {
            [Message::Error {
                code: ErrorCode::UnknownTenant,
                retry_after_ms: 0,
                detail,
            }] => assert!(detail.contains("t9"), "detail names the tenant: {detail}"),
            other => panic!("unexpected replies: {other:?}"),
        }
    }

    #[test]
    fn hello_disabled_tenant_is_indistinguishable_from_unknown() {
        let (catalog, root) = shared_world();
        let (env, _) = test_env_with(
            vec![TenantSpec::new(TenantId::DEFAULT, Arc::clone(catalog)).disabled()],
            *root,
        );
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, &env);
        assert!(conn.closed);
        assert_eq!(env.obs.tenant_rejections.value(), 1);
        assert!(matches!(
            &written_messages(&conn)[..],
            [Message::Error {
                code: ErrorCode::UnknownTenant,
                ..
            }]
        ));
    }

    #[test]
    fn tenant_quota_sheds_with_tenant_scaled_hint() {
        let (catalog, root) = shared_world();
        let (env, _) = test_env_with(
            vec![TenantSpec::new(TenantId::DEFAULT, Arc::clone(catalog)).with_max_connections(2)],
            *root,
        );
        let _a = handshaken(&env);
        let _b = handshaken(&env);
        let ten = env.tenants.get(&TenantId::DEFAULT.raw()).unwrap();
        assert_eq!(ten.active.load(Ordering::SeqCst), 2);

        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, &env);
        assert!(conn.closed);
        match written_messages(&conn).last() {
            Some(Message::Error {
                code: ErrorCode::Busy,
                retry_after_ms,
                ..
            }) => assert_eq!(*retry_after_ms, shed_retry_after_ms(2)),
            other => panic!("expected ERR busy, got {other:?}"),
        }
        // Exact accounting, aggregate and tenant-labeled.
        assert_eq!(env.obs.tenant_quota_sheds.value(), 1);
        assert_eq!(env.obs.shed.value(), 1);
        assert_eq!(ten.quota_sheds.value(), 1);
        assert_eq!(ten.shed.value(), 1);
        assert_eq!(ten.connections.value(), 2);
        // The refused HELLO admitted nothing.
        assert_eq!(ten.active.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn tenant_deadline_budget_tightens_the_connection_deadline() {
        let (catalog, root) = shared_world();
        let mut spec = TenantSpec::new(TenantId::DEFAULT, Arc::clone(catalog));
        spec.deadline = Some(Duration::from_millis(0));
        let (env, root) = test_env_with(vec![spec], *root);
        // No accept-time deadline at all: the tenant budget alone binds.
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready, "handshake still completes");
        assert!(
            conn.deadline.is_some(),
            "tenant budget installed a deadline"
        );
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert!(conn.closed);
        assert_eq!(env.obs.deadline_closes.value(), 1);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Error {
                code: ErrorCode::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn tenants_are_routed_to_their_own_catalogs() {
        // Two tenants, two disjoint catalogs: an oid offered to tenant 1
        // must not resolve for tenant 2, and vice versa.
        let (catalog, root) = shared_world();
        let empty = Arc::new(Catalog::new(
            Forest::new(),
            Arc::new(ProvenanceDb::in_memory()),
            ALG,
            Vec::new(),
        ));
        let (env, root) = test_env_with(
            vec![
                TenantSpec::new(TenantId(1), Arc::clone(catalog)),
                TenantSpec::new(TenantId(2), empty),
            ],
            *root,
        );
        let hello_t = |t: u64| Message::Hello {
            version: WIRE_VERSION,
            alg: ALG,
            tenant: t,
        };

        let mut one = Conn::new(FakeStream::default(), None, Instant::now());
        one.stream.to_read.push_back(frame(&hello_t(1)));
        one.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut one, &env);
        assert!(matches!(
            written_messages(&one).last(),
            Some(Message::Done { .. })
        ));

        let mut two = Conn::new(FakeStream::default(), None, Instant::now());
        two.stream.to_read.push_back(frame(&hello_t(2)));
        two.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut two, &env);
        assert!(
            written_messages(&two).iter().any(|m| matches!(
                m,
                Message::Error {
                    code: ErrorCode::UnknownObject,
                    ..
                }
            )),
            "tenant 2 must not see tenant 1's object"
        );
        // Per-tenant OFFER manifests differ too.
        let offer_of = |msgs: &[Message]| {
            msgs.iter()
                .find_map(|m| match m {
                    Message::Offer { entries } => Some(entries.len()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(offer_of(&written_messages(&one)), 1);
        assert_eq!(offer_of(&written_messages(&two)), 0);
    }

    #[test]
    fn fetch_streams_prov_data_done_and_returns_to_ready() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        assert!(conn.job.is_none());
        assert_eq!(env.obs.fetches.value(), 1);
        let prov = collect(&shared_world().0.db, root).unwrap();
        let replies = written_messages(&conn);
        let provs = replies
            .iter()
            .filter(|m| matches!(m, Message::Prov { .. }))
            .count();
        assert_eq!(provs, prov.records.len());
        match replies.last() {
            Some(Message::Done { records, nodes }) => {
                assert_eq!(*records, prov.records.len() as u64);
                assert_eq!(*nodes, 2); // root + one child
            }
            other => panic!("expected DONE, got {other:?}"),
        }
    }

    #[test]
    fn short_writes_still_deliver_the_whole_stream() {
        let (env, root) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.write_cap = Some(3);
        conn.stream.to_read.push_back(frame(&hello()));
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        assert_eq!(conn.pending_write(), 0);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Done { .. })
        ));
    }

    /// Short writes split bytes, never frames: what reaches the socket is
    /// exactly the reply frames back to back, whatever size each write took.
    #[test]
    fn short_writes_deliver_exactly_the_queued_frames() {
        let (env, root) = test_env();
        let catalog = &shared_world().0;
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.write_cap = Some(7);
        conn.stream.to_read.push_back(frame(&hello()));
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);

        let prov = collect(&catalog.db, root).unwrap();
        let data = catalog.data_entries(root);
        let done = Message::Done {
            records: prov.records.len() as u64,
            nodes: data.len() as u64,
        };
        let mut expected = vec![
            hello(),
            Message::Offer {
                entries: catalog.offer_entries(),
            },
        ];
        expected.extend(prov.records.iter().map(|r| Message::Prov {
            record: r.to_stored(),
        }));
        expected.extend([Message::Data { entries: data }, done]);
        let bytes: Vec<u8> = expected.iter().flat_map(frame).collect();
        assert_eq!(conn.stream.written, bytes);
    }

    /// One turn, one `write`: the handshake reply (HELLO + OFFER) and a
    /// whole small fetch (3 PROV, DATA, DONE) each reach the socket in a
    /// single call.
    #[test]
    fn each_turn_reaches_the_socket_in_one_write() {
        let (env, root) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        service_readable(&mut conn, &env, Instant::now());
        assert_eq!(conn.state, ConnState::Ready);
        assert_eq!(conn.stream.writes, 1, "HELLO + OFFER");
        assert_eq!(written_messages(&conn).len(), 2);

        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        service_readable(&mut conn, &env, Instant::now());
        assert_eq!(conn.state, ConnState::Ready);
        assert_eq!(conn.stream.writes, 2, "3 PROV + DATA + DONE");
        let reply = written_messages(&conn).split_off(2);
        assert!(
            matches!(
                &reply[..],
                [
                    Message::Prov { .. },
                    Message::Prov { .. },
                    Message::Prov { .. },
                    Message::Data { .. },
                    Message::Done { .. }
                ]
            ),
            "{reply:?}"
        );
    }

    /// A stream longer than the write high watermark goes out as it is
    /// queued — one `write` per `DATA_CHUNK_BYTES`, plus the last one —
    /// rather than one per frame or all at the end.
    #[test]
    fn a_long_stream_is_flushed_once_per_data_chunk() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        let (writes_before, sent_before) = (conn.stream.writes, conn.stream.written.len());
        conn.job = Some(watermark_job(root));
        conn.state = ConnState::Streaming;
        pump(&mut conn, &env, Instant::now());
        assert_eq!(conn.state, ConnState::Ready);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Done { .. })
        ));
        let bytes = conn.stream.written.len() - sent_before;
        let writes = conn.stream.writes - writes_before;
        assert!(bytes > WBUF_HIGH, "the stream out-runs the watermark");
        assert!(writes > 1, "a long stream trickles out");
        assert!(
            writes <= bytes.div_ceil(DATA_CHUNK_BYTES) + 1,
            "{writes} writes for {bytes} bytes"
        );
    }

    #[test]
    fn blocked_socket_buffers_frames_until_writable() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        let before = conn.stream.written.len();
        conn.stream.blocked = true;
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        // Nothing reached the socket; the frames wait in the backlog and
        // an abortable reply is owed.
        assert_eq!(conn.stream.written.len(), before);
        assert!(conn.pending_write() > 0);
        assert!(conn.abort_owed);
        assert!(!conn.closed);
        // POLLOUT: the backlog drains and the stream completes.
        conn.stream.blocked = false;
        conn.flush(&env.obs, Instant::now());
        assert_eq!(conn.pending_write(), 0);
        assert!(!conn.abort_owed);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Done { .. })
        ));
    }

    /// A synthetic job big enough to out-run the write high watermark
    /// (600 × 1 KiB of DATA against `WBUF_HIGH` = 256 KiB).
    fn watermark_job(target: ObjectId) -> StreamJob {
        StreamJob {
            prov: ProvenanceObject {
                target,
                records: Vec::new(),
            },
            data: vec![
                DataEntry {
                    depth: 0,
                    id: ObjectId(1),
                    value: Value::Text("x".repeat(1024)),
                };
                600
            ],
            next_record: 0,
            data_pos: 0,
            done_queued: false,
        }
    }

    #[test]
    fn streaming_pauses_at_the_write_high_watermark() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        conn.stream.blocked = true;
        conn.job = Some(watermark_job(root));
        conn.state = ConnState::Streaming;
        pump(&mut conn, &env, Instant::now());
        // Paused: job unfinished, backlog parked just past the watermark.
        assert_eq!(conn.state, ConnState::Streaming);
        assert!(conn.job.is_some());
        assert!(conn.pending_write() >= WBUF_HIGH);
        assert!(conn.pending_write() < WBUF_HIGH + DATA_CHUNK_BYTES + 4096);
        // Writable again: alternating flush/pump finishes the job.
        conn.stream.blocked = false;
        for _ in 0..100 {
            conn.flush(&env.obs, Instant::now());
            pump(&mut conn, &env, Instant::now());
            if conn.state == ConnState::Ready && conn.pending_write() == 0 {
                break;
            }
        }
        assert_eq!(conn.state, ConnState::Ready);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Done { .. })
        ));
    }

    #[test]
    fn unknown_object_error_keeps_the_connection_usable() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        conn.stream.to_read.push_back(frame(&Message::Fetch {
            oid: ObjectId(0xDEAD),
        }));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        assert!(!conn.closed);
        assert!(written_messages(&conn).iter().any(|m| matches!(
            m,
            Message::Error {
                code: ErrorCode::UnknownObject,
                ..
            }
        )));
        // The same connection still serves a real fetch.
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Done { .. })
        ));
    }

    #[test]
    fn resume_at_offset_replays_only_the_tail() {
        let (env, root) = test_env();
        let prov = collect(&shared_world().0.db, root).unwrap();
        let total = prov.records.len();
        assert!(total >= 2, "world must have a resumable prefix");
        let k = 1usize;
        let mut digest = RecordStreamDigest::new(ALG, root);
        for r in &prov.records[..k] {
            digest.push(&r.to_stored().to_bytes());
        }
        let mut conn = handshaken(&env);
        conn.stream.to_read.push_back(frame(&Message::Resume {
            oid: root,
            records: k as u64,
            digest: digest.current().to_vec(),
        }));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        let replies: Vec<Message> = written_messages(&conn)[2..].to_vec();
        assert!(matches!(
            replies[0],
            Message::ResumeOk { records, .. } if records == k as u64
        ));
        let provs = replies
            .iter()
            .filter(|m| matches!(m, Message::Prov { .. }))
            .count();
        assert_eq!(provs, total - k);
        assert!(matches!(
            replies.last(),
            Some(Message::Done { records, .. }) if *records == total as u64
        ));
    }

    #[test]
    fn resume_digest_mismatch_is_refused_but_conn_survives() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        conn.stream.to_read.push_back(frame(&Message::Resume {
            oid: root,
            records: 1,
            digest: vec![0u8; 32],
        }));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        assert!(!conn.closed);
        assert_eq!(env.obs.resumes.value(), 1);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Error {
                code: ErrorCode::ResumeMismatch,
                ..
            })
        ));
    }

    #[test]
    fn requests_after_deadline_get_a_retryable_deadline_error() {
        let (env, root) = test_env();
        // A zero budget is spent the moment a request is dispatched — but
        // the handshake must still complete so the client gets a
        // protocol-level answer, not a hang.
        let mut conn = Conn::new(FakeStream::default(), Some(Duration::ZERO), Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, &env);
        assert_eq!(conn.state, ConnState::Ready);
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert!(conn.closed);
        assert_eq!(env.obs.deadline_closes.value(), 1);
        match written_messages(&conn).last() {
            Some(Message::Error {
                code,
                retry_after_ms,
                ..
            }) => {
                assert_eq!(*code, ErrorCode::Deadline);
                assert_eq!(*retry_after_ms, 10);
            }
            other => panic!("expected ERR deadline, got {other:?}"),
        }
    }

    /// The deadline is a per-request budget: a connection older than the
    /// budget keeps serving requests that each finish inside it, while a
    /// single request that outlives it is still cut with `ERR deadline`.
    #[test]
    fn deadline_budget_is_per_request_not_per_connection() {
        let (env, root) = test_env();
        let budget = Duration::from_millis(40);
        let mut conn = Conn::new(FakeStream::default(), Some(budget), Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, &env);
        for _ in 0..2 {
            // Each request starts with the connection already older than
            // the whole budget.
            thread::sleep(budget + Duration::from_millis(10));
            conn.stream
                .to_read
                .push_back(frame(&Message::Fetch { oid: root }));
            drive(&mut conn, &env);
            assert_eq!(conn.state, ConnState::Ready);
            assert!(matches!(
                written_messages(&conn).last(),
                Some(Message::Done { .. })
            ));
        }
        assert_eq!(env.obs.deadline_closes.value(), 0);

        // One request that stalls (peer not reading) past its own budget.
        conn.stream.blocked = true;
        conn.arm_deadline(Instant::now());
        conn.job = Some(watermark_job(root));
        conn.state = ConnState::Streaming;
        pump(&mut conn, &env, Instant::now());
        assert_eq!(conn.state, ConnState::Streaming, "paused at the watermark");
        thread::sleep(budget + Duration::from_millis(10));
        conn.stream.blocked = false;
        conn.flush(&env.obs, Instant::now());
        pump(&mut conn, &env, Instant::now());
        assert!(conn.closed);
        assert_eq!(env.obs.deadline_closes.value(), 1);
        assert!(matches!(
            written_messages(&conn).last(),
            Some(Message::Error {
                code: ErrorCode::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn corrupt_frame_closes_without_a_reply() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        let sent_before = conn.stream.written.len();
        let mut bad = frame(&Message::Fetch { oid: root });
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // CRC no longer matches
        conn.stream.to_read.push_back(bad);
        drive(&mut conn, &env);
        assert!(conn.closed);
        assert_eq!(
            conn.stream.written.len(),
            sent_before,
            "a poisoned stream gets no protocol answer"
        );
    }

    #[test]
    fn peer_eof_flushes_queued_replies_then_closes() {
        let (env, _) = test_env();
        let mut conn = Conn::new(FakeStream::default(), None, Instant::now());
        conn.stream.to_read.push_back(frame(&hello()));
        conn.stream.to_read.push_back(Vec::new()); // EOF
        drive(&mut conn, &env);
        assert!(conn.closed);
        let replies = written_messages(&conn);
        assert_eq!(replies.len(), 2, "HELLO/OFFER still go out before close");
    }

    #[test]
    fn write_error_mid_stream_counts_an_abort() {
        let (env, root) = test_env();
        let mut conn = handshaken(&env);
        conn.stream.broken = true;
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert!(conn.closed);
        assert_eq!(env.obs.write_aborts.value(), 1);
    }

    #[test]
    fn idle_connection_times_out_silently() {
        let (env, _) = test_env();
        let cfg = ServerConfig::default();
        let mut conn = handshaken(&env);
        let sent_before = conn.stream.written.len();
        check_timers(&mut conn, &cfg, &env.obs, Instant::now() + cfg.read_timeout);
        assert!(conn.closed);
        assert_eq!(conn.stream.written.len(), sent_before);
        assert_eq!(env.obs.write_aborts.value(), 0);
    }

    #[test]
    fn stalled_writer_times_out_and_counts_the_owed_abort() {
        let (env, root) = test_env();
        let cfg = ServerConfig::default();
        let mut conn = handshaken(&env);
        conn.stream.blocked = true;
        conn.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut conn, &env);
        assert!(conn.pending_write() > 0 && conn.abort_owed);
        // No progress within the write budget: the peer is gone.
        check_timers(
            &mut conn,
            &cfg,
            &env.obs,
            Instant::now() + cfg.write_timeout,
        );
        assert!(conn.closed);
        assert_eq!(env.obs.write_aborts.value(), 1);
    }

    #[test]
    fn dispatch_panic_is_isolated_to_the_connection() {
        let (env, _) = test_env();
        let mut conn = handshaken(&env);
        // Mirror drain_parsed_frames' isolation contract: a panicking
        // dispatch is counted, and the conn (whose mid-flight state is
        // gone) is closed rather than left half-mutated.
        let mut completed = false;
        run_isolated(&env.counters, || {
            conn.state = ConnState::Streaming;
            panic!("handler exploded");
        });
        if !completed {
            conn.close_now();
        }
        completed = true;
        assert!(completed && conn.closed);
        assert_eq!(env.counters.snapshot().worker_panics, 1);
    }
}
