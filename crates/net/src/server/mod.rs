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
//! Graceful degradation under load: connections arriving while the server
//! already owns `queue_depth` active connections are refused with
//! `ERR busy` *plus* a `Retry-After` hint scaled to the backlog, every
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
//!
//! This module is the loop: [`serve`], [`ServerHandle`], accept and
//! timers. `conn` is one connection's buffers and refusals, `dispatch`
//! what each frame does, and `tenant` what each tenant serves.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tep_model::TenantId;
use tep_obs::{names, Counter, Gauge, Histogram, Registry};

use crate::sys;
use crate::wire::ErrorCode;

mod conn;
mod dispatch;
mod tenant;

use conn::{Conn, ConnState, WBUF_HIGH};
use dispatch::{pump, service_readable};
use tenant::{shed_retry_after_ms, TenantEnv};
pub use tenant::{Catalog, TenantSpec};

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
    /// Wall-clock budget of one request, the same for every tenant: armed
    /// at accept for the handshake and again when each request is
    /// dispatched, checked between the frames of its reply. Exceeding it
    /// mid-stream sends `ERR deadline` and closes — the client can
    /// reconnect and RESUME — so a slow-reading peer holds a connection
    /// slot for a bounded time no matter how many frames remain. A
    /// connection that keeps issuing requests which each finish inside the
    /// budget lives on; how long it may sit silent between them is
    /// [`Self::read_timeout`]'s job.
    pub request_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
        }
    }
}

/// The poll timeout: bounds how stale the loop's view of the shutdown
/// flag, connection deadlines, and idle timers can get.
const POLL_TICK: Duration = Duration::from_millis(10);

/// Accepted connections per wakeup — bounds accept work so a connect
/// storm cannot starve established connections.
const ACCEPT_BURST: usize = 128;

/// On shutdown, connections get at most this long (and never more than
/// `write_timeout`) to flush queued frames before being force-closed.
const SHUTDOWN_GRACE_CAP: Duration = Duration::from_millis(500);

/// Runs one dispatch with panic isolation: a panicking connection handler
/// is counted in `panics` and the event loop lives on to serve every
/// other connection. Per-connection state is owned by the closure and the
/// connection is closed afterwards, so no broken invariants escape (hence
/// `AssertUnwindSafe`). Returns whether `f` ran to completion.
fn run_isolated(panics: &Counter, f: impl FnOnce()) -> bool {
    let completed = panic::catch_unwind(AssertUnwindSafe(f)).is_ok();
    if !completed {
        panics.inc();
    }
    completed
}

/// The server's metrics, all in its registry: counters, the event loop's
/// connection-state gauges, and the request-frame turnaround histogram.
/// Names come from [`tep_obs::names`] so the harnesses asserting on them
/// cannot drift.
struct ServerObs {
    frames_sent: Counter,
    frames_received: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    /// Dispatches that panicked and were isolated to their connection.
    worker_panics: Counter,
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
    /// HELLOs naming a tenant the server does not serve. Deliberately
    /// *unlabeled*: the tenant id in a rejected HELLO is attacker-chosen,
    /// so labeling by it would hand peers unbounded metric cardinality.
    tenant_rejections: Counter,
    /// HELLOs refused because the named tenant was over its connection
    /// quota (also counted per tenant via a labeled counter).
    tenant_quota_sheds: Counter,
    wakeups: Counter,
    open: Gauge,
    handshake: Gauge,
    ready: Gauge,
    streaming: Gauge,
    draining: Gauge,
    turnaround: Histogram,
}

impl ServerObs {
    fn new(registry: &Registry) -> Self {
        ServerObs {
            frames_sent: registry.counter(names::NET_FRAMES_SENT),
            frames_received: registry.counter(names::NET_FRAMES_RECEIVED),
            bytes_sent: registry.counter(names::NET_BYTES_SENT),
            bytes_received: registry.counter(names::NET_BYTES_RECEIVED),
            worker_panics: registry.counter(names::NET_WORKER_PANICS),
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

/// Everything a connection's dispatch path needs, bundled so the event
/// loop can hand out `&Env` alongside a `&mut Conn` (disjoint fields).
/// Per-tenant state hangs off `tenants`; a connection resolves its
/// [`TenantEnv`] once admitted and never touches another tenant's.
struct Env {
    tenants: BTreeMap<u64, TenantEnv>,
    obs: ServerObs,
    registry: Registry,
}

impl Env {
    fn new(tenants: Vec<TenantSpec>, registry: Registry) -> io::Result<Self> {
        Ok(Env {
            tenants: TenantEnv::all(tenants, &registry)?,
            obs: ServerObs::new(&registry),
            registry,
        })
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
    /// Set by [`ServerHandle`] to stop accepting and drain.
    shutdown: Arc<AtomicBool>,
    conns: Vec<Conn<TcpStream>>,
}

impl EventLoop {
    fn run(mut self, listener: TcpListener) {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut shutdown_since: Option<Instant> = None;
        loop {
            let now = Instant::now();
            if self.shutdown.load(Ordering::SeqCst) {
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
            self.env.obs.wakeups.inc();

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
                    let mut conn = Conn::new(stream, self.cfg.request_deadline, now);
                    if active >= self.cfg.queue_depth {
                        // Best-effort `ERR busy` + `Retry-After` so the
                        // refused client sees a protocol answer (and a
                        // backoff hint scaled to the backlog) rather than
                        // a bare RST.
                        self.env.obs.busy_rejections.inc();
                        self.env.obs.shed.inc();
                        conn.refused = true;
                        conn.refuse_and_close(
                            ErrorCode::Busy,
                            shed_retry_after_ms(active),
                            "accept queue full",
                            &self.env,
                        );
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
            run_isolated(&env.obs.worker_panics, || pump(conn, env, now));
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
        let lo = &self.env.obs;
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
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    registry: Registry,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric registry: `tep_net_*` counters plus whatever the
    /// caller pre-registered. This is the registry STATS frames expose.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stops accepting, drains in-flight connections (bounded grace), and
    /// joins the event-loop thread — what dropping the handle does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves `tenants`
/// from one listener until the returned handle is shut down or dropped.
/// Each tenant has its own scope: catalog (and thus shard, caches and
/// query engine), connection quota, and tenant-labeled admission
/// counters. Connections pick their tenant in HELLO; a tenant not listed
/// is refused with non-retryable `ERR unknown-tenant`, and a list naming
/// one tenant twice is refused with [`io::ErrorKind::InvalidInput`].
///
/// The server counts into `registry` — so a process embedding it can
/// expose net traffic next to its other metrics — readable via
/// [`ServerHandle::registry`] or a STATS frame.
pub fn serve(
    tenants: Vec<TenantSpec>,
    addr: SocketAddr,
    cfg: ServerConfig,
    registry: Registry,
) -> io::Result<ServerHandle> {
    let env = Env::new(tenants, registry.clone())?;
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let ev = EventLoop {
        env,
        cfg,
        shutdown: Arc::clone(&shutdown),
        conns: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("tep-net-loop".into())
        .spawn(move || ev.run(listener))?;

    Ok(ServerHandle {
        addr: local,
        shutdown,
        thread: Some(thread),
        registry,
    })
}

/// [`serve`] for one tenant: `catalog` under [`TenantId::DEFAULT`] with no
/// quota, so clients that state tenant 0 are admitted.
pub fn serve_with_registry(
    catalog: Arc<Catalog>,
    addr: SocketAddr,
    cfg: ServerConfig,
    registry: Registry,
) -> io::Result<ServerHandle> {
    serve(
        vec![TenantSpec::new(TenantId::DEFAULT, catalog)],
        addr,
        cfg,
        registry,
    )
}

#[cfg(test)]
mod tests {
    use super::conn::*;
    use super::dispatch::*;
    use super::tenant::*;
    use super::*;
    use crate::wire::{frame_message_into, DataEntry, Message, DATA_CHUNK_BYTES, WIRE_VERSION};
    use std::collections::VecDeque;
    use std::thread;
    use tep_core::provenance::collect;
    use tep_core::streaming::RecordStreamDigest;
    use tep_crypto::digest::HashAlgorithm;
    use tep_model::{Forest, ObjectId};
    use tep_storage::ProvenanceDb;

    #[test]
    fn run_isolated_catches_and_counts_panics() {
        let panics = Counter::new();
        assert!(run_isolated(&panics, || {}));
        assert_eq!(panics.value(), 0);
        assert!(!run_isolated(&panics, || panic!(
            "connection handler exploded"
        )));
        assert!(!run_isolated(&panics, || panic!("again")));
        assert_eq!(panics.value(), 2);
        // The thread is still alive to run more work.
        assert!(run_isolated(&panics, || {}));
        assert_eq!(panics.value(), 2);
    }

    /// Only one spec per tenant could be served, so a list naming a tenant
    /// twice is refused before the listener is bound or anything counted.
    #[test]
    fn serve_refuses_a_tenant_listed_twice() {
        let (catalog, _) = shared_world();
        let registry = Registry::new();
        let err = serve(
            vec![
                TenantSpec::new(TenantId(1), Arc::clone(catalog)),
                TenantSpec::new(TenantId(2), Arc::clone(catalog)),
                TenantSpec::new(TenantId(1), Arc::clone(catalog)).with_max_connections(1),
            ],
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default(),
            registry.clone(),
        )
        .err()
        .expect("a duplicate tenant must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("t1"), "{err}");
        assert!(registry.snapshot().is_empty(), "{}", registry.render_text());
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
    use crate::TransferCounters;

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
        (Env::new(tenants, Registry::new()).unwrap(), root)
    }

    /// A fresh connection whose requests never run out of budget.
    fn unbounded_conn() -> Conn<FakeStream> {
        Conn::new(FakeStream::default(), Duration::MAX, Instant::now())
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
        let mut conn = unbounded_conn();
        conn.stream.to_read.push_back(frame(&hello()));
        drive(&mut conn, env);
        assert_eq!(conn.state, ConnState::Ready);
        conn
    }

    #[test]
    fn handshake_completes_across_byte_sized_reads() {
        let (env, _) = test_env();
        let mut conn = unbounded_conn();
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
        let mut conn = unbounded_conn();
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
        let mut conn = unbounded_conn();
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
        let mut conn = unbounded_conn();
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

        let mut conn = unbounded_conn();
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

        let mut one = unbounded_conn();
        one.stream.to_read.push_back(frame(&hello_t(1)));
        one.stream
            .to_read
            .push_back(frame(&Message::Fetch { oid: root }));
        drive(&mut one, &env);
        assert!(matches!(
            written_messages(&one).last(),
            Some(Message::Done { .. })
        ));

        let mut two = unbounded_conn();
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
        let mut conn = unbounded_conn();
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
        let mut conn = unbounded_conn();
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
        let mut conn = unbounded_conn();
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
        let (env, _) = test_env();
        let mut conn = handshaken(&env);
        let (writes_before, sent_before) = (conn.stream.writes, conn.stream.written.len());
        conn.job = Some(watermark_job());
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
    fn watermark_job() -> StreamJob {
        let entry = DataEntry {
            depth: 0,
            id: ObjectId(1),
            value: Value::Text("x".repeat(1024)),
        };
        StreamJob::new(Vec::new(), 0, vec![entry; 600])
    }

    #[test]
    fn streaming_pauses_at_the_write_high_watermark() {
        let (env, _) = test_env();
        let mut conn = handshaken(&env);
        conn.stream.blocked = true;
        conn.job = Some(watermark_job());
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
        let mut conn = Conn::new(FakeStream::default(), Duration::ZERO, Instant::now());
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
        let mut conn = Conn::new(FakeStream::default(), budget, Instant::now());
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
        conn.job = Some(watermark_job());
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

    /// A record appended while one request holds the shard view (a writer
    /// sharing the served store) must not leave the next request pairing a
    /// fresh tree with a root signed over the old one: tree and root are
    /// built, signed and cached together, under one length.
    #[test]
    fn an_append_between_requests_keeps_tree_and_signed_root_together() {
        let mut rng = StdRng::seed_from_u64(0x5A17);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = Arc::new(ca.enroll(ParticipantId(1), 512, &mut rng));
        let db = Arc::new(ProvenanceDb::in_memory());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Economical,
            },
            Arc::clone(&db),
        );
        let (oid, _) = tracker.insert(&alice, Value::Int(0), None).unwrap();
        let catalog = Catalog::new(tracker.forest().clone(), Arc::clone(&db), ALG, vec![oid])
            .with_signer(Arc::clone(&alice));
        let (env, _) = test_env_with(
            vec![TenantSpec::new(TenantId::DEFAULT, Arc::new(catalog))],
            oid,
        );
        let ten = env.tenants.get(&TenantId::DEFAULT.raw()).unwrap();

        let (tree, root) = ten.shard_view();
        assert_eq!(root.expect("the catalog signs").root, tree.root());
        tracker.update(&alice, oid, Value::Int(1)).unwrap();

        let mut conn = handshaken(&env);
        conn.stream.to_read.push_back(frame(&Message::AeReq {
            level: crate::wire::AE_SUMMARY_LEVEL,
            index: 0,
        }));
        drive(&mut conn, &env);
        match written_messages(&conn).last() {
            Some(Message::AeResp {
                hash,
                leaf_count,
                signed_root: Some(bytes),
                ..
            }) => {
                let root = tep_core::denial::SignedRoot::from_bytes(bytes).unwrap();
                assert_eq!(&root.root, hash, "the root must be signed over this tree");
                assert_eq!(root.leaf_count, *leaf_count);
                assert_eq!(root.log_records, db.len() as u64);
            }
            other => panic!("expected a signed AE summary, got {other:?}"),
        }
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
        let mut conn = unbounded_conn();
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
        let completed = run_isolated(&env.obs.worker_panics, || {
            conn.state = ConnState::Streaming;
            panic!("handler exploded");
        });
        if !completed {
            conn.close_now();
        }
        assert!(!completed && conn.closed);
        assert_eq!(env.obs.worker_panics.value(), 1);
    }
}
