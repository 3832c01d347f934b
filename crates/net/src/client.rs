//! Fetching client: connect/read retry with decorrelated-jitter backoff,
//! **streaming verify-on-receive**, and checkpointed resume.
//!
//! Every PROV frame is pushed into a `tep-core`
//! [`StreamingVerifier`](tep_core::verify::StreamingVerifier) the moment it
//! arrives; the transfer is aborted at the **first** frame that produces
//! tamper evidence, and the report says exactly which frame failed. DATA
//! frames feed a [`DepthStreamHasher`](tep_core::streaming::DepthStreamHasher)
//! so the object hash is recomputed incrementally — the client never trusts
//! a hash the server claims, only the one it derives from the delivered
//! bytes. A transfer is accepted only if the recomputed hash matches the
//! newest provenance record (R4/R5) and every record verified (R1–R3).
//!
//! Transient failures (refused connections, timeouts, truncated streams,
//! frame corruption, `ERR busy`/`ERR deadline`) are retried with
//! *decorrelated jitter*: `delay = min(cap, uniform(base, prev_delay * 3))`
//! — the strategy that avoids retry thundering herds without coordination.
//! A server-supplied `Retry-After` hint sets a floor under the jittered
//! delay, and the whole retry loop is bounded by a wall-clock
//! [`RetryPolicy::deadline`] on top of the attempt cap.
//!
//! When a transfer dies after k verified records, the client seals the
//! verifier state into a checkpoint ([`StreamingVerifier::checkpoint`]) and
//! the next attempt opens with `RESUME` instead of `FETCH`: it claims
//! offset k and proves it with the rolling record-stream digest. The server
//! recomputes the digest over its own first k records; only a byte-identical
//! prefix resumes. A server that confirms a different offset or digest is
//! rejected as [`TamperEvidence::ResumeMismatch`] — and tamper evidence is
//! **never** retried: a forged history does not become honest on the second
//! download.
//!
//! A [`Client`] keeps its connection: dial, HELLO and the OFFER are paid
//! once, and every later request runs on the same socket. The connection
//! is kept **only** after a response that ended cleanly and verified; any
//! error — retryable, terminal, a denial, tamper evidence — drops it, so a
//! socket in an unknown state is never reused. A kept connection that
//! turns out dead before the first frame of a response (the server
//! idle-closed it, or restarted) is replaced by one immediate dial that is
//! not a retry: every request is an idempotent read and nothing of the
//! response had arrived. Once a response frame has arrived, a failure takes
//! the checkpoint + RESUME + backoff path above.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tep_core::denial::{SignedDenial, SignedRange};
use tep_core::metrics::{TransferCounters, TransferSnapshot};
use tep_core::slice::{QuerySpec, SliceProof};
use tep_core::streaming::{DepthStreamHasher, StreamError};
use tep_core::verify::{
    EvidenceCounters, EvidenceKind, StreamingVerifier, TamperEvidence, Verification, Verifier,
};
use tep_core::ProvenanceRecord;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::KeyDirectory;
use tep_model::{ObjectId, TenantId};
use tep_obs::Registry;

use crate::wire::{
    ErrorCode, FrameReader, FrameWriter, Message, OfferEntry, WireError, WIRE_VERSION,
};

/// Retry/backoff policy for transient network failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). 1 disables retrying.
    pub max_attempts: u32,
    /// Lower bound of every backoff delay.
    pub base: Duration,
    /// Upper bound the jittered delay is clamped to.
    pub cap: Duration,
    /// Total wall-clock budget across all attempts *and* backoff sleeps.
    /// Once elapsed, the next transient failure is returned instead of
    /// retried — so a flapping server cannot pin a caller for
    /// `max_attempts × cap` regardless of how slow each attempt is.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            deadline: Duration::from_secs(30),
        }
    }
}

/// Client configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Hash algorithm the transfer's hashes use (must match the server).
    pub alg: HashAlgorithm,
    /// Backoff policy for transient failures.
    pub retry: RetryPolicy,
    /// Socket read timeout.
    pub read_timeout: Duration,
    /// Seed for the backoff jitter (deterministic for reproducible tests).
    pub jitter_seed: u64,
    /// Resume interrupted transfers with RESUME instead of refetching from
    /// record zero (on by default; disable to measure the difference).
    pub resume: bool,
    /// The tenant scope this client states in HELLO. Every request on the
    /// connection is scoped to it; a server that does not know (or has
    /// disabled) the tenant answers with the non-retryable
    /// `ERR unknown-tenant`. Defaults to [`TenantId::DEFAULT`].
    pub tenant: TenantId,
}

impl ClientConfig {
    /// Defaults for `alg`.
    pub fn new(alg: HashAlgorithm) -> Self {
        ClientConfig {
            alg,
            retry: RetryPolicy::default(),
            read_timeout: Duration::from_secs(5),
            jitter_seed: 0x7E94_E75D,
            resume: true,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Same defaults, scoped to `tenant`.
    pub fn for_tenant(alg: HashAlgorithm, tenant: TenantId) -> Self {
        ClientConfig {
            tenant,
            ..Self::new(alg)
        }
    }
}

/// Successful, fully verified fetch.
#[derive(Clone, Debug)]
pub struct FetchReport {
    /// The verifier's verdict (always `verified()` on the `Ok` path).
    pub verification: Verification,
    /// The object hash recomputed from the delivered data.
    pub object_hash: Vec<u8>,
    /// Provenance records received and verified (across all attempts —
    /// resumed records are counted once).
    pub records: u64,
    /// Data nodes received.
    pub nodes: u64,
    /// The manifest read when the connection this transfer finished on was
    /// dialed (call [`Client::offer`] to refresh).
    pub offer: Vec<OfferEntry>,
    /// How many attempts continued a previous attempt via RESUME (0 for an
    /// uninterrupted transfer).
    pub resumed: u32,
    /// The rolling record-stream digest over every verified record, in
    /// order — two transfers delivered the byte-identical record sequence
    /// iff their digests are equal.
    pub stream_digest: Vec<u8>,
}

/// Successful, fully re-verified query.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The decoded slice proof: records, boundary links, and the answer.
    pub proof: SliceProof,
    /// The client-side re-verification verdict (always `verified()` on
    /// the `Ok` path).
    pub verification: Verification,
}

/// Successful, completeness-proven range listing ([`Client::range`]).
#[derive(Clone, Debug)]
pub struct RangeReport {
    /// Every object in the requested range, ascending — proven complete
    /// by the verified [`SignedRange`]: the server cannot have withheld a
    /// member without the proof failing.
    pub members: Vec<ObjectId>,
    /// Cumulative log high-water mark the signed root attests.
    pub log_records: u64,
    /// The client-side verification verdict (always `verified()` on the
    /// `Ok` path).
    pub verification: Verification,
}

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Wire-level failure (socket, framing, decoding).
    Wire(WireError),
    /// The server refused with a protocol error.
    Remote {
        /// The server's error code.
        code: ErrorCode,
        /// The server's backoff hint, if it sent one.
        retry_after: Option<Duration>,
        /// The server's detail string.
        detail: String,
    },
    /// The connection ended cleanly in the middle of a transfer — the
    /// server (or the network) hung up at a frame boundary. Retryable, and
    /// resumable from the last verified record.
    Interrupted,
    /// The peer violated the protocol state machine.
    Protocol(&'static str),
    /// The provenance failed cryptographic verification — the transfer was
    /// rejected. **Never retried.**
    TamperDetected {
        /// Wire frame index (0-based, per connection — HELLO is frame 0 of
        /// the connection the request ran on, so on a kept connection the
        /// index keeps counting across requests) of the first frame that
        /// produced evidence; `None` when the evidence only appears at
        /// end-of-transfer (e.g. an object/record hash mismatch).
        frame: Option<u64>,
        /// All evidence accumulated up to the abort.
        issues: Vec<TamperEvidence>,
    },
    /// The DATA stream was structurally malformed (bad depth tags, subtree
    /// reordering). Also treated as tamper evidence, never retried.
    MalformedStream {
        /// Wire frame index of the offending DATA frame.
        frame: u64,
        /// The structural error.
        error: StreamError,
    },
    /// The server proved — with a verified signed non-membership proof —
    /// that the requested object is absent. An honest answer, not a
    /// failure: **never retried** (the proof is cryptographic; asking
    /// again cannot make the object exist).
    Denied {
        /// The object the verified proof covers.
        oid: ObjectId,
        /// Cumulative log high-water mark the signed root attests.
        log_records: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Remote { code, detail, .. } => {
                write!(f, "server refused ({code}): {detail}")
            }
            NetError::Interrupted => write!(f, "connection closed mid-transfer"),
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
            NetError::TamperDetected { frame, issues } => {
                match frame {
                    Some(i) => write!(f, "tampering detected at frame {i}: ")?,
                    None => write!(f, "tampering detected at end of transfer: ")?,
                }
                write!(f, "{} issue(s)", issues.len())?;
                if let Some(first) = issues.first() {
                    write!(f, ", first: {first}")?;
                }
                Ok(())
            }
            NetError::MalformedStream { frame, error } => {
                write!(f, "malformed data stream at frame {frame}: {error}")
            }
            NetError::Denied { oid, log_records } => {
                write!(
                    f,
                    "server proved non-membership of {oid} (signed root at log high-water {log_records})"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Wire(WireError::from(e))
    }
}

impl NetError {
    /// Whether retrying could plausibly help. Cryptographic rejections and
    /// protocol violations are terminal; connectivity hiccups — including
    /// *accidental* frame corruption, which is exactly what the CRC exists
    /// to catch — are not. (Deliberate tampering survives the CRC, is
    /// caught by signature verification, and is never retried.)
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Wire(WireError::Io(_))
            | NetError::Wire(WireError::Truncated)
            | NetError::Wire(WireError::BadCrc)
            | NetError::Wire(WireError::Oversized { .. })
            | NetError::Interrupted => true,
            NetError::Remote { code, .. } => {
                matches!(code, ErrorCode::Busy | ErrorCode::Deadline)
            }
            _ => false,
        }
    }

    /// The server's `Retry-After` hint, if this failure carried one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            NetError::Remote { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

/// A provenance-fetching client for one server address. It owns at most
/// one established connection, kept across requests (see the module docs)
/// and closed by [`Client::disconnect`] or on drop.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    counters: Arc<TransferCounters>,
    registry: Option<Registry>,
    rng: StdRng,
    /// The connection the last request ended cleanly on, if any.
    conn: Option<Connection>,
}

impl Client {
    /// A client that will dial `addr`.
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> Self {
        Client {
            addr,
            cfg,
            rng: StdRng::seed_from_u64(cfg.jitter_seed),
            counters: Arc::new(TransferCounters::new()),
            registry: None,
            conn: None,
        }
    }

    /// Attaches metric instrumentation: frame/byte traffic mirrors into
    /// `registry` under `tep_net_*`, and every piece of tamper evidence a
    /// fetch detects increments its `tep_core_evidence_<kind>_total`
    /// counter (including [`EvidenceKind::MalformedStream`] for
    /// structurally bad DATA streams and [`EvidenceKind::ResumeMismatch`]
    /// for resume points the peer cannot or will not honor honestly).
    /// Drops the kept connection: its frame reader tallies into the
    /// counters this call replaces.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.counters = Arc::new(TransferCounters::observed(registry));
        self.registry = Some(registry.clone());
        self.conn = None;
    }

    /// Closes the kept connection, if any; the next request dials.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Transfer counters accumulated across every attempt so far.
    pub fn counters(&self) -> TransferSnapshot {
        self.counters.snapshot()
    }

    /// Requests the server's metric registry as text exposition (a STATS
    /// frame), with retry.
    pub fn stats(&mut self) -> Result<String, NetError> {
        self.with_retry(|conn| {
            conn.writer.write_message(&Message::StatsRequest)?;
            match conn.reader.read_message()? {
                Some(Message::Stats { text }) => Ok(text),
                Some(Message::Error {
                    code,
                    retry_after_ms,
                    detail,
                }) => Err(remote_error(code, retry_after_ms, detail)),
                _ => Err(NetError::Protocol("expected STATS")),
            }
        })
    }

    /// Connects and returns the server's OFFER manifest (with retry).
    /// Always dials afresh — this is how a caller refreshes a stale
    /// manifest — and keeps the new connection for later requests.
    pub fn offer(&mut self) -> Result<Vec<OfferEntry>, NetError> {
        self.conn = None;
        self.with_retry(|conn| Ok(conn.offer.clone()))
    }

    /// Runs a provenance query on the server and **re-verifies the slice
    /// proof locally** before returning it: the records' signatures and
    /// chains are checked against `keys`, the traversal is re-run over the
    /// slice, and the answer recomputed. The server is never trusted — a
    /// QRESULT that fails any check is rejected as
    /// [`NetError::TamperDetected`] (never retried), including a proof
    /// answering a *different* question than the one asked.
    pub fn query(
        &mut self,
        spec: &QuerySpec,
        keys: &KeyDirectory,
    ) -> Result<QueryReport, NetError> {
        let cfg = self.cfg;
        let counters = Arc::clone(&self.counters);
        let registry = self.registry.clone();
        self.with_retry(move |conn| {
            conn.writer.write_message(&Message::Query { spec: *spec })?;
            let frame = conn.reader.frames();
            match conn.reader.read_message()? {
                Some(Message::QResult { proof }) => {
                    let Ok(proof) = SliceProof::from_bytes(&proof) else {
                        // The frame CRC passed, so these bytes are what the
                        // server sent — a non-canonical or truncated proof
                        // is a lie, not line noise.
                        counters.verify_failure();
                        record_malformed_stream(registry.as_ref());
                        return Err(NetError::Protocol("QRESULT proof failed to decode"));
                    };
                    if proof.spec != *spec {
                        // An answer to a different question than asked.
                        counters.verify_failure();
                        if let Some(reg) = registry.as_ref() {
                            EvidenceCounters::new(reg).record(EvidenceKind::OutputMismatch);
                        }
                        return Err(NetError::TamperDetected {
                            frame: Some(frame),
                            issues: vec![TamperEvidence::OutputMismatch { oid: spec.target }],
                        });
                    }
                    let mut verifier = Verifier::new(keys, cfg.alg);
                    if let Some(reg) = registry.as_ref() {
                        verifier.attach_obs(reg);
                    }
                    let verification = verifier.verify_slice(&proof);
                    if !verification.verified() {
                        counters.verify_failure();
                        return Err(NetError::TamperDetected {
                            frame: Some(frame),
                            issues: verification.issues,
                        });
                    }
                    Ok(QueryReport {
                        proof,
                        verification,
                    })
                }
                Some(Message::Denial { proof }) => Err(denial_outcome(
                    &proof,
                    spec.target,
                    keys,
                    cfg.alg,
                    frame,
                    &counters,
                    registry.as_ref(),
                )),
                Some(Message::Error {
                    code,
                    retry_after_ms,
                    detail,
                }) => Err(remote_error(code, retry_after_ms, detail)),
                Some(_) => Err(NetError::Protocol("expected QRESULT")),
                None => Err(NetError::Interrupted),
            }
        })
    }

    /// Lists every object the server stores in `[lo, hi]`, demanding a
    /// **signed completeness proof** and re-verifying it locally: the
    /// returned member set is exactly what the proof authenticates, with
    /// straddling boundary witnesses showing nothing in the range was
    /// withheld. A response whose proof fails any check — or that answers
    /// a different range than asked — is [`NetError::TamperDetected`]
    /// ([`TamperEvidence::ForgedDenial`] /
    /// [`TamperEvidence::IncompleteResponse`]), never retried.
    pub fn range(
        &mut self,
        lo: ObjectId,
        hi: ObjectId,
        keys: &KeyDirectory,
    ) -> Result<RangeReport, NetError> {
        let cfg = self.cfg;
        let counters = Arc::clone(&self.counters);
        let registry = self.registry.clone();
        self.with_retry(move |conn| {
            conn.writer.write_message(&Message::RangeReq { lo, hi })?;
            let frame = conn.reader.frames();
            match conn.reader.read_message()? {
                Some(Message::RangeResp { oids, proof }) => {
                    let forged = || {
                        counters.verify_failure();
                        if let Some(reg) = registry.as_ref() {
                            EvidenceCounters::new(reg).record(EvidenceKind::ForgedDenial);
                        }
                        NetError::TamperDetected {
                            frame: Some(frame),
                            issues: vec![TamperEvidence::ForgedDenial { oid: lo }],
                        }
                    };
                    let Ok(range) = SignedRange::from_bytes(&proof) else {
                        return Err(forged());
                    };
                    if range.proof.lo != lo || range.proof.hi != hi {
                        // An answer to a different question than asked.
                        return Err(forged());
                    }
                    let mut verifier = Verifier::new(keys, cfg.alg);
                    if let Some(reg) = registry.as_ref() {
                        verifier.attach_obs(reg);
                    }
                    // verify_range records failing evidence itself —
                    // including a member the proof covers but the answer
                    // omits (IncompleteResponse).
                    let verification = verifier.verify_range(&range, &oids);
                    if !verification.verified() {
                        counters.verify_failure();
                        return Err(NetError::TamperDetected {
                            frame: Some(frame),
                            issues: verification.issues,
                        });
                    }
                    Ok(RangeReport {
                        members: oids,
                        log_records: range.root.log_records,
                        verification,
                    })
                }
                Some(Message::Error {
                    code,
                    retry_after_ms,
                    detail,
                }) => Err(remote_error(code, retry_after_ms, detail)),
                Some(_) => Err(NetError::Protocol("expected RANGE_RESP")),
                None => Err(NetError::Interrupted),
            }
        })
    }

    /// Fetches `oid`, verifying every record as it arrives and the
    /// recomputed object hash at the end. Transient failures are retried
    /// per the policy; when [`ClientConfig::resume`] is on, a retry after k
    /// verified records reconnects with RESUME and continues from k+1
    /// instead of refetching. Tamper evidence aborts immediately and is
    /// returned as [`NetError::TamperDetected`].
    pub fn fetch_verified(
        &mut self,
        oid: ObjectId,
        keys: &KeyDirectory,
    ) -> Result<FetchReport, NetError> {
        let cfg = self.cfg;
        let counters = Arc::clone(&self.counters);
        let registry = self.registry.clone();
        let mut session = FetchSession::default();
        self.with_retry(move |conn| {
            fetch_on(
                conn,
                oid,
                keys,
                cfg,
                &mut session,
                &counters,
                registry.as_ref(),
            )
        })
    }

    /// Runs `op` on the kept connection (or a fresh one), retrying transient
    /// failures with decorrelated jitter until the attempt cap or the
    /// wall-clock deadline is hit — whichever comes first. Every retry
    /// dials: a failed attempt never leaves a connection behind. A server
    /// `Retry-After` hint floors the jittered delay, but the final wait is
    /// clamped to the time left before [`RetryPolicy::deadline`] so one
    /// oversized hint cannot park the client past its own budget.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Connection) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let policy = self.cfg.retry;
        let started = Instant::now();
        let mut delay = policy.base;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(&mut op) {
                Ok(v) => return Ok(v),
                Err(e)
                    if e.is_retryable()
                        && attempt < policy.max_attempts.max(1)
                        && started.elapsed() < policy.deadline =>
                {
                    self.counters.retry();
                    delay = self.next_delay(delay, policy);
                    let remaining = policy.deadline.saturating_sub(started.elapsed());
                    let wait = clamp_retry_wait(delay, e.retry_after(), remaining);
                    std::thread::sleep(wait);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt of `op`: on the kept connection when there is one, on a
    /// fresh dial otherwise. The connection is put back only after `op`
    /// returned `Ok`; every error path drops it.
    ///
    /// Stale redial: a *kept* connection that fails retryably before any
    /// frame of the response arrived (or whose only frame is the server's
    /// retryable ERR at dispatch) carried nothing of the answer, so it is
    /// replaced by one immediate dial inside the same attempt — no sleep,
    /// no `retries` increment. Anything later is the caller's retry path.
    fn attempt<T>(
        &mut self,
        op: &mut impl FnMut(&mut Connection) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        if let Some(mut conn) = self.conn.take() {
            let answered = conn.reader.frames();
            // The previous request may have left a fetch-scaled timeout.
            let outcome = conn
                .set_read_timeout(self.cfg.read_timeout)
                .and_then(|()| op(&mut conn));
            match outcome {
                Ok(v) => {
                    self.counters.conn_reuse();
                    self.conn = Some(conn);
                    return Ok(v);
                }
                Err(e) if e.is_retryable() => {
                    // The server's own retryable ERR is one frame, and
                    // none of the answer.
                    let arrived = conn.reader.frames() - answered;
                    let of_the_answer = match e {
                        NetError::Remote { .. } => arrived.saturating_sub(1),
                        _ => arrived,
                    };
                    if of_the_answer > 0 {
                        return Err(e);
                    }
                    self.counters.stale_redial();
                }
                Err(e) => return Err(e),
            }
        }
        let mut conn = Connection::establish(
            self.addr,
            self.cfg.alg,
            self.cfg.tenant,
            self.cfg.read_timeout,
            Arc::clone(&self.counters),
        )?;
        let v = op(&mut conn)?;
        self.conn = Some(conn);
        Ok(v)
    }

    /// Decorrelated jitter: `min(cap, uniform(base, prev * 3))`.
    ///
    /// All arithmetic is carried out in saturating u64 milliseconds so a
    /// pathological `cap` (or a previous delay near it) can never overflow:
    /// `prev * 3` saturates, and the sample range is clamped to
    /// `[base, cap]` before the draw rather than after.
    fn next_delay(&mut self, prev: Duration, policy: RetryPolicy) -> Duration {
        fn ms(d: Duration) -> u64 {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
        }
        let cap = ms(policy.cap).max(1);
        let base = ms(policy.base).clamp(1, cap);
        // Upper bound of the draw, exclusive: at least base+1 (so the range
        // is never empty), at most cap+1 (so the pick never exceeds cap).
        let hi = ms(prev)
            .saturating_mul(3)
            .clamp(base.saturating_add(1), cap.saturating_add(1));
        Duration::from_millis(self.rng.gen_range(base..hi))
    }
}

/// An established, HELLO-negotiated connection with its OFFER read.
pub(crate) struct Connection {
    pub(crate) reader: FrameReader<TcpStream>,
    pub(crate) writer: FrameWriter<TcpStream>,
    pub(crate) offer: Vec<OfferEntry>,
    /// A control handle on the same socket as `reader`/`writer`, kept so
    /// the read timeout can be set per request (`set_read_timeout` acts on
    /// the shared fd, so the reader's clone sees the new value).
    stream: TcpStream,
}

impl Connection {
    /// Dials `addr`, completes the HELLO exchange for (`alg`, `tenant`) and
    /// reads the OFFER. The one handshake in the crate: [`Client`] and
    /// [`Replica`](crate::Replica) both come through here.
    pub(crate) fn establish(
        addr: SocketAddr,
        alg: HashAlgorithm,
        tenant: TenantId,
        read_timeout: Duration,
        counters: Arc<TransferCounters>,
    ) -> Result<Connection, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let control = stream.try_clone().map_err(WireError::Io)?;
        let mut reader = FrameReader::new(
            stream.try_clone().map_err(WireError::Io)?,
            Arc::clone(&counters),
        );
        let mut writer = FrameWriter::new(stream, counters);
        writer.write_message(&Message::Hello {
            version: WIRE_VERSION,
            alg,
            tenant: tenant.raw(),
        })?;
        match reader.read_message()? {
            Some(Message::Hello {
                version,
                alg: theirs,
                tenant: scope,
            }) if version == WIRE_VERSION && theirs == alg && scope == tenant.raw() => {}
            Some(Message::Error {
                code,
                retry_after_ms,
                detail,
            }) => {
                return Err(remote_error(code, retry_after_ms, detail));
            }
            Some(_) => return Err(NetError::Protocol("expected HELLO")),
            // EOF before the handshake: the peer (or the path) dropped the
            // connection before saying anything — transient, retryable.
            None => return Err(NetError::Interrupted),
        }
        let offer = match reader.read_message()? {
            Some(Message::Offer { entries }) => entries,
            Some(Message::Error {
                code,
                retry_after_ms,
                detail,
            }) => {
                return Err(remote_error(code, retry_after_ms, detail));
            }
            Some(_) => return Err(NetError::Protocol("expected OFFER")),
            None => return Err(NetError::Interrupted),
        };
        Ok(Connection {
            reader,
            writer,
            offer,
            stream: control,
        })
    }

    /// Sets the per-read socket timeout for the request about to run.
    pub(crate) fn set_read_timeout(&self, timeout: Duration) -> Result<(), NetError> {
        Ok(self.stream.set_read_timeout(Some(timeout))?)
    }

    /// Chain length the server's OFFER claims for `oid`, if offered.
    fn offered_records(&self, oid: ObjectId) -> Option<u64> {
        self.offer.iter().find(|e| e.oid == oid).map(|e| e.records)
    }
}

/// Resume state carried across the attempts of one `fetch_verified` call.
#[derive(Default)]
struct FetchSession {
    /// Sealed verifier checkpoint + verified-record count from the last
    /// interrupted attempt, if any.
    checkpoint: Option<(Vec<u8>, u64)>,
    /// Attempts that successfully resumed a previous attempt.
    resumed: u32,
}

/// Per-read socket timeout for a transfer the OFFER says carries
/// `records` provenance records: the configured base plus 2ms of slack
/// per record, saturating at 10 000 records' worth (+20s).
///
/// The base timeout is sized to catch a *stalled* peer quickly. But on a
/// loaded event-loop server the gap between two frames of one stream
/// grows with how much other work the loop interleaves, and long streams
/// hit the write high-watermark (where the server deliberately pauses the
/// job) far more often than short ones — so a flat per-read timeout that
/// is right for a 10-record object spuriously kills a 10 000-record one
/// under fan-in. Scaling by offered size keeps big transfers alive under
/// load while small ones still fail fast, and the slope is shallow enough
/// that a genuinely wedged stream is detected well inside any realistic
/// stall-injection window (e.g. 350ms base + 12 records = 374ms, still
/// far under a 600ms stall).
pub fn scaled_read_timeout(base: Duration, records: u64) -> Duration {
    const PER_RECORD_MS: u64 = 2;
    const RECORD_CAP: u64 = 10_000;
    base.saturating_add(Duration::from_millis(
        records.min(RECORD_CAP) * PER_RECORD_MS,
    ))
}

/// Picks the wait before the next retry attempt: the jittered `delay`,
/// floored by the server's `Retry-After` `hint` — then clamped to the
/// `remaining` wall-clock budget. The clamp is what keeps one oversized
/// (or hostile) hint from overshooting [`RetryPolicy::deadline`]: the
/// client sleeps at most until the deadline, wakes, and the deadline
/// check in the retry loop converts the failure into a clean error.
fn clamp_retry_wait(delay: Duration, hint: Option<Duration>, remaining: Duration) -> Duration {
    hint.map_or(delay, |h| delay.max(h)).min(remaining)
}

/// Converts a wire ERR into [`NetError::Remote`], decoding the hint.
pub(crate) fn remote_error(code: ErrorCode, retry_after_ms: u64, detail: String) -> NetError {
    NetError::Remote {
        code,
        retry_after: (retry_after_ms > 0).then(|| Duration::from_millis(retry_after_ms)),
        detail,
    }
}

/// Builds the terminal [`TamperEvidence::ResumeMismatch`] rejection: the
/// peer either refused a checkpoint this client verified record-by-record,
/// or confirmed a resume point it cannot prove. Either way the two ends
/// disagree about history, which is an R2/R3 violation, not a retry.
pub(crate) fn resume_mismatch(
    oid: ObjectId,
    claimed: u64,
    confirmed: u64,
    frame: u64,
    counters: &Arc<TransferCounters>,
    registry: Option<&Registry>,
) -> NetError {
    counters.verify_failure();
    if let Some(reg) = registry {
        EvidenceCounters::new(reg).record(EvidenceKind::ResumeMismatch);
    }
    NetError::TamperDetected {
        frame: Some(frame),
        issues: vec![TamperEvidence::ResumeMismatch {
            oid,
            claimed,
            confirmed,
        }],
    }
}

/// Opens the transfer on an established connection: RESUME from the session's
/// checkpoint when there is one, FETCH from scratch otherwise. Returns the
/// verifier (restored or new) and the record offset the stream starts at.
fn open_transfer<'a>(
    conn: &mut Connection,
    oid: ObjectId,
    keys: &'a KeyDirectory,
    cfg: ClientConfig,
    session: &mut FetchSession,
    counters: &Arc<TransferCounters>,
    registry: Option<&Registry>,
) -> Result<(StreamingVerifier<'a>, u64), NetError> {
    if cfg.resume {
        if let Some((blob, claimed)) = session.checkpoint.take() {
            // The blob was sealed by our own verifier an attempt ago; if it
            // no longer opens, local state is damaged — fall back to a full
            // fetch rather than claiming a prefix we cannot prove.
            if let Ok(mut verifier) = StreamingVerifier::restore(keys, &blob) {
                if let Some(reg) = registry {
                    verifier.attach_obs(reg);
                }
                let digest = verifier.stream_digest().to_vec();
                conn.writer.write_message(&Message::Resume {
                    oid,
                    records: claimed,
                    digest: digest.clone(),
                })?;
                let frame = conn.reader.frames();
                return match conn.reader.read_message()? {
                    Some(Message::ResumeOk {
                        records: confirmed,
                        digest: theirs,
                    }) => {
                        if confirmed != claimed || theirs != digest {
                            // The server "accepted" a resume point it
                            // cannot prove — it is lying about history.
                            Err(resume_mismatch(
                                oid, claimed, confirmed, frame, counters, registry,
                            ))
                        } else {
                            session.resumed += 1;
                            Ok((verifier, claimed))
                        }
                    }
                    Some(Message::Error {
                        code: ErrorCode::ResumeMismatch,
                        ..
                    }) => {
                        // The server's history diverged from the prefix we
                        // verified — or it rewrote it. Terminal evidence.
                        Err(resume_mismatch(oid, claimed, 0, frame, counters, registry))
                    }
                    Some(Message::Error {
                        code,
                        retry_after_ms,
                        detail,
                    }) => Err(remote_error(code, retry_after_ms, detail)),
                    Some(Message::Denial { proof }) => {
                        // The object this client once verified records for
                        // is now provably absent (e.g. pruned upstream).
                        // The denial still has to prove itself.
                        Err(denial_outcome(
                            &proof, oid, keys, cfg.alg, frame, counters, registry,
                        ))
                    }
                    Some(_) | None => Err(NetError::Protocol("expected RESUME_OK")),
                };
            }
        }
    }
    conn.writer.write_message(&Message::Fetch { oid })?;
    let mut verifier = StreamingVerifier::new(keys, cfg.alg, oid);
    if let Some(reg) = registry {
        verifier.attach_obs(reg);
    }
    Ok((verifier, 0))
}

/// One attempt on an established connection: opens (or resumes) the
/// transfer, streams PROV frames through the verifier and DATA frames
/// through the subtree hasher, and settles at DONE. On a *retryable*
/// failure after at least one verified record, the verifier state is
/// sealed into the session so the next attempt can RESUME.
fn fetch_on(
    conn: &mut Connection,
    oid: ObjectId,
    keys: &KeyDirectory,
    cfg: ClientConfig,
    session: &mut FetchSession,
    counters: &Arc<TransferCounters>,
    registry: Option<&Registry>,
) -> Result<FetchReport, NetError> {
    // Rescale the socket timeout to the transfer's offered size before any
    // stream frames are read; `Client::attempt` restores the base timeout
    // before the next request on this connection.
    if let Some(records) = conn.offered_records(oid) {
        conn.set_read_timeout(scaled_read_timeout(cfg.read_timeout, records))?;
    }
    let (mut verifier, start_records) =
        open_transfer(conn, oid, keys, cfg, session, counters, registry)?;
    let mut hasher = DepthStreamHasher::new(cfg.alg);
    let mut records = start_records;
    let mut seen_data = false;

    let failure: NetError = loop {
        let frame = conn.reader.frames(); // index of the frame about to arrive
        let msg = match conn.reader.read_message() {
            Ok(Some(m)) => m,
            Ok(None) => break NetError::Interrupted,
            Err(e) => break NetError::Wire(e),
        };
        match msg {
            Message::Prov { record } => {
                if seen_data {
                    break NetError::Protocol("PROV after DATA");
                }
                let rec = match ProvenanceRecord::from_stored(&record) {
                    Ok(r) => r,
                    Err(e) => break NetError::Wire(WireError::Decode(e)),
                };
                records += 1;
                if verifier.push_record(&rec) > 0 {
                    counters.verify_failure();
                    break NetError::TamperDetected {
                        frame: Some(frame),
                        issues: verifier.issues().to_vec(),
                    };
                }
            }
            Message::Data { entries } => {
                seen_data = true;
                let mut bad = None;
                for e in &entries {
                    if let Err(error) = hasher.push(e.depth as usize, e.id, &e.value) {
                        bad = Some(error);
                        break;
                    }
                }
                if let Some(error) = bad {
                    counters.verify_failure();
                    record_malformed_stream(registry);
                    break NetError::MalformedStream { frame, error };
                }
            }
            Message::Done {
                records: sent_records,
                nodes: sent_nodes,
            } => {
                let nodes = hasher.node_count();
                let (object_hash, _) = match hasher.finish() {
                    Ok(h) => h,
                    Err(error) => {
                        counters.verify_failure();
                        record_malformed_stream(registry);
                        return Err(NetError::MalformedStream { frame, error });
                    }
                };
                // Verify FIRST: if frames were removed in flight, the
                // evidence (broken chains, missing records) matters more
                // than the bare count mismatch.
                let stream_digest = verifier.stream_digest().to_vec();
                let verification = verifier.finish(&object_hash);
                if !verification.verified() {
                    counters.verify_failure();
                    return Err(NetError::TamperDetected {
                        frame: None,
                        issues: verification.issues,
                    });
                }
                if sent_records != records || sent_nodes != nodes {
                    return Err(NetError::Protocol("DONE totals disagree with transfer"));
                }
                return Ok(FetchReport {
                    verification,
                    object_hash,
                    records,
                    nodes,
                    offer: conn.offer.clone(),
                    resumed: session.resumed,
                    stream_digest,
                });
            }
            Message::Denial { proof } => {
                break denial_outcome(&proof, oid, keys, cfg.alg, frame, counters, registry)
            }
            Message::Error {
                code,
                retry_after_ms,
                detail,
            } => break remote_error(code, retry_after_ms, detail),
            _ => break NetError::Protocol("unexpected message during transfer"),
        }
    };

    // A retryable interruption after verified records: seal the verifier so
    // the next attempt can prove where this one stopped. Tamper evidence
    // never reaches here retryably, and a tainted verifier refuses to
    // checkpoint anyway.
    if cfg.resume && failure.is_retryable() && records > 0 {
        if let Some(blob) = verifier.checkpoint() {
            session.checkpoint = Some((blob, records));
        }
    }
    Err(failure)
}

/// Counts a structurally malformed DATA stream under the unified evidence
/// schema (`tep_core_evidence_malformed_stream_total`) — the one detection
/// surface with no [`TamperEvidence`] variant of its own.
fn record_malformed_stream(registry: Option<&Registry>) {
    if let Some(reg) = registry {
        EvidenceCounters::new(reg).record(EvidenceKind::MalformedStream);
    }
}

/// Settles a DENIAL frame received in place of the provenance of `oid`.
///
/// A denial is only as good as its proof: the bytes must decode, the
/// proof must be *about* the requested object (a replayed denial for some
/// other absent ID proves nothing), the root signature must verify, and
/// the gap must authenticate under the signed root. A proof that clears
/// every check is an honest not-found ([`NetError::Denied`]); anything
/// less is [`TamperEvidence::ForgedDenial`]. Both are terminal — an
/// honest absence will not appear on retry, and a forged one must not be
/// laundered through one.
fn denial_outcome(
    bytes: &[u8],
    oid: ObjectId,
    keys: &KeyDirectory,
    alg: HashAlgorithm,
    frame: u64,
    counters: &TransferCounters,
    registry: Option<&Registry>,
) -> NetError {
    let forged = || {
        counters.verify_failure();
        if let Some(reg) = registry {
            EvidenceCounters::new(reg).record(EvidenceKind::ForgedDenial);
        }
        NetError::TamperDetected {
            frame: Some(frame),
            issues: vec![TamperEvidence::ForgedDenial { oid }],
        }
    };
    let Ok(denial) = SignedDenial::from_bytes(bytes) else {
        return forged();
    };
    if denial.proof.absent != oid {
        return forged();
    }
    let mut verifier = Verifier::new(keys, alg);
    if let Some(reg) = registry {
        verifier.attach_obs(reg);
    }
    // verify_denial records failing evidence into the registry itself.
    let verification = verifier.verify_denial(&denial);
    if verification.verified() {
        NetError::Denied {
            oid,
            log_records: denial.root.log_records,
        }
    } else {
        counters.verify_failure();
        NetError::TamperDetected {
            frame: Some(frame),
            issues: verification.issues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_client(policy: RetryPolicy) -> Client {
        let cfg = ClientConfig {
            retry: policy,
            ..ClientConfig::new(HashAlgorithm::Sha256)
        };
        Client::new("127.0.0.1:9".parse().unwrap(), cfg)
    }

    /// The timeout-scaling slope is pinned: base + 2ms per offered record.
    /// The chaos harness relies on the small-object end staying far below
    /// its stall-injection window (350ms base + 12 records = 374ms < 600ms).
    #[test]
    fn read_timeout_scales_linearly_with_offered_records() {
        let base = Duration::from_millis(350);
        assert_eq!(scaled_read_timeout(base, 0), base);
        assert_eq!(scaled_read_timeout(base, 12), Duration::from_millis(374));
        assert_eq!(
            scaled_read_timeout(Duration::from_secs(5), 162),
            Duration::from_millis(5324)
        );
    }

    /// An absurd OFFER (or a hostile one) cannot push the timeout past
    /// base + 20s: the record term saturates at 10 000.
    #[test]
    fn read_timeout_scaling_saturates_at_the_record_cap() {
        let base = Duration::from_millis(350);
        assert_eq!(
            scaled_read_timeout(base, u64::MAX),
            base + Duration::from_secs(20)
        );
        assert_eq!(
            scaled_read_timeout(base, 10_000),
            scaled_read_timeout(base, 1_000_000)
        );
    }

    /// The decorrelated-jitter sequence for the default seed and policy is
    /// pinned: a change here means every deployment's backoff behavior
    /// changed, which should be a deliberate decision, not a side effect.
    #[test]
    fn jitter_sequence_is_pinned_for_default_seed() {
        let policy = RetryPolicy::default();
        let mut c = test_client(policy);
        let mut delay = policy.base;
        let mut seq = Vec::new();
        for _ in 0..8 {
            delay = c.next_delay(delay, policy);
            seq.push(u64::try_from(delay.as_millis()).unwrap());
        }
        assert_eq!(seq, [21, 25, 25, 23, 34, 92, 190, 127]);
        let base = u64::try_from(policy.base.as_millis()).unwrap();
        let cap = u64::try_from(policy.cap.as_millis()).unwrap();
        for &ms in &seq {
            assert!((base..=cap).contains(&ms), "{ms}ms outside [{base}, {cap}]");
        }
    }

    /// `prev * 3` must not overflow for caps near `Duration::MAX`; the
    /// delay stays within `[base, cap]` no matter how extreme the inputs.
    #[test]
    fn jitter_never_overflows_at_extreme_caps() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::MAX,
            deadline: Duration::from_secs(30),
        };
        let mut c = test_client(policy);
        let mut delay = Duration::MAX; // worst-case previous delay
        for _ in 0..64 {
            delay = c.next_delay(delay, policy);
            assert!(delay >= Duration::from_millis(10));
            assert!(delay <= policy.cap);
        }
    }

    /// A server-supplied `Retry-After` hint is clamped to the remaining
    /// wall-clock deadline: one huge (or hostile) hint can no longer park
    /// the client asleep past `RetryPolicy::deadline`.
    #[test]
    fn retry_after_hint_is_clamped_to_the_remaining_deadline() {
        let delay = Duration::from_millis(20);
        let remaining = Duration::from_millis(150);
        // Hint within budget: still floors the jittered delay.
        assert_eq!(
            clamp_retry_wait(delay, Some(Duration::from_millis(90)), remaining),
            Duration::from_millis(90)
        );
        // Oversized hint: clamped to exactly what is left of the deadline.
        assert_eq!(
            clamp_retry_wait(delay, Some(Duration::from_secs(3600)), remaining),
            remaining
        );
        // No hint, but the jittered delay itself outlives the deadline:
        // same clamp applies.
        assert_eq!(
            clamp_retry_wait(Duration::from_secs(10), None, remaining),
            remaining
        );
        // Deadline already spent: the retry wakes immediately and the
        // loop's deadline check surfaces the error.
        assert_eq!(
            clamp_retry_wait(delay, Some(Duration::from_secs(1)), Duration::ZERO),
            Duration::ZERO
        );
        // Plenty of budget: the hintless path is untouched jitter.
        assert_eq!(
            clamp_retry_wait(delay, None, Duration::from_secs(30)),
            delay
        );
    }

    /// `ERR unknown-tenant` is typed and terminal: a client pointed at a
    /// scope that will never admit it fails fast instead of burning its
    /// retry budget the way a `busy` shed (retryable, hinted) would.
    #[test]
    fn unknown_tenant_is_terminal_but_busy_is_retryable() {
        let rejected = NetError::Remote {
            code: ErrorCode::UnknownTenant,
            retry_after: None,
            detail: "tenant t9 is not provisioned here".into(),
        };
        assert!(!rejected.is_retryable());
        assert_eq!(rejected.retry_after(), None);
        let shed = NetError::Remote {
            code: ErrorCode::Busy,
            retry_after: Some(Duration::from_millis(75)),
            detail: "tenant t1 connection quota reached".into(),
        };
        assert!(shed.is_retryable());
    }

    /// A zero/degenerate policy must not panic (empty sample ranges).
    #[test]
    fn jitter_handles_degenerate_policies() {
        let policy = RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            deadline: Duration::ZERO,
        };
        let mut c = test_client(policy);
        let d = c.next_delay(Duration::ZERO, policy);
        assert_eq!(d, Duration::from_millis(1));
    }
}
