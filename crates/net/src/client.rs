//! Fetching client: connect/read retry with decorrelated-jitter backoff,
//! **streaming verify-on-receive**, and checkpointed resume.
//!
//! This module is the receiving side of the transfer protocol, once:
//! [`fetch_on`] is the only function in the crate that opens a transfer
//! and reads its PROV / DATA / DONE / DENIAL / ERR frames. [`Client`] runs
//! it with an in-memory checkpoint and nothing to keep;
//! [`Replica`](crate::Replica) runs the same function with a durable
//! checkpoint and a [`RecordSink`] that reconciles with its store.
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
use tep_storage::StoredRecord;

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
            match conn.read_reply()? {
                Message::Stats { text } => Ok(text),
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
        self.with_retry(|conn| {
            conn.writer.write_message(&Message::Query { spec: *spec })?;
            let frame = conn.reader.frames();
            match conn.read_reply()? {
                Message::QResult { proof } => {
                    let Ok(proof) = SliceProof::from_bytes(&proof) else {
                        // The frame CRC passed, so these bytes are what the
                        // server sent — a non-canonical or truncated proof
                        // is a lie, not line noise.
                        conn.evidence(EvidenceKind::MalformedStream);
                        return Err(NetError::Protocol("QRESULT proof failed to decode"));
                    };
                    if proof.spec != *spec {
                        // An answer to a different question than asked.
                        conn.evidence(EvidenceKind::OutputMismatch);
                        return Err(NetError::TamperDetected {
                            frame: Some(frame),
                            issues: vec![TamperEvidence::OutputMismatch { oid: spec.target }],
                        });
                    }
                    let verification = conn.verifier(keys).verify_slice(&proof);
                    if !verification.verified() {
                        conn.counters.verify_failure();
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
                Message::Denial { proof } => {
                    Err(conn.denial_outcome(&proof, spec.target, keys, frame))
                }
                _ => Err(NetError::Protocol("expected QRESULT")),
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
        self.with_retry(|conn| {
            conn.writer.write_message(&Message::RangeReq { lo, hi })?;
            let frame = conn.reader.frames();
            let Message::RangeResp { oids, proof } = conn.read_reply()? else {
                return Err(NetError::Protocol("expected RANGE_RESP"));
            };
            // A proof that does not decode, or that answers a different
            // question than asked.
            let Some(range) = SignedRange::from_bytes(&proof)
                .ok()
                .filter(|r| r.proof.lo == lo && r.proof.hi == hi)
            else {
                conn.evidence(EvidenceKind::ForgedDenial);
                return Err(NetError::TamperDetected {
                    frame: Some(frame),
                    issues: vec![TamperEvidence::ForgedDenial { oid: lo }],
                });
            };
            // verify_range records failing evidence itself — including a
            // member the proof covers but the answer omits
            // (IncompleteResponse).
            let verification = conn.verifier(keys).verify_range(&range, &oids);
            if !verification.verified() {
                conn.counters.verify_failure();
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
        let resume = self.cfg.resume;
        // Resume state carried across the attempts of this call: the
        // verifier of the last interrupted attempt, sealed, and how many
        // attempts continued a previous one.
        let mut checkpoint: Option<Vec<u8>> = None;
        let mut resumed = 0u32;
        self.with_retry(|conn| {
            // The blob was sealed by our own verifier an attempt ago; if it
            // no longer opens, local state is damaged — fall back to a full
            // fetch rather than claiming a prefix we cannot prove.
            let restored = checkpoint
                .take()
                .and_then(|blob| StreamingVerifier::restore(keys, &blob).ok());
            match fetch_on(conn, oid, keys, restored, &mut ()) {
                Ok(transfer) => Ok(FetchReport {
                    records: transfer.verification.records_checked as u64,
                    verification: transfer.verification,
                    object_hash: transfer.object_hash,
                    nodes: transfer.nodes,
                    offer: conn.offer.clone(),
                    resumed: resumed + u32::from(transfer.resumed),
                    stream_digest: transfer.stream_digest,
                }),
                Err(cut) => {
                    resumed += u32::from(cut.resumed);
                    // A retryable interruption after verified records: seal
                    // the verifier so the next attempt can prove where this
                    // one stopped. Tamper evidence never reaches here
                    // retryably, and a tainted verifier refuses to
                    // checkpoint anyway.
                    if resume && cut.error.is_retryable() {
                        checkpoint = cut
                            .verifier
                            .filter(|v| v.records_checked() > 0)
                            .and_then(|v| v.checkpoint());
                    }
                    Err(cut.error)
                }
            }
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
            self.registry.clone(),
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

/// An established, HELLO-negotiated connection with its OFFER read, and
/// the accounts of the endpoint that dialed it: what it verifies with and
/// where its traffic, verification failures and evidence are counted.
pub(crate) struct Connection {
    pub(crate) reader: FrameReader<TcpStream>,
    pub(crate) writer: FrameWriter<TcpStream>,
    pub(crate) offer: Vec<OfferEntry>,
    /// A control handle on the same socket as `reader`/`writer`, kept so
    /// the read timeout can be set per request (`set_read_timeout` acts on
    /// the shared fd, so the reader's clone sees the new value).
    stream: TcpStream,
    alg: HashAlgorithm,
    /// The dialer's base per-read timeout; a transfer rescales it.
    read_timeout: Duration,
    counters: Arc<TransferCounters>,
    registry: Option<Registry>,
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
        registry: Option<Registry>,
    ) -> Result<Connection, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let control = stream.try_clone().map_err(WireError::Io)?;
        let reader = FrameReader::new(
            stream.try_clone().map_err(WireError::Io)?,
            Arc::clone(&counters),
        );
        let mut conn = Connection {
            reader,
            writer: FrameWriter::new(stream, Arc::clone(&counters)),
            offer: Vec::new(),
            stream: control,
            alg,
            read_timeout,
            counters,
            registry,
        };
        conn.writer.write_message(&Message::Hello {
            version: WIRE_VERSION,
            alg,
            tenant: tenant.raw(),
        })?;
        match conn.read_reply()? {
            Message::Hello {
                version,
                alg: theirs,
                tenant: scope,
            } if version == WIRE_VERSION && theirs == alg && scope == tenant.raw() => {}
            _ => return Err(NetError::Protocol("expected HELLO")),
        }
        match conn.read_reply()? {
            Message::Offer { entries } => conn.offer = entries,
            _ => return Err(NetError::Protocol("expected OFFER")),
        }
        Ok(conn)
    }

    /// Reads the reply to a request. The two outcomes every request shares
    /// are settled here — the server's ERR is [`NetError::Remote`], a close
    /// at the frame boundary (the peer or the path hung up: transient) is
    /// [`NetError::Interrupted`] — and the caller matches the one message
    /// it asked for.
    pub(crate) fn read_reply(&mut self) -> Result<Message, NetError> {
        match self.reader.read_message()? {
            Some(Message::Error {
                code,
                retry_after_ms,
                detail,
            }) => Err(NetError::Remote {
                code,
                retry_after: (retry_after_ms > 0).then(|| Duration::from_millis(retry_after_ms)),
                detail,
            }),
            Some(msg) => Ok(msg),
            None => Err(NetError::Interrupted),
        }
    }

    /// Sets the per-read socket timeout for the request about to run.
    fn set_read_timeout(&self, timeout: Duration) -> Result<(), NetError> {
        Ok(self.stream.set_read_timeout(Some(timeout))?)
    }

    /// Chain length the server's OFFER claims for `oid`, if offered.
    fn offered_records(&self, oid: ObjectId) -> Option<u64> {
        self.offer.iter().find(|e| e.oid == oid).map(|e| e.records)
    }

    /// Counts one rejected response and the `kind` of evidence it carried
    /// (`tep_core_evidence_<kind>_total`) — for the evidence this endpoint
    /// finds itself; what a verifier finds, the verifier records.
    fn evidence(&self, kind: EvidenceKind) {
        self.counters.verify_failure();
        if let Some(reg) = &self.registry {
            EvidenceCounters::new(reg).record(kind);
        }
    }

    /// A batch verifier over `keys`, recording into this endpoint's registry.
    fn verifier<'k>(&self, keys: &'k KeyDirectory) -> Verifier<'k> {
        let mut verifier = Verifier::new(keys, self.alg);
        if let Some(reg) = &self.registry {
            verifier.attach_obs(reg);
        }
        verifier
    }

    /// Builds the terminal [`TamperEvidence::ResumeMismatch`] rejection: the
    /// peer either refused a checkpoint this endpoint verified
    /// record-by-record, or confirmed a resume point it cannot prove. Either
    /// way the two ends disagree about history, which is an R2/R3 violation,
    /// not a retry.
    fn resume_mismatch(&self, oid: ObjectId, claimed: u64, confirmed: u64, frame: u64) -> NetError {
        self.evidence(EvidenceKind::ResumeMismatch);
        NetError::TamperDetected {
            frame: Some(frame),
            issues: vec![TamperEvidence::ResumeMismatch {
                oid,
                claimed,
                confirmed,
            }],
        }
    }

    /// Settles a DENIAL frame received in place of the provenance of `oid`.
    ///
    /// A denial is only as good as its proof: the bytes must decode, the
    /// proof must be *about* the requested object (a replayed denial for
    /// some other absent ID proves nothing), the root signature must verify,
    /// and the gap must authenticate under the signed root. A proof that
    /// clears every check is an honest not-found ([`NetError::Denied`]);
    /// anything less is [`TamperEvidence::ForgedDenial`]. Both are terminal
    /// — an honest absence will not appear on retry, and a forged one must
    /// not be laundered through one.
    fn denial_outcome(
        &self,
        bytes: &[u8],
        oid: ObjectId,
        keys: &KeyDirectory,
        frame: u64,
    ) -> NetError {
        let Some(denial) = SignedDenial::from_bytes(bytes)
            .ok()
            .filter(|d| d.proof.absent == oid)
        else {
            self.evidence(EvidenceKind::ForgedDenial);
            return NetError::TamperDetected {
                frame: Some(frame),
                issues: vec![TamperEvidence::ForgedDenial { oid }],
            };
        };
        // verify_denial records failing evidence into the registry itself.
        let verification = self.verifier(keys).verify_denial(&denial);
        if verification.verified() {
            NetError::Denied {
                oid,
                log_records: denial.root.log_records,
            }
        } else {
            self.counters.verify_failure();
            NetError::TamperDetected {
                frame: Some(frame),
                issues: verification.issues,
            }
        }
    }
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

/// What a receiver does with the records of a transfer beyond verifying
/// them; [`fetch_on`] calls it around each verification and before the
/// verdict. A fetching client keeps nothing, so its sink is `()`.
pub(crate) trait RecordSink {
    /// `record` arrived in `frame` and the verifier has not seen it yet. An
    /// error ends the transfer there.
    fn arriving(&mut self, _record: &StoredRecord, _frame: u64) -> Result<(), NetError> {
        Ok(())
    }

    /// `record` verified clean; `verifier` has absorbed it.
    fn verified(
        &mut self,
        _record: StoredRecord,
        _verifier: &StreamingVerifier<'_>,
    ) -> Result<(), NetError> {
        Ok(())
    }

    /// DONE arrived: make durable whatever has to be before the verdict on
    /// the transfer as a whole.
    fn before_verdict(&mut self, _verifier: &StreamingVerifier<'_>) -> Result<(), NetError> {
        Ok(())
    }
}

impl RecordSink for () {}

/// A transfer that reached DONE and verified.
pub(crate) struct Transfer {
    /// The verifier's verdict (always `verified()`).
    pub(crate) verification: Verification,
    /// The object hash recomputed from the delivered data.
    pub(crate) object_hash: Vec<u8>,
    /// Data nodes received.
    pub(crate) nodes: u64,
    /// The rolling record-stream digest over every verified record.
    pub(crate) stream_digest: Vec<u8>,
    /// Whether the transfer continued from the caller's verifier via RESUME.
    pub(crate) resumed: bool,
}

/// A transfer attempt that failed (boxed by [`fetch_on`]: it carries a
/// whole verifier, and only the failure path should pay for that).
pub(crate) struct Cut<'k> {
    pub(crate) error: NetError,
    /// The verifier as far as the attempt got, so a caller that retries can
    /// seal it and open the next attempt with RESUME; `None` once the
    /// verdict consumed it.
    pub(crate) verifier: Option<StreamingVerifier<'k>>,
    /// Whether the attempt got as far as a confirmed RESUME.
    pub(crate) resumed: bool,
}

/// The receiving side of one transfer attempt on an established connection —
/// the only place in the crate that opens a transfer and reads its frames.
/// Opens with RESUME at the position `resume_from` proves (a verifier the
/// caller restored from a sealed checkpoint), or with FETCH from record zero
/// without one; streams PROV frames through the verifier and `sink` and DATA
/// frames through the subtree hasher; settles at DONE. Whoever the receiver
/// is, a record is believed only after it verified, the object hash only as
/// recomputed from the delivered bytes, and a DENIAL only after its proof
/// checked out.
pub(crate) fn fetch_on<'k>(
    conn: &mut Connection,
    oid: ObjectId,
    keys: &'k KeyDirectory,
    resume_from: Option<StreamingVerifier<'k>>,
    sink: &mut impl RecordSink,
) -> Result<Transfer, Box<Cut<'k>>> {
    let resuming = resume_from.is_some();
    let mut verifier = resume_from.unwrap_or_else(|| StreamingVerifier::new(keys, conn.alg, oid));
    // A restored verifier comes back without instrumentation.
    if let Some(reg) = &conn.registry {
        verifier.attach_obs(reg);
    }
    let mut resumed = false;
    let streamed = open_transfer(conn, oid, keys, resuming.then_some(&verifier)).and_then(|r| {
        resumed = r;
        stream_to_done(conn, oid, keys, &mut verifier, sink)
    });
    let (object_hash, nodes, totals_agree) = match streamed {
        Ok(done) => done,
        Err(error) => {
            return Err(Box::new(Cut {
                error,
                verifier: Some(verifier),
                resumed,
            }))
        }
    };
    // Verify FIRST: if frames were removed in flight, the evidence (broken
    // chains, missing records) matters more than the bare count mismatch.
    let stream_digest = verifier.stream_digest().to_vec();
    let verification = verifier.finish(&object_hash);
    let terminal = |error| {
        Box::new(Cut {
            error,
            verifier: None,
            resumed,
        })
    };
    if !verification.verified() {
        conn.counters.verify_failure();
        return Err(terminal(NetError::TamperDetected {
            frame: None,
            issues: verification.issues,
        }));
    }
    if !totals_agree {
        return Err(terminal(NetError::Protocol(
            "DONE totals disagree with transfer",
        )));
    }
    Ok(Transfer {
        verification,
        object_hash,
        nodes,
        stream_digest,
        resumed,
    })
}

/// Opens the transfer: RESUME at the position `resume_from` has verified up
/// to, proven by its rolling stream digest, or FETCH without one. `Ok(true)`
/// means the server confirmed exactly that position.
fn open_transfer(
    conn: &mut Connection,
    oid: ObjectId,
    keys: &KeyDirectory,
    resume_from: Option<&StreamingVerifier<'_>>,
) -> Result<bool, NetError> {
    // Rescale the socket timeout to the transfer's offered size before any
    // stream frames are read; `Client::attempt` restores the base timeout
    // before the next request on this connection.
    if let Some(records) = conn.offered_records(oid) {
        conn.set_read_timeout(scaled_read_timeout(conn.read_timeout, records))?;
    }
    let Some(verifier) = resume_from else {
        conn.writer.write_message(&Message::Fetch { oid })?;
        return Ok(false);
    };
    let claimed = verifier.records_checked() as u64;
    let digest = verifier.stream_digest().to_vec();
    conn.writer.write_message(&Message::Resume {
        oid,
        records: claimed,
        digest: digest.clone(),
    })?;
    let frame = conn.reader.frames();
    match conn.read_reply() {
        Ok(Message::ResumeOk {
            records: confirmed,
            digest: theirs,
        }) => {
            if confirmed != claimed || theirs != digest {
                // The server "accepted" a resume point it cannot prove — it
                // is lying about history.
                Err(conn.resume_mismatch(oid, claimed, confirmed, frame))
            } else {
                Ok(true)
            }
        }
        // The server's history diverged from the prefix we verified — or it
        // rewrote it. Terminal evidence.
        Err(NetError::Remote {
            code: ErrorCode::ResumeMismatch,
            ..
        }) => Err(conn.resume_mismatch(oid, claimed, 0, frame)),
        // The object this receiver once verified records for is now provably
        // absent (e.g. pruned upstream). The denial still has to prove
        // itself.
        Ok(Message::Denial { proof }) => Err(conn.denial_outcome(&proof, oid, keys, frame)),
        Ok(_) => Err(NetError::Protocol("expected RESUME_OK")),
        Err(e) => Err(e),
    }
}

/// Reads the opened transfer to its DONE frame. Returns the object hash
/// recomputed from the DATA frames, the node count, and whether DONE's
/// totals agree with what arrived.
fn stream_to_done(
    conn: &mut Connection,
    oid: ObjectId,
    keys: &KeyDirectory,
    verifier: &mut StreamingVerifier<'_>,
    sink: &mut impl RecordSink,
) -> Result<(Vec<u8>, u64, bool), NetError> {
    let mut hasher = DepthStreamHasher::new(conn.alg);
    let mut seen_data = false;
    loop {
        let frame = conn.reader.frames(); // index of the frame about to arrive
        match conn.read_reply()? {
            Message::Prov { record } => {
                if seen_data {
                    return Err(NetError::Protocol("PROV after DATA"));
                }
                let rec = ProvenanceRecord::from_stored(&record)
                    .map_err(|e| NetError::Wire(WireError::Decode(e)))?;
                sink.arriving(&record, frame)?;
                if verifier.push_record(&rec) > 0 {
                    conn.counters.verify_failure();
                    return Err(NetError::TamperDetected {
                        frame: Some(frame),
                        issues: verifier.issues().to_vec(),
                    });
                }
                sink.verified(record, verifier)?;
            }
            Message::Data { entries } => {
                seen_data = true;
                for e in &entries {
                    if let Err(error) = hasher.push(e.depth as usize, e.id, &e.value) {
                        conn.evidence(EvidenceKind::MalformedStream);
                        return Err(NetError::MalformedStream { frame, error });
                    }
                }
            }
            Message::Done { records, nodes } => {
                let received = hasher.node_count();
                let (object_hash, _) = hasher.finish().map_err(|error| {
                    conn.evidence(EvidenceKind::MalformedStream);
                    NetError::MalformedStream { frame, error }
                })?;
                sink.before_verdict(verifier)?;
                let totals_agree =
                    records == verifier.records_checked() as u64 && nodes == received;
                return Ok((object_hash, received, totals_agree));
            }
            Message::Denial { proof } => return Err(conn.denial_outcome(&proof, oid, keys, frame)),
            _ => return Err(NetError::Protocol("unexpected message during transfer")),
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
