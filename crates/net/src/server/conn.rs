//! One connection's state machine and buffers: reading and parsing
//! frames, queueing replies, the one socket write, and refusals.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};
use tep_storage::crc::FRAME_HEADER_LEN;

use super::dispatch::StreamJob;
use super::{Env, ServerObs};
use crate::sys;
use crate::wire::{
    check_frame_crc, decode_message, frame_header, frame_message_into, ErrorCode, Message,
    WireError,
};

/// Bytes read into a connection's buffer per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// `read` calls per connection per wakeup — bounds how much one chatty
/// peer can ingest before the loop moves on (fairness).
const READ_ROUND_LIMIT: usize = 4;

/// A streaming job stops queueing frames once this much outbound data is
/// pending; it resumes when `POLLOUT` drains the backlog. Bounds per-
/// connection memory against a slow reader and bounds the work one
/// connection does per wakeup (fairness).
pub(super) const WBUF_HIGH: usize = 256 * 1024;

/// Backlog offset at which a partially-drained write buffer is compacted
/// (consumed prefix memmoved away) instead of growing forever.
const WBUF_COMPACT: usize = 32 * 1024;

/// Connection state-machine phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum ConnState {
    /// Accepted; waiting for the client's HELLO.
    Handshake,
    /// Handshake done; waiting for FETCH/RESUME/STATS.
    Ready,
    /// A transfer job is emitting PROV/DATA/DONE frames.
    Streaming,
    /// A terminal reply is queued; close once it flushes.
    Draining,
}

/// What a round of reads produced.
pub(super) enum FillOutcome {
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
pub(super) struct Conn<S> {
    pub(super) stream: S,
    pub(super) state: ConnState,
    /// Refused at accept time (`ERR busy` queued); excluded from the
    /// backlog count that scales other clients' `Retry-After` hints.
    pub(super) refused: bool,
    pub(super) closed: bool,
    /// An abortable reply (PROV/DATA/DONE/ResumeOk/retryable ERR) has
    /// bytes not yet handed to the kernel; losing the connection now is a
    /// *write abort*, not a clean close.
    pub(super) abort_owed: bool,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The tenant scope this connection was admitted under (set by a
    /// successful HELLO); every subsequent request resolves state through
    /// it. `None` until the handshake completes.
    pub(super) tenant: Option<u64>,
    pub(super) job: Option<StreamJob>,
    /// Wall-clock budget of one request: [`super::ServerConfig::request_deadline`].
    budget: Duration,
    /// When the request in progress runs out of `budget`: armed at accept
    /// (for the handshake) and re-armed each time a request is dispatched.
    /// `None` for budgets so large the Instant would overflow — which
    /// means "effectively unbounded" anyway.
    pub(super) deadline: Option<Instant>,
    pub(super) read_activity: Instant,
    pub(super) write_activity: Instant,
}

impl<S: Read + Write> Conn<S> {
    pub(super) fn new(stream: S, budget: Duration, now: Instant) -> Self {
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

    pub(super) fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Starts the deadline clock: of the handshake at accept, then of each
    /// request as it is dispatched.
    pub(super) fn arm_deadline(&mut self, now: Instant) {
        self.deadline = now.checked_add(self.budget);
    }

    /// Frames are only parsed before and between requests — never while a
    /// reply is streaming or draining (pipelined requests wait in `rbuf`).
    pub(super) fn wants_read(&self) -> bool {
        !self.closed && matches!(self.state, ConnState::Handshake | ConnState::Ready)
    }

    pub(super) fn wanted_events(&self) -> i16 {
        let mut ev = 0;
        if self.wants_read() {
            ev |= sys::POLLIN;
        }
        if self.pending_write() > 0 {
            ev |= sys::POLLOUT;
        }
        ev
    }

    pub(super) fn close_now(&mut self) {
        self.closed = true;
    }

    /// Closes a connection that still owed abortable reply bytes: the
    /// peer vanished (or stalled past its budget) mid-transfer.
    pub(super) fn close_aborting(&mut self, obs: &ServerObs) {
        if self.abort_owed {
            self.abort_owed = false;
            obs.write_aborts.inc();
        }
        self.closed = true;
    }

    /// Terminal reply queued: close as soon as the backlog flushes.
    pub(super) fn drain_then_close(&mut self) {
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
    pub(super) fn queue_frame(&mut self, msg: &Message, abortable: bool, env: &Env) {
        if self.closed {
            return;
        }
        let start = self.wbuf.len();
        frame_message_into(msg, &mut self.wbuf);
        env.obs.frames_sent.inc();
        env.obs.bytes_sent.add((self.wbuf.len() - start) as u64);
        if abortable {
            self.abort_owed = true;
        }
    }

    /// Refuses the request in progress with `ERR code`. The reply is owed
    /// like any other (abortable) and the connection stays usable.
    pub(super) fn refuse(&mut self, code: ErrorCode, detail: impl Into<String>, env: &Env) {
        self.refuse_with(code, 0, detail, true, env);
    }

    /// A terminal refusal: queues `ERR code` (with a `Retry-After` hint
    /// when `retry_after_ms` is non-zero) and closes once it flushes.
    pub(super) fn refuse_and_close(
        &mut self,
        code: ErrorCode,
        retry_after_ms: u64,
        detail: impl Into<String>,
        env: &Env,
    ) {
        self.refuse_with(code, retry_after_ms, detail, false, env);
        self.drain_then_close();
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
    pub(super) fn flush(&mut self, obs: &ServerObs, now: Instant) {
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
    pub(super) fn fill(&mut self, now: Instant) -> FillOutcome {
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
    pub(super) fn try_parse(&mut self, obs: &ServerObs) -> Result<Option<Message>, WireError> {
        let avail = &self.rbuf[self.rpos..];
        let Some(&header) = avail.first_chunk::<FRAME_HEADER_LEN>() else {
            self.compact_rbuf();
            return Ok(None);
        };
        let (len, crc) = frame_header(header)?;
        let frame_len = FRAME_HEADER_LEN + len;
        let Some(payload) = avail.get(FRAME_HEADER_LEN..frame_len) else {
            self.compact_rbuf();
            return Ok(None);
        };
        check_frame_crc(crc, payload)?;
        let msg = decode_message(payload)?;
        self.rpos += frame_len;
        obs.frames_received.inc();
        obs.bytes_received.add(frame_len as u64);
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        Ok(Some(msg))
    }
}

pub(super) fn past_deadline(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Tells the peer its request ran out of wall-clock budget. The error
/// is retryable client-side (reconnect + RESUME picks up where the stream
/// stopped), so the hint is small and flat.
pub(super) fn refuse_deadline<S: Read + Write>(conn: &mut Conn<S>, env: &Env) {
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
