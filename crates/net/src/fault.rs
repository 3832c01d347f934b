//! Deterministic fault injection for the transport — the network twin of
//! `tep_storage::vfs::FaultVfs`.
//!
//! Two layers, mirroring how faults actually strike:
//!
//! * [`FaultStream`] wraps any `Read + Write` byte stream and fires one
//!   scheduled fault at the Nth I/O operation: a connection reset, a clean
//!   EOF, a read timeout, a seeded bit flip, or a short read/write. Because
//!   `wire::FrameReader`/`FrameWriter` are generic over the stream, every
//!   codec path can be crashed at every byte boundary in a plain unit test
//!   — no sockets, no threads, no timing.
//! * [`FaultListener`] is a TCP proxy (the non-malicious sibling of
//!   `proxy::TamperProxy`): it forwards the client→server direction
//!   verbatim and relays server→client traffic *frame-aligned*, firing one
//!   scheduled [`FaultKind`] at downstream frame N — cut at a boundary,
//!   cut mid-frame, flip a bit (without fixing the CRC, modeling line
//!   noise rather than an attacker), stall past the client's read timeout,
//!   or drop the connection. With `once` set the fault fires on one
//!   connection only, so a retrying client's next attempt sees a healthy
//!   path — exactly the shape of a transient network failure.
//!
//! Everything is seeded and deterministic: the same
//! ([`FaultPlan`], byte stream) pair produces the same torn prefix, the
//! same flipped bit, the same outcome — so a chaos run that fails can be
//! replayed exactly from its seed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::proxy::Relay;

/// SplitMix64 — the same tiny deterministic generator `FaultVfs` uses, so
/// net and storage chaos schedules are seeded the same way.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// FaultStream: byte-level faults for unit-testing the codec
// ---------------------------------------------------------------------------

/// The fault a [`FaultStream`] fires at its scheduled operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFault {
    /// Fail the op with `io::ErrorKind::ConnectionReset`.
    Reset,
    /// Read returns 0 bytes (EOF); writes report `BrokenPipe`.
    Eof,
    /// Fail the op with `io::ErrorKind::TimedOut` — what a socket read
    /// returns when the peer stalls past the read timeout.
    TimedOut,
    /// Flip one seeded bit in the bytes the op delivers (reads only;
    /// writes pass through).
    BitFlip,
    /// Deliver only a seeded 1..=len prefix of the op's buffer. Callers
    /// using `read_exact`/`write_all` must survive this without
    /// corruption.
    Short,
}

/// When and how a [`FaultStream`] misbehaves.
#[derive(Clone, Copy, Debug)]
pub struct StreamFaultPlan {
    /// The fault to fire.
    pub fault: StreamFault,
    /// The 0-based I/O operation (reads and writes share one counter) at
    /// which to fire. `Short` keeps firing from this op onward (a slow
    /// link is not a one-shot event); the others fire once.
    pub at_op: u64,
    /// Seed for the fault's randomness (bit position, prefix length).
    pub seed: u64,
}

/// A `Read + Write` wrapper that injects one deterministic, scheduled
/// fault. See the module docs.
pub struct FaultStream<S> {
    inner: S,
    plan: StreamFaultPlan,
    rng: u64,
    op: u64,
    fired: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: S, plan: StreamFaultPlan) -> Self {
        FaultStream {
            inner,
            plan,
            rng: plan.seed ^ 0x243F_6A88_85A3_08D3,
            op: 0,
            fired: false,
        }
    }

    /// Whether the scheduled fault has fired yet.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The wrapped stream back (for inspecting what was actually written).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// True if this op is the scheduled one (or past it, for `Short`).
    fn due(&self) -> bool {
        if self.plan.fault == StreamFault::Short {
            self.op >= self.plan.at_op
        } else {
            self.op == self.plan.at_op && !self.fired
        }
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let due = self.due();
        self.op += 1;
        if !due {
            return self.inner.read(buf);
        }
        self.fired = true;
        match self.plan.fault {
            StreamFault::Reset => Err(io::ErrorKind::ConnectionReset.into()),
            StreamFault::Eof => Ok(0),
            StreamFault::TimedOut => Err(io::ErrorKind::TimedOut.into()),
            StreamFault::BitFlip => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let bit = splitmix64(&mut self.rng) as usize % (n * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(n)
            }
            StreamFault::Short => {
                if buf.is_empty() {
                    return self.inner.read(buf);
                }
                let take = 1 + splitmix64(&mut self.rng) as usize % buf.len();
                self.inner.read(&mut buf[..take])
            }
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let due = self.due();
        self.op += 1;
        if !due {
            return self.inner.write(buf);
        }
        self.fired = true;
        match self.plan.fault {
            StreamFault::Reset => Err(io::ErrorKind::ConnectionReset.into()),
            StreamFault::Eof => Err(io::ErrorKind::BrokenPipe.into()),
            StreamFault::TimedOut => Err(io::ErrorKind::TimedOut.into()),
            StreamFault::BitFlip => self.inner.write(buf),
            StreamFault::Short => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                let take = 1 + splitmix64(&mut self.rng) as usize % buf.len();
                self.inner.write(&buf[..take])
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// FaultListener: frame-level faults on a live TCP path
// ---------------------------------------------------------------------------

/// The fault a [`FaultListener`] fires at its scheduled downstream frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the connection cleanly *before* forwarding frame N — the
    /// client sees EOF at a frame boundary (a resumable interruption).
    CutBoundary,
    /// Forward a seeded non-empty proper prefix of frame N's bytes, then
    /// close — the client sees a torn frame (`Truncated`).
    CutMidFrame,
    /// Flip one seeded bit of frame N (header or payload) without fixing
    /// the CRC — line noise, caught as `BadCrc`/`Oversized`.
    BitFlip,
    /// Sleep this long before forwarding frame N — stalls a client whose
    /// read timeout is shorter.
    Stall(Duration),
    /// Drop both directions abruptly before frame N, without the
    /// courtesy of draining or half-close.
    Reset,
}

/// When and how a [`FaultListener`] misbehaves.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// The fault to fire.
    pub kind: FaultKind,
    /// The 0-based server→client frame index to fire at (HELLO = 0,
    /// OFFER = 1, first transfer frame = 2).
    pub frame: u64,
    /// Seed for the fault's randomness (torn prefix length, bit position).
    pub seed: u64,
    /// Fire on the first connection that reaches the frame, then relay
    /// every later connection verbatim — so a retrying client recovers.
    /// When false the fault fires on every connection.
    pub once: bool,
}

/// A fault-injecting TCP proxy; dropping it stops the listener.
pub struct FaultListener {
    relay: Relay,
    fired: Arc<AtomicU64>,
}

impl FaultListener {
    /// Spawns a proxy on an ephemeral localhost port relaying to
    /// `upstream`, injecting per `plan`. Connections are handled one at a
    /// time (fault tests are sequential by nature): a client that keeps its
    /// connection holds the relay until it disconnects or is dropped, and a
    /// second client is not served before then. [`FaultPlan::frame`] counts
    /// per connection, so it indexes into the first request of a client
    /// (or of each redial). Shutting the proxy down cuts the relay in
    /// progress.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<FaultListener> {
        let fired = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&fired);
        let relay = Relay::spawn(upstream, move |server, client| {
            downlink(server, client, plan, &count)
        })?;
        Ok(FaultListener { relay, fired })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.relay.addr()
    }

    /// How many times the scheduled fault has fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// Stops the listener, cuts the relay in progress, and joins the
    /// accept thread — which is what dropping the relay does.
    pub fn shutdown(self) {}
}

/// The server→client leg of one relayed connection: a raw frame-aligned
/// copy, firing the plan's fault at its scheduled frame. The relay reads
/// each frame's 8-byte header (len ‖ crc) and payload off the upstream
/// socket, so it always knows where boundaries are — no decoding, no
/// re-framing, and a bit flip here reaches the client byte-for-byte.
fn downlink(
    server: &TcpStream,
    client: &TcpStream,
    plan: FaultPlan,
    fired: &AtomicU64,
) -> io::Result<()> {
    let mut src = server.try_clone()?;
    let mut dst = client.try_clone()?;
    let mut seed = plan.seed;
    let mut frame = 0u64;
    let armed = !plan.once || fired.load(Ordering::SeqCst) == 0;
    loop {
        let mut header = [0u8; 8];
        match read_full(&mut src, &mut header) {
            Ok(true) => {}
            Ok(false) | Err(_) => break, // upstream closed or died
        }
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > crate::wire::MAX_FRAME {
            break; // upstream is not speaking the protocol; stop relaying
        }
        let mut bytes = Vec::with_capacity(8 + len);
        bytes.extend_from_slice(&header);
        bytes.resize(8 + len, 0);
        if !matches!(read_full(&mut src, &mut bytes[8..]), Ok(true)) {
            break;
        }

        if armed && frame == plan.frame {
            fired.fetch_add(1, Ordering::SeqCst);
            match plan.kind {
                FaultKind::CutBoundary => {
                    let _ = client.shutdown(std::net::Shutdown::Both);
                    break;
                }
                FaultKind::CutMidFrame => {
                    // A non-empty proper prefix: at least the first byte,
                    // never the whole frame.
                    let keep = 1 + splitmix64(&mut seed) as usize % (bytes.len() - 1);
                    let _ = dst.write_all(&bytes[..keep]);
                    let _ = client.shutdown(std::net::Shutdown::Both);
                    break;
                }
                FaultKind::BitFlip => {
                    let bit = splitmix64(&mut seed) as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    if dst.write_all(&bytes).is_err() {
                        break;
                    }
                }
                FaultKind::Stall(d) => {
                    thread::sleep(d);
                    if dst.write_all(&bytes).is_err() {
                        break;
                    }
                }
                FaultKind::Reset => {
                    let _ = client.shutdown(std::net::Shutdown::Both);
                    let _ = server.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        } else if dst.write_all(&bytes).is_err() {
            break;
        }
        frame += 1;
    }
    Ok(())
}

/// `read_exact` that reports a clean EOF *before any byte* as `Ok(false)`
/// instead of an error (EOF mid-buffer is still an error).
fn read_full<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<bool, io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FrameReader, FrameWriter, Message, WireError};
    use std::sync::Arc;
    use tep_core::metrics::TransferCounters;
    use tep_model::ObjectId;

    fn counters() -> Arc<TransferCounters> {
        Arc::new(TransferCounters::new())
    }

    /// A few framed messages as raw bytes.
    fn framed(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf, counters());
        for i in 0..n {
            w.write_message(&Message::Fetch { oid: ObjectId(i) })
                .unwrap();
        }
        buf
    }

    fn reader_over(bytes: &[u8], plan: StreamFaultPlan) -> FrameReader<FaultStream<&[u8]>> {
        FrameReader::new(FaultStream::new(bytes, plan), counters())
    }

    #[test]
    fn reset_surfaces_as_io_error_not_panic() {
        let bytes = framed(3);
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::Reset,
                at_op: 2,
                seed: 1,
            },
        );
        let mut io_errors = 0;
        for _ in 0..4 {
            match r.read_message() {
                Ok(Some(_)) | Ok(None) => {}
                Err(WireError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                    io_errors += 1;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(io_errors, 1, "the scheduled reset never fired");
    }

    #[test]
    fn timeout_fault_models_a_stalled_peer() {
        let bytes = framed(2);
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::TimedOut,
                at_op: 0,
                seed: 9,
            },
        );
        match r.read_message() {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncated_eof_between_frames_is_clean() {
        // Fire EOF at the very first read: clean end-of-stream.
        let bytes = framed(1);
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::Eof,
                at_op: 0,
                seed: 3,
            },
        );
        assert!(matches!(r.read_message(), Ok(None)));

        // Fire EOF inside the first frame's payload read: truncation.
        let mut r = reader_over(
            &bytes,
            StreamFaultPlan {
                fault: StreamFault::Eof,
                at_op: 1,
                seed: 3,
            },
        );
        assert!(matches!(r.read_message(), Err(WireError::Truncated)));
    }

    /// Every seed's bit flip is caught — by the CRC, the length cap, or
    /// the body decoder — and none of them panics or yields the original
    /// message as if nothing happened.
    #[test]
    fn every_seeded_bit_flip_is_caught() {
        let bytes = framed(1);
        for seed in 0..64u64 {
            for at_op in 0..2u64 {
                let mut r = reader_over(
                    &bytes,
                    StreamFaultPlan {
                        fault: StreamFault::BitFlip,
                        at_op,
                        seed,
                    },
                );
                match r.read_message() {
                    Ok(Some(Message::Fetch { oid })) => {
                        panic!("seed {seed} op {at_op}: flipped frame decoded as FETCH {oid}")
                    }
                    Ok(Some(_)) => panic!("seed {seed}: flipped frame decoded cleanly"),
                    Ok(None) | Err(_) => {} // caught (or flip landed past the stream)
                }
            }
        }
    }

    /// Short reads must be invisible to the framing layer: `read_exact`
    /// loops until the buffer fills, so every message still arrives
    /// intact, for every seed.
    #[test]
    fn short_reads_never_corrupt_the_stream() {
        let bytes = framed(5);
        for seed in 0..32u64 {
            let mut r = reader_over(
                &bytes,
                StreamFaultPlan {
                    fault: StreamFault::Short,
                    at_op: 0,
                    seed,
                },
            );
            let mut got = 0u64;
            while let Some(msg) = r.read_message().unwrap() {
                assert_eq!(msg, Message::Fetch { oid: ObjectId(got) });
                got += 1;
            }
            assert_eq!(got, 5, "seed {seed} lost messages");
        }
    }

    /// Short writes likewise: `write_all` on the other side of the wrapper
    /// must still deliver byte-identical frames.
    #[test]
    fn short_writes_never_corrupt_the_stream() {
        for seed in 0..32u64 {
            let mut fs = FaultStream::new(
                Vec::new(),
                StreamFaultPlan {
                    fault: StreamFault::Short,
                    at_op: 0,
                    seed,
                },
            );
            {
                let mut w = FrameWriter::new(&mut fs, counters());
                for i in 0..4u64 {
                    w.write_message(&Message::Fetch { oid: ObjectId(i) })
                        .unwrap();
                }
            }
            let written = fs.into_inner();
            assert_eq!(written, framed(4), "seed {seed} corrupted the bytes");
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let bytes = framed(3);
        let plan = StreamFaultPlan {
            fault: StreamFault::BitFlip,
            at_op: 1,
            seed: 2009,
        };
        let outcome = |plan| {
            let mut r = reader_over(&bytes, plan);
            let mut log = Vec::new();
            loop {
                match r.read_message() {
                    Ok(Some(m)) => log.push(format!("{m:?}")),
                    Ok(None) => break log.push("eof".into()),
                    Err(e) => break log.push(format!("err:{e}")),
                }
            }
            log
        };
        assert_eq!(outcome(plan), outcome(plan));
    }
}
