//! The wire-fault relay: a man-in-the-middle proxy for wire-attack and
//! wire-fault testing.
//!
//! [`TamperProxy`] sits between a client and a server, forwards the
//! client→server direction verbatim, and relays server→client traffic
//! frame by frame. Each frame is read raw and handed, decoded, to a
//! mutator whose [`ProxyAction`] decides what reaches the client. The
//! actions cover both threats the paper separates for provenance in
//! transit (§2.2):
//!
//! * **Forgery.** [`ProxyAction::Replace`] and [`ProxyAction::Drop`] model
//!   an attacker. A replacement is re-framed **with a valid CRC**: the CRC
//!   is accidental-corruption protection, so a deliberate attacker simply
//!   recomputes it — only the cryptographic provenance checksums stand
//!   between a tampered transfer and acceptance. Tests use this to assert
//!   that every [`tep_core::attack::Tamper`] applied *in flight* is caught
//!   by the client's streaming verifier.
//! * **Accidents.** `Cut`, `CutMidFrame`, `BitFlip`, `Stall` and `Reset`
//!   model a failing network: EOF at a frame boundary, a torn frame, line
//!   noise the CRC must catch, a peer slower than the client's read
//!   timeout, an abrupt reset. [`at_frame`] schedules one of them at a
//!   frame, on one connection or on every connection.
//!
//! Everything is seeded and deterministic: the same (action, byte stream)
//! pair produces the same torn prefix and the same flipped bit, so a chaos
//! run that fails can be replayed exactly from its seed.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use tep_storage::crc::FRAME_HEADER_LEN;

use crate::wire::{
    check_frame_crc, decode_message, frame_header, frame_message_into, read_exact_or_eof, Message,
    ReadOutcome, WireError,
};

/// What the mutator wants done with one server→client frame.
#[derive(Clone, Debug)]
pub enum ProxyAction {
    /// Pass the frame through byte for byte.
    Forward,
    /// Substitute a different message (re-framed with a valid CRC).
    Replace(Message),
    /// Silently drop the message (models record removal / truncation).
    Drop,
    /// Close the connection cleanly instead of forwarding the frame — the
    /// client sees EOF at a frame boundary (a resumable interruption).
    Cut,
    /// Forward a seeded non-empty proper prefix of the frame, then close —
    /// the client sees a torn frame (`Truncated`).
    CutMidFrame {
        /// Picks the prefix length.
        seed: u64,
    },
    /// Flip one seeded bit of the frame (header or payload) without fixing
    /// the CRC — line noise, caught as `BadCrc`/`Oversized`.
    BitFlip {
        /// Picks the bit.
        seed: u64,
    },
    /// Sleep this long, then forward the frame — stalls a client whose
    /// read timeout is shorter.
    Stall(Duration),
    /// Drop both directions abruptly instead of forwarding the frame,
    /// without the courtesy of draining or half-close.
    Reset,
}

/// The mutator: called with the server→client frame index (0-based,
/// counting every frame of the connection including HELLO/OFFER) and the
/// decoded message. A frame that does not decode is forwarded as is
/// without a call, but still takes its index.
pub type Mutator = Box<dyn FnMut(u64, &Message) -> ProxyAction + Send>;

/// The mutator that applies `action` at server→client frame `frame` and
/// forwards everything else. With `once` the action is applied on the
/// first connection that reaches the frame and every later connection is
/// relayed verbatim, so a retrying client recovers — the shape of a
/// transient network failure. Without it the action hits every connection.
pub fn at_frame(frame: u64, action: ProxyAction, once: bool) -> Mutator {
    let mut spent = false;
    Box::new(move |index, _| {
        if index != frame || spent {
            return ProxyAction::Forward;
        }
        spent = once;
        action.clone()
    })
}

/// SplitMix64 — the same tiny deterministic generator `FaultVfs` uses, so
/// net and storage chaos schedules are seeded the same way.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A proxy's shutdown flag, applied-action count and the sockets of the
/// relay in progress, shared between the accept thread and the handle. A
/// [`Client`] keeps its connection, so a relay lasts as long as the client
/// does; stopping the proxy must cut it rather than wait out the client
/// (or the server's idle timeout).
///
/// [`Client`]: crate::Client
#[derive(Default)]
struct RelayGate {
    stopping: AtomicBool,
    fired: AtomicU64,
    live: Mutex<Vec<TcpStream>>,
}

impl RelayGate {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// The registered sockets; a relay thread that panicked mid-update
    /// must not wedge shutdown, and a list of sockets is valid at any point.
    fn live(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers both ends of the relay about to run. A stop that raced
    /// ahead of the registration is honoured here, so one side or the
    /// other always cuts the sockets.
    fn enter(&self, client: &TcpStream, server: &TcpStream) -> io::Result<()> {
        let ends = vec![client.try_clone()?, server.try_clone()?];
        *self.live() = ends;
        if self.stopping() {
            self.cut();
        }
        Ok(())
    }

    /// Forgets the finished relay's sockets.
    fn leave(&self) {
        self.live().clear();
    }

    /// Stops the accept loop and cuts the relay in progress, if any.
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.cut();
    }

    fn cut(&self) {
        for s in self.live().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// A running man-in-the-middle proxy; dropping it stops the listener, cuts
/// the relay in progress and joins the accept thread.
pub struct TamperProxy {
    addr: SocketAddr,
    gate: Arc<RelayGate>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TamperProxy {
    /// Spawns a proxy on an ephemeral localhost port relaying to
    /// `upstream`. Connections are handled one at a time (attack and fault
    /// tests are sequential by nature): a client that keeps its connection
    /// holds the relay until it disconnects or is dropped, and a second
    /// client is not served before then. The mutator's frame index is per
    /// connection, so it restarts at 0 only when a client dials again.
    /// Shutting the proxy down cuts the relay in progress.
    pub fn spawn(upstream: SocketAddr, mut mutator: Mutator) -> io::Result<TamperProxy> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let gate = Arc::new(RelayGate::default());
        let shared = Arc::clone(&gate);
        let accept_thread = thread::spawn(move || {
            while !shared.stopping() {
                match listener.accept() {
                    Ok((client, _)) => {
                        let _ = relay(client, upstream, &shared, &mut mutator);
                        shared.leave();
                    }
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Ok(TamperProxy {
            addr,
            gate,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many actions other than [`ProxyAction::Forward`] the proxy has
    /// applied so far, over every connection.
    pub fn fired(&self) -> u64 {
        self.gate.fired.load(Ordering::SeqCst)
    }

    /// Stops the listener, cuts the relay in progress, and joins the
    /// accept thread — which is what dropping the proxy does.
    pub fn shutdown(self) {}
}

impl Drop for TamperProxy {
    fn drop(&mut self) {
        self.gate.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Relays one client connection: the uplink on its own thread, the downlink
/// on this one. Errors (peer hangups, timeouts) are part of normal test
/// operation and end that connection only.
fn relay(
    client: TcpStream,
    upstream: SocketAddr,
    gate: &RelayGate,
    mutator: &mut Mutator,
) -> io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    gate.enter(&client, &server)?;
    client.set_read_timeout(Some(Duration::from_secs(10)))?;
    server.set_read_timeout(Some(Duration::from_secs(10)))?;

    // Client→server: verbatim byte copy on its own thread.
    let mut c2s_src = client.try_clone()?;
    let mut c2s_dst = server.try_clone()?;
    let uplink = thread::spawn(move || {
        let mut buf = [0u8; 4096];
        loop {
            match c2s_src.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if c2s_dst.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = c2s_dst.shutdown(Shutdown::Write);
    });

    let _ = downlink(&server, &client, mutator, &gate.fired);
    let _ = client.shutdown(Shutdown::Write);
    let _ = uplink.join();
    Ok(())
}

/// The server→client leg of one relayed connection. Each frame is read raw
/// through the shared header check, so the relay always knows where the
/// boundaries are, and a frame the mutator forwards reaches the client
/// byte for byte. Returns when either side is done or an action ends the
/// connection.
fn downlink(
    server: &TcpStream,
    client: &TcpStream,
    mutator: &mut Mutator,
    fired: &AtomicU64,
) -> Result<(), WireError> {
    let mut src = BufReader::new(server.try_clone()?);
    let mut dst = client.try_clone()?;
    let mut bytes = Vec::new();
    for index in 0u64.. {
        let mut header = [0u8; FRAME_HEADER_LEN];
        if let ReadOutcome::Eof = read_exact_or_eof(&mut src, &mut header)? {
            break;
        }
        let (len, crc) = frame_header(header)?;
        bytes.clear();
        bytes.extend_from_slice(&header);
        bytes.resize(FRAME_HEADER_LEN + len, 0);
        src.read_exact(&mut bytes[FRAME_HEADER_LEN..])?;
        let payload = &bytes[FRAME_HEADER_LEN..];
        let action = match check_frame_crc(crc, payload).and_then(|()| decode_message(payload)) {
            Ok(msg) => mutator(index, &msg),
            Err(_) => ProxyAction::Forward,
        };
        if !matches!(action, ProxyAction::Forward) {
            fired.fetch_add(1, Ordering::SeqCst);
        }
        match action {
            ProxyAction::Forward => {}
            ProxyAction::Replace(msg) => {
                bytes.clear();
                frame_message_into(&msg, &mut bytes);
            }
            ProxyAction::Drop => continue,
            ProxyAction::BitFlip { mut seed } => {
                let bit = splitmix64(&mut seed) as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            ProxyAction::Stall(pause) => thread::sleep(pause),
            ProxyAction::Cut => return Ok(client.shutdown(Shutdown::Both)?),
            ProxyAction::CutMidFrame { mut seed } => {
                // A non-empty proper prefix: at least the first byte, never
                // the whole frame.
                let keep = 1 + splitmix64(&mut seed) as usize % (bytes.len() - 1);
                dst.write_all(&bytes[..keep])?;
                return Ok(client.shutdown(Shutdown::Both)?);
            }
            ProxyAction::Reset => {
                let _ = client.shutdown(Shutdown::Both);
                return Ok(server.shutdown(Shutdown::Both)?);
            }
        }
        dst.write_all(&bytes)?;
    }
    Ok(())
}
