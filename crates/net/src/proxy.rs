//! A man-in-the-middle proxy for wire-attack testing.
//!
//! [`TamperProxy`] sits between a client and a server, forwards the
//! client→server direction verbatim, and *decodes* every server→client
//! message, hands it to a mutator, and re-encodes the (possibly replaced)
//! message **with a valid frame CRC**. This models the paper's §2.2 threat:
//! the CRC is accidental-corruption protection, so a deliberate attacker
//! simply recomputes it — only the cryptographic provenance checksums stand
//! between a tampered transfer and acceptance. Tests use this to assert
//! that every [`tep_core::attack::Tamper`] applied *in flight* is caught by
//! the client's streaming verifier.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use tep_core::metrics::TransferCounters;

use crate::wire::{FrameReader, FrameWriter, Message};

/// What the mutator wants done with one server→client message.
pub enum ProxyAction {
    /// Pass the message through unchanged.
    Forward,
    /// Substitute a different message (re-framed with a valid CRC).
    Replace(Message),
    /// Silently drop the message (models record removal / truncation).
    Drop,
}

/// The mutator: called with the server→client frame index (0-based,
/// counting every message including HELLO/OFFER) and the decoded message.
pub type Mutator = Box<dyn FnMut(u64, &Message) -> ProxyAction + Send>;

/// A proxy's shutdown flag plus the sockets of the relay in progress,
/// shared between the accept thread and the handle. A [`Client`] keeps its
/// connection, so a relay lasts as long as the client does; stopping the
/// proxy must cut it rather than wait out the client (or the server's idle
/// timeout).
///
/// [`Client`]: crate::Client
#[derive(Default)]
struct RelayGate {
    stopping: AtomicBool,
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
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The relay both test proxies ([`TamperProxy`] and
/// [`FaultListener`](crate::FaultListener)) are built on: a listener on an
/// ephemeral localhost port that relays one connection at a time to an
/// upstream server — client→server verbatim, server→client however the
/// proxy's downlink decides. Dropping it stops the listener, cuts the relay
/// in progress and joins the accept thread.
pub(crate) struct Relay {
    addr: SocketAddr,
    gate: Arc<RelayGate>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Relay {
    /// Spawns the relay. `downlink(server, client)` carries the
    /// server→client leg of one connection and returns when either side is
    /// done; its errors (peer hangups, timeouts) are part of normal test
    /// operation and end that connection only.
    pub(crate) fn spawn(
        upstream: SocketAddr,
        mut downlink: impl FnMut(&TcpStream, &TcpStream) -> io::Result<()> + Send + 'static,
    ) -> io::Result<Relay> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let gate = Arc::new(RelayGate::default());
        let shared = Arc::clone(&gate);
        let accept_thread = thread::spawn(move || {
            while !shared.stopping() {
                match listener.accept() {
                    Ok((client, _)) => {
                        let _ = relay(client, upstream, &shared, &mut downlink);
                        shared.leave();
                    }
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Ok(Relay {
            addr,
            gate,
            accept_thread: Some(accept_thread),
        })
    }

    /// The listening address — point the client here.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.gate.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Relays one client connection: the uplink on its own thread, the downlink
/// on this one.
fn relay(
    client: TcpStream,
    upstream: SocketAddr,
    gate: &RelayGate,
    downlink: &mut impl FnMut(&TcpStream, &TcpStream) -> io::Result<()>,
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
        let _ = c2s_dst.shutdown(std::net::Shutdown::Write);
    });

    let _ = downlink(&server, &client);
    let _ = client.shutdown(std::net::Shutdown::Write);
    let _ = uplink.join();
    Ok(())
}

/// A running man-in-the-middle proxy; dropping it stops the listener.
pub struct TamperProxy {
    relay: Relay,
}

impl TamperProxy {
    /// Spawns a proxy on an ephemeral localhost port relaying to
    /// `upstream`. Connections are handled one at a time (attack tests are
    /// sequential by nature): a client that keeps its connection holds the
    /// relay until it disconnects or is dropped, and a second client is not
    /// served before then. The mutator's frame index is per connection, so
    /// it restarts at 0 only when a client dials again. Shutting the proxy
    /// down cuts the relay in progress.
    pub fn spawn(upstream: SocketAddr, mut mutator: Mutator) -> io::Result<TamperProxy> {
        // Server→client: decode, mutate, re-frame (fresh, valid CRC).
        let relay = Relay::spawn(upstream, move |server, client| {
            let scratch = Arc::new(TransferCounters::new());
            let mut reader = FrameReader::new(server.try_clone()?, Arc::clone(&scratch));
            let mut writer = FrameWriter::new(client.try_clone()?, scratch);
            let mut frame = 0u64;
            while let Ok(Some(msg)) = reader.read_message() {
                let action = mutator(frame, &msg);
                frame += 1;
                let result = match action {
                    ProxyAction::Forward => writer.write_message(&msg),
                    ProxyAction::Replace(replacement) => writer.write_message(&replacement),
                    ProxyAction::Drop => continue,
                };
                if result.is_err() {
                    break;
                }
            }
            Ok(())
        })?;
        Ok(TamperProxy { relay })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.relay.addr()
    }

    /// Stops the listener, cuts the relay in progress, and joins the
    /// accept thread — which is what dropping the relay does.
    pub fn shutdown(self) {}
}
