//! Raw `poll(2)` readiness polling — the only unsafe code in the crate.
//!
//! The event-loop server needs one primitive the standard library does not
//! expose: "sleep until any of these sockets is readable/writable, or a
//! tick elapses". Rather than pull in `mio`/`tokio` (the workspace is
//! std-only by design), this module declares the POSIX `poll` syscall
//! directly. The unsafe surface is exactly one `extern "C"` call, wrapped
//! in [`poll_fds`] which upholds its contract: the pointer comes from a
//! live `&mut [PollFd]`, the length matches, and `EINTR` is retried so
//! callers never observe spurious interrupt errors.
//!
//! [`PollFd`] is `#[repr(C)]`-identical to `struct pollfd` from
//! `<poll.h>`: `{ int fd; short events; short revents; }` — pinned by a
//! layout test below so a drifting definition fails loudly instead of
//! corrupting the syscall's argument memory.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// `POLLIN`: data is readable (or a peer close is pending — `read` will
/// return 0).
pub(crate) const POLLIN: i16 = 0x001;
/// `POLLOUT`: the socket can accept writes without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// `POLLERR`: an error condition (revents only; never requested).
pub(crate) const POLLERR: i16 = 0x008;
/// `POLLHUP`: the peer hung up (revents only; never requested).
pub(crate) const POLLHUP: i16 = 0x010;
/// `POLLNVAL`: the fd is not open (revents only; never requested).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One entry of the `poll(2)` interest set, layout-compatible with the C
/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT` bitmask).
    pub events: i16,
    /// Returned events, filled in by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// An interest-set entry for `fd` watching `events`.
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The kernel reported the fd readable.
    pub(crate) fn readable(&self) -> bool {
        self.revents & POLLIN != 0
    }

    /// The kernel reported the fd writable.
    pub(crate) fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// The kernel reported an error or invalid-fd condition.
    pub(crate) fn error(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }

    /// The kernel reported the peer hung up.
    pub(crate) fn hangup(&self) -> bool {
        self.revents & POLLHUP != 0
    }
}

// `nfds_t` is `unsigned long` on Linux, `unsigned int` on most BSDs.
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks until at least one fd in `fds` has a pending event or `timeout`
/// elapses; returns how many entries have nonzero `revents` (0 on
/// timeout). `EINTR` is retried internally. Timeouts longer than `i32::MAX`
/// milliseconds are clamped (about 24 days — effectively unbounded for a
/// server tick).
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as std::ffi::c_int;
    loop {
        // SAFETY: `fds` is a live, exclusively-borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the pointer and length
        // describe exactly that allocation for the duration of the call,
        // and the kernel only writes within it (the `revents` fields).
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn pollfd_layout_matches_struct_pollfd() {
        // int + short + short, no padding: the syscall reads this memory
        // as the C struct, so the layout is load-bearing.
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
        assert_eq!(std::mem::align_of::<PollFd>(), 4);
    }

    #[test]
    fn connected_socket_reports_writable() {
        let (a, _b) = socket_pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll_fds(&mut fds, Duration::from_secs(5)).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn pending_data_reports_readable() {
        let (mut a, b) = socket_pair();
        a.write_all(b"ping").expect("write");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_secs(5)).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(!fds[0].error());
    }

    #[test]
    fn idle_socket_times_out_with_zero_events() {
        let (_a, b) = socket_pair();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll_fds(&mut fds, Duration::from_millis(20)).expect("poll");
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents, 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let (a, b) = socket_pair();
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_secs(5)).expect("poll");
        assert_eq!(n, 1);
        // A closed peer is signalled as readable (read returns 0) and/or
        // HUP — either way the loop wakes and discovers the EOF.
        assert!(fds[0].readable() || fds[0].hangup());
    }

    #[test]
    fn empty_interest_set_just_sleeps() {
        let mut fds: [PollFd; 0] = [];
        let n = poll_fds(&mut fds, Duration::from_millis(5)).expect("poll");
        assert_eq!(n, 0);
    }
}
