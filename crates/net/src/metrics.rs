//! Per-endpoint transfer counters for the receiving side of an exchange.
//!
//! A [`crate::Client`] or [`crate::Replica`] keeps its own
//! [`TransferCounters`]: lock-free frame, byte, verify-failure and retry
//! counts that its [`crate::wire::FrameReader`] / `FrameWriter` increment
//! on the hot path. A client's stay readable per endpoint
//! ([`crate::Client::counters`]) even when several endpoints share one
//! metric registry. The server has no such copy; it counts straight into
//! its registry.

use std::sync::atomic::{AtomicU64, Ordering};

use tep_obs::{names, Counter, Registry};

/// Lock-free counters for one transfer endpoint (a client session or a
/// replica; share one instance across threads behind an `Arc`).
#[derive(Debug, Default)]
pub struct TransferCounters {
    frames_sent: Tally,
    frames_received: Tally,
    bytes_sent: Tally,
    bytes_received: Tally,
    verify_failures: Tally,
    retries: Tally,
    conn_reuses: Tally,
    stale_redials: Tally,
}

/// One count: the endpoint's own total, plus the registry counter every
/// increment is doubled into once the endpoint is observed.
#[derive(Debug, Default)]
struct Tally {
    own: AtomicU64,
    mirror: Option<Counter>,
}

impl Tally {
    fn mirrored(registry: &Registry, name: &str) -> Self {
        Tally {
            own: AtomicU64::new(0),
            mirror: Some(registry.counter(name)),
        }
    }

    fn add(&self, n: u64) {
        self.own.fetch_add(n, Ordering::Relaxed);
        if let Some(mirror) = &self.mirror {
            mirror.add(n);
        }
    }

    fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of a [`TransferCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferSnapshot {
    /// Wire frames written.
    pub frames_sent: u64,
    /// Wire frames read.
    pub frames_received: u64,
    /// Bytes written (frame headers + payloads).
    pub bytes_sent: u64,
    /// Bytes read (frame headers + payloads).
    pub bytes_received: u64,
    /// Transfers rejected by streaming verification.
    pub verify_failures: u64,
    /// Connect/read attempts that were retried after a failure.
    pub retries: u64,
    /// Requests completed on a connection kept from an earlier request.
    pub conn_reuses: u64,
    /// Kept connections found dead before any response frame and replaced
    /// with one immediate dial (not counted in `retries`).
    pub stale_redials: u64,
}

impl TransferCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh counters that additionally mirror every increment into
    /// `registry` under the `tep_net_*` names.
    pub fn observed(registry: &Registry) -> Self {
        TransferCounters {
            frames_sent: Tally::mirrored(registry, names::NET_FRAMES_SENT),
            frames_received: Tally::mirrored(registry, names::NET_FRAMES_RECEIVED),
            bytes_sent: Tally::mirrored(registry, names::NET_BYTES_SENT),
            bytes_received: Tally::mirrored(registry, names::NET_BYTES_RECEIVED),
            verify_failures: Tally::mirrored(registry, names::NET_VERIFY_FAILURES),
            retries: Tally::mirrored(registry, names::NET_RETRIES),
            conn_reuses: Tally::mirrored(registry, names::NET_CONN_REUSES),
            stale_redials: Tally::mirrored(registry, names::NET_STALE_REDIALS),
        }
    }

    /// Records one sent frame of `bytes` total wire bytes.
    pub fn frame_sent(&self, bytes: u64) {
        self.frames_sent.add(1);
        self.bytes_sent.add(bytes);
    }

    /// Records one received frame of `bytes` total wire bytes.
    pub fn frame_received(&self, bytes: u64) {
        self.frames_received.add(1);
        self.bytes_received.add(bytes);
    }

    /// Records a transfer rejected by verification.
    pub fn verify_failure(&self) {
        self.verify_failures.add(1);
    }

    /// Records a retried connect/read attempt.
    pub fn retry(&self) {
        self.retries.add(1);
    }

    /// Records a request completed on a kept connection.
    pub fn conn_reuse(&self) {
        self.conn_reuses.add(1);
    }

    /// Records a dead kept connection replaced by an immediate dial.
    pub fn stale_redial(&self) {
        self.stale_redials.add(1);
    }

    /// Reads all counters at once.
    pub fn snapshot(&self) -> TransferSnapshot {
        TransferSnapshot {
            frames_sent: self.frames_sent.get(),
            frames_received: self.frames_received.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            verify_failures: self.verify_failures.get(),
            retries: self.retries.get(),
            conn_reuses: self.conn_reuses.get(),
            stale_redials: self.stale_redials.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_counters_accumulate() {
        let c = TransferCounters::new();
        c.frame_sent(100);
        c.frame_sent(28);
        c.frame_received(64);
        c.verify_failure();
        c.retry();
        c.retry();
        let snap = c.snapshot();
        assert_eq!(snap.frames_sent, 2);
        assert_eq!(snap.bytes_sent, 128);
        assert_eq!(snap.frames_received, 1);
        assert_eq!(snap.bytes_received, 64);
        assert_eq!(snap.verify_failures, 1);
        assert_eq!(snap.retries, 2);
    }

    #[test]
    fn transfer_counters_are_thread_safe() {
        use std::sync::Arc;
        let c = Arc::new(TransferCounters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.frame_sent(8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.frames_sent, 4000);
        assert_eq!(snap.bytes_sent, 32_000);
    }
}
