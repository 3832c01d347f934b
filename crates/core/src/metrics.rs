//! Phase-level timing and space metrics.
//!
//! The paper's figures decompose checksum overhead into *hashing trees*,
//! *encrypting* (signing), and *inserting checksums* (Fig. 10's caption
//! names exactly these phases). Every tracked operation reports a
//! [`Metrics`] with that breakdown so the bench harness can regenerate the
//! figures without instrumenting the library from outside.
//!
//! [`TransferCounters`] extends the same philosophy to provenance
//! *exchange*: lock-free per-connection counters (frames, bytes, verify
//! failures, retries) that the `tep-net` transport increments on its hot
//! path and the bench harness snapshots to report transfer throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tep_obs::{names, Counter, Registry};

/// Timing/space breakdown of one or more tracked operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Time spent hashing the *input* trees (pre-state walk / cache warm-up).
    pub hash_input_ns: u64,
    /// Time spent hashing the *output* trees (post-state recompute) — the
    /// quantity Figure 7 plots for Basic vs Economical.
    pub hash_output_ns: u64,
    /// Time spent producing signatures ("encrypting" in the paper).
    pub sign_ns: u64,
    /// Time spent appending checksum rows to the provenance store.
    pub store_ns: u64,
    /// Provenance records emitted (actual + inherited).
    pub records: u64,
    /// Nodes whose subtree hash was (re)computed.
    pub nodes_hashed: u64,
    /// Bytes of paper-layout checksum rows written
    /// (`SeqID + Participant + Oid + checksum` per record).
    pub row_bytes: u64,
}

impl Metrics {
    /// Total hashing time (input + output walks).
    pub fn hash_ns(&self) -> u64 {
        self.hash_input_ns + self.hash_output_ns
    }

    /// Total measured time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.hash_ns() + self.sign_ns + self.store_ns
    }

    /// Total time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns())
    }

    /// Accumulates another metrics value into this one.
    pub fn accumulate(&mut self, other: &Metrics) {
        self.hash_input_ns += other.hash_input_ns;
        self.hash_output_ns += other.hash_output_ns;
        self.sign_ns += other.sign_ns;
        self.store_ns += other.store_ns;
        self.records += other.records;
        self.nodes_hashed += other.nodes_hashed;
        self.row_bytes += other.row_bytes;
    }
}

/// Lock-free counters for one provenance transfer endpoint (a connection,
/// a client session, or a whole server — callers pick the granularity and
/// may share one instance across threads behind an `Arc`).
#[derive(Debug, Default)]
pub struct TransferCounters {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    verify_failures: AtomicU64,
    retries: AtomicU64,
    conn_reuses: AtomicU64,
    stale_redials: AtomicU64,
    worker_panics: AtomicU64,
    obs: Option<TransferObs>,
}

/// Registry mirror for [`TransferCounters`]: every increment is doubled
/// into these `tep_net_*` counters so transport traffic shows up in the
/// shared metric registry alongside the crypto/core/storage metrics.
#[derive(Clone, Debug)]
struct TransferObs {
    frames_sent: Counter,
    frames_received: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    verify_failures: Counter,
    retries: Counter,
    conn_reuses: Counter,
    stale_redials: Counter,
    worker_panics: Counter,
}

impl TransferObs {
    fn new(registry: &Registry) -> Self {
        TransferObs {
            frames_sent: registry.counter("tep_net_frames_sent_total"),
            frames_received: registry.counter("tep_net_frames_received_total"),
            bytes_sent: registry.counter("tep_net_bytes_sent_total"),
            bytes_received: registry.counter("tep_net_bytes_received_total"),
            verify_failures: registry.counter("tep_net_verify_failures_total"),
            retries: registry.counter("tep_net_retries_total"),
            conn_reuses: registry.counter(names::NET_CONN_REUSES),
            stale_redials: registry.counter(names::NET_STALE_REDIALS),
            worker_panics: registry.counter("tep_net_worker_panics_total"),
        }
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
    /// Server worker iterations that panicked and were isolated (the
    /// worker recovered and kept serving).
    pub worker_panics: u64,
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
            obs: Some(TransferObs::new(registry)),
            ..Self::default()
        }
    }

    /// Records one sent frame of `bytes` total wire bytes.
    pub fn frame_sent(&self, bytes: u64) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.frames_sent.inc();
            o.bytes_sent.add(bytes);
        }
    }

    /// Records one received frame of `bytes` total wire bytes.
    pub fn frame_received(&self, bytes: u64) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.frames_received.inc();
            o.bytes_received.add(bytes);
        }
    }

    /// Records a transfer rejected by verification.
    pub fn verify_failure(&self) {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.verify_failures.inc();
        }
    }

    /// Records a retried connect/read attempt.
    pub fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.retries.inc();
        }
    }

    /// Records a request completed on a kept connection.
    pub fn conn_reuse(&self) {
        self.conn_reuses.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.conn_reuses.inc();
        }
    }

    /// Records a dead kept connection replaced by an immediate dial.
    pub fn stale_redial(&self) {
        self.stale_redials.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.stale_redials.inc();
        }
    }

    /// Records a worker panic that was caught and isolated.
    pub fn worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.worker_panics.inc();
        }
    }

    /// Reads all counters at once.
    pub fn snapshot(&self) -> TransferSnapshot {
        TransferSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            conn_reuses: self.conn_reuses.load(Ordering::Relaxed),
            stale_redials: self.stale_redials.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
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

    #[test]
    fn totals_and_accumulation() {
        let a = Metrics {
            hash_input_ns: 4,
            hash_output_ns: 6,
            sign_ns: 20,
            store_ns: 30,
            records: 2,
            nodes_hashed: 5,
            row_bytes: 280,
        };
        assert_eq!(a.hash_ns(), 10);
        assert_eq!(a.total_ns(), 60);
        assert_eq!(a.total(), Duration::from_nanos(60));
        let mut b = Metrics::default();
        b.accumulate(&a);
        b.accumulate(&a);
        assert_eq!(b.records, 4);
        assert_eq!(b.total_ns(), 120);
        assert_eq!(b.row_bytes, 560);
    }
}
