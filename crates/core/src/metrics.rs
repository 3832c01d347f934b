//! Phase-level timing and space metrics.
//!
//! The paper's figures decompose checksum overhead into *hashing trees*,
//! *encrypting* (signing), and *inserting checksums* (Fig. 10's caption
//! names exactly these phases). Every tracked operation reports a
//! [`Metrics`] with that breakdown so the bench harness can regenerate the
//! figures without instrumenting the library from outside.

use std::time::Duration;

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

#[cfg(test)]
mod tests {
    use super::*;

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
