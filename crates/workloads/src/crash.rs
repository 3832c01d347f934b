//! Recorded workloads for the crash-consistency harness.
//!
//! A crash workload is a deterministic, seeded sequence of append-log
//! operations ([`CrashOp`]) that the harness in
//! `crates/storage/tests/crash_consistency.rs` replays against a
//! fault-injected filesystem, crashing at every write/sync boundary and
//! asserting the durability contract. Payload sizes are deliberately
//! varied (empty, tiny, multi-KiB) so torn writes land in frame headers,
//! payload bodies, and across frame boundaries.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tep_model::{ObjectId, ParticipantId};
use tep_storage::StoredRecord;

/// One step of a recorded append-log workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashOp {
    /// Append one frame with this payload.
    Append(Vec<u8>),
    /// Flush and fsync; every append before this point is acknowledged
    /// durable once it returns.
    Sync,
}

/// A deterministic append/sync schedule for crash testing.
#[derive(Clone, Debug)]
pub struct CrashWorkload {
    /// The operations, in replay order.
    pub ops: Vec<CrashOp>,
}

impl CrashWorkload {
    /// A workload of `appends` raw frames with varied payload sizes and a
    /// seeded scattering of syncs (always ending with one, so the whole
    /// workload is acknowledged if no fault fires).
    pub fn frames(seed: u64, appends: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(appends + appends / 2 + 1);
        for i in 0..appends {
            let len = match rng.gen_range(0..5u8) {
                0 => 0,
                1 => rng.gen_range(1..16),
                2 => rng.gen_range(16..256),
                3 => rng.gen_range(256..2048),
                _ => rng.gen_range(2048..8192),
            };
            let mut payload = vec![0u8; len];
            rng.fill_bytes(payload.as_mut_slice());
            // Stamp the index so recovered payloads are identifiable even
            // when two random bodies collide.
            if payload.len() >= 8 {
                payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
            }
            ops.push(CrashOp::Append(payload));
            if rng.gen_bool(0.3) {
                ops.push(CrashOp::Sync);
            }
        }
        ops.push(CrashOp::Sync);
        CrashWorkload { ops }
    }

    /// A workload whose payloads are canonical [`StoredRecord`] encodings —
    /// what a durable [`tep_storage::ProvenanceDb`] actually writes — so
    /// the harness can replay it through the store API and compare
    /// record-level recovery, not just frame bytes.
    pub fn records(seed: u64, appends: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_4EC0_11D5_0001);
        let mut ops = Vec::with_capacity(appends + appends / 2 + 1);
        for seq in 0..appends as u64 {
            let record = StoredRecord {
                seq_id: seq,
                participant: ParticipantId(rng.gen_range(1..8)),
                oid: ObjectId(rng.gen_range(1..32)),
                checksum: {
                    let mut c = vec![0u8; 128];
                    rng.fill_bytes(c.as_mut_slice());
                    c
                },
                payload: {
                    let mut p = vec![0u8; rng.gen_range(0..512)];
                    rng.fill_bytes(p.as_mut_slice());
                    p
                },
            };
            ops.push(CrashOp::Append(record.to_bytes()));
            if rng.gen_bool(0.25) {
                ops.push(CrashOp::Sync);
            }
        }
        ops.push(CrashOp::Sync);
        CrashWorkload { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_per_seed() {
        assert_eq!(
            CrashWorkload::frames(7, 40).ops,
            CrashWorkload::frames(7, 40).ops
        );
        assert_ne!(
            CrashWorkload::frames(7, 40).ops,
            CrashWorkload::frames(8, 40).ops
        );
        assert_eq!(
            CrashWorkload::records(7, 40).ops,
            CrashWorkload::records(7, 40).ops
        );
    }

    fn appends(w: &CrashWorkload) -> usize {
        w.ops
            .iter()
            .filter(|op| matches!(op, CrashOp::Append(_)))
            .count()
    }

    #[test]
    fn workload_ends_with_sync_and_counts_appends() {
        let w = CrashWorkload::frames(1, 25);
        assert_eq!(appends(&w), 25);
        assert_eq!(w.ops.last(), Some(&CrashOp::Sync));

        let r = CrashWorkload::records(1, 25);
        assert_eq!(appends(&r), 25);
        // Record payloads decode back to records.
        for op in &r.ops {
            if let CrashOp::Append(bytes) = op {
                assert!(StoredRecord::from_bytes(bytes).is_ok());
            }
        }
    }

    #[test]
    fn frame_workload_varies_payload_sizes() {
        let w = CrashWorkload::frames(2009, 200);
        let sizes: Vec<usize> = w
            .ops
            .iter()
            .filter_map(|op| match op {
                CrashOp::Append(p) => Some(p.len()),
                CrashOp::Sync => None,
            })
            .collect();
        assert!(sizes.contains(&0), "no empty payloads");
        assert!(sizes.iter().any(|&s| s > 2048), "no large payloads");
    }
}
