//! Seeded chaos schedules for the transport fault harness.
//!
//! The network soak test needs the same property the crash-consistency
//! harness has: a *deterministic*, seed-driven enumeration of fault points,
//! so a failing run can be replayed exactly and CI can sweep a seed
//! matrix. This module is transport-agnostic — it describes *what* to
//! break ([`WireFault`]) and *where* ([`ChaosPoint::frame`]) without
//! depending on tep-net; the harness maps each point onto its own
//! injection mechanism.
//!
//! The sweep seed comes from `TEP_CHAOS_SEED` (defaulting to the full
//! `{1, 2009, 31337}` matrix, the same seeds the storage harness uses).

/// SplitMix64 — the workspace's standard tiny deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The default chaos seed matrix (shared with the crash harness in CI).
pub(crate) const DEFAULT_CHAOS_SEEDS: [u64; 3] = [1, 2009, 31337];

/// Seeds to sweep: the value of env var `var` if set and parseable as one
/// `u64`, otherwise the full `DEFAULT_CHAOS_SEEDS` matrix.
pub fn seeds_from_env(var: &str) -> Vec<u64> {
    match std::env::var(var).ok().and_then(|s| s.parse().ok()) {
        Some(one) => vec![one],
        None => DEFAULT_CHAOS_SEEDS.to_vec(),
    }
}

/// A transport-agnostic wire fault: what the chaos harness should do to
/// the stream at its scheduled point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Close the stream cleanly at a frame boundary.
    CutBoundary,
    /// Close the stream inside a frame (torn frame).
    CutMidFrame,
    /// Flip one bit of a frame without fixing its checksum.
    BitFlip,
    /// Stall longer than the receiver's read timeout.
    Stall,
    /// Drop the connection abruptly, both directions.
    Reset,
}

impl WireFault {
    /// Every fault kind, in schedule order.
    pub const ALL: [WireFault; 5] = [
        WireFault::CutBoundary,
        WireFault::CutMidFrame,
        WireFault::BitFlip,
        WireFault::Stall,
        WireFault::Reset,
    ];
}

/// One scheduled fault: fire `fault` at downstream frame `frame`, seeding
/// the fault's own randomness (torn prefix length, bit position) from
/// `seed`.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPoint {
    /// What to break.
    pub fault: WireFault,
    /// The 0-based downstream frame index to break at.
    pub frame: u64,
    /// Sub-seed for the fault's internal choices — derived from the sweep
    /// seed, the kind, and the frame, so every point is independently
    /// deterministic.
    pub seed: u64,
}

/// The schedule for one sweep seed over a transfer of `frames` downstream
/// frames: cheap faults (cuts, flips, resets) at **every** frame boundary
/// — full coverage, like the crash harness's crash-at-every-op — and
/// expensive faults (stalls, which burn real wall-clock) at `stall_points`
/// seeded frames.
pub fn schedule(seed: u64, frames: u64, stall_points: usize) -> Vec<ChaosPoint> {
    let mut out = Vec::new();
    for (k, &fault) in WireFault::ALL.iter().enumerate() {
        let frames_for_kind: Vec<u64> = if fault == WireFault::Stall {
            let mut rng = seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            let mut picked: Vec<u64> = (0..stall_points.min(frames as usize))
                .map(|_| splitmix64(&mut rng) % frames.max(1))
                .collect();
            picked.sort_unstable();
            picked.dedup();
            picked
        } else {
            (0..frames).collect()
        };
        for frame in frames_for_kind {
            let mut rng = seed ^ (k as u64) << 32 ^ frame;
            out.push(ChaosPoint {
                fault,
                frame,
                seed: splitmix64(&mut rng),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(2009, 12, 2);
        let b = schedule(2009, 12, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.frame, y.frame);
            assert_eq!(x.seed, y.seed);
        }
        let c = schedule(31337, 12, 2);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.seed != y.seed),
            "different sweep seeds must give different sub-seeds"
        );
    }

    #[test]
    fn cheap_faults_cover_every_frame() {
        let frames = 9u64;
        let sched = schedule(1, frames, 2);
        for fault in [
            WireFault::CutBoundary,
            WireFault::CutMidFrame,
            WireFault::BitFlip,
            WireFault::Reset,
        ] {
            let covered: Vec<u64> = sched
                .iter()
                .filter(|p| p.fault == fault)
                .map(|p| p.frame)
                .collect();
            assert_eq!(covered, (0..frames).collect::<Vec<_>>(), "{fault:?}");
        }
        let stalls = sched.iter().filter(|p| p.fault == WireFault::Stall).count();
        assert!((1..=2).contains(&stalls));
    }

    #[test]
    fn env_seed_overrides_the_matrix() {
        // Not set: full matrix.
        assert_eq!(
            seeds_from_env("TEP_CHAOS_SEED_DEFINITELY_UNSET"),
            DEFAULT_CHAOS_SEEDS.to_vec()
        );
    }
}
