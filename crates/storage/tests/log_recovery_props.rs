//! Property tests for append-log recovery: random truncation offsets and
//! single-bit flips at arbitrary positions.
//!
//! Invariants checked (the durability contract from DESIGN.md):
//!
//! * truncation at any offset recovers exactly the frames wholly below the
//!   cut — the synced prefix — and never reports interior corruption;
//! * a single flipped bit loses at most the frame it landed in (CRC32
//!   detects all single-bit errors, so no CRC-failing frame is ever
//!   recovered), and `open` still succeeds: a flipped tail frame is
//!   truncated, a flipped interior frame is quarantined as a gap;
//! * every recovered payload is byte-identical to the one appended.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tep_storage::crc::FRAME_HEADER_LEN;
use tep_storage::{quarantine_path, AppendLog, LogError};

const HEADER_LEN: usize = 12;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tep_log_props_{tag}_{}_{n}.teplog",
        std::process::id()
    ))
}

struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
        let _ = fs::remove_file(quarantine_path(&self.0));
    }
}

/// Writes `frames` to a fresh log at `path`; returns each frame's
/// `(start, end)` byte range in the file (header included in `start`).
fn write_log(path: &PathBuf, frames: &[Vec<u8>]) -> Vec<(usize, usize)> {
    let mut log = AppendLog::create(path).expect("create");
    let mut ranges = Vec::with_capacity(frames.len());
    let mut at = HEADER_LEN;
    for f in frames {
        log.append(f).expect("append");
        let end = at + FRAME_HEADER_LEN + f.len();
        ranges.push((at, end));
        at = end;
    }
    log.sync().expect("sync");
    ranges
}

fn frames_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncation_recovers_exactly_the_frames_below_the_cut(
        frames in frames_strategy(),
        cut_raw in any::<u64>(),
    ) {
        let path = temp_path("cut");
        let _cleanup = Cleanup(path.clone());
        let ranges = write_log(&path, &frames);
        let full = fs::metadata(&path).unwrap().len() as usize;
        let cut = (cut_raw % (full as u64 + 1)) as usize; // 0..=full

        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut as u64).unwrap();
        drop(file);

        if cut < HEADER_LEN {
            // Not even a full header: this cannot be told apart from a
            // foreign file, so `open` must refuse (while `open_or_create`
            // repairs it — covered by the unit tests).
            prop_assert!(matches!(AppendLog::open(&path), Err(LogError::BadHeader)));
            return Ok(());
        }

        let rec = AppendLog::open(&path).expect("truncation must never fail open");
        let expected: Vec<&Vec<u8>> = frames
            .iter()
            .zip(&ranges)
            .filter(|(_, (_, end))| *end <= cut)
            .map(|(f, _)| f)
            .collect();
        prop_assert_eq!(rec.payloads.len(), expected.len());
        for (got, want) in rec.payloads.iter().zip(&expected) {
            prop_assert_eq!(got, *want);
        }
        prop_assert!(rec.gaps.is_empty(), "a cut is a torn tail, never tampering");
        prop_assert_eq!(rec.quarantined_bytes, 0);
        let good_end = expected.last().map_or(HEADER_LEN, |_| ranges[expected.len() - 1].1);
        prop_assert_eq!(rec.truncated_bytes, (cut - good_end) as u64);
        drop(rec);

        // Recovery is idempotent: the second open sees a clean log.
        let rec2 = AppendLog::open(&path).expect("reopen");
        prop_assert_eq!(rec2.payloads.len(), expected.len());
        prop_assert_eq!(rec2.truncated_bytes, 0);
        prop_assert!(rec2.gaps.is_empty());
    }

    #[test]
    fn single_bit_flip_loses_at_most_the_frame_it_hit(
        frames in frames_strategy(),
        pos_raw in any::<u64>(),
        bit in 0..8u8,
    ) {
        let path = temp_path("flip");
        let _cleanup = Cleanup(path.clone());
        let ranges = write_log(&path, &frames);

        let mut bytes = fs::read(&path).unwrap();
        let pos = (pos_raw % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        fs::write(&path, &bytes).unwrap();

        if pos < 10 {
            // Magic/version damage is indistinguishable from a foreign
            // file; `open` must refuse rather than guess.
            prop_assert!(matches!(AppendLog::open(&path), Err(LogError::BadHeader)));
            return Ok(());
        }
        if pos < HEADER_LEN {
            // The reserved header field is not validated: all data intact.
            let rec = AppendLog::open(&path).expect("reserved bytes are ignored");
            prop_assert_eq!(rec.payloads.len(), frames.len());
            prop_assert!(rec.gaps.is_empty());
            return Ok(());
        }

        let hit = ranges
            .iter()
            .position(|(start, end)| (*start..*end).contains(&pos))
            .expect("every post-header byte belongs to a frame");
        let expected: Vec<&Vec<u8>> = frames
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != hit)
            .map(|(_, f)| f)
            .collect();
        let rec = AppendLog::open(&path).expect("a flipped bit must never fail open");

        // CRC32 detects every single-bit error, so the damaged frame is
        // never recovered — and only that frame is lost.
        prop_assert_eq!(rec.payloads.len(), expected.len());
        for (got, want) in rec.payloads.iter().zip(&expected) {
            prop_assert_eq!(got, *want);
        }

        let (hit_start, hit_end) = ranges[hit];
        if hit == frames.len() - 1 {
            // Tail frame: indistinguishable from a torn write — truncated,
            // not quarantined.
            prop_assert!(rec.gaps.is_empty());
            prop_assert_eq!(rec.truncated_bytes, (hit_end - hit_start) as u64);
            prop_assert_eq!(rec.quarantined_bytes, 0);
        } else {
            // Interior frame: valid data follows, so this is medium damage
            // — excised into the sidecar and reported as a gap.
            prop_assert_eq!(rec.gaps.len(), 1);
            prop_assert_eq!(rec.gaps[0].offset, hit_start as u64);
            prop_assert_eq!(rec.gaps[0].bytes, (hit_end - hit_start) as u64);
            prop_assert_eq!(rec.gaps[0].preceding_frames, hit as u64);
            prop_assert_eq!(rec.quarantined_bytes, (hit_end - hit_start) as u64);
            prop_assert!(quarantine_path(&path).exists(), "sidecar must exist");
        }
        drop(rec);

        // Second open: the damage was handled, the log is clean.
        let rec2 = AppendLog::open(&path).expect("reopen");
        prop_assert_eq!(rec2.payloads.len(), expected.len());
        prop_assert!(rec2.gaps.is_empty());
        prop_assert_eq!(rec2.truncated_bytes, 0);
    }
}
