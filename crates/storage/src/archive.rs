//! Checkpoint-anchored log compaction and cold archive segments.
//!
//! Append-only provenance logs grow without bound. Once a sealed
//! checkpoint attests the chain heads (see `tep_core::checkpoint`), every
//! frame *before* the checkpoint watermark can be excised from the live
//! log: R2/R3 continuity is then verified *through* the checkpoint instead
//! of the excised records. Nothing acknowledged is ever deleted — excised
//! frames move to a cold, CRC-framed **archive segment**, and the live log
//! is atomically rewritten with a leading **compaction stamp** that records
//! exactly what was removed and under which checkpoint's authority.
//!
//! On-disk shapes (both reuse the [`AppendLog`] frame format, so they get
//! torn-write recovery and quarantine for free):
//!
//! ```text
//! live log   := log-header stamp-frame record-frame*
//! stamp      := "TEPSTMP\x01" generation(u64) excised_frames(u64)
//!               excised_bytes(u64) watermark(u64) ckpt_digest(len-prefixed)
//! archive    := log-header archive-header-frame excised-record-frame*
//! arch-hdr   := "TEPARCH\x01" generation(u64) watermark(u64)
//!               ckpt_digest(len-prefixed)
//! ```
//!
//! Crash safety (every step runs under the [`Vfs`] fault injector in
//! `tests/compaction_crash.rs`):
//!
//! 1. the archive segment is written and fsynced **first** — no frame is
//!    ever dropped from the live log without a durable cold copy;
//! 2. the new live log (stamp + kept frames) is built at a unique temp
//!    sibling, fsynced, then renamed over the original — the rename is the
//!    single commit point;
//! 3. a crash before the rename leaves the original log byte-intact (the
//!    half-written archive for that generation is an uncommitted orphan and
//!    is removed on retry); a crash after the rename is a completed
//!    compaction.
//!
//! The stamp's `excised_*` totals are **cumulative across generations**, so
//! the verifier can reconstruct the full append-position space without
//! reading any archive.

use crate::log::{AppendLog, LogError, FRAME_HEADER_LEN};
use crate::provenance_db::self_contained_frames;
use crate::vfs::Vfs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tep_model::encode::{DecodeError, Reader};

const STAMP_MAGIC: &[u8; 8] = b"TEPSTMP\x01";
const ARCHIVE_MAGIC: &[u8; 8] = b"TEPARCH\x01";

/// The leading frame of a compacted live log: what was excised, and under
/// which sealed checkpoint's authority.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionStamp {
    /// How many compactions this log has undergone (1-based).
    pub generation: u64,
    /// Total record frames excised across **all** generations.
    pub excised_frames: u64,
    /// Total live-log bytes (frame header + payload) excised across all
    /// generations.
    pub excised_bytes: u64,
    /// The checkpoint watermark (cumulative append position) this
    /// compaction truncated up to.
    pub watermark: u64,
    /// Digest of the sealed checkpoint that authorizes the excision.
    pub checkpoint_digest: Vec<u8>,
}

impl CompactionStamp {
    /// Canonical frame encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.checkpoint_digest.len());
        out.extend_from_slice(STAMP_MAGIC);
        out.extend_from_slice(&self.generation.to_be_bytes());
        out.extend_from_slice(&self.excised_frames.to_be_bytes());
        out.extend_from_slice(&self.excised_bytes.to_be_bytes());
        out.extend_from_slice(&self.watermark.to_be_bytes());
        out.extend_from_slice(&(self.checkpoint_digest.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.checkpoint_digest);
        out
    }

    /// Decodes a stamp frame; fails fast on anything without the magic.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        if r.bytes(8)? != STAMP_MAGIC {
            return Err(DecodeError::UnexpectedEof);
        }
        let generation = r.u64()?;
        let excised_frames = r.u64()?;
        let excised_bytes = r.u64()?;
        let watermark = r.u64()?;
        let checkpoint_digest = r.len_prefixed()?.to_vec();
        r.expect_end()?;
        Ok(CompactionStamp {
            generation,
            excised_frames,
            excised_bytes,
            watermark,
            checkpoint_digest,
        })
    }
}

/// A cold archive segment read back from disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchiveSegment {
    /// The compaction generation that produced this segment.
    pub generation: u64,
    /// The checkpoint watermark the segment was truncated up to.
    pub watermark: u64,
    /// Digest of the authorizing sealed checkpoint.
    pub checkpoint_digest: Vec<u8>,
    /// The excised record frames, in original append order.
    pub payloads: Vec<Vec<u8>>,
}

/// Outcome of one [`compact_durable_log`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// Record frames kept in the live log.
    pub kept_frames: u64,
    /// Record frames excised by **this** run.
    pub excised_frames: u64,
    /// Live-log bytes excised by this run.
    pub excised_bytes: u64,
    /// Live-log size before / after, in bytes.
    pub bytes_before: u64,
    /// Live-log size after the rewrite, in bytes.
    pub bytes_after: u64,
    /// Where the excised frames went (absent when nothing was excised).
    pub archive_path: Option<PathBuf>,
    /// The stamp now leading the live log (cumulative totals).
    pub stamp: CompactionStamp,
}

impl CompactionReport {
    /// Live-log shrink factor (`bytes_before / bytes_after`).
    pub fn ratio(&self) -> f64 {
        self.bytes_before as f64 / self.bytes_after.max(1) as f64
    }
}

/// The archive segment path for compaction `generation` of `path`.
pub fn archive_path_for(path: &Path, generation: u64) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".archive.{generation}"));
    PathBuf::from(os)
}

/// Reads a cold archive segment back (header frame + excised frames).
pub fn read_archive(vfs: Arc<dyn Vfs>, path: &Path) -> Result<ArchiveSegment, LogError> {
    let rec = AppendLog::open_with(vfs, path)?;
    let Some(header) = rec.payloads.first() else {
        return Err(LogError::BadHeader);
    };
    let mut r = Reader::new(header);
    let parsed = (|| -> Result<(u64, u64, Vec<u8>), DecodeError> {
        if r.bytes(8)? != ARCHIVE_MAGIC {
            return Err(DecodeError::UnexpectedEof);
        }
        let generation = r.u64()?;
        let watermark = r.u64()?;
        let digest = r.len_prefixed()?.to_vec();
        r.expect_end()?;
        Ok((generation, watermark, digest))
    })();
    let (generation, watermark, checkpoint_digest) = parsed.map_err(|_| LogError::BadHeader)?;
    Ok(ArchiveSegment {
        generation,
        watermark,
        checkpoint_digest,
        payloads: rec.payloads[1..].to_vec(),
    })
}

fn archive_header(generation: u64, watermark: u64, checkpoint_digest: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + checkpoint_digest.len());
    out.extend_from_slice(ARCHIVE_MAGIC);
    out.extend_from_slice(&generation.to_be_bytes());
    out.extend_from_slice(&watermark.to_be_bytes());
    out.extend_from_slice(&(checkpoint_digest.len() as u64).to_be_bytes());
    out.extend_from_slice(checkpoint_digest);
    out
}

/// Compacts the durable log at `path`: record frames failing `keep` move to
/// a cold archive segment, the survivors are rewritten behind a cumulative
/// [`CompactionStamp`], and the swap commits atomically via rename.
///
/// `keep` is called with each record frame's index **within the current
/// live log** (the leading stamp, if any, is not counted) and its payload;
/// the cumulative append position is `stamp.excised_frames + index`. The
/// log must be closed — callers reopen (e.g. via `ProvenanceDb::durable`)
/// after compaction.
///
/// When `keep` keeps everything the log is left untouched (same
/// generation, no archive, no rewrite).
pub fn compact_durable_log(
    vfs: Arc<dyn Vfs>,
    path: &Path,
    mut keep: impl FnMut(usize, &[u8]) -> bool,
    watermark: u64,
    checkpoint_digest: &[u8],
) -> Result<CompactionReport, LogError> {
    let recovered = AppendLog::open_with(Arc::clone(&vfs), path)?;
    let bytes_before = recovered.log.len_bytes();
    drop(recovered.log);

    // A compacted log leads with its stamp; carry the totals forward.
    let prior = recovered
        .payloads
        .first()
        .and_then(|p| CompactionStamp::from_bytes(p).ok());
    let records = &recovered.payloads[if prior.is_some() { 1 } else { 0 }..];

    // Compaction moves frames out of their log context, so every record it
    // rewrites — kept or archived — leaves self-contained: a signature-
    // elided frame must not outlive the frame that carried its signature.
    let mut kept: Vec<Vec<u8>> = Vec::new();
    let mut excised: Vec<Vec<u8>> = Vec::new();
    let mut run_bytes = 0u64;
    for (i, (raw, payload)) in records
        .iter()
        .zip(self_contained_frames(records))
        .enumerate()
    {
        if keep(i, &payload) {
            kept.push(payload);
        } else {
            run_bytes += (FRAME_HEADER_LEN + raw.len()) as u64;
            excised.push(payload);
        }
    }

    let (prior_gen, prior_frames, prior_bytes) = prior
        .as_ref()
        .map(|s| (s.generation, s.excised_frames, s.excised_bytes))
        .unwrap_or((0, 0, 0));

    if excised.is_empty() {
        let stamp = prior.unwrap_or(CompactionStamp {
            generation: prior_gen,
            excised_frames: 0,
            excised_bytes: 0,
            watermark,
            checkpoint_digest: checkpoint_digest.to_vec(),
        });
        return Ok(CompactionReport {
            kept_frames: kept.len() as u64,
            excised_frames: 0,
            excised_bytes: 0,
            bytes_before,
            bytes_after: bytes_before,
            archive_path: None,
            stamp,
        });
    }

    let generation = prior_gen + 1;
    let stamp = CompactionStamp {
        generation,
        excised_frames: prior_frames + excised.len() as u64,
        excised_bytes: prior_bytes + run_bytes,
        watermark,
        checkpoint_digest: checkpoint_digest.to_vec(),
    };

    // Step 1: durable cold copy. An existing file at this generation's path
    // can only be the orphan of a crashed attempt (the commit point is the
    // live-log rename, and a committed log's stamp already counts past this
    // generation) — remove and rewrite it.
    let apath = archive_path_for(path, generation);
    if vfs.exists(&apath) {
        vfs.remove_file(&apath)?;
    }
    let mut archive = AppendLog::create_with(Arc::clone(&vfs), &apath)?;
    archive.append(&archive_header(generation, watermark, checkpoint_digest))?;
    for p in &excised {
        archive.append(p)?;
    }
    archive.sync()?;
    drop(archive);
    vfs.sync_parent_dir(&apath)?;

    // Step 2: rewrite the live log behind the new stamp; rename commits.
    let mut frames = Vec::with_capacity(1 + kept.len());
    frames.push(stamp.to_bytes());
    frames.extend(kept.iter().cloned());
    AppendLog::rewrite_atomically(&vfs, path, &frames)?;

    let bytes_after = crate::log::HEADER_LEN
        + frames
            .iter()
            .map(|p| (FRAME_HEADER_LEN + p.len()) as u64)
            .sum::<u64>();
    Ok(CompactionReport {
        kept_frames: kept.len() as u64,
        excised_frames: excised.len() as u64,
        excised_bytes: run_bytes,
        bytes_before,
        bytes_after,
        archive_path: Some(apath),
        stamp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultConfig, FaultVfs};

    fn frame(i: u8) -> Vec<u8> {
        vec![i; 64]
    }

    fn seeded_log(vfs: &Arc<dyn Vfs>, path: &Path, n: u8) {
        let mut log = AppendLog::create_with(Arc::clone(vfs), path).unwrap();
        for i in 0..n {
            log.append(&frame(i)).unwrap();
        }
        log.sync().unwrap();
    }

    #[test]
    fn stamp_roundtrip_and_magic_guard() {
        let stamp = CompactionStamp {
            generation: 3,
            excised_frames: 120,
            excised_bytes: 9000,
            watermark: 150,
            checkpoint_digest: vec![0xAB; 32],
        };
        let bytes = stamp.to_bytes();
        assert_eq!(CompactionStamp::from_bytes(&bytes).unwrap(), stamp);
        assert!(CompactionStamp::from_bytes(b"TEPLOG\x00\x01whatever").is_err());
        assert!(CompactionStamp::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn compaction_moves_frames_to_archive_and_stamps_log() {
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        let path = Path::new("/log");
        seeded_log(&vfs, path, 10);

        let report =
            compact_durable_log(Arc::clone(&vfs), path, |i, _| i >= 6, 6, b"ckpt-digest").unwrap();
        assert_eq!(report.kept_frames, 4);
        assert_eq!(report.excised_frames, 6);
        assert!(report.bytes_after < report.bytes_before);
        assert!(report.ratio() > 1.0);
        assert_eq!(report.stamp.generation, 1);
        assert_eq!(report.stamp.excised_frames, 6);
        assert_eq!(report.stamp.watermark, 6);

        // Live log: stamp frame + the four survivors.
        let rec = AppendLog::open_with(Arc::clone(&vfs), path).unwrap();
        assert_eq!(rec.payloads.len(), 5);
        let stamp = CompactionStamp::from_bytes(&rec.payloads[0]).unwrap();
        assert_eq!(stamp, report.stamp);
        assert_eq!(rec.payloads[1], frame(6));
        drop(rec);

        // Archive: header + the six excised frames, in order.
        let seg = read_archive(Arc::clone(&vfs), report.archive_path.as_deref().unwrap()).unwrap();
        assert_eq!(seg.generation, 1);
        assert_eq!(seg.watermark, 6);
        assert_eq!(seg.checkpoint_digest, b"ckpt-digest");
        assert_eq!(seg.payloads.len(), 6);
        assert_eq!(seg.payloads[0], frame(0));
        assert_eq!(seg.payloads[5], frame(5));
    }

    #[test]
    fn repeated_compaction_accumulates_stamp_totals() {
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        let path = Path::new("/log");
        seeded_log(&vfs, path, 8);

        let r1 = compact_durable_log(Arc::clone(&vfs), path, |i, _| i >= 3, 3, b"c1").unwrap();
        assert_eq!(r1.stamp.excised_frames, 3);

        // Indices in the second run are relative to the compacted log:
        // cumulative position = stamp.excised_frames + index.
        let r2 = compact_durable_log(
            Arc::clone(&vfs),
            path,
            |i, _| r1.stamp.excised_frames + i as u64 >= 6,
            6,
            b"c2",
        )
        .unwrap();
        assert_eq!(r2.stamp.generation, 2);
        assert_eq!(r2.stamp.excised_frames, 6);
        assert_eq!(r2.excised_frames, 3);
        assert_eq!(r2.kept_frames, 2);

        // Both archive segments survive with their own authority digests.
        let s1 = read_archive(Arc::clone(&vfs), &archive_path_for(path, 1)).unwrap();
        let s2 = read_archive(Arc::clone(&vfs), &archive_path_for(path, 2)).unwrap();
        assert_eq!(s1.payloads.len(), 3);
        assert_eq!(s2.payloads.len(), 3);
        assert_eq!(s2.checkpoint_digest, b"c2");
        assert_eq!(s2.payloads[0], frame(3));
    }

    #[test]
    fn keep_everything_is_a_no_op() {
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        let path = Path::new("/log");
        seeded_log(&vfs, path, 4);
        let before = AppendLog::open_with(Arc::clone(&vfs), path)
            .unwrap()
            .payloads;
        let report = compact_durable_log(Arc::clone(&vfs), path, |_, _| true, 0, b"c").unwrap();
        assert_eq!(report.excised_frames, 0);
        assert!(report.archive_path.is_none());
        assert_eq!(report.stamp.generation, 0);
        let after = AppendLog::open_with(Arc::clone(&vfs), path)
            .unwrap()
            .payloads;
        assert_eq!(before, after);
    }

    #[test]
    fn no_excised_frame_is_ever_lost() {
        // Every frame is afterwards readable from live log ∪ archives.
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        let path = Path::new("/log");
        seeded_log(&vfs, path, 12);
        compact_durable_log(Arc::clone(&vfs), path, |i, _| i >= 5, 5, b"c1").unwrap();
        let r2 = compact_durable_log(Arc::clone(&vfs), path, |i, _| 5 + i as u64 >= 9, 9, b"c2")
            .unwrap();

        let mut all: Vec<Vec<u8>> = Vec::new();
        for g in 1..=r2.stamp.generation {
            all.extend(
                read_archive(Arc::clone(&vfs), &archive_path_for(path, g))
                    .unwrap()
                    .payloads,
            );
        }
        let rec = AppendLog::open_with(Arc::clone(&vfs), path).unwrap();
        all.extend(rec.payloads[1..].iter().cloned());
        let expect: Vec<Vec<u8>> = (0..12u8).map(frame).collect();
        assert_eq!(all, expect);
    }
}
