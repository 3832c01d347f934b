//! CRC-framed append-only log with torn-write recovery and corruption
//! quarantine.
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! file   := header frame*
//! header := magic(8) version(u16) reserved(u16)
//! frame  := len(u32) crc(u32) payload(len bytes)
//! ```
//!
//! `crc` covers the length prefix **and** the payload — covering the length
//! keeps a run of zero bytes from parsing as a valid empty frame
//! (`crc32("") == 0`), which matters for the torn-tail rescan below. On
//! open, frames are scanned forward; the first incomplete or corrupt frame
//! at the *tail* (no valid data after it) ends recovery and the file is
//! truncated back to the last good frame — the standard WAL torn-tail rule.
//!
//! Corruption *before* the tail (followed by more valid frames) means the
//! medium, not a crash, damaged the log. Failing `open` outright would turn
//! one bad sector into total data loss, so instead the log enters
//! **quarantine recovery**: each corrupt byte range is excised into a
//! `<path>.quarantine` sidecar (itself an append log, each frame prefixed
//! with the 8-byte BE original file offset), the surviving frames are
//! rewritten to a fresh file that atomically replaces the original, and the
//! open succeeds with the damage reported as [`LogGap`]s in
//! [`RecoveredLog::gaps`]. Callers (see `tep-core`'s Verifier) surface the
//! missing frames as chain-continuity tamper evidence — corruption degrades
//! to a detected, quarantined gap, never to a panic or silent loss.
//!
//! All I/O goes through [`crate::vfs::Vfs`], so the same code paths run
//! against the real filesystem and the deterministic fault injector.

use crate::crc::{frame_header, split_frame_header, FRAME_HEADER_LEN};
use crate::vfs::{real_vfs, Vfs, VirtualFile};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"TEPLOG\x00\x01";
const VERSION: u16 = 1;
pub(crate) const HEADER_LEN: u64 = 12;

/// Maximum payload size (guards against reading a garbage length field).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Errors from the log layer.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file exists but does not carry the log magic/version.
    BadHeader,
    /// Payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(usize),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::BadHeader => write!(f, "not a TEP log file (bad magic or version)"),
            LogError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds frame limit"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Why a byte range is missing from the live log.
///
/// The distinction matters to the verification layer: [`GapKind::Corruption`]
/// is potential tamper evidence (`StorageQuarantine`), while
/// [`GapKind::Compacted`] records a deliberate, checkpoint-anchored excision
/// whose continuity is attested through the sealed checkpoint instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapKind {
    /// Interior corruption excised into the `.quarantine` sidecar.
    Corruption,
    /// Pre-checkpoint frames excised into a cold archive by compaction.
    Compacted,
}

/// An interior byte range missing from the live log — either corruption
/// quarantined on open, or a compaction-excised segment (see [`GapKind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogGap {
    /// What removed the range from the live log.
    pub kind: GapKind,
    /// Intact frames recovered before this gap (the gap sits between
    /// record `preceding_frames - 1` and record `preceding_frames`).
    pub preceding_frames: u64,
    /// Byte offset of the gap in the original file.
    pub offset: u64,
    /// Length of the corrupt range in bytes.
    pub bytes: u64,
}

/// Outcome of opening a log: the handle plus recovered payloads.
pub struct RecoveredLog {
    /// The writable log positioned after the last good frame.
    pub log: AppendLog,
    /// Payloads of every intact frame, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Number of bytes truncated from a torn tail (0 when clean).
    pub truncated_bytes: u64,
    /// Interior corrupt ranges excised into the `.quarantine` sidecar
    /// (empty when the log was clean or only torn at the tail).
    pub gaps: Vec<LogGap>,
    /// Total corrupt bytes moved to the sidecar this open.
    pub quarantined_bytes: u64,
}

/// An append-only, CRC-framed log file.
///
/// ```no_run
/// use tep_storage::AppendLog;
///
/// let mut log = AppendLog::create("/tmp/example.teplog")?;
/// log.append(b"first frame")?;
/// log.sync()?;
/// drop(log);
///
/// let recovered = AppendLog::open("/tmp/example.teplog")?;
/// assert_eq!(recovered.payloads, vec![b"first frame".to_vec()]);
/// # Ok::<(), tep_storage::LogError>(())
/// ```
pub struct AppendLog {
    writer: BufWriter<Box<dyn VirtualFile>>,
    path: PathBuf,
    end_offset: u64,
}

/// The sidecar path corrupt ranges of `path` are quarantined into.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// Result of the forward frame scan over a log's frame area.
struct Scan {
    payloads: Vec<Vec<u8>>,
    /// Interior corrupt ranges, relative to the frame area.
    gaps: Vec<LogGap>,
    /// End of the last valid frame, relative to the frame area.
    good_end: usize,
    /// Bytes after `good_end` (the torn tail).
    truncated_bytes: u64,
}

fn scan_frames(rest: &[u8]) -> Scan {
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut gaps = Vec::new();
    let mut good_end = 0usize;
    let mut bad_start: Option<usize> = None;
    let mut pos = 0usize;
    while let Some(&header) = rest[pos..].first_chunk::<FRAME_HEADER_LEN>() {
        let (len, _) = split_frame_header(header);
        let body_start = pos + FRAME_HEADER_LEN;
        let payload = rest[body_start..]
            .get(..len as usize)
            .filter(|p| len <= MAX_PAYLOAD && frame_header(p) == header);
        if let Some(payload) = payload {
            if let Some(bad) = bad_start.take() {
                // Valid frame after a corrupt range: interior corruption.
                gaps.push(LogGap {
                    kind: GapKind::Corruption,
                    preceding_frames: payloads.len() as u64,
                    offset: HEADER_LEN + bad as u64,
                    bytes: (pos - bad) as u64,
                });
            }
            payloads.push(payload.to_vec());
            pos = body_start + payload.len();
            good_end = pos;
        } else {
            if bad_start.is_none() {
                bad_start = Some(pos);
            }
            // Keep scanning byte-by-byte: if another valid frame follows,
            // the bad range is interior (quarantine); otherwise it is a
            // torn tail (truncate).
            pos += 1;
        }
    }
    Scan {
        payloads,
        gaps,
        good_end,
        truncated_bytes: (rest.len() - good_end) as u64,
    }
}

/// Generates a sibling temp name unique to this process and call.
pub(crate) fn unique_tmp_path(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{}.{}.tmp", std::process::id(), n));
    PathBuf::from(os)
}

impl AppendLog {
    /// Creates a new log on the real filesystem, failing if the file
    /// already exists.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, LogError> {
        Self::create_with(real_vfs(), path)
    }

    /// [`AppendLog::create`] against an explicit [`Vfs`]. The header and
    /// the new directory entry are both fsynced before returning, so a
    /// crash immediately after `create` cannot lose the file.
    pub fn create_with(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Self, LogError> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs.create_new(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_be_bytes())?;
        file.write_all(&0u16.to_be_bytes())?;
        file.flush()?;
        file.sync_data()?;
        vfs.sync_parent_dir(&path)?;
        Ok(AppendLog {
            writer: BufWriter::new(file),
            path,
            end_offset: HEADER_LEN,
        })
    }

    /// Opens an existing log on the real filesystem, replaying every intact
    /// frame; a torn tail is truncated and interior corruption is
    /// quarantined (see the module docs).
    pub fn open(path: impl AsRef<Path>) -> Result<RecoveredLog, LogError> {
        Self::open_with(real_vfs(), path)
    }

    /// [`AppendLog::open`] against an explicit [`Vfs`].
    pub fn open_with(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<RecoveredLog, LogError> {
        let path = path.as_ref().to_path_buf();
        let (rest, scan) = {
            let mut file = vfs.open_rw(&path)?;
            let mut header = [0u8; HEADER_LEN as usize];
            file.read_exact(&mut header)
                .map_err(|_| LogError::BadHeader)?;
            if &header[..8] != MAGIC || u16::from_be_bytes([header[8], header[9]]) != VERSION {
                return Err(LogError::BadHeader);
            }
            let mut rest = Vec::new();
            file.read_to_end(&mut rest)?;
            let scan = scan_frames(&rest);
            (rest, scan)
        };

        if scan.gaps.is_empty() {
            // Clean file or torn tail only: truncate in place.
            let mut file = vfs.open_rw(&path)?;
            let end_offset = HEADER_LEN + scan.good_end as u64;
            if scan.truncated_bytes > 0 {
                file.set_len(end_offset)?;
            }
            file.seek(SeekFrom::Start(end_offset))?;
            return Ok(RecoveredLog {
                log: AppendLog {
                    writer: BufWriter::new(file),
                    path,
                    end_offset,
                },
                payloads: scan.payloads,
                truncated_bytes: scan.truncated_bytes,
                gaps: Vec::new(),
                quarantined_bytes: 0,
            });
        }

        // Interior corruption: excise the bad ranges into the sidecar, then
        // atomically rewrite the log from the surviving frames.
        //
        // Ordering matters for crash safety: the sidecar is written and
        // synced *before* the original is replaced, so no corrupt byte is
        // ever dropped without a durable copy. A crash between the two
        // steps leaves the original intact; the next open re-runs
        // quarantine, which can at worst duplicate sidecar frames (each
        // carries its original offset, so duplicates are identifiable).
        let quarantined_bytes = Self::quarantine(&vfs, &path, &rest, &scan)?;
        Self::rewrite_atomically(&vfs, &path, &scan.payloads)?;

        let mut file = vfs.open_rw(&path)?;
        let end_offset = HEADER_LEN
            + scan
                .payloads
                .iter()
                .map(|p| (FRAME_HEADER_LEN + p.len()) as u64)
                .sum::<u64>();
        file.seek(SeekFrom::Start(end_offset))?;
        Ok(RecoveredLog {
            log: AppendLog {
                writer: BufWriter::new(file),
                path,
                end_offset,
            },
            payloads: scan.payloads,
            truncated_bytes: scan.truncated_bytes,
            gaps: scan.gaps,
            quarantined_bytes,
        })
    }

    /// Appends every corrupt range to the `.quarantine` sidecar log, each
    /// frame payload = 8-byte BE original file offset + the raw bytes.
    fn quarantine(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        rest: &[u8],
        scan: &Scan,
    ) -> Result<u64, LogError> {
        let qpath = quarantine_path(path);
        let mut side = Self::open_or_create_with(Arc::clone(vfs), &qpath)?.log;
        let mut total = 0u64;
        const CHUNK: usize = MAX_PAYLOAD as usize - 8;
        for gap in &scan.gaps {
            let start = (gap.offset - HEADER_LEN) as usize;
            let end = start + gap.bytes as usize;
            let mut at = start;
            while at < end {
                let upto = end.min(at + CHUNK);
                let mut payload = Vec::with_capacity(8 + upto - at);
                payload.extend_from_slice(&(HEADER_LEN + at as u64).to_be_bytes());
                payload.extend_from_slice(&rest[at..upto]);
                side.append(&payload)?;
                at = upto;
            }
            total += gap.bytes;
        }
        side.sync()?;
        vfs.sync_parent_dir(&qpath)?;
        Ok(total)
    }

    /// Rewrites `path` to contain exactly `payloads`, via a unique O_EXCL
    /// temp sibling + fsync + rename + parent-directory fsync. Payloads are
    /// appended as the iterator yields them, so a caller can stream frames
    /// it never holds all at once.
    pub(crate) fn rewrite_atomically(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        payloads: impl IntoIterator<Item = impl AsRef<[u8]>>,
    ) -> Result<(), LogError> {
        let mut tmp_log = None;
        let mut tmp_path = PathBuf::new();
        for _ in 0..16 {
            let candidate = unique_tmp_path(path);
            match Self::create_with(Arc::clone(vfs), &candidate) {
                Ok(l) => {
                    tmp_log = Some(l);
                    tmp_path = candidate;
                    break;
                }
                Err(LogError::Io(e)) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        let Some(mut tmp_log) = tmp_log else {
            return Err(LogError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "could not allocate a unique temp file for log rewrite",
            )));
        };
        let result = (|| {
            for p in payloads {
                tmp_log.append(p.as_ref())?;
            }
            tmp_log.sync()?;
            drop(tmp_log);
            vfs.rename(&tmp_path, path)?;
            vfs.sync_parent_dir(path)?;
            Ok(())
        })();
        if result.is_err() {
            // Best-effort cleanup; the unique name keeps a stale temp from
            // ever colliding with a later rewrite.
            let _ = vfs.remove_file(&tmp_path);
        }
        result
    }

    /// Opens if the file exists, otherwise creates it (real filesystem).
    pub fn open_or_create(path: impl AsRef<Path>) -> Result<RecoveredLog, LogError> {
        Self::open_or_create_with(real_vfs(), path)
    }

    /// [`AppendLog::open_or_create`] against an explicit [`Vfs`].
    pub fn open_or_create_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
    ) -> Result<RecoveredLog, LogError> {
        let path = path.as_ref();
        if !vfs.exists(path) {
            return Ok(RecoveredLog {
                log: Self::create_with(vfs, path)?,
                payloads: Vec::new(),
                truncated_bytes: 0,
                gaps: Vec::new(),
                quarantined_bytes: 0,
            });
        }
        // A file shorter than the 12-byte header can only be a create torn
        // by a crash: `create` fsyncs the header (and the directory entry)
        // before returning, so no acknowledged log is ever this short.
        // Recreate it instead of failing the open. A full-length file with
        // the wrong magic is still rejected — that is a foreign file, not
        // a torn one.
        let short = {
            let mut f = vfs.open_rw(path)?;
            let mut buf = [0u8; HEADER_LEN as usize];
            let mut n = 0usize;
            loop {
                match f.read(&mut buf[n..]) {
                    Ok(0) => break,
                    Ok(r) => {
                        n += r;
                        if n == buf.len() {
                            break;
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            n < HEADER_LEN as usize
        };
        if short {
            vfs.remove_file(path)?;
            return Ok(RecoveredLog {
                log: Self::create_with(vfs, path)?,
                payloads: Vec::new(),
                truncated_bytes: 0,
                gaps: Vec::new(),
                quarantined_bytes: 0,
            });
        }
        Self::open_with(vfs, path)
    }

    /// Appends one frame; returns its byte offset in the file.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, LogError> {
        if payload.len() > MAX_PAYLOAD as usize {
            return Err(LogError::PayloadTooLarge(payload.len()));
        }
        let offset = self.end_offset;
        self.writer.write_all(&frame_header(payload))?;
        self.writer.write_all(payload)?;
        self.end_offset += (FRAME_HEADER_LEN + payload.len()) as u64;
        Ok(offset)
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> Result<(), LogError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> Result<(), LogError> {
        self.writer.flush()?;
        self.writer.get_mut().sync_data()?;
        Ok(())
    }

    /// Current end-of-log offset in bytes.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.end_offset
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tep-log-test-{}-{}-{}.log",
            std::process::id(),
            tag,
            n
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(quarantine_path(&self.0));
        }
    }

    #[test]
    fn append_and_recover() {
        let path = temp_path("basic");
        let _guard = Cleanup(path.clone());
        {
            let mut log = AppendLog::create(&path).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"").unwrap();
            log.append(&vec![7u8; 10_000]).unwrap();
            log.sync().unwrap();
        }
        let rec = AppendLog::open(&path).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert!(rec.gaps.is_empty());
        assert_eq!(rec.payloads.len(), 3);
        assert_eq!(rec.payloads[0], b"alpha");
        assert_eq!(rec.payloads[1], b"");
        assert_eq!(rec.payloads[2].len(), 10_000);
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = temp_path("dup");
        let _guard = Cleanup(path.clone());
        AppendLog::create(&path).unwrap();
        assert!(matches!(AppendLog::create(&path), Err(LogError::Io(_))));
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = temp_path("torn");
        let _guard = Cleanup(path.clone());
        {
            let mut log = AppendLog::create(&path).unwrap();
            log.append(b"keep me").unwrap();
            log.append(b"i will be torn").unwrap();
            log.sync().unwrap();
        }
        // Chop 3 bytes off the end to simulate a torn write.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();

        let rec = AppendLog::open(&path).unwrap();
        assert_eq!(rec.payloads.len(), 1);
        assert_eq!(rec.payloads[0], b"keep me");
        assert!(rec.truncated_bytes > 0);
        assert!(rec.gaps.is_empty(), "torn tail must not be quarantined");

        // Appending after recovery works and survives a further reopen.
        let mut log = rec.log;
        log.append(b"after recovery").unwrap();
        log.sync().unwrap();
        drop(log);
        let rec2 = AppendLog::open(&path).unwrap();
        assert_eq!(rec2.payloads.len(), 2);
        assert_eq!(rec2.payloads[1], b"after recovery");
    }

    #[test]
    fn torn_tail_inside_frame_header_is_truncated() {
        // A tear can land inside the 8-byte frame header itself (len/crc),
        // not just the payload. Every partial-header length must recover to
        // the last good frame.
        for kept_header_bytes in 1..FRAME_HEADER_LEN {
            let path = temp_path(&format!("torn-hdr-{kept_header_bytes}"));
            let _guard = Cleanup(path.clone());
            let full_len;
            {
                let mut log = AppendLog::create(&path).unwrap();
                log.append(b"keep me").unwrap();
                full_len = log.len_bytes();
                log.append(b"victim frame payload").unwrap();
                log.sync().unwrap();
            }
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(full_len + kept_header_bytes as u64).unwrap();
            drop(f);

            let rec = AppendLog::open(&path).unwrap();
            assert_eq!(rec.payloads.len(), 1, "tear after {kept_header_bytes}B");
            assert_eq!(rec.payloads[0], b"keep me");
            assert_eq!(rec.truncated_bytes, kept_header_bytes as u64);

            // The recovered log must be appendable and reopen cleanly.
            let mut log = rec.log;
            log.append(b"after header tear").unwrap();
            log.sync().unwrap();
            drop(log);
            let rec2 = AppendLog::open(&path).unwrap();
            assert_eq!(rec2.truncated_bytes, 0);
            assert_eq!(rec2.payloads.len(), 2);
            assert_eq!(rec2.payloads[1], b"after header tear");
        }
    }

    #[test]
    fn torn_header_with_zero_filled_tail_is_truncated() {
        // Crash mode where the filesystem grew the file but only part of the
        // header block made it to disk: the rest of the frame reads as
        // zeros. Because the frame CRC covers the length prefix, zero runs
        // never parse as valid empty frames and the whole tail is dropped.
        let path = temp_path("torn-hdr-zeros");
        let _guard = Cleanup(path.clone());
        let keep_upto;
        {
            let mut log = AppendLog::create(&path).unwrap();
            log.append(b"survivor").unwrap();
            keep_upto = log.len_bytes();
            log.append(&[0xABu8; 100]).unwrap();
            log.sync().unwrap();
        }
        // Zero everything after the first 4 header bytes of the last frame.
        let mut data = std::fs::read(&path).unwrap();
        for b in &mut data[keep_upto as usize + 4..] {
            *b = 0;
        }
        std::fs::write(&path, &data).unwrap();

        let rec = AppendLog::open(&path).unwrap();
        assert_eq!(rec.payloads.len(), 1);
        assert_eq!(rec.payloads[0], b"survivor");
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn corrupt_tail_payload_is_dropped() {
        let path = temp_path("crc");
        let _guard = Cleanup(path.clone());
        {
            let mut log = AppendLog::create(&path).unwrap();
            log.append(b"good frame").unwrap();
            log.append(b"bad frame!").unwrap();
            log.sync().unwrap();
        }
        // Flip a bit in the last frame's payload.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 2] ^= 0x01;
        std::fs::write(&path, &data).unwrap();

        let rec = AppendLog::open(&path).unwrap();
        assert_eq!(rec.payloads.len(), 1);
        assert_eq!(rec.payloads[0], b"good frame");
    }

    #[test]
    fn interior_corruption_is_quarantined_not_an_error() {
        let path = temp_path("interior");
        let _guard = Cleanup(path.clone());
        let second_offset;
        {
            let mut log = AppendLog::create(&path).unwrap();
            log.append(b"first-frame-payload").unwrap();
            second_offset = log.len_bytes();
            log.append(b"second-frame-payload").unwrap();
            log.sync().unwrap();
        }
        // Corrupt the FIRST frame's payload; the second remains valid.
        let mut data = std::fs::read(&path).unwrap();
        data[HEADER_LEN as usize + FRAME_HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        // The old behavior was a hard `InteriorCorruption` open error; the
        // log must now open in degraded mode instead.
        let rec = AppendLog::open(&path).unwrap();
        assert_eq!(rec.payloads, vec![b"second-frame-payload".to_vec()]);
        assert_eq!(rec.gaps.len(), 1);
        assert_eq!(rec.gaps[0].preceding_frames, 0);
        assert_eq!(rec.gaps[0].offset, HEADER_LEN);
        assert_eq!(rec.gaps[0].bytes, second_offset - HEADER_LEN);
        assert_eq!(rec.quarantined_bytes, second_offset - HEADER_LEN);
        drop(rec);

        // The corrupt bytes live on in the sidecar, prefixed by offset.
        let side = AppendLog::open(quarantine_path(&path)).unwrap();
        assert_eq!(side.payloads.len(), 1);
        let q = &side.payloads[0];
        assert_eq!(u64::from_be_bytes(q[..8].try_into().unwrap()), HEADER_LEN);
        assert_eq!(q.len() as u64 - 8, second_offset - HEADER_LEN);
        drop(side);

        // Recovery is idempotent: a second open sees a clean log,
        // byte-identical to what the first rewrite produced.
        let after_first = std::fs::read(&path).unwrap();
        let rec2 = AppendLog::open(&path).unwrap();
        assert!(rec2.gaps.is_empty());
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.payloads, vec![b"second-frame-payload".to_vec()]);
        drop(rec2);
        assert_eq!(std::fs::read(&path).unwrap(), after_first);

        // And the recovered log accepts appends.
        let mut log = AppendLog::open(&path).unwrap().log;
        log.append(b"post-recovery").unwrap();
        log.sync().unwrap();
        drop(log);
        let rec3 = AppendLog::open(&path).unwrap();
        assert_eq!(rec3.payloads.len(), 2);
    }

    #[test]
    fn multiple_interior_gaps_all_quarantined() {
        let path = temp_path("multi-gap");
        let _guard = Cleanup(path.clone());
        let mut offsets = Vec::new();
        {
            let mut log = AppendLog::create(&path).unwrap();
            for i in 0..5u8 {
                offsets.push(log.append(&[i; 64]).unwrap());
            }
            log.sync().unwrap();
        }
        // Corrupt frames 1 and 3 (both interior: valid frames follow).
        let mut data = std::fs::read(&path).unwrap();
        data[offsets[1] as usize + FRAME_HEADER_LEN] ^= 0xFF;
        data[offsets[3] as usize + FRAME_HEADER_LEN] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let rec = AppendLog::open(&path).unwrap();
        assert_eq!(rec.payloads.len(), 3);
        assert_eq!(rec.payloads[0], [0u8; 64]);
        assert_eq!(rec.payloads[1], [2u8; 64]);
        assert_eq!(rec.payloads[2], [4u8; 64]);
        assert_eq!(rec.gaps.len(), 2);
        assert_eq!(rec.gaps[0].preceding_frames, 1);
        assert_eq!(rec.gaps[1].preceding_frames, 2);
        drop(rec);

        let side = AppendLog::open(quarantine_path(&path)).unwrap();
        assert_eq!(side.payloads.len(), 2);
    }

    #[test]
    fn bad_header_rejected() {
        let path = temp_path("hdr");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, b"not a log file at all").unwrap();
        assert!(matches!(AppendLog::open(&path), Err(LogError::BadHeader)));
    }

    #[test]
    fn payload_size_limit() {
        let path = temp_path("big");
        let _guard = Cleanup(path.clone());
        let mut log = AppendLog::create(&path).unwrap();
        let too_big = vec![0u8; MAX_PAYLOAD as usize + 1];
        assert!(matches!(
            log.append(&too_big),
            Err(LogError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn open_or_create_both_paths() {
        let path = temp_path("ooc");
        let _guard = Cleanup(path.clone());
        let rec = AppendLog::open_or_create(&path).unwrap();
        assert_eq!(rec.payloads.len(), 0);
        let mut log = rec.log;
        log.append(b"x").unwrap();
        log.sync().unwrap();
        drop(log);
        let rec = AppendLog::open_or_create(&path).unwrap();
        assert_eq!(rec.payloads.len(), 1);
    }

    #[test]
    fn log_round_trips_on_fault_vfs() {
        use crate::vfs::{FaultConfig, FaultVfs};
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        let path = Path::new("/log");
        let mut log = AppendLog::create_with(Arc::clone(&vfs), path).unwrap();
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        log.sync().unwrap();
        drop(log);
        let rec = AppendLog::open_with(Arc::clone(&vfs), path).unwrap();
        assert_eq!(rec.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
    }
}
