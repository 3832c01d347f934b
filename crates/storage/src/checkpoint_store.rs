//! Durable single-blob checkpoint storage for replica catch-up.
//!
//! A replica tailing a primary seals its streaming verifier state
//! (`tep_core::streaming::VerifierCheckpoint`) after every durably
//! applied batch, so a power cycle mid-catch-up resumes verification
//! from the last *verified* offset instead of re-verifying (or worse,
//! trusting) everything from scratch. The blob travels opaquely — its
//! cryptographic self-authentication lives in the sealing layer; this
//! store only guarantees **atomic replacement** and **honest absence**:
//!
//! * [`CheckpointStore::save`] writes a temp file, fsyncs it, renames it
//!   over the live name, and fsyncs the parent directory — all through
//!   the [`Vfs`] seam, so the crash-at-every-op fault sweeps apply.
//! * [`CheckpointStore::load`] treats a missing, torn, or CRC-damaged
//!   file as `Ok(None)` (rebuild from the local log), never as data.
//!   A crash can only lose the *newest* checkpoint, falling back to the
//!   previous one or to a clean rebuild — both safe, since the durable
//!   record log remains the source of truth for what was applied.

use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use crate::crc::{open_blob, seal_blob};
use crate::vfs::Vfs;

/// Magic prefix of a checkpoint file, which is [`seal_blob`]`(MAGIC, blob)`.
const MAGIC: &[u8; 8] = b"TEPRCKP\x01";

/// Atomically-replaced durable storage for one opaque checkpoint blob.
pub struct CheckpointStore {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
}

impl CheckpointStore {
    /// Binds the store to `path` on `vfs`. Nothing is touched until the
    /// first [`save`](Self::save) or [`load`](Self::load).
    pub fn new(vfs: Arc<dyn Vfs>, path: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            vfs,
            path: path.into(),
        }
    }

    fn tmp_path(&self) -> PathBuf {
        let mut name = self
            .path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        name.push(".tmp");
        self.path.with_file_name(name)
    }

    /// Durably replaces the stored blob: temp file → fsync → rename →
    /// parent-dir fsync. After `save` returns, a power cycle yields
    /// either this blob or the previous one — never a mix.
    pub fn save(&self, blob: &[u8]) -> io::Result<()> {
        let tmp = self.tmp_path();
        if self.vfs.exists(&tmp) {
            // Leftover from an earlier crash between create and rename.
            self.vfs.remove_file(&tmp)?;
        }
        let mut file = self.vfs.create_new(&tmp)?;
        file.write_all(&seal_blob(MAGIC, blob))?;
        file.sync_data()?;
        drop(file);
        self.vfs.rename(&tmp, &self.path)?;
        self.vfs.sync_parent_dir(&self.path)
    }

    /// Loads the stored blob. Missing, truncated, or checksum-damaged
    /// files load as `Ok(None)` — a crash-torn checkpoint means "rebuild
    /// from the log", not an error and *never* tamper evidence (the
    /// sealed blob's own authentication handles malice).
    pub fn load(&self) -> io::Result<Option<Vec<u8>>> {
        if !self.vfs.exists(&self.path) {
            return Ok(None);
        }
        let mut file = self.vfs.open_rw(&self.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(open_blob(MAGIC, &bytes).map(<[u8]>::to_vec))
    }

    /// Removes the stored blob (durably), if present.
    pub fn clear(&self) -> io::Result<()> {
        if self.vfs.exists(&self.path) {
            self.vfs.remove_file(&self.path)?;
            self.vfs.sync_parent_dir(&self.path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultConfig, FaultVfs};

    fn store(vfs: &Arc<FaultVfs>) -> CheckpointStore {
        let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        CheckpointStore::new(dyn_vfs, "/repl/ckpt")
    }

    fn fault_vfs(cfg: FaultConfig) -> Arc<FaultVfs> {
        FaultVfs::new(cfg)
    }

    #[test]
    fn save_load_roundtrip_and_replace() {
        let vfs = fault_vfs(FaultConfig::default());
        let s = store(&vfs);
        assert_eq!(s.load().unwrap(), None);
        s.save(b"first").unwrap();
        assert_eq!(s.load().unwrap().as_deref(), Some(&b"first"[..]));
        s.save(b"second, longer blob").unwrap();
        assert_eq!(
            s.load().unwrap().as_deref(),
            Some(&b"second, longer blob"[..])
        );
        s.clear().unwrap();
        assert_eq!(s.load().unwrap(), None);
    }

    #[test]
    fn damaged_file_loads_as_absent_not_error() {
        let vfs = fault_vfs(FaultConfig::default());
        let s = store(&vfs);
        s.save(b"precious state").unwrap();
        vfs.corrupt_byte("/repl/ckpt".as_ref(), 20);
        assert_eq!(s.load().unwrap(), None, "CRC damage must read as absent");
    }

    /// A power cut at every op of a save sequence yields either the old
    /// blob, the new blob, or (only before the first save completes)
    /// nothing — never a torn mix read back as data.
    #[test]
    fn crash_at_every_op_yields_old_new_or_none() {
        // Dry run to size the op space of save(old) + save(new).
        let vfs = fault_vfs(FaultConfig::default());
        let s = store(&vfs);
        s.save(b"old").unwrap();
        s.save(b"new").unwrap();
        let total_ops = vfs.ops();

        for crash_at in 1..=total_ops {
            let cfg = FaultConfig {
                seed: 0xC4A5 + crash_at,
                crash_at_op: Some(crash_at),
                ..FaultConfig::default()
            };
            let vfs = fault_vfs(cfg);
            let s = store(&vfs);
            let first = s.save(b"old");
            let crashed_in_first = first.is_err();
            if !crashed_in_first {
                let _ = s.save(b"new");
            }
            vfs.power_cycle();
            let s = store(&vfs);
            let loaded = s.load().unwrap();
            match loaded.as_deref() {
                None => assert!(
                    crashed_in_first,
                    "crash at op {crash_at}: completed save(old) lost its blob"
                ),
                Some(b"old") | Some(b"new") => {}
                Some(other) => {
                    panic!("crash at op {crash_at}: torn blob surfaced as data: {other:?}")
                }
            }
        }
    }
}
