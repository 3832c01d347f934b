//! Virtual filesystem: the seam between the storage layer and the disk.
//!
//! Every durable structure in this crate ([`crate::AppendLog`], snapshots,
//! [`crate::ProvenanceDb`]) performs its I/O through the [`Vfs`] /
//! [`VirtualFile`] traits instead of `std::fs` directly. Two
//! implementations exist:
//!
//! * [`RealVfs`] — a thin passthrough to the OS, including the
//!   parent-directory fsync that makes renames and file creation durable
//!   on POSIX systems.
//! * [`FaultVfs`] — a deterministic, seeded, in-memory disk simulator for
//!   crash-consistency testing. It models the page cache / platter split:
//!   writes land in the visible image immediately but only become durable
//!   at `sync_data`; directory operations (create/rename/remove) only
//!   become durable at `sync_parent_dir`. A simulated power cut
//!   ([`FaultConfig::crash_at_op`]) freezes the disk; [`FaultVfs::power_cycle`]
//!   then reconstructs what a real machine would see after reboot: the
//!   durable image plus a seeded prefix of the unsynced operations, with
//!   the first dropped write optionally torn at an arbitrary byte offset.
//!
//! The fault model is the classic WAL-testing one (synced data survives;
//! unsynced data survives as an ordered prefix, possibly torn). Arbitrary
//! out-of-order corruption is covered separately by the bit-flip property
//! tests in `tests/log_recovery_props.rs`.

use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An open file handle, abstracted over the backing store.
///
/// `read`/`write`/`seek` follow their `std::io` contracts; in particular
/// `write` MAY consume fewer bytes than offered (a fault-injection mode
/// exercises exactly that), so callers must use `write_all` semantics.
pub trait VirtualFile: Read + Write + Seek + Send + Sync {
    /// Flushes the file's data to durable storage (fsync / fdatasync).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates or extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// A filesystem namespace: open/create/rename/remove files and make
/// directory entries durable.
pub trait Vfs: Send + Sync {
    /// Creates a new file, failing if it already exists (O_EXCL).
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>>;
    /// Opens an existing file for reading and writing.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>>;
    /// `true` if a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically renames `from` onto `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory containing `path`, making entries (creates,
    /// renames, removals) in it durable.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// Real filesystem passthrough
// ---------------------------------------------------------------------------

/// The production [`Vfs`]: `std::fs` with POSIX durability idioms.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

/// A shared handle to the production filesystem.
pub fn real_vfs() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

impl VirtualFile for std::fs::File {
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
}

impl Vfs for RealVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>> {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        Ok(Box::new(f))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>> {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(f))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        // Directories cannot be opened for fsync on every platform
        // (Windows); degrade to a no-op there rather than failing saves.
        match std::fs::File::open(&parent) {
            Ok(dir) => dir.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Configuration of a [`FaultVfs`]. The default injects no faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Seed for every nondeterministic choice (tear offsets, surviving
    /// unsynced-op prefixes, short-write lengths).
    pub seed: u64,
    /// Simulate a power cut when the Nth mutating operation (1-based:
    /// writes, truncates, syncs, creates, renames, removals) is attempted.
    /// The disk freezes: that operation and all later ones fail until
    /// [`FaultVfs::power_cycle`].
    pub crash_at_op: Option<u64>,
    /// The Nth `sync_data` call (1-based) fails with an I/O error and does
    /// NOT make pending data durable.
    pub fail_sync_at: Option<u64>,
    /// The Nth `sync_data` call (1-based) *lies*: it reports success but
    /// does not make pending data durable (a battery-less write cache).
    pub lie_sync_at: Option<u64>,
    /// Total bytes of file data the disk can hold; writes that would grow
    /// past it fail with an ENOSPC-style error.
    pub disk_capacity: Option<u64>,
    /// `write` consumes a seeded 1..=len prefix of the buffer instead of
    /// all of it, exercising callers' `write_all` retry loops.
    pub short_writes: bool,
}

/// Message carried by every error a frozen (crashed) [`FaultVfs`] returns.
pub(crate) const POWER_LOSS_MSG: &str = "simulated power loss";

fn power_loss_err() -> io::Error {
    io::Error::other(POWER_LOSS_MSG)
}

/// SplitMix64: tiny, seedable, deterministic; all the randomness the
/// simulator needs without pulling a dependency into the crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unsynced data mutation, replayed (or dropped) at power loss.
#[derive(Clone, Debug)]
enum Mutation {
    Write { offset: u64, bytes: Vec<u8> },
    SetLen(u64),
}

/// One unsynced directory mutation.
#[derive(Clone, Debug)]
enum DirOp {
    Create(PathBuf, u64),
    Rename(PathBuf, PathBuf),
    Remove(PathBuf),
}

#[derive(Clone, Debug, Default)]
struct FileState {
    /// What the OS shows (page cache view).
    data: Vec<u8>,
    /// What the platters hold as of the last completed sync.
    durable: Vec<u8>,
    /// Data mutations since the last completed sync, in order.
    pending: Vec<Mutation>,
}

struct State {
    cfg: FaultConfig,
    rng: u64,
    /// File bodies by inode id.
    files: HashMap<u64, FileState>,
    /// Visible directory: name -> inode.
    dir: HashMap<PathBuf, u64>,
    /// Durable directory as of the last `sync_parent_dir`.
    durable_dir: HashMap<PathBuf, u64>,
    /// Directory mutations since the last `sync_parent_dir`, in order.
    pending_dir: Vec<DirOp>,
    next_id: u64,
    ops: u64,
    syncs: u64,
    crashed: bool,
}

impl State {
    /// Counts a mutating operation; returns the power-loss error if this is
    /// the configured crash point (or the disk already froze).
    fn mutating_op(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(power_loss_err());
        }
        self.ops += 1;
        if self.cfg.crash_at_op == Some(self.ops) {
            self.crashed = true;
            return Err(power_loss_err());
        }
        Ok(())
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(power_loss_err())
        } else {
            Ok(())
        }
    }

    fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.data.len() as u64).sum()
    }

    fn rand(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            splitmix64(&mut self.rng) % bound
        }
    }
}

/// Locks the simulated disk, recovering from poison: a harness thread
/// that panicked while holding it must not wedge the assertions after it.
fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A deterministic in-memory disk with configurable fault injection.
///
/// ```
/// use tep_storage::vfs::{FaultConfig, FaultVfs, Vfs};
/// use std::io::Write;
/// use std::path::Path;
///
/// let vfs = FaultVfs::new(FaultConfig::default());
/// let mut f = vfs.create_new(Path::new("/x")).unwrap();
/// f.write_all(b"hello").unwrap();
/// f.sync_data().unwrap();
/// vfs.sync_parent_dir(Path::new("/x")).unwrap();
/// vfs.power_cycle(); // synced data survives the "crash"
/// assert_eq!(vfs.file_bytes(Path::new("/x")).unwrap(), b"hello");
/// ```
pub struct FaultVfs {
    state: Arc<Mutex<State>>,
}

impl FaultVfs {
    /// A fresh, empty simulated disk.
    pub fn new(cfg: FaultConfig) -> Arc<FaultVfs> {
        Arc::new(FaultVfs {
            state: Arc::new(Mutex::new(State {
                rng: cfg.seed ^ 0x6A09_E667_F3BC_C908,
                cfg,
                files: HashMap::new(),
                dir: HashMap::new(),
                durable_dir: HashMap::new(),
                pending_dir: Vec::new(),
                next_id: 1,
                ops: 0,
                syncs: 0,
                crashed: false,
            })),
        })
    }

    /// Mutating operations performed so far (the crash-point space a
    /// harness sweeps).
    pub fn ops(&self) -> u64 {
        lock(&self.state).ops
    }

    /// `sync_data` calls attempted so far.
    pub fn syncs(&self) -> u64 {
        lock(&self.state).syncs
    }

    /// `true` once the simulated power cut has happened.
    pub fn crashed(&self) -> bool {
        lock(&self.state).crashed
    }

    /// Re-arms (or disarms) the crash point without resetting the disk.
    pub fn set_crash_at(&self, op: Option<u64>) {
        lock(&self.state).cfg.crash_at_op = op;
    }

    /// Simulates the machine rebooting after a power cut: the visible image
    /// becomes the durable one plus a seeded prefix of unsynced operations
    /// (data *and* directory), with the first dropped write optionally torn
    /// at a seeded byte offset. The disk unfreezes; the crash point is
    /// disarmed so recovery code can run.
    pub fn power_cycle(&self) {
        let mut s = lock(&self.state);

        // Directory entries: the journal preserves order, so a prefix of
        // the pending ops survives.
        let survive = {
            let n = s.pending_dir.len() as u64;
            s.rand(n + 1) as usize
        };
        let mut dir = s.durable_dir.clone();
        for op in s.pending_dir.iter().take(survive) {
            match op {
                DirOp::Create(p, id) => {
                    dir.insert(p.clone(), *id);
                }
                DirOp::Rename(from, to) => {
                    if let Some(id) = dir.remove(from) {
                        dir.insert(to.clone(), id);
                    }
                }
                DirOp::Remove(p) => {
                    dir.remove(p);
                }
            }
        }

        // File contents: per file, the durable image plus a seeded prefix
        // of pending mutations; the first dropped mutation may tear.
        let mut rng = s.rng;
        for f in s.files.values_mut() {
            let keep = {
                let n = f.pending.len() as u64 + 1;
                (splitmix64(&mut rng) % n) as usize
            };
            let mut img = f.durable.clone();
            for m in f.pending.iter().take(keep) {
                apply_mutation(&mut img, m, None);
            }
            if let Some(Mutation::Write { offset, bytes }) = f.pending.get(keep) {
                // Torn write: an arbitrary prefix of the in-flight write
                // reached the platters.
                let torn = (splitmix64(&mut rng) % (bytes.len() as u64 + 1)) as usize;
                apply_mutation(
                    &mut img,
                    &Mutation::Write {
                        offset: *offset,
                        bytes: bytes.clone(),
                    },
                    Some(torn),
                );
            }
            f.data = img.clone();
            f.durable = img;
            f.pending.clear();
        }
        s.rng = rng;

        // Drop files whose directory entry did not survive.
        let live: std::collections::HashSet<u64> = dir.values().copied().collect();
        s.files.retain(|id, _| live.contains(id));
        s.durable_dir = dir.clone();
        s.dir = dir;
        s.pending_dir.clear();
        s.crashed = false;
        s.cfg.crash_at_op = None;
    }

    /// The visible bytes of `path`, if it exists (for byte-identical
    /// recovery assertions).
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        let s = lock(&self.state);
        let id = s.dir.get(path)?;
        Some(s.files[id].data.clone())
    }

    /// All visible file names, sorted.
    pub fn list(&self) -> Vec<PathBuf> {
        let s = lock(&self.state);
        let mut v: Vec<PathBuf> = s.dir.keys().cloned().collect();
        v.sort();
        v
    }

    /// Flips one byte of `path`'s visible **and** durable image (simulated
    /// media corruption, below the page-cache model).
    pub fn corrupt_byte(&self, path: &Path, offset: usize) -> bool {
        let mut s = lock(&self.state);
        let Some(&id) = s.dir.get(path) else {
            return false;
        };
        let f = s.files.get_mut(&id).expect("dir entry has a file");
        if offset >= f.data.len() {
            return false;
        }
        f.data[offset] ^= 0xFF;
        if offset < f.durable.len() {
            f.durable[offset] ^= 0xFF;
        }
        true
    }
}

fn apply_mutation(img: &mut Vec<u8>, m: &Mutation, tear_at: Option<usize>) {
    match m {
        Mutation::Write { offset, bytes } => {
            let n = tear_at.unwrap_or(bytes.len()).min(bytes.len());
            let off = *offset as usize;
            if img.len() < off {
                img.resize(off, 0);
            }
            let end = off + n;
            if img.len() < end {
                img.resize(end, 0);
            }
            img[off..end].copy_from_slice(&bytes[..n]);
        }
        Mutation::SetLen(len) => {
            let len = *len as usize;
            if img.len() > len {
                img.truncate(len);
            } else {
                img.resize(len, 0);
            }
        }
    }
}

impl Vfs for FaultVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>> {
        let mut s = lock(&self.state);
        s.check_alive()?;
        if s.dir.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} exists", path.display()),
            ));
        }
        s.mutating_op()?;
        let id = s.next_id;
        s.next_id += 1;
        s.files.insert(id, FileState::default());
        s.dir.insert(path.to_path_buf(), id);
        s.pending_dir.push(DirOp::Create(path.to_path_buf(), id));
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            id,
            pos: 0,
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>> {
        let s = lock(&self.state);
        s.check_alive()?;
        let id = *s.dir.get(path).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", path.display()),
            )
        })?;
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            id,
            pos: 0,
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.state).dir.contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.mutating_op()?;
        let id = s.dir.remove(from).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", from.display()),
            )
        })?;
        s.dir.insert(to.to_path_buf(), id);
        s.pending_dir
            .push(DirOp::Rename(from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.mutating_op()?;
        s.dir.remove(path).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not found", path.display()),
            )
        })?;
        s.pending_dir.push(DirOp::Remove(path.to_path_buf()));
        Ok(())
    }

    fn sync_parent_dir(&self, _path: &Path) -> io::Result<()> {
        // The simulator models a single directory; syncing it makes every
        // pending namespace operation durable.
        let mut s = lock(&self.state);
        s.mutating_op()?;
        s.durable_dir = s.dir.clone();
        s.pending_dir.clear();
        Ok(())
    }
}

struct FaultFile {
    state: Arc<Mutex<State>>,
    id: u64,
    pos: u64,
}

impl Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let s = lock(&self.state);
        s.check_alive()?;
        let f = s
            .files
            .get(&self.id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was unlinked"))?;
        let pos = self.pos.min(f.data.len() as u64) as usize;
        let n = buf.len().min(f.data.len() - pos);
        buf[..n].copy_from_slice(&f.data[pos..pos + n]);
        drop(s);
        self.pos += n as u64;
        Ok(n)
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut s = lock(&self.state);
        s.check_alive()?;
        // Short write: consume only a seeded 1..=len prefix.
        let n = if s.cfg.short_writes && buf.len() > 1 {
            1 + s.rand(buf.len() as u64) as usize
        } else {
            buf.len()
        };
        // ENOSPC check against the would-be growth of this file.
        if let Some(cap) = s.cfg.disk_capacity {
            let cur = s
                .files
                .get(&self.id)
                .map(|f| f.data.len() as u64)
                .unwrap_or(0);
            let new_len = cur.max(self.pos + n as u64);
            let growth = new_len.saturating_sub(cur);
            if s.total_bytes() + growth > cap {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "simulated device out of space",
                ));
            }
        }
        s.mutating_op()?;
        let pos = self.pos;
        let f = s
            .files
            .get_mut(&self.id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was unlinked"))?;
        let bytes = buf[..n].to_vec();
        apply_mutation(
            &mut f.data,
            &Mutation::Write {
                offset: pos,
                bytes: bytes.clone(),
            },
            None,
        );
        f.pending.push(Mutation::Write { offset: pos, bytes });
        drop(s);
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        lock(&self.state).check_alive()
    }
}

impl Seek for FaultFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let s = lock(&self.state);
        s.check_alive()?;
        let len = s
            .files
            .get(&self.id)
            .map(|f| f.data.len() as u64)
            .unwrap_or(0);
        drop(s);
        let new = match pos {
            SeekFrom::Start(n) => n as i128,
            SeekFrom::End(d) => len as i128 + d as i128,
            SeekFrom::Current(d) => self.pos as i128 + d as i128,
        };
        if new < 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek before start",
            ));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }
}

impl VirtualFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.check_alive()?;
        s.syncs += 1;
        let syncs = s.syncs;
        if s.cfg.fail_sync_at == Some(syncs) {
            return Err(io::Error::other("simulated fsync failure"));
        }
        s.mutating_op()?;
        if s.cfg.lie_sync_at == Some(syncs) {
            // Lying fsync: report success, persist nothing.
            return Ok(());
        }
        let f = s
            .files
            .get_mut(&self.id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was unlinked"))?;
        f.durable = f.data.clone();
        f.pending.clear();
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.mutating_op()?;
        let f = s
            .files
            .get_mut(&self.id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was unlinked"))?;
        let l = len as usize;
        if f.data.len() > l {
            f.data.truncate(l);
        } else {
            f.data.resize(l, 0);
        }
        f.pending.push(Mutation::SetLen(len));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn synced_data_survives_power_cycle() {
        let vfs = FaultVfs::new(FaultConfig::default());
        let mut f = vfs.create_new(&p("/a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        vfs.sync_parent_dir(&p("/a")).unwrap();
        f.write_all(b" volatile").unwrap();
        drop(f);
        vfs.power_cycle();
        let bytes = vfs.file_bytes(&p("/a")).unwrap();
        assert!(bytes.starts_with(b"durable"));
        assert!(bytes.len() <= b"durable volatile".len());
    }

    #[test]
    fn unsynced_writes_survive_as_a_possibly_torn_prefix() {
        for seed in 0..32u64 {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                ..FaultConfig::default()
            });
            let mut f = vfs.create_new(&p("/a")).unwrap();
            f.sync_data().unwrap();
            vfs.sync_parent_dir(&p("/a")).unwrap();
            f.write_all(b"one").unwrap();
            f.write_all(b"two").unwrap();
            f.write_all(b"three").unwrap();
            drop(f);
            vfs.power_cycle();
            let bytes = vfs.file_bytes(&p("/a")).unwrap();
            assert!(
                b"onetwothree".starts_with(&bytes[..]),
                "seed {seed}: {bytes:?} is not a prefix"
            );
        }
    }

    #[test]
    fn crash_at_op_freezes_the_disk() {
        let vfs = FaultVfs::new(FaultConfig {
            crash_at_op: Some(2),
            ..FaultConfig::default()
        });
        let mut f = vfs.create_new(&p("/a")).unwrap(); // op 1
        let err = f.write_all(b"x").unwrap_err(); // op 2: boom
        assert_eq!(err.to_string(), POWER_LOSS_MSG);
        assert!(vfs.crashed());
        // Everything fails until power_cycle.
        assert!(vfs.create_new(&p("/b")).is_err());
        vfs.power_cycle();
        assert!(!vfs.crashed());
    }

    #[test]
    fn unsynced_create_can_vanish_synced_one_cannot() {
        // Never synced the directory: the file may or may not survive, but
        // with the pending op dropped (seeded) it vanishes entirely.
        let vfs = FaultVfs::new(FaultConfig::default());
        let mut f = vfs.create_new(&p("/gone")).unwrap();
        f.write_all(b"data").unwrap();
        f.sync_data().unwrap();
        drop(f);
        // Find a seed where the pending dir op is dropped.
        let mut vanished = false;
        for seed in 0..64u64 {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                ..FaultConfig::default()
            });
            let mut f = vfs.create_new(&p("/gone")).unwrap();
            f.write_all(b"data").unwrap();
            f.sync_data().unwrap();
            drop(f);
            vfs.power_cycle();
            if vfs.file_bytes(&p("/gone")).is_none() {
                vanished = true;
                break;
            }
        }
        assert!(vanished, "no seed dropped the unsynced directory entry");
        // With the dir synced it always survives.
        vfs.sync_parent_dir(&p("/gone")).unwrap();
        vfs.power_cycle();
        assert_eq!(vfs.file_bytes(&p("/gone")).unwrap(), b"data");
    }

    #[test]
    fn lying_sync_reports_ok_but_persists_nothing() {
        let vfs = FaultVfs::new(FaultConfig {
            lie_sync_at: Some(1),
            ..FaultConfig::default()
        });
        let mut f = vfs.create_new(&p("/a")).unwrap();
        vfs.sync_parent_dir(&p("/a")).unwrap();
        f.write_all(b"lost").unwrap();
        f.sync_data().unwrap(); // lies
        drop(f);
        // Force the pending prefix to drop by finding any seed where it does.
        let mut lost = false;
        for seed in 0..64u64 {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                lie_sync_at: Some(1),
                ..FaultConfig::default()
            });
            let mut f = vfs.create_new(&p("/a")).unwrap();
            vfs.sync_parent_dir(&p("/a")).unwrap();
            f.write_all(b"lost").unwrap();
            f.sync_data().unwrap();
            drop(f);
            vfs.power_cycle();
            if vfs.file_bytes(&p("/a")).unwrap().is_empty() {
                lost = true;
                break;
            }
        }
        assert!(lost, "lying fsync never lost data across seeds");
    }

    #[test]
    fn failing_sync_returns_error() {
        let vfs = FaultVfs::new(FaultConfig {
            fail_sync_at: Some(1),
            ..FaultConfig::default()
        });
        let mut f = vfs.create_new(&p("/a")).unwrap();
        f.write_all(b"x").unwrap();
        assert!(f.sync_data().is_err());
        // Next sync succeeds and persists.
        f.sync_data().unwrap();
        vfs.sync_parent_dir(&p("/a")).unwrap();
        vfs.power_cycle();
        assert_eq!(vfs.file_bytes(&p("/a")).unwrap(), b"x");
    }

    #[test]
    fn enospc_rejects_growth_but_not_overwrite() {
        let vfs = FaultVfs::new(FaultConfig {
            disk_capacity: Some(4),
            ..FaultConfig::default()
        });
        let mut f = vfs.create_new(&p("/a")).unwrap();
        f.write_all(b"1234").unwrap();
        let err = f.write_all(b"5").unwrap_err();
        assert!(err.to_string().contains("space"), "{err}");
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(b"abcd").unwrap(); // in-place overwrite still fits
        let mut buf = Vec::new();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"abcd");
    }

    #[test]
    fn short_writes_are_partial_but_write_all_completes() {
        let vfs = FaultVfs::new(FaultConfig {
            seed: 7,
            short_writes: true,
            ..FaultConfig::default()
        });
        let mut f = vfs.create_new(&p("/a")).unwrap();
        let payload = vec![0xAB; 4096];
        f.write_all(&payload).unwrap();
        let mut buf = Vec::new();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    #[test]
    fn rename_is_atomic_across_power_cycle() {
        for seed in 0..32u64 {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                ..FaultConfig::default()
            });
            let mut f = vfs.create_new(&p("/t.tmp")).unwrap();
            f.write_all(b"new").unwrap();
            f.sync_data().unwrap();
            drop(f);
            vfs.rename(&p("/t.tmp"), &p("/t")).unwrap();
            vfs.power_cycle();
            // Either the rename survived (file at /t) or it didn't (nothing
            // or /t.tmp) — never a half-state with both or mangled bytes.
            let at_t = vfs.file_bytes(&p("/t"));
            let at_tmp = vfs.file_bytes(&p("/t.tmp"));
            assert!(
                !(at_t.is_some() && at_tmp.is_some()),
                "seed {seed}: rename produced two links"
            );
            if let Some(b) = at_t {
                assert_eq!(b, b"new");
            }
        }
    }

    #[test]
    fn power_cycle_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let vfs = FaultVfs::new(FaultConfig {
                seed,
                ..FaultConfig::default()
            });
            let mut f = vfs.create_new(&p("/a")).unwrap();
            f.sync_data().unwrap();
            vfs.sync_parent_dir(&p("/a")).unwrap();
            for i in 0..8u8 {
                f.write_all(&[i; 16]).unwrap();
            }
            drop(f);
            vfs.power_cycle();
            vfs.file_bytes(&p("/a")).unwrap()
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn corrupt_byte_survives_power_cycle() {
        let vfs = FaultVfs::new(FaultConfig::default());
        let mut f = vfs.create_new(&p("/a")).unwrap();
        f.write_all(b"abcdef").unwrap();
        f.sync_data().unwrap();
        vfs.sync_parent_dir(&p("/a")).unwrap();
        assert!(vfs.corrupt_byte(&p("/a"), 2));
        vfs.power_cycle();
        let bytes = vfs.file_bytes(&p("/a")).unwrap();
        assert_eq!(bytes[2], b'c' ^ 0xFF);
    }

    #[test]
    fn a_panic_under_the_state_lock_does_not_wedge_the_disk() {
        let vfs = FaultVfs::new(FaultConfig::default());
        let mut f = vfs.create_new(&p("/a")).unwrap();
        f.write_all(b"kept").unwrap();
        let held = Arc::clone(&vfs);
        let died = std::thread::spawn(move || {
            let _state = lock(&held.state);
            panic!("harness thread dies holding the disk");
        })
        .join();
        assert!(died.is_err());
        assert!(vfs.state.is_poisoned());
        assert_eq!(vfs.file_bytes(&p("/a")).unwrap(), b"kept");
        f.write_all(b"!").unwrap();
        f.sync_data().unwrap();
        assert_eq!(vfs.syncs(), 1);
    }

    #[test]
    fn real_vfs_round_trip_with_dir_sync() {
        let dir = std::env::temp_dir().join(format!("tep_vfs_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        let _ = std::fs::remove_file(&path);
        let vfs = RealVfs;
        let mut f = vfs.create_new(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        vfs.sync_parent_dir(&path).unwrap();
        drop(f);
        let mut f = vfs.open_rw(&path).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello");
        drop(f);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
