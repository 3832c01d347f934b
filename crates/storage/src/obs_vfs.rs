//! Metric-recording decorator for the [`Vfs`] seam.
//!
//! [`ObservedVfs`] wraps any [`Vfs`] and counts every namespace operation,
//! every byte moved through file handles, and the latency of each
//! `sync_data` call — without the wrapped implementation (or its callers)
//! knowing. Because [`crate::ProvenanceDb::durable_with`] and the snapshot
//! helpers already accept an `Arc<dyn Vfs>`, wrapping is one line:
//!
//! ```
//! use std::sync::Arc;
//! use tep_obs::Registry;
//! use tep_storage::vfs::{FaultConfig, FaultVfs};
//! use tep_storage::ObservedVfs;
//!
//! let registry = Registry::new();
//! let vfs = ObservedVfs::wrap(FaultVfs::new(FaultConfig::default()), &registry);
//! let db = tep_storage::ProvenanceDb::durable_with(vfs, std::path::Path::new("/prov.db")).unwrap();
//! drop(db);
//! assert!(registry.counter_value("tep_storage_vfs_create_total") >= 1);
//! ```
//!
//! Metric names follow the `tep_storage_*` schema:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `tep_storage_vfs_create_total` | counter | `create_new` calls |
//! | `tep_storage_vfs_open_total` | counter | `open_rw` calls |
//! | `tep_storage_vfs_rename_total` | counter | `rename` calls |
//! | `tep_storage_vfs_remove_total` | counter | `remove_file` calls |
//! | `tep_storage_vfs_dir_sync_total` | counter | `sync_parent_dir` calls |
//! | `tep_storage_read_bytes_total` | counter | bytes read through handles |
//! | `tep_storage_write_bytes_total` | counter | bytes written through handles |
//! | `tep_storage_fsync_total` | counter | `sync_data` calls |
//! | `tep_storage_fsync_ns` | histogram | `sync_data` latency |
//! | `tep_storage_io_errors_total` | counter | failed vfs/file operations |

use crate::provenance_db::RecoveryReport;
use crate::vfs::{Vfs, VirtualFile};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use tep_obs::{Counter, Histogram, Registry};

/// The shared counter bundle; one per [`ObservedVfs`], cloned into every
/// file handle it opens.
#[derive(Clone)]
struct VfsObs {
    creates: Counter,
    opens: Counter,
    renames: Counter,
    removes: Counter,
    dir_syncs: Counter,
    read_bytes: Counter,
    write_bytes: Counter,
    fsyncs: Counter,
    fsync_ns: Histogram,
    io_errors: Counter,
}

impl VfsObs {
    fn new(registry: &Registry) -> Self {
        VfsObs {
            creates: registry.counter("tep_storage_vfs_create_total"),
            opens: registry.counter("tep_storage_vfs_open_total"),
            renames: registry.counter("tep_storage_vfs_rename_total"),
            removes: registry.counter("tep_storage_vfs_remove_total"),
            dir_syncs: registry.counter("tep_storage_vfs_dir_sync_total"),
            read_bytes: registry.counter("tep_storage_read_bytes_total"),
            write_bytes: registry.counter("tep_storage_write_bytes_total"),
            fsyncs: registry.counter("tep_storage_fsync_total"),
            fsync_ns: registry.latency_histogram("tep_storage_fsync_ns"),
            io_errors: registry.counter("tep_storage_io_errors_total"),
        }
    }

    /// Counts a failed operation, passing the result through unchanged.
    fn track<T>(&self, r: io::Result<T>) -> io::Result<T> {
        if r.is_err() {
            self.io_errors.inc();
        }
        r
    }
}

/// A [`Vfs`] decorator that records `tep_storage_*` metrics for every
/// operation performed through it. The module docs of `obs_vfs.rs` give
/// the metric schema.
pub struct ObservedVfs {
    inner: Arc<dyn Vfs>,
    obs: VfsObs,
}

impl ObservedVfs {
    /// Wraps `inner`, registering the storage metrics in `registry`.
    pub fn wrap(inner: Arc<dyn Vfs>, registry: &Registry) -> Arc<ObservedVfs> {
        Arc::new(ObservedVfs {
            inner,
            obs: VfsObs::new(registry),
        })
    }
}

impl Vfs for ObservedVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>> {
        self.obs.creates.inc();
        let f = self.obs.track(self.inner.create_new(path))?;
        Ok(Box::new(ObservedFile {
            inner: f,
            obs: self.obs.clone(),
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VirtualFile>> {
        self.obs.opens.inc();
        let f = self.obs.track(self.inner.open_rw(path))?;
        Ok(Box::new(ObservedFile {
            inner: f,
            obs: self.obs.clone(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.obs.renames.inc();
        self.obs.track(self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.obs.removes.inc();
        self.obs.track(self.inner.remove_file(path))
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.obs.dir_syncs.inc();
        self.obs.track(self.inner.sync_parent_dir(path))
    }
}

struct ObservedFile {
    inner: Box<dyn VirtualFile>,
    obs: VfsObs,
}

impl Read for ObservedFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.obs.track(self.inner.read(buf))?;
        self.obs.read_bytes.add(n as u64);
        Ok(n)
    }
}

impl Write for ObservedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.obs.track(self.inner.write(buf))?;
        self.obs.write_bytes.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.obs.track(self.inner.flush())
    }
}

impl Seek for ObservedFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl VirtualFile for ObservedFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.obs.fsyncs.inc();
        let timer = self.obs.fsync_ns.start_timer();
        let r = self.obs.track(self.inner.sync_data());
        drop(timer);
        r
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.obs.track(self.inner.set_len(len))
    }
}

/// Records a [`RecoveryReport`] into `registry` under the
/// `tep_storage_recovery_*` names, so reopen/repair outcomes show up next
/// to the I/O counters:
///
/// * `tep_storage_recovery_total` — recoveries performed;
/// * `tep_storage_recovery_degraded_total` — recoveries where
///   [`RecoveryReport::is_degraded`] held;
/// * `tep_storage_recovery_truncated_bytes_total` — torn tail bytes dropped;
/// * `tep_storage_recovery_gaps_total` — interior **corruption** gaps
///   skipped (compaction-excised ranges are deliberate and counted under
///   `tep_storage_compaction_excised_bytes_total` instead);
/// * `tep_storage_quarantine_bytes_total` — bytes moved to quarantine;
/// * `tep_storage_recovery_decode_failures_total` — frames whose payload
///   failed record decoding;
/// * `tep_storage_compacted_opens_total` /
///   `tep_storage_compaction_excised_bytes_total` — opens of a
///   compaction-stamped log and the cumulative bytes its stamp attests.
pub fn record_recovery(registry: &Registry, report: &RecoveryReport) {
    registry.counter("tep_storage_recovery_total").inc();
    if report.is_degraded() {
        registry
            .counter("tep_storage_recovery_degraded_total")
            .inc();
    }
    registry
        .counter("tep_storage_recovery_truncated_bytes_total")
        .add(report.truncated_bytes);
    registry
        .counter("tep_storage_recovery_gaps_total")
        .add(report.corruption_gaps() as u64);
    if let Some(stamp) = &report.compaction {
        registry.counter("tep_storage_compacted_opens_total").inc();
        registry
            .counter("tep_storage_compaction_excised_bytes_total")
            .add(stamp.excised_bytes);
    }
    registry
        .counter("tep_storage_quarantine_bytes_total")
        .add(report.quarantined_bytes);
    registry
        .counter("tep_storage_recovery_decode_failures_total")
        .add(report.decode_failures);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultConfig, FaultVfs};
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn counts_ops_bytes_and_fsyncs() {
        let registry = Registry::new();
        let vfs = ObservedVfs::wrap(FaultVfs::new(FaultConfig::default()), &registry);
        let mut f = vfs.create_new(&p("/a")).unwrap();
        f.write_all(b"hello world").unwrap();
        f.sync_data().unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        drop(f);
        vfs.sync_parent_dir(&p("/a")).unwrap();
        vfs.rename(&p("/a"), &p("/b")).unwrap();
        vfs.remove_file(&p("/b")).unwrap();

        let c = |name: &str| registry.counter_value(name);
        assert_eq!(c("tep_storage_vfs_create_total"), 1);
        assert_eq!(c("tep_storage_vfs_rename_total"), 1);
        assert_eq!(c("tep_storage_vfs_remove_total"), 1);
        assert_eq!(c("tep_storage_vfs_dir_sync_total"), 1);
        assert_eq!(c("tep_storage_write_bytes_total"), 11);
        assert_eq!(c("tep_storage_read_bytes_total"), 11);
        assert_eq!(c("tep_storage_fsync_total"), 1);
        assert_eq!(c("tep_storage_io_errors_total"), 0);
    }

    #[test]
    fn failed_operations_count_as_io_errors() {
        let registry = Registry::new();
        let vfs = ObservedVfs::wrap(FaultVfs::new(FaultConfig::default()), &registry);
        assert!(vfs.open_rw(&p("/missing")).is_err());
        assert!(vfs.remove_file(&p("/missing")).is_err());
        assert_eq!(registry.counter_value("tep_storage_io_errors_total"), 2);
    }

    #[test]
    fn recovery_report_is_recorded() {
        let registry = Registry::new();
        let gap = crate::log::LogGap {
            kind: crate::log::GapKind::Corruption,
            preceding_frames: 3,
            offset: 128,
            bytes: 32,
        };
        // One compaction-excised gap rides along: it must not inflate the
        // corruption gap counter, only the compaction counters.
        let excised = crate::log::LogGap {
            kind: crate::log::GapKind::Compacted,
            preceding_frames: 0,
            offset: 12,
            bytes: 4096,
        };
        let report = RecoveryReport {
            truncated_bytes: 17,
            gaps: vec![excised, gap, gap],
            quarantined_bytes: 64,
            decode_failures: 1,
            compaction: Some(crate::archive::CompactionStamp {
                generation: 1,
                excised_frames: 50,
                excised_bytes: 4096,
                watermark: 50,
                checkpoint_digest: vec![0xCD; 32],
            }),
        };
        record_recovery(&registry, &report);
        record_recovery(&registry, &RecoveryReport::default());
        let c = |name: &str| registry.counter_value(name);
        assert_eq!(c("tep_storage_recovery_total"), 2);
        assert_eq!(c("tep_storage_recovery_degraded_total"), 1);
        assert_eq!(c("tep_storage_recovery_truncated_bytes_total"), 17);
        assert_eq!(c("tep_storage_recovery_gaps_total"), 2);
        assert_eq!(c("tep_storage_quarantine_bytes_total"), 64);
        assert_eq!(c("tep_storage_recovery_decode_failures_total"), 1);
        assert_eq!(c("tep_storage_compacted_opens_total"), 1);
        assert_eq!(c("tep_storage_compaction_excised_bytes_total"), 4096);
    }
}
