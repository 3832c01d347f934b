//! # tep-storage
//!
//! Embedded storage substrate for tamper-evident provenance. The paper's
//! experiments ran against two MySQL databases (a back-end database and a
//! provenance database, §5.1); this crate provides the equivalent
//! self-contained storage engine:
//!
//! * [`archive`] — checkpoint-anchored log compaction: pre-checkpoint
//!   frames move to cold CRC-framed archive segments and the live log is
//!   rewritten behind a cumulative compaction stamp.
//! * [`checkpoint_store`] — atomically-replaced durable blob storage for
//!   replica catch-up checkpoints (sealed verifier state survives a
//!   power cycle; a torn file honestly reads as absent).
//! * [`crc`] — CRC-32 frame checksums (accidental-corruption protection,
//!   distinct from the cryptographic tamper-evidence layer).
//! * [`log`] — a CRC-framed append-only log with torn-write recovery, the
//!   durability primitive.
//! * `provenance_db` — the provenance record store: the paper's
//!   `⟨SeqID, Participant, Oid, Checksum(128)⟩` rows plus the full record
//!   payload, indexed by object, optionally durable.
//! * [`tenant_shards`] — tenant-sharded storage: one independent append
//!   log (and quarantine sidecar) per tenant under a single root, opened
//!   independently so one tenant's storage fault never degrades another.
//! * [`vfs`] — the virtual-filesystem seam every durable structure writes
//!   through: a real `std::fs` passthrough for production and a seeded
//!   deterministic fault injector (torn writes, lying fsync, ENOSPC,
//!   crash-at-op-N) for crash-consistency testing.
//!
//! The back-end (user-data) database is the in-memory
//! [`tep_model::Forest`]; its durability is out of scope for the paper's
//! measurements, which only time checksum generation and provenance-row
//! storage.

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod archive;
pub mod checkpoint_store;
pub mod crc;
pub mod log;
pub(crate) mod obs_vfs;
pub(crate) mod provenance_db;
pub mod snapshot;
pub mod tenant_shards;
pub mod vfs;

pub use archive::{
    archive_path_for, compact_durable_log, read_archive, ArchiveSegment, CompactionReport,
    CompactionStamp,
};
pub use checkpoint_store::CheckpointStore;
pub use log::{quarantine_path, AppendLog, GapKind, LogError, LogGap, RecoveredLog};
pub use obs_vfs::{record_recovery, ObservedVfs};
pub use provenance_db::{ProvenanceDb, RecoveryReport, StoreError, StoredRecord};
pub use snapshot::{load_forest, load_forest_with, save_forest, save_forest_with, SnapshotError};
pub use tenant_shards::{shard_path, TenantShards};
pub use vfs::{FaultConfig, FaultVfs, RealVfs, Vfs, VirtualFile};
