//! # tep-core — Tamper-Evident Database Provenance
//!
//! Implementation of *"Do You Know Where Your Data's Been? — Tamper-Evident
//! Database Provenance"* (Zhang, Chapman, LeFevre, 2009): checksum-chained
//! provenance records that let a data recipient cryptographically verify
//! that an object's history was neither altered nor forged — covering
//! **non-linear provenance** (DAGs produced by aggregation) and **compound
//! objects** (provenance at database/table/row/cell granularity).
//!
//! ## Map of the crate
//!
//! | Paper section | Module |
//! |---|---|
//! | §2.1 provenance model | [`record`], [`chain`], [`provenance`] |
//! | §3 atomic objects, Fig. 3 | [`atomic`] |
//! | §3 checksum verification, §3.1 R1–R8 | [`verify`] |
//! | §2.2 threat model (attack simulation) | [`attack`] |
//! | §4.3 compound hashing, Basic vs Economical | [`hashing`] |
//! | §4.2 inheritance + §4.4 complex operations | [`tracker`] |
//! | §5.2 larger-than-memory hashing | [`streaming`] |
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use rand::{rngs::StdRng, SeedableRng};
//! use tep_core::prelude::*;
//! use tep_model::Value;
//!
//! // PKI: a CA enrolls participants.
//! let mut rng = StdRng::seed_from_u64(1);
//! let ca = CertificateAuthority::new(512, HashAlgorithm::Sha256, &mut rng);
//! let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
//! let mut keys = KeyDirectory::new(ca.public_key().clone(), HashAlgorithm::Sha256);
//! keys.register(alice.certificate().clone()).unwrap();
//!
//! // Track operations with provenance checksums.
//! let db = Arc::new(ProvenanceDb::in_memory());
//! let mut tracker = ProvenanceTracker::new(TrackerConfig::default(), db);
//! let (obj, _) = tracker.insert(&alice, Value::Int(41), None).unwrap();
//! tracker.update(&alice, obj, Value::Int(42)).unwrap();
//!
//! // A recipient verifies the object against its provenance.
//! let prov = tep_core::provenance::collect(tracker.db(), obj).unwrap();
//! let hash = tracker.object_hash(obj).unwrap();
//! let verification = Verifier::new(&keys, HashAlgorithm::Sha256).verify(&hash, &prov);
//! assert!(verification.verified());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atomic;
pub mod attack;
pub mod chain;
pub mod checkpoint;
pub mod denial;
pub mod error;
pub mod export;
pub mod gc;
pub mod hashing;
pub mod merkle;
pub mod metrics;
pub mod parallel;
pub mod proof;
pub mod provenance;
pub mod query;
pub mod record;
pub mod slice;
pub mod streaming;
pub mod tenant;
pub mod tracker;
pub mod verify;

pub use atomic::AtomicLedger;
pub use checkpoint::{Checkpoint, SealedCheckpoint, TrustAnchor};
pub use denial::{
    DenialFault, DenialLeaf, DenialProof, RangeProof, SignedDenial, SignedRange, SignedRoot,
};
pub use error::CoreError;
pub use export::to_opm_json;
pub use gc::{
    checkpoint_path, compact_log, load_checkpoint, prune, prune_into, seal_checkpoint, PruneReport,
};
pub use hashing::{hash_atom, subtree_hash, HashCache, HashingStrategy};
pub use merkle::{
    leaf_hash, locate_divergence, shard_tree_of, AeError, AeNodeInfo, AeOracle, AeOutcome,
    AeSummary, ShardTree, TreeOracle,
};
pub use metrics::{Metrics, TransferCounters, TransferSnapshot};
pub use parallel::{default_threads, parallel_map};
pub use proof::{prove, ProofError, SubtreeProof};
pub use provenance::{collect, ProvenanceObject};
pub use query::{DbStats, EdgeIndex, ProvenanceQuery};
pub use record::{BatchChecksum, ChecksumFormat, InputRef, ProvenanceRecord, RecordKind};
pub use slice::{
    BoundaryLink, Polynomial, QueryAnswer, QueryBounds, QueryOp, QuerySpec, SliceProof,
};
pub use tenant::{
    federated_verify, FederatedReport, TenantDirectory, TenantEvidenceCounters, TenantReport,
};
pub use tracker::{ComplexReport, ProvenanceTracker, TrackerConfig};
pub use verify::{
    EvidenceCounters, EvidenceKind, StreamingVerifier, TamperEvidence, Verification, Verifier,
};

/// Common imports for library users.
pub mod prelude {
    pub use crate::atomic::AtomicLedger;
    pub use crate::checkpoint::TrustAnchor;
    pub use crate::error::CoreError;
    pub use crate::hashing::HashingStrategy;
    pub use crate::provenance::{collect, ProvenanceObject};
    pub use crate::query::ProvenanceQuery;
    pub use crate::slice::{QueryOp, QuerySpec, SliceProof};
    pub use crate::tenant::{federated_verify, FederatedReport, TenantDirectory};
    pub use crate::tracker::{ProvenanceTracker, TrackerConfig};
    pub use crate::verify::{StreamingVerifier, TamperEvidence, Verification, Verifier};
    pub use tep_crypto::digest::HashAlgorithm;
    pub use tep_crypto::pki::{CertificateAuthority, KeyDirectory, Participant, ParticipantId};
    pub use tep_model::TenantId;
    pub use tep_storage::{ProvenanceDb, TenantShards};
}
