//! # tep-query — verifiable provenance query engine
//!
//! The paper (Zhang, Chapman, LeFevre 2009) makes provenance *histories*
//! tamper-evident; this crate makes provenance *answers* tamper-evident.
//! It layers a query engine over the record log:
//!
//! * **Secondary indexes** ([`QueryIndex`]) — reverse derivation edges
//!   and by-participant posting lists, built incrementally by tailing the
//!   log and optionally persisted to a checksum-bound `.tepidx` sidecar.
//! * **Operators** ([`QueryOp`]) — `ancestors`/`descendants` with
//!   depth/seq bounds, `lineage` slices, per-participant `audit` slices,
//!   and provenance-`polynomial` evaluation over the derivation DAG
//!   (the ℕ\[X\] semiring of "Provenance for Aggregate Queries",
//!   arXiv 1101.1110).
//! * **Slice proofs** ([`SliceProof`]) — every answer ships the minimal
//!   record subset plus boundary chain checksums so the recipient re-runs
//!   the R1–R8 checks over just that slice with
//!   `tep_core::Verifier::verify_slice` and recomputes the answer.
//!   Tampering, omission, or a fabricated answer yields attributed
//!   `EvidenceKind`, never a silently wrong result.
//!
//! ```
//! use std::sync::Arc;
//! use rand::{rngs::StdRng, SeedableRng};
//! use tep_core::prelude::*;
//! use tep_model::{AggregateMode, Value};
//! use tep_query::{QueryEngine, QueryOp, QuerySpec};
//!
//! let mut rng = StdRng::seed_from_u64(5);
//! let ca = CertificateAuthority::new(512, HashAlgorithm::Sha256, &mut rng);
//! let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
//! let mut keys = KeyDirectory::new(ca.public_key().clone(), HashAlgorithm::Sha256);
//! keys.register(alice.certificate().clone()).unwrap();
//!
//! let db = Arc::new(ProvenanceDb::in_memory());
//! let mut tracker = ProvenanceTracker::new(TrackerConfig::default(), db.clone());
//! let (a, _) = tracker.insert(&alice, Value::Int(1), None).unwrap();
//! let (b, _) = tracker.insert(&alice, Value::Int(2), None).unwrap();
//! let (c, _) = tracker
//!     .aggregate(&alice, &[a, b], Value::Int(3), AggregateMode::Atomic)
//!     .unwrap();
//!
//! let engine = QueryEngine::new(db, HashAlgorithm::Sha256);
//! let proof = engine.execute(&QuerySpec::new(QueryOp::Ancestors, c)).unwrap();
//! // The recipient re-verifies the slice without trusting the engine.
//! let v = Verifier::new(&keys, HashAlgorithm::Sha256).verify_slice(&proof);
//! assert!(v.verified());
//! ```

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod index;

pub use engine::{QueryEngine, QueryError};
pub use index::{sidecar_path, QueryIndex};
// Re-export the shared query vocabulary so wire/CLI callers need only
// one crate in scope.
pub use tep_core::slice::{
    BoundaryLink, Polynomial, QueryAnswer, QueryBounds, QueryOp, QuerySpec, SliceProof,
};
