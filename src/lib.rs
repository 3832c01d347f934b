//! # tepdb — Tamper-Evident Database Provenance
//!
//! A complete implementation of *"Do You Know Where Your Data's Been? —
//! Tamper-Evident Database Provenance"* (Zhang, Chapman & LeFevre, 2009):
//! checksum-chained provenance for database objects, covering non-linear
//! (DAG) provenance from aggregation and fine-grained provenance for
//! compound objects (database → table → row → cell), with recipient-side
//! cryptographic verification of guarantees R1–R8.
//!
//! This crate is a facade over the workspace:
//!
//! * [`obs`] — zero-dependency observability spine: sharded counters,
//!   gauges, histograms, and a text-exposition registry every layer
//!   records into.
//! * [`crypto`] — big integers, SHA-1/SHA-256, RSA-PKCS#1 v1.5, simulated
//!   PKI (all implemented from scratch).
//! * [`model`] — the forest-of-trees data model and primitive operations.
//! * [`storage`] — CRC-framed append-only log and the provenance record
//!   store (durable or in-memory).
//! * [`core`] — provenance records & checksums, Basic/Economical compound
//!   hashing, inheritance, complex operations, DAG assembly, verification,
//!   and an attack toolkit.
//! * [`query`] — verifiable provenance queries over the record log:
//!   secondary indexes, ancestors/descendants/lineage/audit/polynomial
//!   operators, every answer shipped as a re-verifiable slice proof.
//! * [`net`] — provenance exchange over TCP: deterministic wire format,
//!   multithreaded server, and a retrying client with streaming
//!   verify-on-receive.
//! * [`workloads`] — the paper's synthetic tables and operation mixes.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use rand::{rngs::StdRng, SeedableRng};
//! use tepdb::prelude::*;
//!
//! // 1. PKI setup: a CA enrolls participants.
//! let mut rng = StdRng::seed_from_u64(42);
//! let ca = CertificateAuthority::new(512, HashAlgorithm::Sha256, &mut rng);
//! let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
//! let mut keys = KeyDirectory::new(ca.public_key().clone(), HashAlgorithm::Sha256);
//! keys.register(alice.certificate().clone()).unwrap();
//!
//! // 2. Track operations.
//! let mut tracker = ProvenanceTracker::new(
//!     TrackerConfig::default(),
//!     Arc::new(ProvenanceDb::in_memory()),
//! );
//! let (obj, _) = tracker.insert(&alice, Value::Int(1), None).unwrap();
//! tracker.update(&alice, obj, Value::Int(2)).unwrap();
//!
//! // 3. Ship the object + provenance; the recipient verifies.
//! let prov = tepdb::core::provenance::collect(tracker.db(), obj).unwrap();
//! let hash = tracker.object_hash(obj).unwrap();
//! assert!(Verifier::new(&keys, HashAlgorithm::Sha256).verify(&hash, &prov).verified());
//! ```

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tep_core as core;
pub use tep_crypto as crypto;
pub use tep_model as model;
pub use tep_net as net;
pub use tep_obs as obs;
pub use tep_query as query;
pub use tep_storage as storage;
pub use tep_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use tep_core::prelude::*;
    pub use tep_model::{AggregateMode, Forest, ObjectId, PrimitiveOp, Value};
    pub use tep_storage::StoredRecord;
}
