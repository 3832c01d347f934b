//! # tep-model
//!
//! The abstract data model of tamper-evident database provenance: a database
//! is a **forest of trees** of atomic objects `(id, value, {child_ids})`
//! (§4.1 of the paper), manipulated through four primitive operations —
//! insert, delete, update, aggregate.
//!
//! * [`Forest`] — the object store with parent/child structure and the
//!   traversals the provenance layer needs.
//! * [`Value`] — typed atomic values with deterministic equality/hashing.
//! * [`PrimitiveOp`] / [`OpOutcome`] — operations as data, so workloads can
//!   generate them and complex operations can batch them.
//! * [`encode`] — the canonical, domain-separated byte encoding every hash
//!   is computed over.
//! * [`relational`] — helpers for the paper's depth-4 relational view
//!   (database → tables → rows → cells).

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod encode;
pub mod error;
pub mod forest;
pub mod id;
pub mod idhash;
pub mod node;
pub mod ops;
pub mod relational;
pub mod value;

pub use error::ModelError;
pub use forest::{AggregateMode, DirtyMark, Forest};
pub use id::{ObjectId, TenantId};
pub use node::Node;
pub use ops::{OpOutcome, PrimitiveOp};
pub use value::Value;

// Participants are defined by the PKI substrate; re-export for convenience.
pub use tep_crypto::pki::ParticipantId;
