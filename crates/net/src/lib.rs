//! # tep-net — provenance exchange over TCP
//!
//! The paper's threat model (§2.2) is about provenance *in motion*: "data
//! and its provenance are passed from participant to participant", and a
//! malicious participant — or anyone on the path — may alter, truncate, or
//! forge the history before it reaches the recipient. This crate is the
//! transport for that hand-off:
//!
//! * [`wire`] — a deterministic, length-prefixed binary frame format that
//!   reuses the storage layer's CRC framing and the model's canonical value
//!   encoding, hardened against hostile input (allocation caps, strict
//!   decoding).
//! * [`server`] — a std-only readiness-driven event-loop server
//!   (nonblocking sockets multiplexed over raw `poll(2)` via `sys`,
//!   per-connection state machine, one write per turn, bounded concurrency,
//!   graceful shutdown) serving objects out of a
//!   [`tep_storage::ProvenanceDb`] + data forest.
//! * [`client`] — the receiving side of a transfer, once: **streaming
//!   verify-on-receive**, where every provenance record is checked the
//!   moment its frame arrives, the object hash is recomputed from the
//!   delivered data, and the transfer is rejected at the first bad frame —
//!   with the frame number in the report. [`Client`] wraps it in a kept
//!   connection and retries with decorrelated-jitter backoff.
//! * [`proxy`] — the one wire-fault relay, a man-in-the-middle harness
//!   whose actions either tamper with frames *in flight* (recomputing the
//!   CRC, as a real attacker would) so tests can demonstrate the R1–R5
//!   guarantees hold on the wire, or fail the path the way a network does
//!   (cuts, torn frames, bit flips, stalls, resets) — deterministic and
//!   seeded, the network twin of `tep_storage::vfs::FaultVfs`.
//! * [`replica`] — primary→replica replication: a replica tails the
//!   primary's record log through that same receiving side, opened from
//!   durable sealed-verifier checkpoints (crash-safe resume) and streamed
//!   into a sink that reconciles with, and appends to, its own store; it
//!   runs periodic Merkle anti-entropy over the object-id space to locate
//!   divergence in O(log n) round trips.
//!
//! Beyond full transfers, QUERY/QRESULT frames serve *verifiable query
//! answers*: the server runs a `tep_query::QueryEngine` over its record
//! log and ships each answer as a `SliceProof`; `Client::query` re-runs
//! the verification over just that slice (`Verifier::verify_slice`) and
//! recomputes the answer before accepting it — a tampered or incomplete
//! slice is rejected with attributed evidence, never retried.
//!
//! Transfers are *resumable*: a client cut after k verified records
//! reconnects with a RESUME frame proving its position via a rolling
//! record-stream digest, and continues verify-on-receive from k+1. A
//! server that cannot (or will not honestly) confirm the position is
//! rejected as `ResumeMismatch` tamper evidence.
//!
//! The server counts into one metric registry (`tep_net_*`, readable via
//! [`ServerHandle::registry`] or a STATS frame). A client or replica keeps
//! its own [`TransferCounters`] — frames, bytes, verify failures, retries
//! — mirrored into a registry it attaches; a client's stay readable per
//! endpoint through [`Client::counters`].

#![warn(unreachable_pub)]
#![warn(missing_docs)]
// Unsafe is denied crate-wide; the single exception is the `sys` module,
// which wraps the raw `poll(2)` syscall behind a safe API and opts in with
// a scoped `#![allow(unsafe_code)]` + SAFETY comment.
#![deny(unsafe_code)]

pub mod client;
mod metrics;
pub mod proxy;
pub mod replica;
pub mod server;
pub(crate) mod sys;
pub mod wire;

pub use client::{
    Client, ClientConfig, FetchReport, NetError, QueryReport, RangeReport, RetryPolicy,
};
pub use metrics::{TransferCounters, TransferSnapshot};
pub use proxy::{ProxyAction, TamperProxy};
pub use replica::{AeReport, AeStatus, CatchUpReport, Replica, ReplicaConfig};
pub use server::{serve, serve_with_registry, Catalog, ServerConfig, ServerHandle, TenantSpec};
pub use wire::{DataEntry, ErrorCode, Message, OfferEntry, WireError, MAX_FRAME, WIRE_VERSION};
