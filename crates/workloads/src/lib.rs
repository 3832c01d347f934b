//! # tep-workloads
//!
//! Synthetic workload generators reproducing the paper's experimental setup
//! (§5.1, Tables 1–2):
//!
//! * `synthetic` — the four all-integer tables of Table 1(a) and their
//!   database combinations of Table 1(b) (36 002 … 118 005 nodes).
//! * [`ops`] — complex-operation generators for Experimental Setups **A**
//!   (pure cell-update sweeps), **B** (all-deletes / all-inserts /
//!   all-updates), and **C** (mixed-ratio batches of 500 operations).
//! * [`large`] — the §5.2 larger-than-memory `Title` table (18.9M rows,
//!   56.9M nodes at paper scale), generated lazily for streaming hashing.
//! * `crash` — recorded append/sync schedules the crash-consistency
//!   harness replays under fault injection.
//! * `chaos` — seeded, transport-agnostic fault schedules the network
//!   chaos harness sweeps (cut/flip/stall/reset at every frame).
//!
//! All generation is seeded and deterministic, so experiment runs are
//! reproducible bit-for-bit.

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod chaos;
pub(crate) mod crash;
pub mod large;
pub mod ops;
pub(crate) mod synthetic;

pub use chaos::{schedule, seeds_from_env, ChaosPoint, WireFault};
pub use crash::{CrashOp, CrashWorkload};
pub use large::{stream_title_database, TitleHashResult, PAPER_TITLE_ROWS};
pub use ops::{
    setup_a_updates, setup_b_delete_rows, setup_b_insert_rows, setup_b_update_cells, setup_c_mix,
    ComplexOp, MixSpec, TablePlan, PAPER_C_MIXES,
};
pub use synthetic::{
    build_database, paper_database, paper_node_count, SyntheticDb, TableSpec, PAPER_TABLES,
};
