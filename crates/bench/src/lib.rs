//! # tep-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5):
//!
//! | Artifact | Runner | `repro` flag |
//! |---|---|---|
//! | Table 1 node counts | `tep_workloads::paper_node_count` | `--table1` |
//! | Fig 6 hashing time vs DB size | [`experiments::run_fig6`] | `--fig6` |
//! | Fig 7 Basic vs Economical | [`experiments::run_fig7`] | `--fig7` |
//! | Fig 8/9 per-op-type time/space | [`experiments::run_setup_b`] | `--fig8`, `--fig9` |
//! | Fig 10/11 mixed-op time/space | [`experiments::run_setup_c`] | `--fig10`, `--fig11` |
//! | §5.2 streaming large DB | [`experiments::run_large`] | `--large` |
//! | §3.2 local vs global chaining | [`experiments::run_chaining`] | `--chaining` |
//! | Verification + kernel cost (extension) | [`experiments::run_verify_cost`], [`experiments::run_kernel_cost`] | `--verify-cost` |
//!
//! The `repro` binary prints each experiment as an aligned text table plus
//! CSV, mirroring the paper's reporting (mean of N runs with 95% CIs).

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod stats;
pub mod table;

pub use experiments::{
    run_ablation, run_chaining, run_fig6, run_fig7, run_large, run_setup_b, run_setup_c,
    run_verify_cost, AblationRow, ChainingResult, ExperimentConfig, Fig6Row, Fig7Row, LargeResult,
    SetupBRow, SetupBWorkload, SetupCRow, VerifyRow,
};
pub use stats::{ns_to_ms, Summary};
pub use table::TextTable;
