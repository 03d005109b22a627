//! # disassoc-bench — experiment harness
//!
//! One runner per table/figure of the paper's evaluation (Section 7), plus
//! the core, store, scenario and torture benches.  Each runner is a binary
//! under `src/bin/` named after the figure it regenerates
//! (`fig07a_real_loss`, `fig11b_vs_apriori`, …); `run_all_experiments`
//! executes every runner and collects the reports under `experiments/out/`.
//!
//! The paper's full-size workloads (up to 10M synthetic records, the
//! 515k-record POS log) are reachable with `--scale 1`, but the default
//! scale keeps every experiment laptop-sized; EXPERIMENTS.md records the
//! scale used for the committed results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core_bench;
pub mod experiment;
pub mod figures;
pub mod scenario_bench;
pub mod store_bench;
pub mod torture_bench;
pub mod workloads;

pub use experiment::{parse_scale_arg, ExperimentReport, Series};
pub use workloads::{quest_scaled, real_scaled, ScaledWorkload};
