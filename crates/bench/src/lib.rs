//! # regla-bench — harnesses that regenerate every table and figure
//!
//! One binary per experiment (`cargo run -p regla-bench --release --bin
//! fig9_per_block`), each printing the paper's rows/series next to our
//! measured (simulator) and predicted (analytic model) values. `run_all`
//! regenerates everything into `results/`.

#![forbid(unsafe_code)]

pub mod bench_telemetry;
pub mod experiments;
pub mod golden;
pub mod report;
pub mod workloads;

pub use report::Table;

/// Scale factor for quick runs: set `REGLA_FAST=1` to shrink batches and
/// sweeps (used by smoke runs; the full harness uses the paper's sizes).
/// Unrecognized spellings warn once and fall back to the full-size run.
pub fn fast_mode() -> bool {
    regla_gpu_sim::env_flag("REGLA_FAST", false)
}
