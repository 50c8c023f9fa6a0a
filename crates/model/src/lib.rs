//! # regla-model — the paper's analytic GPU performance model
//!
//! Implements Section II's LogP-derived cost equations, Section III's FLOP
//! counts, Section IV's roofline for the one-problem-per-thread approach,
//! and Section V-D's per-operation cost model for the one-problem-per-block
//! approach (Table VI), plus the dispatch logic that turns the model into a
//! *predictive* tool for choosing an execution strategy.
//!
//! ```
//! use regla_model::{Algorithm, ModelParams, per_thread};
//!
//! // Section IV's worked example: a 7x7 QR has arithmetic intensity 1.17
//! // FLOPs/byte, so the per-thread roofline predicts ~126 GFLOP/s.
//! let p = ModelParams::table_iv();
//! let g = per_thread::predicted_gflops(&p, Algorithm::Qr, 7, 4);
//! assert!((g - 126.0).abs() < 2.0);
//! ```

#![forbid(unsafe_code)]

pub mod dispatch;
pub mod intensity;
pub mod logp;
pub mod params;
pub mod per_block;
pub mod per_thread;
pub mod pipeline;
pub mod plan;
pub mod verify;

pub use dispatch::{
    choose, choose_with_rhs, model_plan, plan_cycles, predicted_cycles, predicted_seconds,
    saturation_batch, tiled_panel_cycles, Candidate, Decision, ModelError,
};
pub use intensity::{arithmetic_intensity, bytes_moved, Algorithm};
pub use logp::{tau_global, tau_local};
pub use params::ModelParams;
pub use per_block::{
    phase_estimates, predict_block, predict_block_plan, qr_panels, BlockPrediction, PanelEstimate,
    PhaseEstimate,
};
pub use per_thread::{communication_bound_gflops, register_resident_limit};
pub use pipeline::PipelineEstimate;
pub use verify::{verify_cycles, verify_flops, verify_seconds, VerifyMode, HOST_VERIFY_GFLOPS};
pub use plan::{
    block_plan, block_plan_with_threads, block_threads, heuristic_plan, thread_plan, Approach,
    BlockPlan, DecisionTable, Layout, Plan, PlanKey, Planner, TableEntry, TableParseError,
    ThreadPlan, DEFAULT_PANEL, PER_BLOCK_MAX_DECLARED_REGS,
};
