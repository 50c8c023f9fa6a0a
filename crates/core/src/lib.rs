//! # regla-core — batched small dense linear algebra in GPU registers
//!
//! The primary contribution of *"A Predictive Model for Solving Small
//! Linear Algebra Problems in GPU Registers"* (IPPS 2012), reproduced on
//! the `regla-gpu-sim` substrate:
//!
//! * **One problem per thread** (§IV) — for n < 16 each thread factors a
//!   whole matrix serially in its register file; performance is bounded by
//!   arithmetic intensity × DRAM bandwidth until the registers spill.
//! * **One problem per block** (§V) — the matrix is distributed over a
//!   thread block's register files (2D cyclic by default; 1D row/column
//!   cyclic for the Figure 7 comparison) and factored cooperatively
//!   through shared memory.
//! * **Tiled within blocks** (§VII) — tall matrices (the 240x66 radar
//!   problems) are factored panel by panel, streaming through DRAM.
//!
//! Four algorithms are provided in all paths: Gauss-Jordan solve, LU
//! without pivoting, Householder QR, and least squares / linear solve via
//! QR, for both `f32` and single-precision complex [`C32`].
//!
//! ```
//! use regla_core::{MatBatch, Session};
//! use regla_gpu_sim::Gpu;
//!
//! // Factor 128 diagonally-dominant 6x6 systems on the simulated GPU.
//! let session = Session::with_config(Gpu::quadro_6000().cfg);
//! let mut proto = regla_core::Mat::from_fn(6, 6, |i, j| ((i * j) as f32).sin());
//! proto.make_diagonally_dominant();
//! let batch = MatBatch::replicate(&proto, 128);
//! let run = session.lu(&batch).unwrap();
//! assert!(run.gflops() > 0.0);
//! assert!(run.status.iter().all(|s| s.is_ok()));
//! ```
//!
//! ## Failure semantics
//!
//! Every public entry point returns `Result<_, ReglaError>`: malformed
//! shapes or options are reported as values, never as panics. Within a
//! successful run, each problem carries a [`ProblemStatus`] verdict
//! (singular pivot, non-finite result, or a detected hardware fault when
//! a [`regla_gpu_sim::FaultPlan`] is active), and the bounded
//! [`RecoveryPolicy`] retries and finally CPU-degrades failed problems.

pub mod api;
pub mod batch;
pub mod elem;
pub mod error;
pub mod fleet;
pub mod global_level;
pub mod host;
pub mod layout;
pub mod matrix;
pub mod per_block;
pub mod per_thread;
pub mod pipeline;
pub mod prelude;
pub mod profile;
pub mod scalar;
pub mod session;
pub mod status;
pub mod tiled;
pub mod verify;

pub use api::{BatchRun, RunOpts, RunOptsBuilder};
pub use regla_model::{DecisionTable, Plan, PlanKey, Planner};
pub use session::{Op, OpOutput, Session, SessionBuilder};
pub use pipeline::{PipelineOpts, PipelinedRun};
pub use profile::{PhaseDiscrepancy, PipelineReport, ProfileReport};
pub use batch::MatBatch;
pub use elem::{DeviceScalar, Elem};
pub use error::ReglaError;
pub use layout::{Layout, LayoutMap};
pub use matrix::Mat;
pub use scalar::{Scalar, C32};
pub use status::{ProblemStatus, RecoveryPolicy, RecoveryStats, VerifyScreen};
pub use verify::VerifyMode;
pub use fleet::{
    BreakerPolicy, BreakerState, ChaosEvent, ChaosPlan, DeviceReport, Fleet, FleetBuilder,
    FleetPolicy, FleetReport, FleetRun,
};
pub use global_level::{global_level_qr, GlobalLevelOpts};
pub use tiled::MultiLaunch;
