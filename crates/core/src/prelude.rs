//! One-line import for the batch solver API:
//! `use regla_core::prelude::*;`
//!
//! Brings in the [`Session`]/[`Fleet`] entry points, the [`RunOpts`]
//! builder, the container types, and the handful of simulator/model enums every
//! driver program ends up naming (`Gpu`, `MathMode`, `ExecMode`,
//! `Approach`, `Layout`). Deliberately small: per-kernel plumbing and
//! the tiled/TSQR internals stay behind their modules.

pub use crate::api::{BatchRun, RunOpts, RunOptsBuilder};
pub use crate::session::{Op, OpOutput, Session, SessionBuilder};
pub use crate::fleet::{
    BreakerState, ChaosEvent, ChaosPlan, DeviceReport, Fleet, FleetBuilder,
    FleetPolicy, FleetReport, FleetRun,
};
pub use crate::pipeline::{PipelineOpts, PipelinedRun};
pub use crate::batch::MatBatch;
pub use crate::error::ReglaError;
pub use crate::layout::Layout;
pub use crate::matrix::Mat;
pub use crate::profile::{PhaseDiscrepancy, PipelineReport, ProfileReport};
pub use crate::scalar::C32;
pub use crate::status::{ProblemStatus, RecoveryPolicy};
pub use crate::tiled::MultiLaunch;
pub use regla_gpu_sim::{
    chrome_trace_json, ExecMode, Gpu, MathMode, Profiler, SanitizerCheck, SanitizerMode,
    SanitizerReport, StreamWatchdogReport,
};
pub use regla_model::Approach;
