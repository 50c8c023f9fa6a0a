//! # regla-stap — space-time adaptive radar processing (Section VII)
//!
//! The paper's motivating application: real-time radar processing whose
//! most demanding phase is hundreds of simultaneous complex QR
//! decompositions (the MITRE RT_STAP benchmark sizes 80x16 and 240x66,
//! plus the Imagine paper's 192x96). This crate provides:
//!
//! * a synthetic space-time data-cube generator (clutter ridge + noise +
//!   point targets) as the stand-in for the unavailable radar data;
//! * the adaptive-weight pipeline — training-matrix assembly, batched
//!   complex QR on the simulated GPU, host triangular solves;
//! * the Table VII benchmark harness.

#![forbid(unsafe_code)]

pub mod cfar;
pub mod datacube;
pub mod doppler;
pub mod rt_stap;
pub mod weights;

pub use cfar::{ca_cfar, output_power, CfarParams, Detection};
pub use datacube::{CubeParams, DataCube, Target};
pub use doppler::{
    doppler_filterbank, post_doppler_weights, spatial_steering, DopplerCube,
};
pub use rt_stap::{case_batch, run_case, StapCase, StapResult, RT_STAP_CASES};
pub use weights::{
    apply_weights, solve_weights_gpu, training_matrix, triangular_weight_solve,
};
