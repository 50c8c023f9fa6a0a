//! # regla — batched small linear algebra in (simulated) GPU registers
//!
//! A full reproduction of *"A Predictive Model for Solving Small Linear
//! Algebra Problems in GPU Registers"* (Anderson, Sheffield, Keutzer;
//! IPPS 2012) as a Rust workspace. This facade crate re-exports the
//! sub-crates:
//!
//! * [`gpu_sim`] — the cycle-approximate GF100 simulator (the hardware
//!   substitute; see DESIGN.md §1).
//! * [`model`] — the paper's analytic performance model (Equations 1-2,
//!   Table VI) and the predictive dispatcher.
//! * [`microbench`] — Section II's bandwidth/latency microbenchmarks.
//! * [`core`] — the batched factorization kernels: one-problem-per-thread,
//!   one-problem-per-block (2D/1D cyclic layouts), tiled QR.
//! * [`serve`] — the async solve service: admission control,
//!   micro-batching and deadline-driven flushing over a `Fleet`.
//! * [`tune`] — the model-driven autotuner: enumerate the dispatch design
//!   space, rank it by predicted cycles, validate the top candidates in
//!   the simulator and emit a [`model::DecisionTable`].
//! * [`cpu`] — the multicore CPU baseline (the "MKL" comparator).
//! * [`hybrid`] — the MAGMA/CULA-style hybrid CPU+GPU blocked baseline.
//! * [`stap`] — the space-time adaptive radar processing application.
//!
//! ```
//! use regla::core::{MatBatch, Session};
//!
//! let session = Session::new();
//! let batch = MatBatch::from_fn(6, 6, 64, |k, i, j| {
//!     if i == j { 8.0 } else { ((k + i * j) % 5) as f32 * 0.1 }
//! });
//! let run = session.lu(&batch).unwrap();
//! assert!(run.gflops() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use regla_core as core;
pub use regla_cpu as cpu;
pub use regla_gpu_sim as gpu_sim;
pub use regla_hybrid as hybrid;
pub use regla_microbench as microbench;
pub use regla_model as model;
pub use regla_serve as serve;
pub use regla_stap as stap;
pub use regla_tune as tune;
