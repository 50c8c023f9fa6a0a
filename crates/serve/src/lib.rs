//! # regla-serve — an async solve service over a [`regla_core::Fleet`]
//!
//! Many logical clients submit small solve requests (an [`Op`], a shape,
//! a batch of problems) into a bounded queue; an admission controller
//! sheds load with structured [`ServeError`]s when the queue or the
//! model-predicted backlog exceeds its budget; and a micro-batcher
//! coalesces compatible requests — same operation, shape, right-hand-side
//! width and math mode — into single [`Fleet::run`] dispatches under a
//! deadline-driven flush policy: flush as soon as the coalesced launch is
//! predicted to fill the devices, or when the oldest queued request's
//! latency budget is about to expire.
//!
//! "Async" here means *logical* concurrency on the **simulated clock**:
//! the engine is a deterministic discrete-event loop (arrivals, flushes
//! and completions are events; there are no host threads or wall-clock
//! timers anywhere in the pipeline), so a served campaign — latencies,
//! shed decisions, per-device dispatch counts, output bits — reproduces
//! exactly from the same seed at any host-thread count. Outputs are
//! de-interleaved back to per-request results with
//! [`regla_core::OpOutput::split_problems`], bit-identical to running each
//! request alone on a single [`regla_core::Session`].
//!
//! ```
//! use regla_core::{Fleet, MatBatch, Op};
//! use regla_gpu_sim::GpuConfig;
//! use regla_serve::{ServeConfig, ServeEngine, SolveRequest};
//!
//! let fleet = Fleet::builder().device(GpuConfig::quadro_6000()).build().unwrap();
//! let mut engine = ServeEngine::new(fleet, ServeConfig::default());
//! let a = MatBatch::from_fn(8, 8, 16, |k, i, j| {
//!     if i == j { 9.0 } else { ((k + i + j) % 5) as f32 * 0.1 }
//! });
//! let reqs = vec![
//!     SolveRequest::new(0, Op::Lu, a.clone()).arrival_s(0.0),
//!     SolveRequest::new(1, Op::Lu, a).arrival_s(1e-6),
//! ];
//! let outcome = engine.serve(reqs);
//! assert_eq!(outcome.report.served, 2);
//! assert_eq!(outcome.report.dispatches, 1); // coalesced into one launch
//! ```
//!
//! The open-loop synthetic traffic generator lives in [`traffic`]:
//! Poisson-ish arrivals over N seeded client streams, merged
//! deterministically by (time, client).

#![forbid(unsafe_code)]

pub mod engine;
pub mod traffic;

pub use engine::{
    Response, ServeConfig, ServeEngine, ServeError, ServeOutcome, ServeReport, SolveRequest,
};
pub use traffic::{generate_requests, ShapeMix, TrafficConfig};

// Re-exported for callers assembling requests without naming regla-core.
pub use regla_core::{Fleet, MatBatch, Op};
