//! # regla-gpu-sim — a cycle-approximate SIMT GPU simulator
//!
//! The substrate for reproducing *"A Predictive Model for Solving Small
//! Linear Algebra Problems in GPU Registers"* (IPPS 2012) without GPU
//! hardware. It models a GF100-class device (the paper's NVIDIA Quadro
//! 6000) at the granularity the paper's analysis operates on:
//!
//! * **Parallelism hierarchy** — thread blocks over SMs with a CUDA
//!   occupancy calculator, warps of 32 threads, `__syncthreads()` with the
//!   thread-count-dependent cost of Figure 2.
//! * **Inverted memory hierarchy** — per-thread register arrays (with
//!   spill-to-L1/DRAM beyond 64 registers), 32-bank shared memory with
//!   conflict replays, an L2 + row-buffer + TLB latency hierarchy for
//!   dependent loads, and a stream-efficiency DRAM bandwidth model.
//! * **Pipeline** — an in-order scoreboard per thread: 18-cycle FP latency
//!   (the paper's γ), dual-issue FP/LDST, SFU reciprocal and square root
//!   with 22-mantissa-bit fast-math emulation.
//!
//! Kernels are plain Rust closures over [`exec::block::BlockCtx`]; they
//! compute real results (the simulator is functional) while the traced
//! block's operation stream drives the timing model.
//!
//! ```
//! use regla_gpu_sim::{Gpu, GlobalMemory, LaunchConfig};
//!
//! let gpu = Gpu::quadro_6000();
//! let mut mem = GlobalMemory::with_bytes(1 << 16);
//! let buf = mem.alloc(64);
//! let kernel = move |blk: &mut regla_gpu_sim::BlockCtx| {
//!     blk.for_each(|t| {
//!         let x = t.lit(t.tid as f32);
//!         let y = t.fma(x, x, x);
//!         t.gstore(buf, t.tid, y);
//!     });
//! };
//! let stats = gpu
//!     .launch(&kernel, &LaunchConfig::new(1, 64).regs(8), &mut mem)
//!     .unwrap();
//! assert_eq!(mem.read(buf, 3), 12.0);
//! assert!(stats.gflops() > 0.0);
//! ```
//!
//! Launches validate their configuration against the device limits and
//! return [`LaunchError`] instead of panicking; a seeded [`FaultPlan`] on
//! the launch config injects deterministic bit flips / block aborts for
//! resilience testing (see the `fault` module).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod config;
pub mod error;
pub mod exec;
pub mod fault;
pub mod host;
pub mod mem;
pub mod sanitize;
pub mod stream;
pub mod telemetry;
pub mod timing;
pub mod trace;

pub use config::{GpuConfig, MathMode};
pub use error::LaunchError;
pub use exec::block::BlockCtx;
pub use exec::occupancy::{occupancy, OccLimiter, Occupancy};
pub use exec::thread::{trunc22, CRv, RegArray, RegVal, Rv, ThreadCtx};
pub use exec::{env_flag, par_map, uniform, BlockKernel, ExecMode, Gpu, LaunchConfig};
pub use fault::{FaultKind, FaultPlan, FaultRecord};
pub use host::{cuda_memcpy_gbs, cuda_memcpy_secs, PcieModel};
pub use mem::{DPtr, GlobalMemory, MemHier};
pub use sanitize::{Finding, MemSpace, SanitizerCheck, SanitizerMode, SanitizerReport};
pub use stream::{
    CmdKind, CommandSpan, Event, Stream, StreamWatchdogReport, Timeline, TimelineReport,
};
pub use telemetry::SimTelemetry;
pub use timing::{LaunchStats, PhaseBound, PhaseRecord, PhaseTime};
pub use trace::{
    chrome_trace_json, validate_chrome_trace, ChromeTraceSummary, LaunchTrace, PhaseSpan,
    Profiler, SpanCounters, TraceSink, WaveSpan,
};
