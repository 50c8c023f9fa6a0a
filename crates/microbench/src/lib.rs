//! # regla-microbench — the paper's Section II microbenchmarks
//!
//! Bandwidth and latency characterisation of the (simulated) GF100 memory
//! hierarchy, reproducing Listings 1-3, Figures 1-2 and Tables II-IV:
//!
//! * [`shared_bw`] — repeated shared-memory loads accumulated into the
//!   register file (Listing 1); per-SM and whole-chip GB/s.
//! * [`global_bw`] — a 16 MB device-to-device copy kernel (Listing 2)
//!   against the driver `cudaMemcpy` path.
//! * [`shared_latency`] — pointer chasing in shared memory, in both the
//!   int (with its SHL address computation) and byte variants, plus the
//!   G80 cross-check against Volkov's 36 cycles.
//! * [`global_latency`] — dependent loads walking a large array at
//!   strides from 1 word to 64M words (Figure 1).
//! * [`sync_latency`] — `__syncthreads()` cost against block size
//!   (Figure 2).
//! * [`params`] — assembles the measurements into the model's Table IV.

#![forbid(unsafe_code)]

pub mod global_bw;
pub mod global_latency;
pub mod params;
pub mod shared_bw;
pub mod shared_latency;
pub mod sync_latency;

pub use global_bw::{measure_global_bandwidth, GlobalBw};
pub use global_latency::{measure_global_latency_curve, StridePoint};
pub use params::derive_params;
pub use shared_bw::{measure_shared_bandwidth, SharedBw};
pub use shared_latency::{measure_shared_latency, SharedLatency};
pub use sync_latency::{measure_sync_latency_curve, SyncPoint};
