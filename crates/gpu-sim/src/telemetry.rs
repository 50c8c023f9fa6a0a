//! Process-wide simulator telemetry (aggregate compatibility shim).
//!
//! The benchmark harness runs many launches per experiment and wants one
//! wall-clock summary per experiment without threading a collector through
//! every call site, so `Gpu::launch` records into these process-wide atomic
//! counters and the harness snapshots/resets them around each experiment
//! (see `regla-bench`'s `bench_telemetry`). Counters are relaxed atomics:
//! each launch records once, from its launching thread, after its units
//! on the persistent replay workers have finished, and no counter
//! publishes other data, so ordering is irrelevant; atomicity just keeps
//! the counts exact when several host threads launch at once.
//!
//! These counters aggregate *host-side simulator cost* across the whole
//! process. For per-launch observability of the *simulated device* —
//! launch → wave → phase spans, memory counters, occupancy — attach a
//! [`crate::trace::Profiler`] to the launch config instead; this module
//! stays as the thin aggregate shim for harnesses that only need totals.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LAUNCHES: AtomicU64 = AtomicU64::new(0);
static FUNC_BLOCKS: AtomicU64 = AtomicU64::new(0);
static WALL_NANOS: AtomicU64 = AtomicU64::new(0);
static LAST_THREADS: AtomicUsize = AtomicUsize::new(0);
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);
static FAULTS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the simulator's host-side cost counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimTelemetry {
    /// Kernel launches since the last reset.
    pub launches: u64,
    /// Blocks executed functionally on the host. Includes the traced
    /// block, which also produces real outputs — so timing-only launches
    /// (`ExecMode::Representative`) still count one block per launch and
    /// throughput trends stay visible for every experiment.
    pub functional_blocks: u64,
    /// Host wall-clock seconds spent inside `Gpu::launch`.
    pub wall_s: f64,
    /// Host threads used by the most recent launch's replay.
    pub last_host_threads: usize,
    /// Largest replay thread count seen since the last reset.
    pub max_host_threads: usize,
    /// Faults injected by configured fault plans (applied, not planned).
    pub faults_injected: u64,
}

impl SimTelemetry {
    /// Host-side functional replay throughput in blocks per second.
    pub fn blocks_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.functional_blocks as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Called by `Gpu::launch` after each launch completes.
pub(crate) fn record_launch(
    wall_nanos: u64,
    functional_blocks: usize,
    host_threads: usize,
    faults: u64,
) {
    LAUNCHES.fetch_add(1, Relaxed);
    FUNC_BLOCKS.fetch_add(functional_blocks as u64, Relaxed);
    WALL_NANOS.fetch_add(wall_nanos, Relaxed);
    LAST_THREADS.store(host_threads, Relaxed);
    MAX_THREADS.fetch_max(host_threads, Relaxed);
    FAULTS.fetch_add(faults, Relaxed);
}

/// Read the counters without resetting them.
pub fn snapshot() -> SimTelemetry {
    SimTelemetry {
        launches: LAUNCHES.load(Relaxed),
        functional_blocks: FUNC_BLOCKS.load(Relaxed),
        wall_s: WALL_NANOS.load(Relaxed) as f64 * 1e-9,
        last_host_threads: LAST_THREADS.load(Relaxed),
        max_host_threads: MAX_THREADS.load(Relaxed),
        faults_injected: FAULTS.load(Relaxed),
    }
}

/// Read and reset the counters (one experiment's worth of launches).
pub fn take() -> SimTelemetry {
    SimTelemetry {
        launches: LAUNCHES.swap(0, Relaxed),
        functional_blocks: FUNC_BLOCKS.swap(0, Relaxed),
        wall_s: WALL_NANOS.swap(0, Relaxed) as f64 * 1e-9,
        last_host_threads: LAST_THREADS.swap(0, Relaxed),
        max_host_threads: MAX_THREADS.swap(0, Relaxed),
        faults_injected: FAULTS.swap(0, Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reads_and_resets() {
        // Other tests in this process also launch kernels, so only check
        // relative behaviour: record, take >= what we recorded, then the
        // next snapshot starts over from what arrives afterwards.
        record_launch(1_000_000, 7, 4, 2);
        let t = take();
        assert!(t.launches >= 1);
        assert!(t.functional_blocks >= 7);
        assert!(t.wall_s >= 1e-3 - 1e-12);
        assert!(t.max_host_threads >= 4);
        assert!(t.blocks_per_sec() > 0.0);
    }
}
