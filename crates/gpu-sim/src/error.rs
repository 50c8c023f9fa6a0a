//! Structured launch errors.
//!
//! `Gpu::launch` validates the launch configuration against the device's
//! architectural limits and returns these instead of asserting, so a
//! malformed configuration reaching the simulator from the batched API is
//! a recoverable condition rather than a process abort. Kernel panics are
//! likewise contained (`catch_unwind` per block, on the launching thread
//! and on the persistent replay workers alike) and surfaced as
//! [`LaunchError::KernelPanic`] naming the block; the workers stay up for
//! the next launch.

use std::fmt;

/// Why a kernel launch was rejected or failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// `grid_blocks == 0`: nothing to execute.
    EmptyGrid,
    /// `threads_per_block == 0`: an empty thread block.
    ZeroThreads,
    /// The block exceeds the device's `max_threads_per_block`.
    TooManyThreads { requested: usize, max: usize },
    /// The per-block shared allocation exceeds the SM's shared memory.
    SharedMemoryExceeded {
        requested_bytes: usize,
        max_bytes: usize,
    },
    /// An execution mode that cannot run (e.g. `ExecMode::Sampled(0)`).
    InvalidExecMode(&'static str),
    /// The kernel panicked while executing `block` (traced or replayed);
    /// the panic was contained and device memory may be partially written.
    KernelPanic { block: usize, message: String },
    /// `block` exceeded the launch's watchdog op budget (a hung or
    /// livelocked kernel); the launch was aborted in bounded host time.
    /// `phase` is the phase label the block was stuck in when it tripped.
    Watchdog {
        block: usize,
        phase: String,
        ops: u64,
        limit: u64,
    },
    /// The launch's simulated duration exceeded its deadline budget.
    ///
    /// The budget is normally derived from the predictive model's cycle
    /// estimate times a slack factor (the model acts as the timeout
    /// oracle), so a launch that blows its deadline is a device that is
    /// not behaving like the model says it should — a stalled stream, a
    /// clock-throttled part, or a hung kernel the watchdog did not catch.
    /// Both fields are whole simulated cycles so the error stays `Eq`.
    DeadlineExceeded { cycles: u64, budget: u64 },
    /// The device is gone: every launch on it fails until it is replaced.
    ///
    /// The simulator itself never produces this — a fleet-level
    /// `ChaosPlan` synthesizes it to model the CUDA "device lost" sticky
    /// error state (XID errors, fell-off-the-bus). `device` is the fleet
    /// index of the dead device.
    DeviceLost { device: usize },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::EmptyGrid => write!(f, "empty grid: grid_blocks must be >= 1"),
            LaunchError::ZeroThreads => {
                write!(f, "empty thread block: threads_per_block must be >= 1")
            }
            LaunchError::TooManyThreads { requested, max } => write!(
                f,
                "{requested} threads per block exceeds the device maximum of {max}"
            ),
            LaunchError::SharedMemoryExceeded {
                requested_bytes,
                max_bytes,
            } => write!(
                f,
                "{requested_bytes} B of shared memory per block exceeds the \
                 SM's {max_bytes} B"
            ),
            LaunchError::InvalidExecMode(why) => write!(f, "invalid exec mode: {why}"),
            LaunchError::KernelPanic { block, message } => {
                write!(f, "kernel panicked in block {block}: {message}")
            }
            LaunchError::Watchdog {
                block,
                phase,
                ops,
                limit,
            } => {
                let phase = if phase.is_empty() { "<unlabelled>" } else { phase };
                write!(
                    f,
                    "watchdog: block {block} exceeded its op budget \
                     ({ops} > {limit}) in phase {phase:?}; kernel is hung \
                     or livelocked"
                )
            }
            LaunchError::DeadlineExceeded { cycles, budget } => write!(
                f,
                "deadline exceeded: launch took {cycles} simulated cycles \
                 against a budget of {budget}"
            ),
            LaunchError::DeviceLost { device } => {
                write!(f, "device {device} is lost; all launches on it fail")
            }
        }
    }
}

impl std::error::Error for LaunchError {}
