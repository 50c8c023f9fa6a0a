//! Launch timing: per-phase records and whole-launch statistics.
//!
//! Per-block phase records come from the traced block (all blocks execute
//! the same kernel, so one is representative). The launch combines them
//! with the occupancy and grid size: a *wave* of `blocks_per_sm * num_sms`
//! blocks executes at the slowest of three bounds per phase — the warp
//! critical path (latency-bound, the regime of the paper's factorizations),
//! the SM issue throughput for all resident blocks, and chip-wide DRAM
//! bandwidth (the regime of the one-problem-per-thread approach).

use crate::config::GpuConfig;
use crate::exec::occupancy::Occupancy;

/// Timing and traffic of one phase (sync-delimited section) of a block.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRecord {
    pub label: String,
    /// Scoreboard critical path through the phase, including the closing
    /// barrier and the worst-warp bank-conflict replays.
    pub critical_cycles: u64,
    pub sync_cycles: u64,
    /// Issue cycles the whole block consumes on one SM (dual-issue folded).
    pub block_issue_cycles: u64,
    pub fp_instrs: u64,
    pub ldst_instrs: u64,
    pub sfu_instrs: u64,
    /// Thread-level FLOPs performed by the block in this phase.
    pub flops: u64,
    /// Thread-level shared-memory accesses.
    pub shared_accesses: u64,
    pub conflict_replays: u64,
    /// Coalesced global transactions issued by the block.
    pub global_transactions: u64,
    /// Distinct DRAM lines touched (bytes): the block's true DRAM traffic.
    pub global_line_bytes: u64,
    /// DRAM traffic from register spills that overflow the L1.
    pub spill_dram_bytes: u64,
    pub had_sync: bool,
}

/// What bound a phase's duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseBound {
    /// Warp critical path (latency-bound).
    Latency,
    /// SM issue throughput with all resident blocks.
    Issue,
    /// Chip-wide DRAM bandwidth.
    Dram,
}

/// Duration of one phase for a full wave of blocks.
#[derive(Clone, Debug)]
pub struct PhaseTime {
    pub label: String,
    pub cycles: f64,
    pub bound: PhaseBound,
}

/// Statistics of one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchStats {
    pub grid_blocks: usize,
    pub threads_per_block: usize,
    pub occupancy: Occupancy,
    /// Per-block phase records from the traced block.
    pub phases: Vec<PhaseRecord>,
    /// Per-phase durations for a full wave, with the binding constraint.
    pub phase_times: Vec<PhaseTime>,
    /// Number of waves needed to run the whole grid.
    pub waves: usize,
    /// Total launch duration in hot-clock cycles.
    pub cycles: f64,
    /// Total launch duration in seconds (including the driver's fixed
    /// launch overhead).
    pub time_s: f64,
    /// The fixed driver overhead included in `time_s`.
    pub overhead_s: f64,
    /// Total FLOPs across the whole grid.
    pub flops: f64,
    /// Total DRAM traffic in bytes across the whole grid (incl. spills).
    pub dram_bytes: f64,
    pub clock_ghz: f64,
    /// Whether register spills went past the L1 into DRAM.
    pub spill_to_dram: bool,
    /// Host wall-clock seconds the simulator spent on this launch (tracing
    /// plus functional replay). Unlike every field above, this measures the
    /// *simulator*, not the simulated device, and varies run to run.
    pub sim_wall_s: f64,
    /// Blocks executed functionally on the host, excluding the traced
    /// block when one ran (0 under `ExecMode::Representative` unless a
    /// schedule-cache hit let block 0's plain run stand).
    pub sim_blocks: usize,
    /// Host threads that took part in the functional replay: one per
    /// unit, at most the launch's host thread count (1 = sequential).
    pub sim_host_threads: usize,
    /// Whether the launch took the fast (observer-free) execution path for
    /// every replay block: fast-eligible and without a fault plan (a
    /// plan's armed blocks replay instrumented, the rest fast). Purely
    /// host-side telemetry: fast and slow launches produce bit-identical
    /// results, statuses and modeled cycles.
    pub sim_fast: bool,
    /// Blocks executed in lane groups (up to `sim_lane_width` blocks per
    /// pass of the kernel body), counting only groups that ran to
    /// completion, and block 0 only when its key hit the schedule cache
    /// in one. Depends on the launch alone, not on the host thread count.
    pub sim_lane_blocks: usize,
    /// Lane groups abandoned because their lanes disagreed on a branch;
    /// their blocks replayed one at a time.
    pub sim_lane_groups_abandoned: usize,
    /// Passes of the kernel body over the replay units: one per lane group
    /// or single block, plus one per block of an abandoned group. Block
    /// 0's run counts when it replays with the others (a keyed launch
    /// whose kernel and shape the schedule cache knows); its traced run
    /// does not. Every pass pays a
    /// fixed host cost whatever its width, and that cost is what lane
    /// groups spread out: the replay's host time follows this count more
    /// than the block count. Depends on the launch alone.
    pub sim_replay_passes: usize,
    /// The widest lane group the launch's replay could form: the largest
    /// of 64, 16, 8, 4 and 2 lanes whose registers and shared memory fit the
    /// simulator's fixed host budget on a fast launch of a lane-capable
    /// kernel, and 1 (no groups) otherwise.
    pub sim_lane_width: usize,
    /// Whether the traced block's schedule came from the cross-launch
    /// cache: block 0 replayed plain (in a lane group or alone), took the
    /// same branches as a traced launch of the same kernel and shape,
    /// and was not traced.
    pub sim_sched_cache_hit: bool,
    /// Mean busy fraction of the replay threads: their summed busy time
    /// over `sim_host_threads x replay wall time`. 1.0 when every thread
    /// claims units from the start to the end of the replay; lower when
    /// one joins late or finishes its last unit early.
    pub sim_worker_utilization: f64,
    /// Faults actually injected into this launch by the configured
    /// [`crate::FaultPlan`] (empty when no plan was set), sorted by block.
    /// This is the simulator's ECC/machine-check report: a recovery layer
    /// reads it to learn exactly which blocks were corrupted, including
    /// bit flips whose results still look finite.
    pub faults: Vec<crate::fault::FaultRecord>,
    /// [`crate::FaultKind::SilentFlip`] faults applied to this launch,
    /// kept out of `faults` on purpose: silent corruption is exactly the
    /// class the simulated ECC/machine-check does *not* report, so a
    /// recovery layer must not read this field — it exists only as
    /// campaign ground truth for verification experiments.
    pub silent_faults: Vec<crate::fault::FaultRecord>,
    /// Compute-sanitizer report for this launch (`None` unless the launch
    /// ran with [`crate::SanitizerMode::Full`]). `Some` with zero findings
    /// means the kernel came back clean.
    pub sanitizer: Option<crate::sanitize::SanitizerReport>,
}

impl LaunchStats {
    /// Host-side functional replay throughput in blocks per second
    /// (0 when nothing was replayed).
    pub fn sim_blocks_per_sec(&self) -> f64 {
        if self.sim_wall_s > 0.0 {
            self.sim_blocks as f64 / self.sim_wall_s
        } else {
            0.0
        }
    }

    /// Achieved throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.flops / self.time_s / 1e9
        }
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn dram_gbs(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.dram_bytes / self.time_s / 1e9
        }
    }

    /// Per-block cycles of one wave (what CUDA `clock()` deltas measure).
    pub fn wave_cycles(&self) -> f64 {
        self.phase_times.iter().map(|p| p.cycles).sum()
    }

    /// Sum of full-wave phase cycles whose label contains `pat`.
    pub fn cycles_for(&self, pat: &str) -> f64 {
        self.phase_times
            .iter()
            .filter(|p| p.label.contains(pat))
            .map(|p| p.cycles)
            .sum()
    }

    /// Sum of per-block FLOPs whose phase label contains `pat`.
    pub fn flops_for(&self, pat: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.label.contains(pat))
            .map(|p| p.flops)
            .sum()
    }

    /// Per-block FLOPs (traced block).
    pub fn flops_per_block(&self) -> u64 {
        self.phases.iter().map(|p| p.flops).sum()
    }

    /// Total shared-memory traffic in bytes across the grid.
    pub fn shared_bytes(&self) -> f64 {
        let per_block: u64 = self.phases.iter().map(|p| p.shared_accesses * 4).sum();
        per_block as f64 * self.grid_blocks as f64
    }

    /// Achieved shared-memory bandwidth in GB/s.
    pub fn shared_gbs(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.shared_bytes() / self.time_s / 1e9
        }
    }

    /// Total bank-conflict replays in the traced block.
    pub fn conflict_replays(&self) -> u64 {
        self.phases.iter().map(|p| p.conflict_replays).sum()
    }

    /// Human-readable launch summary (for examples and debugging).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "launch: {} blocks x {} threads, {} wave(s), {:.0} cycles ({:.3} ms)",
            self.grid_blocks,
            self.threads_per_block,
            self.waves,
            self.cycles,
            self.time_s * 1e3
        );
        let _ = writeln!(
            s,
            "  occupancy: {} blocks/SM ({:?}-limited), {} regs/thread{}",
            self.occupancy.blocks_per_sm,
            self.occupancy.limiter,
            self.occupancy.regs_allocated,
            if self.occupancy.regs_spilled > 0 {
                format!(" (+{} spilled)", self.occupancy.regs_spilled)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            s,
            "  throughput: {:.1} GFLOPS, DRAM {:.1} GB/s, shared {:.1} GB/s",
            self.gflops(),
            self.dram_gbs(),
            self.shared_gbs()
        );
        // Aggregate wave time by binding constraint.
        let mut by_bound = [0.0f64; 3];
        for pt in &self.phase_times {
            by_bound[pt.bound as usize] += pt.cycles;
        }
        let wave = self.wave_cycles().max(1.0);
        let _ = writeln!(
            s,
            "  wave breakdown: {:.0}% latency-bound, {:.0}% issue-bound, {:.0}% DRAM-bound",
            100.0 * by_bound[PhaseBound::Latency as usize] / wave,
            100.0 * by_bound[PhaseBound::Issue as usize] / wave,
            100.0 * by_bound[PhaseBound::Dram as usize] / wave
        );
        s
    }
}

/// Duration of one phase when `nblocks` blocks share the chip.
pub(crate) fn phase_time(cfg: &GpuConfig, occ: &Occupancy, p: &PhaseRecord, nblocks: usize) -> PhaseTime {
    let blocks_per_sm_eff = nblocks.div_ceil(cfg.num_sms).min(occ.blocks_per_sm).max(1);
    let latency = p.critical_cycles as f64;
    // Resident blocks share the SM's issue ports; barriers overlap across
    // blocks so the sync cost is paid once, not per block.
    let issue = (p.block_issue_cycles * blocks_per_sm_eff as u64 + p.sync_cycles) as f64;
    let bytes = (p.global_line_bytes + p.spill_dram_bytes) as f64 * nblocks as f64;
    let dram = bytes / cfg.dram_stream_bytes_per_cycle();
    let (cycles, bound) = if dram >= issue && dram >= latency {
        (dram, PhaseBound::Dram)
    } else if issue >= latency {
        (issue, PhaseBound::Issue)
    } else {
        (latency, PhaseBound::Latency)
    };
    PhaseTime {
        label: p.label.clone(),
        cycles,
        bound,
    }
}

/// Combine traced-block phase records into launch statistics.
pub(crate) fn combine(
    cfg: &GpuConfig,
    occ: Occupancy,
    phases: Vec<PhaseRecord>,
    grid_blocks: usize,
    threads_per_block: usize,
    spill_to_dram: bool,
) -> LaunchStats {
    let blocks_per_wave = (occ.blocks_per_sm * cfg.num_sms).max(1);
    let full_waves = grid_blocks / blocks_per_wave;
    let rem = grid_blocks % blocks_per_wave;
    let waves = full_waves + usize::from(rem > 0);

    let full_phase_times: Vec<PhaseTime> = phases
        .iter()
        .map(|p| phase_time(cfg, &occ, p, blocks_per_wave.min(grid_blocks)))
        .collect();
    let full_wave_cycles: f64 = full_phase_times.iter().map(|t| t.cycles).sum();
    let rem_cycles: f64 = if rem > 0 {
        phases
            .iter()
            .map(|p| phase_time(cfg, &occ, p, rem).cycles)
            .sum()
    } else {
        0.0
    };
    let cycles = full_wave_cycles * full_waves as f64 + rem_cycles;
    let overhead_s = cfg.launch_overhead_us * 1e-6;
    let time_s = cfg.cycles_to_secs(cycles) + overhead_s;

    let flops_per_block: u64 = phases.iter().map(|p| p.flops).sum();
    let bytes_per_block: u64 = phases
        .iter()
        .map(|p| p.global_line_bytes + p.spill_dram_bytes)
        .sum();

    LaunchStats {
        grid_blocks,
        threads_per_block,
        occupancy: occ,
        phases,
        phase_times: full_phase_times,
        waves,
        cycles,
        time_s,
        overhead_s,
        flops: flops_per_block as f64 * grid_blocks as f64,
        dram_bytes: bytes_per_block as f64 * grid_blocks as f64,
        clock_ghz: cfg.core_clock_ghz,
        spill_to_dram,
        // Host-side telemetry is filled in by `Gpu::launch` after combining.
        sim_wall_s: 0.0,
        sim_blocks: 0,
        sim_host_threads: 1,
        sim_fast: false,
        sim_lane_blocks: 0,
        sim_lane_groups_abandoned: 0,
        sim_replay_passes: 0,
        sim_lane_width: 1,
        sim_sched_cache_hit: false,
        sim_worker_utilization: 1.0,
        faults: Vec::new(),
        silent_faults: Vec::new(),
        sanitizer: None,
    }
}
