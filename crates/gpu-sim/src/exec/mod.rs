//! Kernel launch machinery.

mod arena;
pub mod block;
pub mod occupancy;
mod schedule;
pub mod thread;

use crate::config::{GpuConfig, MathMode};
use crate::error::LaunchError;
use crate::fault::{FaultPlan, FaultRecord};
use crate::mem::global::GmemAccess;
use crate::mem::{GlobalMemory, MemHier};
use crate::sanitize::{
    ContextFindings, LaunchShadow, SanitizerMode, SanitizerReport, WatchdogTrip,
};
use crate::timing::{combine, LaunchStats, PhaseRecord};
use crate::trace::Profiler;
use arena::BufPool;
use block::{BlockCtx, SanitizeHook};
use occupancy::occupancy;
use schedule::{ScheduleCache, ScheduleKey};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use thread::SpillInfo;

/// How much of the grid to execute functionally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run every block: outputs are valid for the whole batch.
    #[default]
    Full,
    /// Run the traced block plus `k-1` further evenly-spaced blocks
    /// (blocks `i * grid / k` for `i < k`), so a spread of problems across
    /// the batch gets real outputs (enough for spot-checking numerics) at a
    /// fraction of `Full`'s host cost; timing still covers the whole grid.
    /// `k` counts executed blocks including block 0 and is clamped to the
    /// grid; `Sampled(0)` is rejected at launch. Blocks that do not execute
    /// leave device memory untouched, and `regla-core` stages and downloads
    /// only the executed blocks' problems: every other problem of its
    /// `BatchRun` reads as zeros in `out` and `taus`, with status `Ok`
    /// (never computed, never screened).
    Sampled(usize),
    /// Run only the traced block (block 0): timing is exact (all blocks
    /// execute identical code), and only block 0's problems are computed —
    /// all of its threads' problems (64) for a per-thread kernel, problem 0
    /// when each block solves one problem. The other problems read as
    /// under `Sampled`. Used by the performance harnesses to sweep large
    /// batches quickly.
    Representative,
}

/// Launch configuration: the CUDA `<<<grid, block, shared>>>` triple plus
/// the compile-time facts the simulator needs (register usage, math mode).
///
/// Construct with [`LaunchConfig::new`] and the fluent setters; the struct
/// is `#[non_exhaustive]` so new launch knobs (like the trace sink) are not
/// breaking changes for downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct LaunchConfig {
    pub grid_blocks: usize,
    pub threads_per_block: usize,
    /// Registers per thread the kernel *wants*; beyond the architectural
    /// maximum the excess spills to local memory.
    pub regs_per_thread: usize,
    /// Shared memory per block in 32-bit words.
    pub shared_words: usize,
    pub math: MathMode,
    pub exec: ExecMode,
    /// Host worker threads for the functional replay. `None` defers to the
    /// `REGLA_SIM_THREADS` environment variable and then to
    /// `std::thread::available_parallelism()`. Replay results are
    /// bit-identical at every thread count; this only trades host
    /// wall-clock for cores.
    pub host_threads: Option<usize>,
    /// Seeded fault-injection campaign for this launch (`None` = no
    /// faults). Applied faults are reported in `LaunchStats::faults`.
    pub fault: Option<FaultPlan>,
    /// Kernel name shown in exported traces.
    pub name: String,
    /// Per-launch trace sink: when set, the launch appends a
    /// [`crate::trace::LaunchTrace`] (launch → wave → phase spans) to the
    /// profiler. Purely simulated quantities, so traces are bit-identical
    /// across `host_threads` counts.
    pub trace: Option<Profiler>,
    /// Dynamic-analysis checks (memcheck / racecheck / synccheck /
    /// initcheck) for this launch. Strictly observational: device results
    /// and timing are bit-identical with the sanitizer on or off; findings
    /// land in `LaunchStats::sanitizer`.
    pub sanitize: SanitizerMode,
    /// Per-block watchdog budget in scoreboarded ops (`None` = unlimited).
    /// A block exceeding it aborts the launch with
    /// [`LaunchError::Watchdog`] instead of hanging the host. Independent
    /// of `sanitize`.
    pub watchdog: Option<u64>,
    /// Force the fully-instrumented slow path even when no observer is
    /// attached (see [`LaunchConfig::fast_eligible`]). The environment
    /// variable `REGLA_SIM_SLOW=1` does the same process-wide.
    pub slow_path: bool,
    /// Opaque kernel identity for the cross-launch schedule cache (`None`
    /// = never cache). Launches sharing a key *and* shape promise to
    /// produce identical traced-block schedules; kernels with data-
    /// dependent control flow must fold a digest of the traced block's
    /// inputs into the key. Only consulted on the fast path; set
    /// `REGLA_SCHED_CACHE=0` to disable caching process-wide.
    pub schedule_key: Option<u64>,
    /// Simulated-cycle budget for the whole launch (`None` = unlimited).
    /// When the modeled cycle total (including any injected stall)
    /// exceeds it, the launch fails with [`LaunchError::DeadlineExceeded`]
    /// after device memory is written — mirroring a host-side timeout
    /// that fires once the launch has already run too long.
    pub deadline_cycles: Option<u64>,
    /// Extra simulated cycles added to the launch's modeled total before
    /// the deadline check — a chaos-injection knob modeling a stalled
    /// stream or a clock-throttled device. Purely a timing perturbation:
    /// functional results are unaffected and the fast path stays
    /// eligible.
    pub stall_cycles: u64,
}

impl LaunchConfig {
    pub fn new(grid_blocks: usize, threads_per_block: usize) -> Self {
        LaunchConfig {
            grid_blocks,
            threads_per_block,
            regs_per_thread: 32,
            shared_words: 1024,
            math: MathMode::Fast,
            exec: ExecMode::Full,
            host_threads: None,
            fault: None,
            name: String::from("kernel"),
            trace: None,
            sanitize: SanitizerMode::Off,
            watchdog: None,
            slow_path: false,
            schedule_key: None,
            deadline_cycles: None,
            stall_cycles: 0,
        }
    }

    pub fn regs(mut self, r: usize) -> Self {
        self.regs_per_thread = r;
        self
    }

    pub fn shared_words(mut self, w: usize) -> Self {
        self.shared_words = w;
        self
    }

    pub fn math(mut self, m: MathMode) -> Self {
        self.math = m;
        self
    }

    pub fn exec(mut self, e: ExecMode) -> Self {
        self.exec = e;
        self
    }

    pub fn host_threads(mut self, t: impl Into<Option<usize>>) -> Self {
        self.host_threads = t.into();
        self
    }

    pub fn fault(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.fault = plan.into();
        self
    }

    /// Name the kernel for exported traces.
    pub fn name(mut self, n: impl Into<String>) -> Self {
        self.name = n.into();
        self
    }

    /// Attach a per-launch trace sink (cloning a [`Profiler`] shares its
    /// buffer, so one profiler can collect a whole sequence of launches).
    pub fn trace(mut self, sink: impl Into<Option<Profiler>>) -> Self {
        self.trace = sink.into();
        self
    }

    /// Enable the compute sanitizer for this launch.
    pub fn sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitize = mode;
        self
    }

    /// Set (or clear) the per-block watchdog op budget.
    pub fn watchdog(mut self, ops: impl Into<Option<u64>>) -> Self {
        self.watchdog = ops.into();
        self
    }

    /// Force the fully-instrumented slow path for this launch.
    pub fn slow_path(mut self, slow: bool) -> Self {
        self.slow_path = slow;
        self
    }

    /// Set the opaque kernel identity for the schedule cache.
    pub fn schedule_key(mut self, key: impl Into<Option<u64>>) -> Self {
        self.schedule_key = key.into();
        self
    }

    /// Set (or clear) the simulated-cycle deadline budget.
    pub fn deadline_cycles(mut self, budget: impl Into<Option<u64>>) -> Self {
        self.deadline_cycles = budget.into();
        self
    }

    /// Inject a stream stall of `cycles` simulated cycles.
    pub fn stall_cycles(mut self, cycles: u64) -> Self {
        self.stall_cycles = cycles;
        self
    }

    /// Whether this configuration is eligible for the fast (observer-free)
    /// execution path: no trace sink, sanitizer, fault plan, or watchdog,
    /// and `slow_path` not forced. On the fast path replay blocks elide
    /// all per-op scoreboard/shadow bookkeeping; results, statuses, and
    /// modeled cycle totals are bit-identical to the slow path.
    pub fn fast_eligible(&self) -> bool {
        !self.slow_path
            && self.trace.is_none()
            && !self.sanitize.is_on()
            && self.fault.is_none()
            && self.watchdog.is_none()
    }

    /// The blocks this configuration executes functionally, in ascending
    /// order, always including the traced block 0. Post-launch screens use
    /// this to restrict themselves to problems whose outputs are real.
    pub fn executed_blocks(&self) -> Vec<usize> {
        let mut blocks = vec![0];
        blocks.extend(replay_blocks(self));
        blocks.sort_unstable();
        blocks
    }
}

/// Resolve the replay thread count: explicit config, then the
/// `REGLA_SIM_THREADS` environment variable, then available parallelism.
fn resolve_host_threads(lc: &LaunchConfig) -> usize {
    lc.host_threads
        .or_else(|| match std::env::var("REGLA_SIM_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => {
                    // Warn once, then fall back to available parallelism —
                    // a typo'd value should not silently change behaviour.
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "regla-gpu-sim: ignoring unparseable \
                             REGLA_SIM_THREADS={v:?} (expected a positive \
                             integer); using available parallelism"
                        );
                    });
                    None
                }
            },
            Err(_) => None,
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
        .max(1)
}

/// Whether the disjoint-write checker runs: always in debug builds, and in
/// release when `REGLA_SIM_CHECK=1` (`REGLA_SIM_CHECK=0` force-disables).
fn check_writes_enabled() -> bool {
    match std::env::var("REGLA_SIM_CHECK") {
        Ok(v) => v.trim() != "0" && !v.trim().is_empty(),
        Err(_) => cfg!(debug_assertions),
    }
}

/// Parse one boolean flag value: `1`/`true`/`on` and `0`/`false`/`off`
/// (case-insensitive, trimmed); anything else — including empty — is
/// unrecognised.
pub(crate) fn parse_flag(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

/// Read a boolean `REGLA_*` environment flag. Unset yields `default`;
/// an unrecognised value warns once per variable and then yields
/// `default` — a typo'd flag must not silently change behaviour (the
/// same contract `REGLA_SIM_THREADS` gets above).
pub fn env_flag(name: &str, default: bool) -> bool {
    let Ok(v) = std::env::var(name) else {
        return default;
    };
    parse_flag(&v).unwrap_or_else(|| {
        use std::collections::HashSet;
        use std::sync::{Mutex, OnceLock};
        static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
        let mut warned = WARNED
            .get_or_init(|| Mutex::new(HashSet::new()))
            .lock()
            .unwrap();
        if warned.insert(name.to_string()) {
            eprintln!(
                "regla-gpu-sim: ignoring unrecognised {name}={v:?} \
                 (expected 0/1, true/false, on/off); defaulting to {default}"
            );
        }
        default
    })
}

/// `REGLA_SIM_SLOW=1` forces every launch onto the instrumented slow path
/// (A/B comparisons, perf debugging).
fn force_slow_path() -> bool {
    env_flag("REGLA_SIM_SLOW", false)
}

/// The schedule cache defaults on; `REGLA_SCHED_CACHE=0` disables it.
fn schedule_cache_enabled() -> bool {
    env_flag("REGLA_SCHED_CACHE", true)
}

/// `REGLA_SIM_VERBOSE=1` logs one stderr line per launch naming the path
/// it took, so perf mysteries are diagnosable without a debugger.
fn sim_verbose() -> bool {
    env_flag("REGLA_SIM_VERBOSE", false)
}

/// The blocks (besides traced block 0) to execute functionally.
fn replay_blocks(lc: &LaunchConfig) -> Vec<usize> {
    match lc.exec {
        ExecMode::Full => (1..lc.grid_blocks).collect(),
        ExecMode::Representative => Vec::new(),
        ExecMode::Sampled(k) => {
            // `Sampled(0)` is rejected by launch validation
            // (`LaunchError::InvalidExecMode`); clamp here so
            // `executed_blocks` stays total.
            // k evenly-spaced blocks over the grid, always including 0
            // (already traced, so excluded from the replay list).
            let k = k.clamp(1, lc.grid_blocks);
            let mut blocks: Vec<usize> =
                (0..k).map(|i| i * lc.grid_blocks / k).collect();
            blocks.dedup();
            blocks.retain(|&b| b != 0);
            blocks
        }
    }
}

/// A device kernel: runs once per thread block.
pub trait BlockKernel {
    fn run(&self, blk: &mut BlockCtx);
}

impl<F: Fn(&mut BlockCtx)> BlockKernel for F {
    fn run(&self, blk: &mut BlockCtx) {
        self(blk)
    }
}

/// The simulated GPU.
///
/// Cheap to clone: the buffer arena and schedule cache are shared across
/// clones (and therefore across every launch issued through them), which is
/// what lets `Session`-driven batch workloads stop hitting the allocator
/// and re-decode after the first launch.
#[derive(Clone, Debug)]
pub struct Gpu {
    pub cfg: GpuConfig,
    /// Reusable block-context buffers (see [`arena::BufPool`]).
    pool: Arc<BufPool>,
    /// Cross-launch traced-schedule cache (see [`schedule::ScheduleCache`]).
    sched: Arc<ScheduleCache>,
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the kernel on one block with panic containment. A watchdog trip
/// (thrown as a typed panic payload by the op scoreboard) becomes
/// [`LaunchError::Watchdog`] with the phase the block was stuck in; any
/// other panic becomes [`LaunchError::KernelPanic`].
fn run_contained<K: BlockKernel + Sync + ?Sized>(
    kernel: &K,
    blk: &mut BlockCtx,
) -> Result<(), LaunchError> {
    let block = blk.block_id;
    match catch_unwind(AssertUnwindSafe(|| kernel.run(&mut *blk))) {
        Ok(()) => Ok(()),
        Err(e) => {
            if let Some(trip) = e.downcast_ref::<WatchdogTrip>() {
                Err(LaunchError::Watchdog {
                    block,
                    phase: blk.current_label().to_string(),
                    ops: trip.ops,
                    limit: trip.limit,
                })
            } else {
                Err(LaunchError::KernelPanic {
                    block,
                    message: panic_message(e.as_ref()),
                })
            }
        }
    }
}

impl Gpu {
    pub fn new(cfg: GpuConfig) -> Self {
        Gpu {
            cfg,
            pool: Arc::default(),
            sched: Arc::default(),
        }
    }

    /// The paper's device: a Quadro 6000.
    pub fn quadro_6000() -> Self {
        Gpu::new(GpuConfig::quadro_6000())
    }

    /// Check a launch configuration against the device's architectural
    /// limits before anything executes.
    pub fn validate(&self, lc: &LaunchConfig) -> Result<(), LaunchError> {
        if lc.grid_blocks == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        if lc.threads_per_block == 0 {
            return Err(LaunchError::ZeroThreads);
        }
        if lc.threads_per_block > self.cfg.max_threads_per_block {
            return Err(LaunchError::TooManyThreads {
                requested: lc.threads_per_block,
                max: self.cfg.max_threads_per_block,
            });
        }
        if lc.shared_words * 4 > self.cfg.shared_bytes_per_sm {
            return Err(LaunchError::SharedMemoryExceeded {
                requested_bytes: lc.shared_words * 4,
                max_bytes: self.cfg.shared_bytes_per_sm,
            });
        }
        if lc.exec == ExecMode::Sampled(0) {
            return Err(LaunchError::InvalidExecMode(
                "ExecMode::Sampled(0) executes no blocks; at least the \
                 traced block 0 must run (use Representative to skip the \
                 functional replay entirely)",
            ));
        }
        Ok(())
    }

    /// Launch a kernel over `lc.grid_blocks` blocks.
    ///
    /// Block 0 is executed with full tracing (scoreboard timing, conflict
    /// and coalescing analysis); the remaining blocks execute functionally
    /// (or are skipped under [`ExecMode::Representative`], sampled under
    /// [`ExecMode::Sampled`]). Timing is then extrapolated over the grid
    /// via the occupancy and wave model.
    ///
    /// The functional replay is sharded across host worker threads (see
    /// [`LaunchConfig::host_threads`]); simulated results — `LaunchStats`
    /// and device memory — are bit-identical at every thread count, because
    /// timing comes solely from the traced block and each replayed block
    /// writes only its own problem's output.
    pub fn launch<K: BlockKernel + Sync + ?Sized>(
        &self,
        kernel: &K,
        lc: &LaunchConfig,
        gmem: &mut GlobalMemory,
    ) -> Result<LaunchStats, LaunchError> {
        self.validate(lc)?;
        let fault_map = lc.fault.map(|p| p.materialize(lc.grid_blocks));
        let fault_map = fault_map.as_ref();
        let mut applied: Vec<FaultRecord> = Vec::new();
        // Sanitizer setup: snapshot host-initialization and allocation
        // state before any block runs, so initcheck and the cross-block
        // classifier see the launch's declared inputs.
        let sanitizing = lc.sanitize.is_on();
        let shadow = sanitizing.then(|| LaunchShadow::new(&*gmem));
        if lc.watchdog.is_some() {
            crate::sanitize::install_quiet_watchdog_hook();
        }
        let hook = SanitizeHook {
            on: sanitizing,
            wd_limit: lc.watchdog.unwrap_or(0),
            shadow: shadow.as_ref(),
        };
        let mut collected = ContextFindings::default();
        let wall_start = Instant::now();
        let occ = occupancy(
            &self.cfg,
            lc.threads_per_block,
            lc.regs_per_thread,
            lc.shared_words * 4,
        );

        // Register-spill parameters. nvcc spills the least-used registers,
        // so the probability that a given access touches a spilled value is
        // roughly quadratic in the spilled fraction; spills land in the L1
        // (48 kB when the kernel's shared footprint allows the prefer-L1
        // split) and overflow to DRAM beyond its capacity.
        let spill = if occ.regs_spilled > 0 {
            let rho = occ.regs_spilled as f64 / lc.regs_per_thread as f64;
            let every = (1.0 / (rho * rho)).round().max(1.0) as u64;
            let footprint =
                (occ.regs_spilled * 4 * lc.threads_per_block * occ.blocks_per_sm) as f64;
            let l1_eff = if lc.shared_words * 4 <= self.cfg.l1_bytes_per_sm {
                self.cfg.prefer_l1_bytes_per_sm.max(self.cfg.l1_bytes_per_sm)
            } else {
                self.cfg.l1_bytes_per_sm
            } as f64;
            let hit_frac = (l1_eff / footprint).min(1.0);
            let latency = hit_frac * self.cfg.l1_latency as f64
                + (1.0 - hit_frac) * self.cfg.dram_row_hit_latency as f64;
            SpillInfo {
                every,
                latency: latency.round() as u64,
                dram_frac: 1.0 - hit_frac,
            }
        } else {
            SpillInfo::default()
        };

        let mut memhier = MemHier::new(&self.cfg);

        // Fast (observer-free) path: replay blocks elide all per-op
        // bookkeeping; results and modeled timing stay bit-identical.
        let fast = lc.fast_eligible() && !force_slow_path();

        // Schedule cache: only consulted on the fast path and only when the
        // caller supplied a kernel identity (its promise that launches
        // sharing key + shape trace identically).
        let sched_key = (fast && schedule_cache_enabled())
            .then_some(lc.schedule_key)
            .flatten()
            .map(|kernel| ScheduleKey {
                kernel,
                threads_per_block: lc.threads_per_block,
                regs_per_thread: lc.regs_per_thread,
                shared_words: lc.shared_words,
                math: lc.math as u8,
            });
        let cached: Option<Arc<Vec<PhaseRecord>>> =
            sched_key.as_ref().and_then(|k| self.sched.get(k));

        let mut blocks = replay_blocks(lc);
        let ctx: Vec<PhaseRecord> = if let Some(records) = &cached {
            // Cache hit: no block needs tracing. Block 0 is demoted to a
            // plain functional block (it still has to produce problem 0's
            // output) and the cached records feed the timing model, which
            // is a pure function of records + shape — so cycle totals are
            // bit-identical to a traced run.
            blocks.insert(0, 0);
            records.as_ref().clone()
        } else {
            // Traced representative block.
            let mut ctx = BlockCtx::new(
                0,
                lc.grid_blocks,
                true,
                false,
                lc.threads_per_block,
                lc.shared_words,
                &self.cfg,
                lc.math,
                spill,
                GmemAccess::Excl(gmem),
                &mut memhier,
                fault_map,
                hook,
                &self.pool,
            );
            run_contained(kernel, &mut ctx)?;
            applied.extend(ctx.take_applied_faults());
            collected.absorb(ctx.take_findings());
            let records = ctx.finish();
            if let Some(k) = sched_key {
                self.sched.insert(k, &records);
            }
            records
        };

        // Functional execution of the rest of the grid, sharded over host
        // worker threads. Each worker gets a contiguous chunk of the block
        // list, its own reused block context and memory hierarchy, and a
        // shared read / per-block write view of device memory.
        let mut workers = 1usize;
        let mut utilization = 1.0f64;
        if !blocks.is_empty() {
            workers = resolve_host_threads(lc).min(blocks.len());
            let check = check_writes_enabled();
            if workers == 1 && !check {
                // Zero-overhead sequential path through the exclusive borrow.
                let mut blk = BlockCtx::new(
                    blocks[0],
                    lc.grid_blocks,
                    false,
                    fast,
                    lc.threads_per_block,
                    lc.shared_words,
                    &self.cfg,
                    lc.math,
                    spill,
                    GmemAccess::Excl(gmem),
                    &mut memhier,
                    fault_map,
                    hook,
                    &self.pool,
                );
                run_contained(kernel, &mut blk)?;
                for &b in &blocks[1..] {
                    blk.reset_for_block(b);
                    run_contained(kernel, &mut blk)?;
                }
                applied.extend(blk.take_applied_faults());
                collected.absorb(blk.take_findings());
            } else {
                let shared = gmem.share(check, sanitizing);
                let replay_start = Instant::now();
                let chunk = blocks.len().div_ceil(workers);
                type ShardOutcome = Result<
                    (std::time::Duration, Vec<FaultRecord>, ContextFindings),
                    LaunchError,
                >;
                let outcomes: Vec<ShardOutcome> = std::thread::scope(|s| {
                    let handles: Vec<_> = blocks
                        .chunks(chunk)
                        .map(|shard| {
                            let shared = &shared;
                            let cfg = &self.cfg;
                            let pool = &*self.pool;
                            s.spawn(move || -> ShardOutcome {
                                let t0 = Instant::now();
                                let mut memhier = MemHier::new(cfg);
                                let mut blk = BlockCtx::new(
                                    shard[0],
                                    lc.grid_blocks,
                                    false,
                                    fast,
                                    lc.threads_per_block,
                                    lc.shared_words,
                                    cfg,
                                    lc.math,
                                    spill,
                                    GmemAccess::Worker(shared.worker(shard[0])),
                                    &mut memhier,
                                    fault_map,
                                    hook,
                                    pool,
                                );
                                run_contained(kernel, &mut blk)?;
                                for &b in &shard[1..] {
                                    blk.reset_for_block(b);
                                    run_contained(kernel, &mut blk)?;
                                }
                                Ok((
                                    t0.elapsed(),
                                    blk.take_applied_faults(),
                                    blk.take_findings(),
                                ))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|e| std::panic::resume_unwind(e))
                        })
                        .collect()
                });
                let replay_wall = replay_start.elapsed().as_secs_f64();
                let mut busy_s = 0.0f64;
                for outcome in outcomes {
                    let (busy, faults, findings) = outcome?;
                    busy_s += busy.as_secs_f64();
                    applied.extend(faults);
                    collected.absorb(findings);
                }
                if replay_wall > 0.0 {
                    utilization = (busy_s / (workers as f64 * replay_wall)).min(1.0);
                }
            }
        }

        let mut stats = combine(
            &self.cfg,
            occ,
            ctx,
            lc.grid_blocks,
            lc.threads_per_block,
            spill.dram_frac > 0.0,
        );
        let wall = wall_start.elapsed();
        stats.sim_wall_s = wall.as_secs_f64();
        stats.sim_blocks = blocks.len();
        stats.sim_host_threads = workers;
        stats.sim_worker_utilization = utilization;
        stats.sim_fast = fast;
        stats.sim_sched_cache_hit = cached.is_some();
        // Chaos-injected stream stall: a pure timing perturbation applied
        // before the deadline check, so a stalled stream on an otherwise
        // healthy device is exactly what a deadline exists to catch.
        if lc.stall_cycles > 0 {
            stats.cycles += lc.stall_cycles as f64;
            stats.time_s += self.cfg.cycles_to_secs(lc.stall_cycles as f64);
        }
        if let Some(budget) = lc.deadline_cycles {
            let cycles = stats.cycles.ceil() as u64;
            if cycles > budget {
                // Like a watchdog trip, the deadline fires after device
                // memory is written: the launch ran, it just ran too long
                // for anyone to still be waiting on it.
                return Err(LaunchError::DeadlineExceeded { cycles, budget });
            }
        }
        applied.sort_unstable_by_key(|f| f.block);
        if sanitizing {
            let ContextFindings {
                mut findings,
                mut totals,
                per_block,
            } = collected;
            if let Some(shadow) = &shadow {
                shadow.classify(&mut findings, &mut totals);
            }
            // Findings from blocks where an injected fault actually landed
            // are the fault's doing, not a kernel bug. Attribution uses the
            // uncapped per-block totals so it stays exact past the
            // detail cap.
            let faulted: std::collections::HashSet<usize> =
                applied.iter().map(|f| f.block).collect();
            let mut fault_attributed = 0u64;
            for (b, tot) in &per_block {
                if faulted.contains(b) {
                    fault_attributed += tot.iter().sum::<u64>();
                }
            }
            for f in &mut findings {
                if f.block.is_some_and(|b| faulted.contains(&b)) {
                    f.fault_attributed = true;
                }
            }
            // Deterministic report order regardless of replay sharding.
            findings.sort_by(|a, b| {
                (a.block, a.check, a.addr, a.thread).cmp(&(
                    b.block, b.check, b.addr, b.thread,
                ))
            });
            stats.sanitizer = Some(SanitizerReport {
                mode: lc.sanitize,
                findings,
                counts: totals,
                fault_attributed,
            });
        }
        // The traced block also executes functionally (problem 0's output
        // is real), so it counts; on a schedule-cache hit block 0 is
        // already in the replay list.
        let functional_blocks = blocks.len() + usize::from(cached.is_none());
        crate::telemetry::record_launch(
            wall.as_nanos().min(u128::from(u64::MAX)) as u64,
            functional_blocks,
            workers,
            applied.len() as u64,
        );
        // Silent flips are withheld from the ECC report: `faults` carries
        // only the kinds a real machine-check would surface, while
        // `silent_faults` is ground truth for verification campaigns.
        let (silent, reported): (Vec<_>, Vec<_>) = applied
            .into_iter()
            .partition(|f| f.kind == crate::fault::FaultKind::SilentFlip);
        stats.faults = reported;
        stats.silent_faults = silent;
        if let Some(sink) = &lc.trace {
            sink.record(crate::trace::build_trace(&self.cfg, &stats, &lc.name));
        }
        if sim_verbose() {
            eprintln!(
                "regla-gpu-sim: launch '{}' took the {} path ({}{} functional \
                 blocks, {} workers)",
                lc.name,
                if fast { "fast" } else { "slow" },
                if cached.is_some() { "cached schedule, " } else { "" },
                functional_blocks,
                workers,
            );
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DPtr;

    fn copy_kernel(
        n_per_thread: usize,
        src: DPtr,
        dst: DPtr,
    ) -> impl Fn(&mut BlockCtx) {
        move |blk: &mut BlockCtx| {
            let t_per_b = blk.num_threads();
            let base = blk.block_id * t_per_b * n_per_thread;
            blk.for_each(|t| {
                for i in 0..n_per_thread {
                    // Coalesced: consecutive threads touch consecutive words.
                    let idx = base + i * t_per_b + t.tid;
                    let v = t.gload(src, idx);
                    t.gstore(dst, idx, v);
                }
            });
        }
    }

    #[test]
    fn flag_parsing_accepts_common_spellings_and_rejects_garbage() {
        for v in ["1", "true", "TRUE", "on", " On "] {
            assert_eq!(parse_flag(v), Some(true), "{v:?}");
        }
        for v in ["0", "false", "False", "off", " OFF "] {
            assert_eq!(parse_flag(v), Some(false), "{v:?}");
        }
        for v in ["", "yes", "2", "enable", "0x1", "tru e"] {
            assert_eq!(parse_flag(v), None, "{v:?}");
        }
    }

    #[test]
    fn env_flag_defaults_on_unset_and_invalid() {
        // Unset: default passes through either way.
        assert!(env_flag("REGLA_TEST_FLAG_UNSET", true));
        assert!(!env_flag("REGLA_TEST_FLAG_UNSET", false));
        // Invalid: warn-once path, default preserved (not treated as set).
        std::env::set_var("REGLA_TEST_FLAG_BAD", "maybe");
        assert!(env_flag("REGLA_TEST_FLAG_BAD", true));
        assert!(!env_flag("REGLA_TEST_FLAG_BAD", false));
        std::env::remove_var("REGLA_TEST_FLAG_BAD");
        // Valid values override the default.
        std::env::set_var("REGLA_TEST_FLAG_SET", "off");
        assert!(!env_flag("REGLA_TEST_FLAG_SET", true));
        std::env::remove_var("REGLA_TEST_FLAG_SET");
    }

    #[test]
    fn copy_kernel_moves_data_and_reports_stats() {
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(1 << 20);
        let n = 64 * 16 * 8;
        let src = mem.alloc(n);
        let dst = mem.alloc(n);
        for i in 0..n {
            mem.write(src, i, i as f32);
        }
        let lc = LaunchConfig::new(8, 64).regs(16).shared_words(0);
        let stats = gpu.launch(&copy_kernel(16, src, dst), &lc, &mut mem).unwrap();
        for i in 0..n {
            assert_eq!(mem.read(dst, i), i as f32);
        }
        // read + write of n words, fully coalesced and deduplicated.
        assert_eq!(stats.dram_bytes, (2 * n * 4) as f64);
        assert!(stats.cycles > 0.0);
        assert!(stats.time_s > 0.0);
    }

    #[test]
    fn stall_inflates_timing_and_deadline_trips() {
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(1 << 20);
        let n = 64 * 16 * 8;
        let src = mem.alloc(n);
        let dst = mem.alloc(n);
        for i in 0..n {
            mem.write(src, i, i as f32);
        }
        let base_lc = LaunchConfig::new(8, 64).regs(16).shared_words(0);
        let base = gpu.launch(&copy_kernel(16, src, dst), &base_lc, &mut mem).unwrap();

        // A stall is a pure timing perturbation: cycles shift by exactly
        // the injected amount and the functional output is untouched.
        let lc = base_lc.clone().stall_cycles(1_000_000);
        assert!(lc.fast_eligible(), "stall must not force the slow path");
        let stalled = gpu.launch(&copy_kernel(16, src, dst), &lc, &mut mem).unwrap();
        assert_eq!(stalled.cycles, base.cycles + 1_000_000.0);
        for i in 0..n {
            assert_eq!(mem.read(dst, i), i as f32);
        }

        // A generous budget passes; the stalled launch blows the same one.
        let budget = base.cycles.ceil() as u64 + 1000;
        let ok_lc = base_lc.clone().deadline_cycles(budget);
        gpu.launch(&copy_kernel(16, src, dst), &ok_lc, &mut mem).unwrap();
        let bad_lc = base_lc.stall_cycles(1_000_000).deadline_cycles(budget);
        let err = gpu.launch(&copy_kernel(16, src, dst), &bad_lc, &mut mem);
        match err {
            Err(LaunchError::DeadlineExceeded { cycles, budget: b }) => {
                assert_eq!(b, budget);
                assert!(cycles > b);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn representative_mode_skips_other_blocks() {
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(1 << 20);
        let n = 64 * 4 * 4;
        let src = mem.alloc(n);
        let dst = mem.alloc(n);
        for i in 0..n {
            mem.write(src, i, 1.0);
        }
        let lc = LaunchConfig::new(4, 64)
            .regs(16)
            .shared_words(0)
            .exec(ExecMode::Representative);
        let stats = gpu.launch(&copy_kernel(4, src, dst), &lc, &mut mem).unwrap();
        // Block 0's slice was copied; block 3's slice untouched.
        assert_eq!(mem.read(dst, 0), 1.0);
        assert_eq!(mem.read(dst, n - 1), 0.0);
        // Timing still covers the whole grid.
        assert_eq!(stats.grid_blocks, 4);
        assert_eq!(stats.dram_bytes, (2 * n * 4) as f64);
    }

    #[test]
    fn large_grid_runs_in_waves() {
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(1 << 24);
        let n_per_block = 64 * 4;
        let grid = 500; // > 14 SMs * 8 blocks
        let src = mem.alloc(n_per_block * grid);
        let dst = mem.alloc(n_per_block * grid);
        let lc = LaunchConfig::new(grid, 64)
            .regs(16)
            .shared_words(0)
            .exec(ExecMode::Representative);
        let stats = gpu.launch(&copy_kernel(4, src, dst), &lc, &mut mem).unwrap();
        assert_eq!(stats.waves, (500f64 / 112f64).ceil() as usize);
    }

    #[test]
    fn dram_bound_copy_achieves_stream_bandwidth() {
        // A big, fully-coalesced copy must run at ~108 GB/s (Table II).
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(64 << 20);
        let words = 4 << 20; // 16 MB array, as in Listing 2
        let src = mem.alloc(words);
        let dst = mem.alloc(words);
        let grid = 14 * 8;
        let per_block = words / grid;
        let per_thread = per_block / 256;
        let k = move |blk: &mut BlockCtx| {
            let base = blk.block_id * per_block;
            blk.for_each(|t| {
                for i in 0..per_thread {
                    let idx = base + i * 256 + t.tid;
                    let v = t.gload(src, idx);
                    t.gstore(dst, idx, v);
                }
            });
        };
        let lc = LaunchConfig::new(grid, 256)
            .regs(20)
            .shared_words(0)
            .exec(ExecMode::Representative);
        let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
        let gbs = stats.dram_gbs();
        assert!(
            (gbs - 108.0).abs() < 6.0,
            "copy bandwidth {gbs} GB/s, expected ~108"
        );
    }

    #[test]
    fn fma_chain_is_latency_bound() {
        // A single dependent FMA chain exposes the 18-cycle pipeline.
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(4096);
        let n = 1000usize;
        let k = move |blk: &mut BlockCtx| {
            blk.for_each(|t| {
                if t.tid == 0 {
                    let mut acc = t.lit(0.0);
                    let x = t.lit(1.000001);
                    for _ in 0..n {
                        acc = t.fma(acc, x, x);
                    }
                }
            });
        };
        let lc = LaunchConfig::new(1, 32).regs(8).shared_words(0);
        let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
        let per_op = stats.cycles / n as f64;
        assert!(
            (per_op - 18.0).abs() < 1.5,
            "dependent FMA cost {per_op} cycles, expected ~18 (gamma)"
        );
    }

    #[test]
    fn independent_fp_ops_reach_issue_throughput() {
        // Many independent ops across many warps: throughput-bound.
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(1 << 20);
        let n = 256usize;
        let k = move |blk: &mut BlockCtx| {
            blk.for_each(|t| {
                let x = t.lit(1.5);
                let mut accs = [t.lit(0.0); 8];
                for _ in 0..n / 8 {
                    for a in &mut accs {
                        *a = t.fma(*a, x, x);
                    }
                }
                let mut s = accs[0];
                for a in &accs[1..] {
                    s = t.add(s, *a);
                }
                // Per-block output slab: blocks must write disjoint words.
                t.gstore(DPtr(0), t.block_id * 256 + t.tid, s);
            });
        };
        let lc = LaunchConfig::new(112, 256).regs(24).shared_words(0);
        let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
        // 8-way ILP with full occupancy: should be far below 18 cycles/op
        // per warp and reach a decent fraction of peak FLOP throughput.
        let frac = stats.gflops() / gpu.cfg.peak_sp_gflops();
        assert!(frac > 0.5, "achieved only {frac:.2} of peak");
    }

    #[test]
    fn spilled_registers_slow_the_kernel_down() {
        let gpu = Gpu::quadro_6000();
        let run = |regs: usize| {
            let mut mem = GlobalMemory::with_bytes(1 << 20);
            let k = move |blk: &mut BlockCtx| {
                blk.for_each(|t| {
                    let mut a = thread::RegArray::<thread::Rv>::zeroed(regs);
                    let one = t.lit(1.0);
                    for i in 0..regs {
                        let x = a.get(t, i);
                        let y = t.add(x, one);
                        a.set(t, i, y);
                    }
                    let last = a.get(t, regs - 1);
                    t.gstore(DPtr(0), t.block_id * 64 + t.tid, last);
                });
            };
            let lc = LaunchConfig::new(112, 64).regs(regs).shared_words(0);
            gpu.launch(&k, &lc, &mut mem).unwrap().cycles
        };
        let fits = run(48);
        let spills = run(120);
        assert!(
            spills > fits * 1.5,
            "spilled {spills} vs resident {fits}: expected a clear penalty"
        );
    }

    #[test]
    fn sync_adds_barrier_cost() {
        let gpu = Gpu::quadro_6000();
        let mut mem = GlobalMemory::with_bytes(4096);
        let nsyncs = 100usize;
        let k = move |blk: &mut BlockCtx| {
            for _ in 0..nsyncs {
                blk.sync();
            }
        };
        let lc = LaunchConfig::new(1, 64).regs(8).shared_words(16);
        let stats = gpu.launch(&k, &lc, &mut mem).unwrap();
        let per_sync = stats.cycles / nsyncs as f64;
        assert!(
            (per_sync - 46.0).abs() < 2.0,
            "sync cost {per_sync}, expected ~46 (Table IV)"
        );
    }

    #[test]
    fn bank_conflicts_are_detected_and_penalised() {
        let gpu = Gpu::quadro_6000();
        let run = |stride: usize| {
            let mut mem = GlobalMemory::with_bytes(1 << 16);
            let k = move |blk: &mut BlockCtx| {
                blk.for_each(|t| {
                    let mut acc = t.lit(0.0);
                    for i in 0..8 {
                        let v = t.shared_load((t.tid * stride + i * 512) % 4096);
                        acc = t.add(acc, v);
                    }
                    t.gstore(DPtr(0), t.tid, acc);
                });
            };
            let lc = LaunchConfig::new(1, 32).regs(8).shared_words(4096);
            gpu.launch(&k, &lc, &mut mem).unwrap()
        };
        let clean = run(1);
        let conflicted = run(32);
        assert_eq!(clean.conflict_replays(), 0);
        assert_eq!(conflicted.conflict_replays(), 31 * 8);
        assert!(conflicted.cycles > clean.cycles);
    }
}
