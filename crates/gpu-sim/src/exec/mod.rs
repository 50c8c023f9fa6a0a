//! Kernel launch machinery.

mod arena;
pub mod block;
pub mod occupancy;
mod pool;
mod schedule;
pub mod thread;

use crate::config::{GpuConfig, MathMode};
use crate::error::LaunchError;
use crate::fault::{FaultPlan, FaultRecord};
use crate::mem::global::GmemAccess;
use crate::mem::{GlobalMemory, MemHier};
use crate::sanitize::{ContextFindings, LaunchShadow, SanitizerMode, WatchdogTrip};
use crate::timing::{combine, LaunchStats, PhaseRecord};
use crate::trace::Profiler;
use arena::BufPool;
use block::{BlockCtx, BlockSpec, Role};
use occupancy::{occupancy, Occupancy};
pub use pool::par_map;
use schedule::{BlockKey, LaunchKey, ScheduleCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
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
    /// Host threads for the functional replay: the launching thread plus
    /// up to `host_threads − 1` persistent replay workers, which are
    /// shared by every launch and every [`par_map`] in the process and
    /// started the first time a caller asks for more than exist. Each
    /// claims the launch's next unit until none are left. `None` defers to
    /// the `REGLA_SIM_THREADS` environment variable and then to
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
    /// attached (see [`LaunchConfig::fast_eligible`]).
    pub slow_path: bool,
    /// Opaque kernel and launch-shape identity for the cross-launch
    /// schedule cache (`None` = never cache). The caller names the kernel
    /// and its shape: launches sharing a key promise to run the same op
    /// sequence whenever block 0 takes the same branches. The simulator
    /// keys the data-dependent control flow itself (the outcomes of
    /// block 0's `is_zero`/`gt` comparisons and `uniform` guards), so a
    /// keyed kernel must take every data-dependent branch through them, as
    /// a lane-capable kernel already does. Only consulted on the fast path
    /// without a fault plan.
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

    /// Set the opaque kernel and shape identity for the schedule cache.
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
    /// execution path: no trace sink, sanitizer or watchdog, and
    /// `slow_path` not forced. On the fast path replay blocks elide all
    /// per-op scoreboard/shadow bookkeeping, and a lane-capable kernel
    /// replays lane groups of blocks per pass (see
    /// [`BlockKernel::lane_capable`]);
    /// results, statuses, and modeled cycle totals are bit-identical to the
    /// slow path. A fault plan does not disqualify the launch: the fast
    /// decision is made per replay block, and only the blocks the plan arms
    /// replay instrumented — every other block's fault hooks would pass
    /// each value through unchanged.
    pub fn fast_eligible(&self) -> bool {
        !self.slow_path
            && self.trace.is_none()
            && !self.sanitize.is_on()
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

/// Resolve a host thread count: the explicit request, then the
/// `REGLA_SIM_THREADS` environment variable, then available parallelism.
fn resolve_host_threads(requested: Option<usize>) -> usize {
    requested
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

/// Whether the disjoint-write checker runs: by default in debug builds
/// only; `REGLA_SIM_CHECK` forces it on or off in either (see [`env_flag`]).
fn check_writes_enabled() -> bool {
    env_flag("REGLA_SIM_CHECK", cfg!(debug_assertions))
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
    flag_value(name, std::env::var(name).ok().as_deref(), default)
}

/// [`env_flag`] for a given value of `name` (`None` = unset).
fn flag_value(name: &str, value: Option<&str>, default: bool) -> bool {
    let Some(v) = value else {
        return default;
    };
    parse_flag(v).unwrap_or_else(|| {
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

/// The widest lane group: a lane-capable kernel's fast replay runs its
/// body once for a group of 2, 4, 8 or 16 blocks (see
/// [`BlockKernel::lane_capable`]).
pub(crate) const MAX_LANES: usize = 16;

/// Host bytes a lane group's registers and shared memory may fill. Every
/// lane holds a whole block's working set, so W lanes hold
/// W × 4 × (threads × registers + shared words) bytes; once the group
/// outgrows the cache, the lanes stop sharing a pass's fixed cost and
/// start evicting each other. A launch's groups are as wide as fits (see
/// [`lane_cap`]), and a block too big for two lanes replays alone.
///
/// Settled by measurement on a Xeon with 48 KiB of L1d and 2 MiB of L2
/// per core, one replay thread, medians of interleaved runs: against
/// 256 KiB, 512 KiB replays per-thread 8×8 blocks 3–8% faster (16 lanes
/// instead of 8), per-thread 16×16 10–66% (4 instead of 2) and per-block
/// 56×56 8–22% (16 instead of 8). Per-thread 32×32 (265 KiB a block)
/// and 64×64 (1 MiB) stay single: 2 lanes of either replayed 12–41%
/// slower than one.
const LANE_BUDGET_BYTES: usize = 512 << 10;

/// The widest lane group `lc`'s blocks may form: the largest W in
/// {16, 8, 4, 2} whose working set fits [`LANE_BUDGET_BYTES`], else 1. A
/// static rule of the launch's declared footprint, never of a timing.
fn lane_cap(lc: &LaunchConfig) -> usize {
    let block_bytes = 4 * (lc.threads_per_block * lc.regs_per_thread + lc.shared_words);
    [16, 8, 4, 2]
        .into_iter()
        .find(|w| w * block_bytes <= LANE_BUDGET_BYTES)
        .unwrap_or(1)
}

/// Unwind payload that abandons a lane group whose lanes disagree on a
/// branch (see [`uniform`]).
struct LaneDivergence;

/// The common value of a branch condition evaluated on every lane of the
/// executing block or lane group (one value outside a group).
///
/// Every problem of a batch follows the same control flow unless its data
/// says otherwise (a zero pivot, a non-SPD diagonal), and the lanes of a
/// group are independent blocks. When lanes disagree, the group is
/// abandoned: `Gpu::launch` undoes its global stores and replays its
/// blocks one at a time. The unwind skips the panic hook, so nothing is
/// printed.
pub fn uniform(lanes: impl IntoIterator<Item = bool>) -> bool {
    let mut lanes = lanes.into_iter();
    let first = lanes.next().expect("a branch has at least one lane");
    if lanes.any(|b| b != first) {
        std::panic::resume_unwind(Box::new(LaneDivergence));
    }
    first
}

/// A device kernel: runs once per thread block.
pub trait BlockKernel {
    fn run(&self, blk: &mut BlockCtx);

    /// Whether `run` can execute a lane group ([`BlockCtx::lane_width`]):
    /// W fast replay blocks at once over W-wide plain values, for W of 2,
    /// 4, 8 or 16. Such a kernel addresses global memory only through
    /// per-block slabs (the `ThreadCtx::*_lanes` primitives), never by
    /// multiplying `block_id`, and takes every data- or block-dependent
    /// branch through [`uniform`].
    fn lane_capable(&self) -> bool {
        false
    }
}

impl<F: Fn(&mut BlockCtx)> BlockKernel for F {
    fn run(&self, blk: &mut BlockCtx) {
        self(blk)
    }
}

/// One unit of replay work: a lane group (its first `width` blocks) or a
/// single block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    Group {
        blocks: [usize; MAX_LANES],
        width: usize,
    },
    Block(usize),
}

impl Unit {
    /// The unit over `blocks`: a group of two or more, or a single block.
    fn of(blocks: &[usize]) -> Unit {
        match *blocks {
            [b] => Unit::Block(b),
            _ => {
                let mut group = [0; MAX_LANES];
                group[..blocks.len()].copy_from_slice(blocks);
                Unit::Group {
                    blocks: group,
                    width: blocks.len(),
                }
            }
        }
    }

    /// The blocks the unit replays, in order.
    fn blocks(&self) -> &[usize] {
        match self {
            Unit::Group { blocks, width } => &blocks[..*width],
            Unit::Block(b) => std::slice::from_ref(b),
        }
    }

    fn first(&self) -> usize {
        self.blocks()[0]
    }
}

/// Cut `blocks` into replay units in order. Blocks `alone` picks replay
/// singly; the rest are cut greedily into lane groups of `cap` blocks,
/// and what is left after the last full group into exact groups of 8, 4
/// and 2 and at most one single block, widest first. No group is padded.
/// Units come in the order of their first block.
fn cut_units(blocks: &[usize], cap: usize, alone: impl Fn(usize) -> bool) -> Vec<Unit> {
    let (singles, groupable): (Vec<usize>, Vec<usize>) =
        blocks.iter().partition(|&&b| cap == 1 || alone(b));
    let mut units: Vec<Unit> = singles.into_iter().map(Unit::Block).collect();
    let mut rest = &groupable[..];
    while !rest.is_empty() {
        // The cap, or the widest power of two the tail still fills.
        let width = cap.min(1 << rest.len().ilog2());
        let (group, tail) = rest.split_at(width);
        units.push(Unit::of(group));
        rest = tail;
    }
    units.sort_unstable_by_key(Unit::first);
    units
}

/// What a launch's set-up stage derives once for its later stages.
struct Setup<'a> {
    spec: BlockSpec<'a>,
    occ: Occupancy,
    replay: Role,
    /// The widest lane group the launch's blocks may form ([`lane_cap`]).
    lane_cap: usize,
    /// Host threads the replay may use (see [`LaunchConfig::host_threads`]).
    threads: usize,
    /// The schedule-cache key of a keyed fast launch without a fault plan.
    key: Option<LaunchKey>,
}

impl Setup<'_> {
    /// The widest lane group the replay forms: [`lane_cap`] on a fast
    /// launch of a lane-capable kernel, 1 (no groups) otherwise.
    fn group_cap(&self, lane_capable: bool) -> usize {
        if lane_capable && self.replay == Role::FastReplay {
            self.lane_cap
        } else {
            1
        }
    }

    /// Host threads that replay `units` units: one per unit, at most
    /// [`Setup::threads`], at least one.
    fn participants(&self, units: usize) -> usize {
        self.threads.min(units).max(1)
    }

    /// Plan units: split the replay list into lane groups at most `cap`
    /// wide and single blocks (see [`cut_units`]). Blocks the fault plan
    /// arms and the grid's last block (the only one a per-thread launch
    /// can leave partial) replay alone. Grouping depends only on the
    /// launch, never on the host thread count.
    fn plan_units(&self, blocks: &[usize], cap: usize) -> Vec<Unit> {
        let fault_map = self.spec.fault_map.as_ref();
        let last = self.spec.lc.grid_blocks - 1;
        cut_units(blocks, cap, |b| {
            b == last || fault_map.is_some_and(|m| m.contains_key(&b))
        })
    }
}

/// What tracing or replaying blocks observed besides their stores: one
/// participant's, or the whole launch's once folded.
#[derive(Default)]
struct Observed {
    busy: Duration,
    faults: Vec<FaultRecord>,
    findings: ContextFindings,
    lane_blocks: usize,
    groups_abandoned: usize,
    /// Kernel-body passes over replay units.
    passes: usize,
}

impl Observed {
    /// Fold in what another participant observed.
    fn absorb(&mut self, other: Observed) {
        self.busy += other.busy;
        self.faults.extend(other.faults);
        self.findings.absorb(other.findings);
        self.lane_blocks += other.lane_blocks;
        self.groups_abandoned += other.groups_abandoned;
        self.passes += other.passes;
    }
}

/// Replay the `units` that `claimed` yields, in claim order, on one block
/// context built for the first and reused for the rest. A lane group that
/// diverges (or panics) is undone and its blocks replay one at a time, so
/// a genuine kernel panic is reported against its own block. A failing
/// block ends the participant's claims; the error carries its unit's
/// index.
fn replay_claimed<K: BlockKernel + Sync + ?Sized>(
    kernel: &K,
    spec: &BlockSpec,
    role: Role,
    units: &[Unit],
    claimed: impl Iterator<Item = usize>,
    gmem: GmemAccess,
    memhier: &mut MemHier,
) -> Result<Observed, (usize, LaunchError)> {
    let mut claimed = claimed.peekable();
    let Some(&first) = claimed.peek() else {
        return Ok(Observed::default());
    };
    let mut blk = BlockCtx::new(spec, units[first].first(), role, gmem, memhier);
    let t0 = Instant::now();
    let mut seen = Observed::default();
    for i in claimed {
        seen.passes += 1;
        match &units[i] {
            Unit::Block(b) => {
                blk.reset_for_block(*b);
                run_contained(kernel, &mut blk).map_err(|e| (i, e))?;
            }
            unit @ Unit::Group { .. } => {
                let group = unit.blocks();
                blk.reset_for_group(group);
                let ok = catch_unwind(AssertUnwindSafe(|| kernel.run(&mut blk))).is_ok();
                blk.end_undo_log(!ok);
                if ok {
                    seen.lane_blocks += group.len();
                    continue;
                }
                seen.groups_abandoned += 1;
                seen.passes += group.len();
                for &b in group {
                    blk.reset_for_block(b);
                    run_contained(kernel, &mut blk).map_err(|e| (i, e))?;
                }
            }
        }
    }
    (seen.faults, seen.findings) = blk.take_observed();
    seen.busy = t0.elapsed();
    Ok(seen)
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
    /// and coalescing analysis), unless a keyed fast launch finds its
    /// schedule cached (see [`LaunchConfig::schedule_key`]); the remaining
    /// blocks execute functionally
    /// (or are skipped under [`ExecMode::Representative`], sampled under
    /// [`ExecMode::Sampled`]). Timing is then extrapolated over the grid
    /// via the occupancy and wave model.
    ///
    /// The functional replay runs on up to [`LaunchConfig::host_threads`]
    /// host threads: the calling thread and persistent replay workers
    /// shared by the whole process, never threads spawned for the launch.
    /// Each takes the next unit (a block or a lane group) from one shared
    /// counter until none are left, so the calling thread waits only for
    /// units already in flight and never on workers busy with another
    /// launch. Simulated results — `LaunchStats` and device memory — are
    /// bit-identical at every thread count, because timing comes solely
    /// from the traced block and each replayed block writes only its own
    /// problem's output. On a fast launch a
    /// lane-capable kernel replays up to 16 blocks per pass of its body,
    /// as many as the block's working set lets fit (see
    /// [`BlockKernel::lane_capable`] and [`uniform`]).
    ///
    /// The launch runs in stages: set-up, plan units, key check, trace,
    /// replay, combine and report.
    pub fn launch<K: BlockKernel + Sync + ?Sized>(
        &self,
        kernel: &K,
        lc: &LaunchConfig,
        gmem: &mut GlobalMemory,
    ) -> Result<LaunchStats, LaunchError> {
        self.validate(lc)?;
        let wall_start = Instant::now();
        let setup = self.set_up(lc, gmem);
        let blocks = replay_blocks(lc);
        let cap = setup.group_cap(kernel.lane_capable());
        let units = setup.plan_units(&blocks, cap);
        let participants = setup.participants(units.len());
        if participants > 1 {
            // Parked workers take tens of microseconds to wake: start them
            // now, so they are polling when block 0 is done and the units
            // are posted.
            pool::wake(participants - 1);
        }
        let mut memhier = MemHier::new(&self.cfg);
        let (plain_key, cached) = self.check_key(kernel, &setup, gmem, &mut memhier);
        let (records, mut seen) = match &cached {
            Some(records) => (records.as_ref().clone(), Observed::default()),
            None => self.trace(kernel, &setup, plain_key, gmem, &mut memhier)?,
        };
        let (workers, utilization) =
            self.replay(kernel, &setup, &units, gmem, &mut memhier, &mut seen)?;
        // Combine: block 0's records over the grid, through the occupancy
        // and wave model.
        let mut stats = combine(
            &self.cfg,
            setup.occ,
            records,
            lc.grid_blocks,
            lc.threads_per_block,
            setup.spec.spill.dram_frac > 0.0,
        );
        let wall = wall_start.elapsed();
        stats.sim_wall_s = wall.as_secs_f64();
        stats.sim_blocks = blocks.len() + usize::from(cached.is_some());
        stats.sim_host_threads = workers;
        stats.sim_worker_utilization = utilization;
        stats.sim_fast = setup.replay == Role::FastReplay && lc.fault.is_none();
        stats.sim_lane_blocks = seen.lane_blocks;
        stats.sim_lane_groups_abandoned = seen.groups_abandoned;
        stats.sim_replay_passes = seen.passes;
        stats.sim_lane_width = cap;
        stats.sim_sched_cache_hit = cached.is_some();
        // Block 0 executes functionally either way (traced, or plain on a
        // schedule-cache hit), so it counts.
        self.report(&setup, stats, seen, wall, blocks.len() + 1)
    }

    /// Set-up: the launch-invariant block spec, the occupancy, what replay
    /// blocks run as, the lane cap, the replay threads and the
    /// schedule-cache key.
    fn set_up<'a>(&'a self, lc: &'a LaunchConfig, gmem: &GlobalMemory) -> Setup<'a> {
        if lc.watchdog.is_some() {
            crate::sanitize::install_quiet_watchdog_hook();
        }
        let occ = occupancy(
            &self.cfg,
            lc.threads_per_block,
            lc.regs_per_thread,
            lc.shared_words * 4,
        );
        // Fast (observer-free) path: replay blocks the fault plan does not
        // arm elide all per-op bookkeeping; results and modeled timing
        // stay bit-identical.
        let fast = lc.fast_eligible();
        // The schedule cache is only consulted on a fast launch without a
        // fault plan, and only when the caller named the kernel and shape.
        let key = (fast && lc.fault.is_none())
            .then_some(lc.schedule_key)
            .flatten()
            .map(|kernel| LaunchKey {
                kernel,
                threads_per_block: lc.threads_per_block,
                regs_per_thread: lc.regs_per_thread,
                shared_words: lc.shared_words,
                math: lc.math as u8,
            });
        Setup {
            spec: BlockSpec {
                lc,
                cfg: &self.cfg,
                spill: SpillInfo::new(&self.cfg, &occ, lc),
                fault_map: lc.fault.map(|p| p.materialize(lc.grid_blocks)),
                // Snapshot host-initialization and allocation state before
                // any block runs, so initcheck and the cross-block
                // classifier see the launch's declared inputs.
                shadow: lc.sanitize.is_on().then(|| LaunchShadow::new(gmem)),
                pool: &self.pool,
            },
            occ,
            replay: if fast { Role::FastReplay } else { Role::Replay },
            lane_cap: lane_cap(lc),
            threads: resolve_host_threads(lc.host_threads),
            key,
        }
    }

    /// Key check: once a schedule of this kernel and shape is cached, run
    /// block 0 plain and look up the key it records (see `schedule`). A
    /// miss undoes its stores, and so does a failed run, which fails again
    /// when traced and reports the error there. Returns the key the plain
    /// run recorded and the records it hit.
    fn check_key<K: BlockKernel + Sync + ?Sized>(
        &self,
        kernel: &K,
        setup: &Setup,
        gmem: &mut GlobalMemory,
        memhier: &mut MemHier,
    ) -> (Option<BlockKey>, Option<Arc<Vec<PhaseRecord>>>) {
        let Some(launch) = setup.key.filter(|k| self.sched.knows(k)) else {
            return (None, None);
        };
        let view = GmemAccess::excl(gmem);
        let mut blk = BlockCtx::new(&setup.spec, 0, Role::FastReplay, view, memhier);
        blk.record_key();
        blk.begin_undo_log();
        let ran = run_contained(kernel, &mut blk).is_ok();
        let plain = ran.then(|| blk.take_key());
        let cached = plain.as_ref().and_then(|k| self.sched.get(&launch, k));
        blk.end_undo_log(cached.is_none());
        (plain, cached)
    }

    /// Trace: run block 0 under the scoreboard, and cache its records under
    /// the key the trace itself recorded, so a plain run that branched
    /// differently can never hit them.
    fn trace<K: BlockKernel + Sync + ?Sized>(
        &self,
        kernel: &K,
        setup: &Setup,
        plain_key: Option<BlockKey>,
        gmem: &mut GlobalMemory,
        memhier: &mut MemHier,
    ) -> Result<(Vec<PhaseRecord>, Observed), LaunchError> {
        let view = GmemAccess::excl(gmem);
        let mut blk = BlockCtx::new(&setup.spec, 0, Role::Traced, view, memhier);
        if setup.key.is_some() {
            blk.record_key();
        }
        run_contained(kernel, &mut blk)?;
        let mut seen = Observed::default();
        (seen.faults, seen.findings) = blk.take_observed();
        let block = blk.take_key();
        let records = blk.finish();
        if let Some(launch) = setup.key {
            debug_assert!(
                plain_key.is_none_or(|k| k == block),
                "block 0 ran differently plain and traced"
            );
            self.sched.insert(launch, block, &records);
        }
        Ok((records, seen))
    }

    /// Replay: the launching thread and up to `threads − 1` replay
    /// workers claim the planned units one at a time (see [`Gpu::launch`]),
    /// each participant with its own memory hierarchy and a shared read /
    /// per-block write view of device memory. One participant with the
    /// disjoint-write checker off claims every unit in order through the
    /// exclusive borrow instead. When blocks fail, the lowest failing unit
    /// reports: units are claimed in ascending order, so every unit below
    /// one that failed was claimed and ran. Folds what the participants
    /// observed into `seen` and returns their count and utilization.
    fn replay<K: BlockKernel + Sync + ?Sized>(
        &self,
        kernel: &K,
        setup: &Setup,
        units: &[Unit],
        gmem: &mut GlobalMemory,
        memhier: &mut MemHier,
        seen: &mut Observed,
    ) -> Result<(usize, f64), LaunchError> {
        if units.is_empty() {
            return Ok((1, 1.0));
        }
        let (spec, role) = (&setup.spec, setup.replay);
        let check = check_writes_enabled();
        let start = Instant::now();
        let reports = if setup.participants(units.len()) == 1 && !check {
            let (all, view) = (0..units.len(), GmemAccess::excl(gmem));
            let report = replay_claimed(kernel, spec, role, units, all, view, memhier);
            vec![report]
        } else {
            let shared = gmem.share(check, spec.shadow.is_some());
            pool::claim(units.len(), setup.threads, |claims| {
                let mut claims = claims.peekable();
                let Some(&first) = claims.peek() else {
                    return Ok(Observed::default());
                };
                let view = GmemAccess::worker(shared.worker(units[first].first()));
                let mut memhier = MemHier::new(&self.cfg);
                replay_claimed(kernel, spec, role, units, claims, view, &mut memhier)
            })
        };
        let wall = start.elapsed().as_secs_f64();
        let workers = reports.len();
        let mut replayed = Observed::default();
        let mut failed = Vec::new();
        for report in reports {
            match report {
                Ok(observed) => replayed.absorb(observed),
                Err(e) => failed.push(e),
            }
        }
        if let Some((_, e)) = failed.into_iter().min_by_key(|(unit, _)| *unit) {
            return Err(e);
        }
        let utilization = if workers > 1 && wall > 0.0 {
            (replayed.busy.as_secs_f64() / (workers as f64 * wall)).min(1.0)
        } else {
            1.0
        };
        seen.absorb(replayed);
        Ok((workers, utilization))
    }

    /// Report: apply the injected stall and check the deadline, then hand
    /// out the faults, the sanitizer report, the counters and the trace.
    fn report(
        &self,
        setup: &Setup,
        mut stats: LaunchStats,
        seen: Observed,
        wall: Duration,
        functional_blocks: usize,
    ) -> Result<LaunchStats, LaunchError> {
        let lc = setup.spec.lc;
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
        let mut faults = seen.faults;
        faults.sort_unstable_by_key(|f| f.block);
        if let Some(shadow) = &setup.spec.shadow {
            stats.sanitizer = Some(seen.findings.into_report(lc.sanitize, shadow, &faults));
        }
        crate::telemetry::record_launch(
            wall.as_nanos().min(u128::from(u64::MAX)) as u64,
            functional_blocks,
            stats.sim_host_threads,
            faults.len() as u64,
        );
        // Silent flips are withheld from the ECC report: `faults` carries
        // only the kinds a real machine-check would surface, while
        // `silent_faults` is ground truth for verification campaigns.
        (stats.silent_faults, stats.faults) = faults
            .into_iter()
            .partition(|f| f.kind == crate::fault::FaultKind::SilentFlip);
        if let Some(sink) = &lc.trace {
            sink.record(crate::trace::build_trace(&self.cfg, &stats, &lc.name));
        }
        if sim_verbose() {
            let fast = setup.replay == Role::FastReplay;
            let cached = stats.sim_sched_cache_hit;
            eprintln!(
                "regla-gpu-sim: launch '{}' took the {} path ({}{} functional \
                 blocks, {} in lane groups, {} groups abandoned, {} replay \
                 passes, lane width {}, {} workers)",
                lc.name,
                if fast { "fast" } else { "slow" },
                if cached { "cached schedule, " } else { "" },
                functional_blocks,
                stats.sim_lane_blocks,
                stats.sim_lane_groups_abandoned,
                stats.sim_replay_passes,
                stats.sim_lane_width,
                stats.sim_host_threads,
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
    fn sim_check_spellings_switch_the_write_checker() {
        let check = |v| flag_value("REGLA_SIM_CHECK", v, cfg!(debug_assertions));
        for v in ["0", "false", "off"] {
            assert!(!check(Some(v)), "{v:?}");
        }
        for v in ["1", "true", "on"] {
            assert!(check(Some(v)), "{v:?}");
        }
        // Unset and unrecognised values (empty included) keep the default.
        for v in [None, Some(""), Some("maybe")] {
            assert_eq!(check(v), cfg!(debug_assertions), "{v:?}");
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

    /// A launch's cap is the widest group whose blocks' registers and
    /// shared words fit `LANE_BUDGET_BYTES`.
    #[test]
    fn lane_cap_is_the_widest_group_the_budget_holds() {
        let cap = |threads, regs, shared| {
            lane_cap(&LaunchConfig::new(1, threads).regs(regs).shared_words(shared))
        };
        let words = LANE_BUDGET_BYTES / 4;
        assert_eq!(cap(1, words / 16, 0), 16);
        assert_eq!(cap(1, words / 16 + 1, 0), 8);
        assert_eq!(cap(1, 0, words / 2), 2);
        assert_eq!(cap(1, 1, words / 2), 1);
        // Per-thread LU 64×64: 64 threads of 64·64 + 12 registers.
        assert_eq!(cap(64, 64 * 64 + 12, 0), 1);
    }

    proptest::proptest! {
        /// The plan over any grid, exec mode, armed set and footprint: every
        /// replay block once, in order; widths exact powers of two up to
        /// the cap, never widening along the list; armed blocks and the
        /// last block alone, and at most one groupable block left single;
        /// the same plan at every host thread count.
        #[test]
        fn plan_units_cuts_exact_groups_in_order(
            grid in 1usize..120,
            exec in 0usize..3,
            sample in 1usize..60,
            faults in 0usize..6,
            seed in 0u64..1000,
            regs in proptest::sample::select(vec![8usize, 40, 100, 300, 700, 1100, 4108]),
            lane_capable in proptest::sample::select(vec![false, true]),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let exec = [ExecMode::Full, ExecMode::Sampled(sample), ExecMode::Representative][exec];
            let plan = FaultPlan::new(seed, faults);
            let armed = plan.target_blocks(grid);
            let alone = |b: usize| b + 1 == grid || armed.contains(&b);
            let gpu = Gpu::quadro_6000();
            let gmem = GlobalMemory::new(0);
            let mut plans = Vec::new();
            for threads in [1, 2, 8] {
                let lc = LaunchConfig::new(grid, 64)
                    .regs(regs)
                    .shared_words(64)
                    .exec(exec)
                    .fault((faults > 0).then_some(plan))
                    .host_threads(threads);
                let setup = gpu.set_up(&lc, &gmem);
                let cap = setup.group_cap(lane_capable);
                prop_assert_eq!(cap, if lane_capable { lane_cap(&lc) } else { 1 });
                let blocks = replay_blocks(&lc);
                let units = setup.plan_units(&blocks, cap);

                let in_order = units.windows(2).all(|w| w[0].first() < w[1].first())
                    && units.iter().all(|u| u.blocks().is_sorted());
                prop_assert!(in_order, "units out of order: {:?}", units);
                let mut seen: Vec<usize> = units.iter().flat_map(|u| u.blocks().to_vec()).collect();
                seen.sort_unstable();
                prop_assert_eq!(&seen, &blocks, "every replay block once");

                let widths: Vec<usize> =
                    units.iter().map(|u| u.blocks().len()).filter(|&w| w > 1).collect();
                prop_assert!(widths.iter().all(|w| [16, 8, 4, 2].contains(w) && *w <= cap));
                prop_assert!(widths.is_sorted_by(|a, b| a >= b), "widths grow: {:?}", widths);
                let singles: Vec<usize> = units
                    .iter()
                    .filter(|u| matches!(u, Unit::Block(_)))
                    .map(Unit::first)
                    .collect();
                for &b in blocks.iter().filter(|&&b| alone(b)) {
                    prop_assert!(singles.contains(&b), "block {} is not alone", b);
                }
                let left = singles.iter().filter(|&&b| !alone(b)).count();
                prop_assert!(cap == 1 || left <= 1, "{} groupable blocks left single", left);
                plans.push(units);
            }
            prop_assert!(plans.windows(2).all(|p| p[0] == p[1]), "the plan depends on threads");
        }
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

    /// In place, per block: `x ← 2x`, then a branch on the original `x`
    /// through `is_zero`. Keyed, so the launch first runs block 0 plain.
    fn double_then_branch(x: DPtr) -> impl Fn(&mut BlockCtx) {
        move |blk: &mut BlockCtx| {
            blk.for_each(|t| {
                let idx = t.block_id * 32 + t.tid;
                let v = t.gload(x, idx);
                let doubled = t.add(v, v);
                t.gstore(x, idx, doubled);
                if t.is_zero(v) {
                    let flag = t.lit(-1.0);
                    t.gstore(x, idx, flag);
                }
            });
        }
    }

    /// A warm `Gpu` meets a new branch outcome in block 0: its plain run
    /// misses, its stores are undone, and the traced run starts from the
    /// original inputs, bit for bit like an unkeyed launch on a fresh
    /// `Gpu`, which traces block 0 straight away.
    #[test]
    fn schedule_cache_miss_undoes_block_zero() {
        let grid = 3;
        let unkeyed = LaunchConfig::new(grid, 32)
            .regs(8)
            .shared_words(0)
            .host_threads(1);
        let keyed = unkeyed.clone().schedule_key(7);
        let run = |gpu: &Gpu, lc: &LaunchConfig, zero_at: Option<usize>| {
            let mut mem = GlobalMemory::new(grid * 32);
            let x = mem.alloc(grid * 32);
            for i in 0..grid * 32 {
                let v = if Some(i) == zero_at { 0.0 } else { i as f32 + 0.5 };
                mem.write(x, i, v);
            }
            let stats = gpu.launch(&double_then_branch(x), lc, &mut mem).expect("launch");
            let out: Vec<u32> = (0..grid * 32).map(|i| mem.read(x, i).to_bits()).collect();
            (out, stats.cycles.to_bits(), stats.sim_sched_cache_hit)
        };
        let warm = Gpu::quadro_6000();
        assert!(!run(&warm, &keyed, None).2, "the first launch traces");
        assert!(run(&warm, &keyed, None).2, "the same outcomes hit");
        let (out, cycles, hit) = run(&warm, &keyed, Some(5));
        assert!(!hit, "a new outcome in block 0 misses");
        let (fresh_out, fresh_cycles, _) = run(&Gpu::quadro_6000(), &unkeyed, Some(5));
        assert_eq!(out, fresh_out, "block 0's plain-run stores were not undone");
        assert_eq!(cycles, fresh_cycles);
        assert_eq!(warm.sched.len(), 2, "one entry per outcome pattern");
    }

    /// In place, per block: `x ← 2x`, then a panic if the original `x` is
    /// zero (tested through `is_zero`, as a keyed kernel must). The message
    /// names the block's first word as the panicking thread reads it, so
    /// stores left over from an earlier run of the block show.
    fn double_or_panic(x: DPtr) -> impl Fn(&mut BlockCtx) {
        move |blk: &mut BlockCtx| {
            blk.for_each(|t| {
                let idx = t.block_id * 32 + t.tid;
                let v = t.gload(x, idx);
                let doubled = t.add(v, v);
                t.gstore(x, idx, doubled);
                if t.is_zero(v) {
                    let first = t.gload(x, t.block_id * 32).v;
                    panic!("zero input at word {idx}; the block's first word reads {first}");
                }
            });
        }
    }

    /// A warm `Gpu` whose block 0 panics in the key check's plain run: the
    /// traced run reports the error an unkeyed launch on a fresh `Gpu`
    /// reports, and the cache still serves the next clean launch, bit for
    /// bit like a fresh `Gpu`.
    #[test]
    fn key_check_failure_reports_the_traced_error_and_keeps_the_cache() {
        let grid = 3;
        let unkeyed = LaunchConfig::new(grid, 32)
            .regs(8)
            .shared_words(0)
            .host_threads(1);
        let keyed = unkeyed.clone().schedule_key(11);
        let run = |gpu: &Gpu, lc: &LaunchConfig, zero_at: Option<usize>| {
            let mut mem = GlobalMemory::new(grid * 32);
            let x = mem.alloc(grid * 32);
            for i in 0..grid * 32 {
                let v = if Some(i) == zero_at {
                    0.0
                } else {
                    i as f32 + 0.5
                };
                mem.write(x, i, v);
            }
            let stats = gpu.launch(&double_or_panic(x), lc, &mut mem)?;
            let out: Vec<u32> = (0..grid * 32).map(|i| mem.read(x, i).to_bits()).collect();
            Ok::<_, LaunchError>((out, stats.cycles.to_bits(), stats.sim_sched_cache_hit))
        };
        let warm = Gpu::quadro_6000();
        assert!(
            !run(&warm, &keyed, None).expect("clean launch").2,
            "the first launch traces"
        );
        let failed = run(&warm, &keyed, Some(5)).expect_err("block 0 panics");
        assert!(
            matches!(failed, LaunchError::KernelPanic { block: 0, .. }),
            "{failed:?}"
        );
        let fresh_failed = run(&Gpu::quadro_6000(), &unkeyed, Some(5)).expect_err("block 0 panics");
        assert_eq!(failed, fresh_failed);
        assert_eq!(warm.sched.len(), 1, "the failed launch cached nothing");
        let (out, cycles, hit) = run(&warm, &keyed, None).expect("clean launch");
        assert!(hit, "the next clean launch misses");
        let (fresh_out, fresh_cycles, _) = run(&Gpu::quadro_6000(), &unkeyed, None).unwrap();
        assert_eq!(out, fresh_out);
        assert_eq!(cycles, fresh_cycles);
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
