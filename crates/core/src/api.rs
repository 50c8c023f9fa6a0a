//! Public batched API: upload a batch, pick an approach (per-thread,
//! per-block or tiled — via the predictive model's plan rules), launch the
//! kernel on the simulated GPU, download the results.
//!
//! Every entry point returns `Result<_, ReglaError>`: malformed shapes and
//! options are reported as values, never as panics. Each problem in the
//! batch gets a [`ProblemStatus`] verdict, and when the simulator's fault
//! campaign corrupts a block (or a result comes back non-finite) the
//! bounded [`RecoveryPolicy`] re-runs the failed subset on the device and
//! finally degrades it to the host baseline.

use crate::batch::MatBatch;
use crate::elem::DeviceScalar;
use crate::error::ReglaError;
use crate::host;
use crate::layout::{Layout, LayoutMap};
use crate::per_block::{
    CholeskyBlockKernel, GemmBlockKernel, GjBlockKernel, LuBlockKernel, QrBlockKernel, SubMat,
};
use crate::per_thread::{PerThreadKernel, PtAlg};
use crate::scalar::Scalar;
use crate::profile::ProfileReport;
use crate::session::{Op, OpOutput};
use crate::status::{ProblemStatus, RecoveryPolicy, RecoveryStats};
use crate::tiled::{tiled_qr, MultiLaunch};
use regla_gpu_sim::{
    ExecMode, FaultPlan, GlobalMemory, GpuConfig, Gpu, LaunchConfig, MathMode, Profiler,
    SanitizerMode, SanitizerReport,
};
use regla_model::{block_plan, Algorithm, Approach, ModelParams, Plan, PlanKey, Planner};
use std::collections::BTreeSet;
use std::ops::Range;

/// Options controlling a batched run.
///
/// Construct with [`RunOpts::default()`] plus field mutation inside this
/// crate, or — from anywhere — with the fluent [`RunOpts::builder()`]. The
/// struct is `#[non_exhaustive]`, so downstream code uses the builder (new
/// options stop being breaking changes).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunOpts {
    /// Complete dispatch-[`Plan`] override: when set, neither the planner
    /// nor any forced knob below is consulted — the plan is dispatched
    /// verbatim (highest precedence).
    pub plan: Option<Plan>,
    /// How a dispatch plan is produced when `plan` is unset: the paper's
    /// hand rules (default, bit-identical to the pre-planner dispatch),
    /// the predictive model, or a tuned decision table from `regla-tune`.
    pub planner: Planner,
    /// Force the register-file data layout for the per-block kernels;
    /// `None` defers to the planner's plan.
    pub layout: Option<Layout>,
    pub math: MathMode,
    pub exec: ExecMode,
    /// Force an approach instead of letting the planner choose.
    pub approach: Option<Approach>,
    /// Force the panel width for the tiled path; `None` defers to the
    /// planner's plan (default 16, the paper's choice).
    pub panel: Option<usize>,
    /// Use tree reductions in the per-block QR (ablation; the paper uses
    /// serial reductions).
    pub tree_reduction: bool,
    /// Follow Listing 7 literally in the LU trailing update (fidelity
    /// ablation; slower).
    pub lu_listing7: bool,
    /// Force the per-block thread count (must be a perfect square for the
    /// 2D layout); `None` uses the paper's 64/256 rule. Occupancy ablation.
    pub force_threads: Option<usize>,
    /// Host worker threads for the simulator's functional replay; `None`
    /// defers to `REGLA_SIM_THREADS` and then to available parallelism.
    /// Purely a host-side knob — simulated results are bit-identical at
    /// every thread count.
    pub host_threads: Option<usize>,
    /// Seeded fault-injection plan for resilience campaigns: applied to
    /// the factorization/solve launches (not to GEMM or TSQR). Faults the
    /// simulator reports are surfaced as [`ProblemStatus::FaultDetected`]
    /// and handled by `recovery`.
    pub fault: Option<FaultPlan>,
    /// Bounded recovery for fault-tainted / non-finite problems.
    pub recovery: RecoveryPolicy,
    /// Per-launch trace sink: when set, every kernel launch of the run
    /// records a hierarchical trace (launch → wave → phase) into the
    /// profiler, and [`BatchRun::profile`] carries the per-phase
    /// predicted-vs-simulated discrepancy report.
    pub trace: Option<Profiler>,
    /// Compute-sanitizer mode for every kernel launch of the run
    /// (memcheck / racecheck / synccheck / initcheck). Strictly
    /// observational — outputs are bit-identical with it on or off; the
    /// merged report lands in [`BatchRun::sanitizer`].
    pub sanitizer: SanitizerMode,
    /// Per-block watchdog op budget for every launch (`None` = unlimited):
    /// a hung kernel surfaces as `LaunchError::Watchdog` instead of
    /// hanging the host.
    pub watchdog: Option<u64>,
    /// Force the simulator's fully-instrumented slow path even when no
    /// observer (trace / sanitizer / fault plan / watchdog) is attached.
    /// Results, statuses and modeled cycles are bit-identical either way;
    /// this is an A/B knob for validating exactly that.
    pub slow_path: bool,
    /// Simulated-cycle budget applied to every kernel launch of the run
    /// (`None` = unlimited): a launch whose modeled duration exceeds it
    /// fails with `LaunchError::DeadlineExceeded`. The fleet layer derives
    /// this from the predictive model's estimate × a slack factor.
    pub deadline_cycles: Option<u64>,
    /// Extra simulated cycles injected into every launch of the run (a
    /// chaos knob modeling a stalled stream). Functional results are
    /// unaffected; only modeled timing moves.
    pub stall_cycles: u64,
    /// Algorithm-based result verification ([`crate::verify`]): checksum
    /// and/or residual screens run on the host after each launch.
    /// Strictly observational — outputs are bit-identical on or off —
    /// but finite-looking silent corruption is demoted from `Ok` to
    /// [`ProblemStatus::VerifyFailed`] and recovered by `recovery`.
    pub verify: crate::verify::VerifyMode,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            plan: None,
            planner: Planner::Heuristic,
            layout: None,
            math: MathMode::Fast,
            exec: ExecMode::Full,
            approach: None,
            panel: None,
            tree_reduction: false,
            lu_listing7: false,
            force_threads: None,
            host_threads: None,
            fault: None,
            recovery: RecoveryPolicy::default(),
            trace: None,
            sanitizer: SanitizerMode::Off,
            watchdog: None,
            slow_path: false,
            deadline_cycles: None,
            stall_cycles: 0,
            verify: crate::verify::VerifyMode::Off,
        }
    }
}

impl RunOpts {
    /// Start building run options fluently: the only way (outside this
    /// crate) to construct a non-default [`RunOpts`].
    pub fn builder() -> RunOptsBuilder {
        RunOptsBuilder::default()
    }

    /// Apply the observability and execution knobs every launch of a run
    /// shares — math mode, exec mode, host threads, trace sink, sanitizer,
    /// watchdog, slow path — to a launch config. This is the single place
    /// the observability config fans out to launches; call sites chain the
    /// path-specific extras (fault plan, deadline, stall) on top.
    pub(crate) fn apply_observability(&self, lc: LaunchConfig) -> LaunchConfig {
        lc.math(self.math)
            .exec(self.exec)
            .host_threads(self.host_threads)
            .trace(self.trace.clone())
            .sanitizer(self.sanitizer)
            .watchdog(self.watchdog)
            .slow_path(self.slow_path)
    }
}

/// Fluent builder for [`RunOpts`].
///
/// [`RunOptsBuilder::build`] validates the dispatch knobs (panel width,
/// forced thread counts, explicit plans) and reports bad combinations as
/// [`ReglaError::InvalidConfig`] — before any batch is uploaded.
///
/// ```
/// use regla_core::RunOpts;
/// use regla_gpu_sim::ExecMode;
///
/// let opts = RunOpts::builder()
///     .exec(ExecMode::Representative)
///     .panel(8)
///     .build()
///     .unwrap();
/// assert_eq!(opts.panel, Some(8));
/// assert!(RunOpts::builder().panel(0).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunOptsBuilder {
    opts: RunOpts,
}

impl RunOptsBuilder {
    /// Dispatch this exact [`Plan`] — skip the planner and every forced
    /// knob. The old per-knob setters (`approach`, `layout`, `panel`,
    /// `force_threads`) remain for targeted overrides of a *planned*
    /// dispatch; precedence is `plan` > forced knobs > planner.
    pub fn plan(mut self, v: impl Into<Option<Plan>>) -> Self {
        self.opts.plan = v.into();
        self
    }

    /// Select how dispatch plans are produced (see [`Planner`]).
    pub fn planner(mut self, v: Planner) -> Self {
        self.opts.planner = v;
        self
    }

    /// Force the register-file data layout for the per-block kernels.
    pub fn layout(mut self, v: impl Into<Option<Layout>>) -> Self {
        self.opts.layout = v.into();
        self
    }

    pub fn math(mut self, v: MathMode) -> Self {
        self.opts.math = v;
        self
    }

    pub fn exec(mut self, v: ExecMode) -> Self {
        self.opts.exec = v;
        self
    }

    /// Force an approach instead of letting the plan choose.
    pub fn approach(mut self, v: impl Into<Option<Approach>>) -> Self {
        self.opts.approach = v.into();
        self
    }

    /// Force the panel width for the tiled path.
    pub fn panel(mut self, v: impl Into<Option<usize>>) -> Self {
        self.opts.panel = v.into();
        self
    }

    /// Use tree reductions in the per-block QR (ablation).
    pub fn tree_reduction(mut self, v: bool) -> Self {
        self.opts.tree_reduction = v;
        self
    }

    /// Follow Listing 7 literally in the LU trailing update (ablation).
    pub fn lu_listing7(mut self, v: bool) -> Self {
        self.opts.lu_listing7 = v;
        self
    }

    /// Force the per-block thread count (occupancy ablation).
    pub fn force_threads(mut self, v: impl Into<Option<usize>>) -> Self {
        self.opts.force_threads = v.into();
        self
    }

    /// Host worker threads for the simulator's functional replay.
    pub fn host_threads(mut self, v: impl Into<Option<usize>>) -> Self {
        self.opts.host_threads = v.into();
        self
    }

    /// Seeded fault-injection plan for resilience campaigns.
    pub fn fault(mut self, v: impl Into<Option<FaultPlan>>) -> Self {
        self.opts.fault = v.into();
        self
    }

    /// Bounded recovery for fault-tainted / non-finite problems.
    pub fn recovery(mut self, v: RecoveryPolicy) -> Self {
        self.opts.recovery = v;
        self
    }

    /// Attach a per-launch trace sink (see [`RunOpts::trace`]).
    pub fn trace(mut self, v: impl Into<Option<Profiler>>) -> Self {
        self.opts.trace = v.into();
        self
    }

    /// Run every launch under the compute sanitizer (see
    /// [`RunOpts::sanitizer`]).
    pub fn sanitizer(mut self, v: SanitizerMode) -> Self {
        self.opts.sanitizer = v;
        self
    }

    /// Per-block watchdog op budget (see [`RunOpts::watchdog`]).
    pub fn watchdog(mut self, v: impl Into<Option<u64>>) -> Self {
        self.opts.watchdog = v.into();
        self
    }

    /// Force the instrumented slow path (see [`RunOpts::slow_path`]).
    pub fn slow_path(mut self, v: bool) -> Self {
        self.opts.slow_path = v;
        self
    }

    /// Per-launch simulated-cycle deadline (see
    /// [`RunOpts::deadline_cycles`]).
    pub fn deadline_cycles(mut self, v: impl Into<Option<u64>>) -> Self {
        self.opts.deadline_cycles = v.into();
        self
    }

    /// Inject a stream stall into every launch (see
    /// [`RunOpts::stall_cycles`]).
    pub fn stall_cycles(mut self, v: u64) -> Self {
        self.opts.stall_cycles = v;
        self
    }

    /// Algorithm-based result verification (see [`RunOpts::verify`]).
    pub fn verify(mut self, v: crate::verify::VerifyMode) -> Self {
        self.opts.verify = v;
        self
    }

    /// Validate the dispatch knobs and produce the [`RunOpts`].
    pub fn build(self) -> Result<RunOpts, ReglaError> {
        validate_opts(&self.opts)?;
        Ok(self.opts)
    }
}

/// Result of a batched operation.
///
/// Under [`ExecMode::Full`] every problem is computed. Under
/// [`ExecMode::Sampled`] and [`ExecMode::Representative`] only the
/// problems of the executed blocks are staged, computed and downloaded;
/// every other problem reads as zeros in `out` and `taus` and keeps
/// status `Ok`, meaning "not computed, not screened".
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct BatchRun<T> {
    /// The output batch (factored matrices / reduced augmented systems).
    /// Problems whose blocks did not execute hold zeros.
    pub out: MatBatch<T>,
    pub approach: Approach,
    pub stats: MultiLaunch,
    /// Householder reflector scales (QR factorizations only; `n x 1` per
    /// problem, LAPACK `geqrf` convention). Zeros for problems whose
    /// blocks did not execute.
    pub taus: Option<MatBatch<T>>,
    /// Per-problem verdict (the paper's `*notsolved` flag, upgraded to a
    /// structured status), one entry per problem in every algorithm —
    /// `count` entries whatever the exec mode. A problem whose block did
    /// not execute was never computed or screened and reads `Ok`.
    pub status: Vec<ProblemStatus>,
    /// What the recovery layer did for this run.
    pub recovery: RecoveryStats,
    /// Per-phase predicted-vs-simulated discrepancy, populated when
    /// [`RunOpts::trace`] is set and the model has a phase-level prediction
    /// for the launch (per-block and per-thread approaches).
    pub profile: Option<ProfileReport>,
    /// Merged compute-sanitizer report over every launch of the run,
    /// populated when [`RunOpts::sanitizer`] is on. `Some` with zero
    /// findings means every kernel came back clean.
    pub sanitizer: Option<SanitizerReport>,
}

impl<T> BatchRun<T> {
    pub fn gflops(&self) -> f64 {
        self.stats.gflops()
    }

    pub fn time_s(&self) -> f64 {
        self.stats.time_s
    }

    /// Per-problem "not solved" flags (the paper's `*notsolved = 1`):
    /// true when the problem did not complete cleanly — singular pivot,
    /// non-finite result, or an unrecovered fault.
    pub fn not_solved(&self) -> Vec<bool> {
        self.status.iter().map(|s| !s.is_ok()).collect()
    }
}

/// Resolve the dispatch plan for one batched operation: the explicit
/// [`RunOpts::plan`] when set; otherwise the [`Planner`]'s plan for the
/// problem's [`PlanKey`], with any forced knob (`approach`, `layout`,
/// `panel`, `force_threads`) overriding the corresponding planned field.
/// Either way the approach is then mapped onto one that `alg`'s kernels
/// run for the shape ([`runnable`]).
///
/// Every run and [`crate::Session::price`] resolve through here, so the
/// model prices the plan that runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_plan(
    params: &ModelParams,
    cfg: &GpuConfig,
    alg: Algorithm,
    m: usize,
    n: usize,
    rhs: usize,
    ew: usize,
    batch: usize,
    opts: &RunOpts,
) -> Plan {
    let mut plan = opts.plan.unwrap_or_else(|| {
        let key = PlanKey::new(alg, m, n, rhs, ew, batch, opts.math);
        let mut plan = opts.planner.plan(params, cfg, &key);
        if let Some(a) = opts.approach {
            plan.approach = a;
        }
        if let Some(l) = opts.layout {
            plan.layout = l;
        }
        if let Some(ft) = opts.force_threads {
            plan.threads = Some(ft);
        }
        if let Some(pw) = opts.panel {
            plan.panel = pw;
        }
        plan
    });
    plan.approach = runnable(alg, plan.approach, m, n, rhs);
    plan
}

/// The approach `alg`'s entry point runs for a planned one. Only the QR
/// family has a tiled kernel, so LU, Cholesky and the square solvers run
/// a tiled plan per block. Least squares runs a device plan per block
/// (per thread only when square) and anything else tiled. The
/// per-thread QR solve back-substitutes one carried column only.
fn runnable(alg: Algorithm, planned: Approach, m: usize, n: usize, rhs: usize) -> Approach {
    use Approach::{PerBlock, PerThread, Tiled};
    match (alg, planned) {
        (Algorithm::Qr, a) => a,
        (Algorithm::LeastSquares, PerThread | PerBlock) if m != n => PerBlock,
        (Algorithm::LeastSquares, a @ (PerThread | PerBlock)) => a,
        (Algorithm::LeastSquares, _) => Tiled,
        (Algorithm::QrSolve, PerThread) if rhs != 1 => PerBlock,
        (_, Tiled) => PerBlock,
        (_, a) => a,
    }
}

/// Require a positive perfect-square thread count for 2D-cyclic plans
/// (the float `sqrt().round()` round-trip misreports perfect squares once
/// the count exceeds 2^52, hence `isqrt`).
fn validate_square_threads(ft: usize, what: &str) -> Result<(), ReglaError> {
    if ft == 0 {
        return Err(ReglaError::InvalidConfig(format!("{what} must be >= 1")));
    }
    let r = ft.isqrt();
    if r * r != ft {
        return Err(ReglaError::InvalidConfig(format!(
            "{what} = {ft} must be a perfect square for the 2D cyclic layout"
        )));
    }
    Ok(())
}

/// Reject option combinations that the kernels cannot run. This is the
/// validation [`RunOptsBuilder::build`] applies up front; the entry points
/// re-run it as a cheap guard for options assembled by direct field
/// mutation inside the workspace.
fn validate_opts(opts: &RunOpts) -> Result<(), ReglaError> {
    if let Some(ft) = opts.force_threads {
        if ft == 0 {
            return Err(ReglaError::InvalidConfig(
                "force_threads must be >= 1".into(),
            ));
        }
        // An unset layout resolves to the planner's choice, which is
        // 2D cyclic for every shipped planner — so it must satisfy the
        // stricter (square) requirement too.
        if opts.layout.unwrap_or_default() == Layout::TwoDCyclic {
            validate_square_threads(ft, "force_threads")?;
        }
    }
    if opts.panel == Some(0) {
        return Err(ReglaError::InvalidConfig(
            "panel width must be >= 1 on the tiled path".into(),
        ));
    }
    if let Some(p) = &opts.plan {
        if p.panel == 0 {
            return Err(ReglaError::InvalidConfig(
                "plan panel width must be >= 1 on the tiled path".into(),
            ));
        }
        if p.layout == Layout::TwoDCyclic {
            if let Some(t) = p.threads {
                validate_square_threads(t, "plan threads")?;
            }
        }
    }
    Ok(())
}

pub(crate) fn validate_batch<T: Scalar>(a: &MatBatch<T>) -> Result<(), ReglaError> {
    if a.count() == 0 {
        return Err(ReglaError::EmptyBatch);
    }
    if a.rows() == 0 || a.cols() == 0 {
        return Err(ReglaError::DimensionMismatch(
            "matrices must have at least one row and one column".into(),
        ));
    }
    Ok(())
}

/// Threads and layout map for a per-block launch under the resolved plan:
/// the plan's forced thread count, or the 64/256 rule applied directly to
/// the full augmented shape (which may be wider than tall). The 1D
/// comparisons of Figure 7 run with the paper's 64 threads.
fn layout_for(plan: &Plan, m: usize, cols: usize, ew: usize) -> LayoutMap {
    LayoutMap::new(plan.layout, plan.block_threads_for(m, cols, ew), m, cols)
}

fn device_for<T: DeviceScalar>(batch: &MatBatch<T>, extra_words: usize) -> GlobalMemory {
    let words = batch.words_per_mat() * batch.count() + extra_words + 4096;
    GlobalMemory::new(words)
}

/// Per-thread kernels pack `tpb` problems into each block.
const PER_THREAD_TPB: usize = 64;

/// The problems whose blocks execute under `exec`, as ascending, disjoint,
/// non-adjacent ranges: [`LaunchConfig::executed_blocks`] through the
/// block→problem map. [`ExecMode::Full`] is the one range `0..count`. The
/// one list every stage of a run reads: upload, download, fault map,
/// finite and verify screens.
fn executed_ranges(count: usize, per_block: usize, exec: ExecMode) -> Vec<Range<usize>> {
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let grid = count.div_ceil(per_block);
    for b in LaunchConfig::new(grid, 1).exec(exec).executed_blocks() {
        let r = b * per_block..((b + 1) * per_block).min(count);
        match ranges.last_mut() {
            Some(last) if last.end == r.start => last.end = r.end,
            _ => ranges.push(r),
        }
    }
    ranges
}

/// Reject the approach/algorithm/shape combinations the kernels cannot
/// run, before anything is staged.
fn check_supported(
    approach: Approach,
    alg: PtAlg,
    m: usize,
    nfac: usize,
) -> Result<(), ReglaError> {
    match approach {
        Approach::PerThread if m != nfac => Err(ReglaError::DimensionMismatch(format!(
            "the per-thread kernels handle square systems, got {m} rows for {nfac} factored columns"
        ))),
        Approach::Tiled if !matches!(alg, PtAlg::Qr | PtAlg::QrSolve) => {
            Err(ReglaError::Unsupported(format!(
                "the tiled path implements QR-based algorithms only, not {alg:?}"
            )))
        }
        Approach::Tiled if m < nfac => Err(ReglaError::DimensionMismatch(format!(
            "tiled QR needs a tall system, got {m} rows for {nfac} factored columns"
        ))),
        Approach::Hybrid => Err(ReglaError::Unsupported(
            "the hybrid baseline lives in regla-hybrid".into(),
        )),
        _ => Ok(()),
    }
}

/// The model-side algorithm for a kernel algorithm (the two enums exist at
/// different layers; the mapping is 1:1 plus the solve variant).
fn model_alg(alg: PtAlg) -> Algorithm {
    match alg {
        PtAlg::Lu => Algorithm::Lu,
        PtAlg::Gj => Algorithm::GaussJordan,
        PtAlg::Cholesky => Algorithm::Cholesky,
        PtAlg::Qr => Algorithm::Qr,
        PtAlg::QrSolve => Algorithm::QrSolve,
    }
}

/// Short kernel-name prefix for launch traces.
fn alg_label(alg: PtAlg) -> &'static str {
    match alg {
        PtAlg::Lu => "lu",
        PtAlg::Gj => "gauss-jordan",
        PtAlg::Cholesky => "cholesky",
        PtAlg::Qr => "qr",
        PtAlg::QrSolve => "qr-solve",
    }
}

/// FNV-1a fold of a few integers into a schedule-cache kernel id: the
/// kernel and its launch shape. The simulator keys the data-dependent
/// control flow itself.
pub(crate) fn fnv1a(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Trace name for a launch: `"qr 56x57 per-block"`.
fn launch_name(alg: PtAlg, m: usize, cols: usize, approach: Approach) -> String {
    let ap = match approach {
        Approach::PerThread => "per-thread",
        Approach::PerBlock => "per-block",
        Approach::Tiled => "tiled",
        Approach::Hybrid => "hybrid",
    };
    format!("{} {m}x{cols} {ap}", alg_label(alg))
}

struct Launched<T> {
    out: MatBatch<T>,
    stats: MultiLaunch,
    taus: Option<MatBatch<T>>,
    status: Vec<ProblemStatus>,
    profile: Option<ProfileReport>,
    /// The problems the run computed (see [`executed_ranges`]).
    executed: Vec<Range<usize>>,
}

/// All words of problem `k` (and its taus, if any) are finite.
pub(crate) fn problem_is_finite<T: DeviceScalar>(
    out: &MatBatch<T>,
    taus: Option<&MatBatch<T>>,
    k: usize,
) -> bool {
    let finite = |b: &MatBatch<T>| {
        (0..b.cols()).all(|j| {
            (0..b.rows()).all(|i| {
                let w = b.get(k, i, j).to_words();
                w[0].is_finite() && w[1].is_finite()
            })
        })
    };
    finite(out) && taus.is_none_or(finite)
}

/// Run one of the in-place factorization kernels over a batch (single
/// attempt — recovery happens in [`run_recovered`]). Only the problems of
/// the executed blocks are staged, downloaded and screened.
fn run_inplace<T: DeviceScalar>(
    gpu: &Gpu,
    aug: &MatBatch<T>,
    nfac: usize,
    alg: PtAlg,
    plan: Plan,
    opts: &RunOpts,
) -> Result<Launched<T>, ReglaError> {
    let approach = plan.approach;
    let (m, cols, count) = (aug.rows(), aug.cols(), aug.count());
    check_supported(approach, alg, m, nfac)?;
    let rhs = cols - nfac;
    // The QR solve back-substitutes in the kernel; it never runs tiled.
    let solving = alg == PtAlg::QrSolve;
    let ew = T::WORDS;
    // Block -> problem map: per-thread blocks cover `PER_THREAD_TPB`
    // consecutive problems, per-block and tiled launches map block b to
    // problem b.
    let ppb = if approach == Approach::PerThread {
        PER_THREAD_TPB
    } else {
        1
    };
    let executed = executed_ranges(count, ppb, opts.exec);
    let tau_words = count * nfac * ew;
    let mut gmem = device_for(aug, tau_words + count);
    let ptr = aug.to_device(&mut gmem, &executed);
    let d_tau = gmem.alloc(tau_words.max(1));
    let d_flag = gmem.alloc(count);
    // The kernels read the flag words (to keep earlier failing columns)
    // before ever writing them: declare the all-clear state as an input.
    for r in &executed {
        gmem.slice_mut(d_flag.offset(r.start), r.len()).fill(0.0);
    }
    let view = SubMat::whole(ptr, m, cols);
    let mut stats = MultiLaunch::default();

    match approach {
        Approach::PerThread => {
            let mut kern =
                PerThreadKernel::<T::Dev>::new(view, nfac, rhs, count, alg).with_flag(d_flag);
            if alg == PtAlg::Qr {
                kern = kern.with_tau(d_tau);
            }
            let tpb = PER_THREAD_TPB;
            // Schedule-cache id: algorithm + shape.
            let key = fnv1a(0x01, &[alg as u64, m as u64, cols as u64, ew as u64]);
            let lc = opts
                .apply_observability(
                    LaunchConfig::new(count.div_ceil(tpb), tpb)
                        .regs(kern.regs_per_thread())
                        .shared_words(0),
                )
                .fault(opts.fault)
                .name(launch_name(alg, m, cols, approach))
                .deadline_cycles(opts.deadline_cycles)
                .stall_cycles(opts.stall_cycles)
                .schedule_key(key);
            stats.push(gpu.launch(&kern, &lc, &mut gmem)?);
        }
        Approach::PerBlock => {
            let lm = layout_for(&plan, m, cols, ew);
            let regs = lm.local_len() * ew + 14;
            let (shared_words, launch): (usize, Box<dyn regla_gpu_sim::BlockKernel + Sync>) = match alg
            {
                PtAlg::Lu => {
                    let mut k = LuBlockKernel::<T::Dev>::new(view, lm, count).with_flag(d_flag);
                    if opts.lu_listing7 {
                        k = k.listing7();
                    }
                    (k.shared_words(), Box::new(k))
                }
                PtAlg::Gj => {
                    let mut k = GjBlockKernel::<T::Dev>::new(view, lm, count, rhs);
                    k.d_flag = Some(d_flag);
                    (k.shared_words(), Box::new(k))
                }
                PtAlg::Cholesky => {
                    let mut k = CholeskyBlockKernel::<T::Dev>::new(view, lm, count);
                    k.d_flag = Some(d_flag);
                    (k.shared_words(), Box::new(k))
                }
                PtAlg::Qr | PtAlg::QrSolve => {
                    let mut k = QrBlockKernel::<T::Dev>::new(view, lm, count)
                        .with_rhs(rhs)
                        .with_tau(d_tau);
                    if solving {
                        k = k.solving();
                    }
                    if opts.tree_reduction && plan.layout == Layout::TwoDCyclic {
                        k = k.with_tree_reduction();
                    }
                    (k.shared_words(), Box::new(k))
                }
            };
            // Schedule-cache id: algorithm + layout + shape + the kernel
            // ablation knobs that reshape phases.
            let key = fnv1a(
                0x02,
                &[
                    alg as u64,
                    m as u64,
                    cols as u64,
                    ew as u64,
                    plan.layout as u64,
                    u64::from(solving)
                        | u64::from(opts.tree_reduction) << 1
                        | u64::from(opts.lu_listing7) << 2,
                ],
            );
            let lc = opts
                .apply_observability(LaunchConfig::new(count, lm.p).regs(regs).shared_words(shared_words))
                .fault(opts.fault)
                .name(launch_name(alg, m, cols, approach))
                .deadline_cycles(opts.deadline_cycles)
                .stall_cycles(opts.stall_cycles)
                .schedule_key(key);
            stats.push(gpu.launch(launch.as_ref(), &lc, &mut gmem)?);
        }
        Approach::Tiled => {
            let agg = tiled_qr::<T::Dev>(
                gpu, &mut gmem, view, m, nfac, rhs, count, d_tau, plan.panel, opts,
            )?;
            for l in agg.launches {
                stats.push(l);
            }
        }
        Approach::Hybrid => unreachable!("check_supported rejects the hybrid approach"),
    }

    let mut out = MatBatch::<T>::zeros(m, cols, count);
    out.copy_from_device(&gmem, ptr, &executed);
    // The per-thread and per-block QR kernels leave LAPACK-style taus in
    // the scratch buffer; the tiled path reuses it per panel, so no
    // coherent tau set survives there.
    let taus = (alg == PtAlg::Qr && approach != Approach::Tiled).then(|| {
        let mut t = MatBatch::<T>::zeros(nfac, 1, count);
        t.copy_from_device(&gmem, d_tau, &executed);
        t
    });

    // ---- per-problem verdicts ------------------------------------------
    // Faults the simulator recorded (its ECC/machine-check report) taint
    // every problem the corrupted block computed — even when the flipped
    // bit produced a finite-looking value. Faults land on executed blocks
    // only.
    let faulted: BTreeSet<usize> = stats
        .launches
        .iter()
        .flat_map(|l| l.faults.iter().map(|f| f.block))
        .collect();
    let mut status = vec![ProblemStatus::Ok; count];
    for r in &executed {
        // Per-problem singularity flags (the paper's `*notsolved`, upgraded
        // to carry the first failing column as `col + 1`).
        let flags = gmem.slice(d_flag.offset(r.start), r.len());
        for (p, &flag) in r.clone().zip(flags) {
            if faulted.contains(&(p / ppb)) {
                status[p] = ProblemStatus::FaultDetected;
            } else if flag != 0.0 {
                status[p] = ProblemStatus::ZeroPivot {
                    col: flag as usize - 1,
                };
            } else if !problem_is_finite(&out, taus.as_ref(), p) {
                status[p] = ProblemStatus::NonFinite;
            }
        }
    }

    // Checksum/residual screens over the problems that still look Ok —
    // running here (not in run_recovered) means retry sub-batches are
    // re-screened automatically, so a recovery pass cannot launder a
    // still-corrupt result back to Ok. The rhs columns hold a solution on
    // the solving paths (GJ and the QR solve).
    crate::verify::screen_problems(
        aug,
        nfac,
        alg,
        solving || (alg == PtAlg::Gj && rhs > 0),
        &out,
        taus.as_ref(),
        &executed,
        &mut status,
        opts.verify,
    );

    Ok(Launched {
        out,
        stats,
        taus,
        status,
        profile: None,
        executed,
    })
}

/// Recompute problem `p` with the host baseline
/// ([`host::solve_in_place`]) and splice the result into `out`/`taus`.
/// Returns the problem's new status.
pub(crate) fn host_fallback<T: DeviceScalar>(
    aug: &MatBatch<T>,
    nfac: usize,
    alg: PtAlg,
    p: usize,
    out: &mut MatBatch<T>,
    taus: Option<&mut MatBatch<T>>,
) -> ProblemStatus {
    let mut a = aug.mat(p);
    let (status, t) = host::solve_in_place(alg, &mut a, nfac);
    out.set_mat(p, &a);
    if let Some(tb) = taus {
        for (i, v) in t.into_iter().enumerate() {
            tb.set(p, i, 0, v);
        }
    }
    status
}

/// Run with bounded recovery: retry fault-tainted / non-finite problems on
/// the device (fault injection stripped), then degrade the stragglers to
/// the host baseline.
fn run_recovered<T: DeviceScalar>(
    gpu: &Gpu,
    params: &ModelParams,
    aug: &MatBatch<T>,
    nfac: usize,
    alg: PtAlg,
    plan: Plan,
    opts: &RunOpts,
) -> Result<(Launched<T>, RecoveryStats), ReglaError> {
    let approach = plan.approach;
    let trace_start = opts.trace.as_ref().map_or(0, |t| t.launch_count());
    let mut l = run_inplace(gpu, aug, nfac, alg, plan, opts)?;
    // Join the first launch this run recorded against the model's phase
    // estimates (retry launches repeat the same kernel; the first is the
    // representative one).
    l.profile = opts.trace.as_ref().and_then(|t| {
        let rhs = aug.cols() - nfac;
        t.launches().get(trace_start).and_then(|trace| {
            crate::profile::build_report(
                trace,
                params,
                model_alg(alg),
                approach,
                aug.rows(),
                nfac,
                rhs,
                T::WORDS,
                aug.count(),
            )
        })
    });
    let count = aug.count();
    let mut rec = RecoveryStats {
        faults_detected: l
            .status
            .iter()
            .filter(|s| matches!(s, ProblemStatus::FaultDetected))
            .count() as u64,
        ..RecoveryStats::default()
    };
    let verify_failed: Vec<usize> = (0..count)
        .filter(|&p| matches!(l.status[p], ProblemStatus::VerifyFailed { .. }))
        .collect();
    rec.verify_failures = verify_failed.len() as u64;
    let initially_failed: Vec<usize> = (0..count).filter(|&p| !l.status[p].is_settled()).collect();
    let mut failed = initially_failed.clone();
    let policy = opts.recovery;

    for _round in 0..policy.retries {
        if failed.is_empty() {
            break;
        }
        rec.retried += failed.len() as u64;
        let mut sub = MatBatch::<T>::zeros(aug.rows(), aug.cols(), failed.len());
        for (i, &p) in failed.iter().enumerate() {
            sub.set_mat(i, &aug.mat(p));
        }
        // The retry runs clean: no fault plan, full execution (a sampled
        // replay of the sub-batch would recompute nothing).
        let mut ropts = opts.clone();
        ropts.fault = None;
        ropts.exec = ExecMode::Full;
        let r = run_inplace(gpu, &sub, nfac, alg, plan, &ropts)?;
        for (i, &p) in failed.iter().enumerate() {
            l.out.set_mat(p, &r.out.mat(i));
            if let (Some(dst), Some(src)) = (l.taus.as_mut(), r.taus.as_ref()) {
                dst.set_mat(p, &src.mat(i));
            }
            l.status[p] = r.status[i];
        }
        failed.retain(|&p| !l.status[p].is_settled());
    }

    if policy.cpu_fallback && !failed.is_empty() {
        for &p in &failed {
            rec.fell_back += 1;
            l.status[p] = host_fallback(aug, nfac, alg, p, &mut l.out, l.taus.as_mut());
        }
        failed.retain(|&p| !l.status[p].is_settled());
    }

    let settled = |ps: &[usize]| ps.iter().filter(|&&p| l.status[p].is_settled()).count() as u64;
    rec.recovered = settled(&initially_failed);
    rec.verify_recovered = settled(&verify_failed);
    rec.unrecovered = failed.len() as u64;
    Ok((l, rec))
}

/// Merge the per-launch sanitizer reports of a run (`None` when no launch
/// ran under the sanitizer).
pub(crate) fn merge_sanitizer(stats: &MultiLaunch) -> Option<SanitizerReport> {
    let mut agg: Option<SanitizerReport> = None;
    for l in &stats.launches {
        if let Some(r) = &l.sanitizer {
            match &mut agg {
                Some(a) => a.merge(r),
                None => agg = Some(r.clone()),
            }
        }
    }
    agg
}

/// Run `op` on `a` (and `b`): stage the system through the op table,
/// resolve the plan, run with recovery and read the answer back —
/// implementation behind [`crate::Session::run_with`]. GEMM goes to
/// [`gemm_run`].
pub(crate) fn run_op<T: DeviceScalar>(
    gpu: &Gpu,
    params: &ModelParams,
    op: Op,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
    opts: &RunOpts,
) -> Result<OpOutput<T>, ReglaError> {
    let Some(model_alg) = op.model_algorithm() else {
        let run = gemm_run(gpu, a, op.rhs(b)?, opts)?;
        return Ok(OpOutput {
            run,
            solution: None,
        });
    };
    validate_opts(opts)?;
    let aug = op.stage(a, b)?;
    let n = a.cols();
    let plan = resolve_plan(
        params,
        &gpu.cfg,
        model_alg,
        a.rows(),
        n,
        aug.cols() - n,
        T::WORDS,
        a.count(),
        opts,
    );
    let alg = op
        .kernel(plan.approach)
        .expect("every priced op has a kernel");
    let (l, recovery) = run_recovered(gpu, params, &aug, n, alg, plan, opts)?;
    let solution = op.answer(alg, &l.out, n, &l.executed);
    let sanitizer = merge_sanitizer(&l.stats);
    let run = BatchRun {
        out: l.out,
        approach: plan.approach,
        stats: l.stats,
        taus: l.taus,
        status: l.status,
        recovery,
        profile: l.profile,
        sanitizer,
    };
    Ok(OpOutput { run, solution })
}

/// `x` from each executed problem's reduced `[R | y]` (`n` factored
/// columns) by host back-substitution of `R x = y`; problems outside
/// `executed` keep a zero solution. Tiled least squares and TSQR leave
/// this system behind.
pub(crate) fn back_substitute_batch<T: Scalar>(
    f: &MatBatch<T>,
    n: usize,
    executed: &[Range<usize>],
) -> MatBatch<T> {
    let mut x = MatBatch::zeros(n, 1, f.count());
    for k in executed.iter().flat_map(|r| r.clone()) {
        let fk = f.mat(k);
        let y: Vec<T> = (0..n).map(|i| fk[(i, n)]).collect();
        let sol = host::qr::back_substitute(&fk.submatrix(0, 0, n, n), &y);
        for (i, v) in sol.into_iter().enumerate() {
            x.set(k, i, 0, v);
        }
    }
    x
}

/// Implementation behind [`crate::Session::gemm`]. GEMM has no failure
/// modes of its own, so fault injection and recovery do not apply; the
/// statuses still screen for non-finite results from non-finite inputs.
pub(crate) fn gemm_run<T: DeviceScalar>(
    gpu: &Gpu,
    a: &MatBatch<T>,
    b: &MatBatch<T>,
    opts: &RunOpts,
) -> Result<BatchRun<T>, ReglaError> {
    validate_opts(opts)?;
    validate_batch(a)?;
    validate_batch(b)?;
    let (m, kdim, n, count) = (a.rows(), a.cols(), b.cols(), a.count());
    if b.rows() != kdim {
        return Err(ReglaError::DimensionMismatch(format!(
            "GEMM inner dimensions disagree: A is {m} x {kdim}, B is {} x {n}",
            b.rows()
        )));
    }
    if b.count() != count {
        return Err(ReglaError::DimensionMismatch(format!(
            "A batch holds {count} problems but B holds {}",
            b.count()
        )));
    }
    let ew = T::WORDS;
    let executed = executed_ranges(count, 1, opts.exec);
    let c_words = m * n * ew * count;
    let total_words = (a.words_per_mat() + b.words_per_mat()) * count + c_words;
    let mut gmem = GlobalMemory::new(total_words + 4096);
    let pa = a.to_device(&mut gmem, &executed);
    let pb = b.to_device(&mut gmem, &executed);
    // C is overwritten, never read: no upload.
    let pc = gmem.alloc(c_words);

    let plan = block_plan(m.max(n), n.min(m), 0, ew);
    let lm = LayoutMap::new(Layout::TwoDCyclic, plan.threads, m, n);
    let kern = GemmBlockKernel::<T::Dev>::new(
        SubMat::whole(pa, m, kdim),
        SubMat::whole(pb, kdim, n),
        SubMat::whole(pc, m, n),
        lm,
        kdim,
        count,
        false,
    );
    // Schedule-cache id: shape.
    let key = fnv1a(0x03, &[m as u64, kdim as u64, n as u64, ew as u64]);
    let lc = opts
        .apply_observability(
            LaunchConfig::new(count, lm.p)
                .regs(lm.local_len() * ew + 14)
                .shared_words(kern.shared_words()),
        )
        .name(format!("gemm {m}x{kdim}x{n} per-block"))
        .deadline_cycles(opts.deadline_cycles)
        .stall_cycles(opts.stall_cycles)
        .schedule_key(key);
    let mut stats = MultiLaunch::default();
    stats.push(gpu.launch(&kern, &lc, &mut gmem)?);
    let mut out = MatBatch::<T>::zeros(m, n, count);
    out.copy_from_device(&gmem, pc, &executed);
    let mut status = vec![ProblemStatus::Ok; count];
    for p in executed.iter().flat_map(|r| r.clone()) {
        if !problem_is_finite(&out, None, p) {
            status[p] = ProblemStatus::NonFinite;
        }
    }
    let sanitizer = merge_sanitizer(&stats);
    Ok(BatchRun {
        out,
        approach: Approach::PerBlock,
        stats,
        taus: None,
        status,
        recovery: RecoveryStats::default(),
        profile: None,
        sanitizer,
    })
}

/// Implementation behind [`crate::Session::tsqr_least_squares`]
/// (communication-avoiding tall-skinny QR; extension — see `tiled::tsqr`):
/// factors the row blocks independently and combines R factors in a tree,
/// then back-substitutes on the host. Preferred over the sequential tiled
/// path when the batch is too small to fill the chip.
pub(crate) fn tsqr_run<T: DeviceScalar>(
    gpu: &Gpu,
    a: &MatBatch<T>,
    b: &MatBatch<T>,
    opts: &RunOpts,
) -> Result<(MatBatch<T>, crate::tiled::MultiLaunch), ReglaError> {
    use crate::tiled::tsqr::tsqr;
    validate_opts(opts)?;
    let aug = Op::LeastSquares.stage(a, Some(b))?;
    let (m, n, count) = (a.rows(), a.cols(), a.count());
    // TSQR roughly triples the footprint (stages + scratch). Its gather
    // stages map blocks to (problem, pair), not to problems, so it stages
    // and downloads the whole batch.
    let all = 0..count;
    let all = std::slice::from_ref(&all);
    let mut gmem = device_for(&aug, 4 * aug.words_per_mat() * count);
    let ptr = aug.to_device(&mut gmem, all);
    let view = SubMat::whole(ptr, m, n + 1);
    let (rptr, stats) = tsqr::<T::Dev>(gpu, &mut gmem, view, m, n, 1, count, opts)?;
    let mut compact = MatBatch::<T>::zeros(n, n + 1, count);
    compact.copy_from_device(&gmem, rptr, all);
    Ok((back_substitute_batch(&compact, n, all), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forced(ft: usize) -> Result<RunOpts, ReglaError> {
        RunOpts::builder().force_threads(ft).build()
    }

    #[test]
    fn executed_ranges_merge_adjacent_blocks() {
        assert_eq!(executed_ranges(150, 64, ExecMode::Full), vec![0..150]);
        assert_eq!(executed_ranges(150, 64, ExecMode::Sampled(2)), vec![0..128]);
        assert_eq!(executed_ranges(150, 64, ExecMode::Representative), vec![0..64]);
        assert_eq!(
            executed_ranges(7, 1, ExecMode::Sampled(3)),
            vec![0..1, 2..3, 4..5]
        );
    }

    #[test]
    fn perfect_square_thread_counts_pass() {
        for ft in [1usize, 4, 16, 64, 144, 256, 1024] {
            assert!(forced(ft).is_ok(), "{ft} is a square");
        }
    }

    #[test]
    fn near_square_thread_counts_are_rejected_at_build_time() {
        // k^2 - 1 and k^2 + 1 must both fail for every k in range: the old
        // float sqrt().round() check accepted whichever side rounded to k.
        for k in 2usize..=64 {
            let sq = k * k;
            assert!(forced(sq).is_ok(), "{sq}");
            assert!(forced(sq - 1).is_err(), "{} = {k}^2 - 1", sq - 1);
            assert!(forced(sq + 1).is_err(), "{} = {k}^2 + 1", sq + 1);
        }
        assert!(matches!(
            forced(63),
            Err(ReglaError::InvalidConfig(msg)) if msg.contains("perfect square")
        ));
    }

    #[test]
    fn huge_thread_counts_use_exact_integer_sqrt() {
        // Beyond 2^52 the f64 round-trip loses integer precision; isqrt
        // stays exact. (These counts are rejected later by the device
        // limits, but the option validation must still be correct.)
        let k = (1usize << 31) - 1;
        let sq = k * k;
        assert!(forced(sq).is_ok());
        assert!(forced(sq - 1).is_err());
        assert!(forced(sq + 1).is_err());
    }

    #[test]
    fn zero_panel_is_rejected_at_build_time() {
        assert!(matches!(
            RunOpts::builder().panel(0).build(),
            Err(ReglaError::InvalidConfig(msg)) if msg.contains("panel")
        ));
        assert!(RunOpts::builder().panel(1).build().is_ok());
        // The same validation covers an explicit plan override.
        let bad = Plan::new(Approach::Tiled).with_panel(0);
        assert!(RunOpts::builder().plan(bad).build().is_err());
        let bad_threads = Plan::new(Approach::PerBlock).with_threads(63);
        assert!(RunOpts::builder().plan(bad_threads).build().is_err());
    }

    #[test]
    fn non_square_layouts_skip_the_square_check() {
        let opts = RunOpts::builder()
            .layout(Layout::RowCyclic)
            .force_threads(63)
            .build();
        assert!(opts.is_ok());
    }

    #[test]
    fn builder_round_trips_every_field() {
        let prof = Profiler::new();
        let opts = RunOpts::builder()
            .layout(Layout::TwoDCyclic)
            .math(MathMode::Precise)
            .exec(ExecMode::Representative)
            .approach(Approach::PerBlock)
            .panel(8)
            .tree_reduction(true)
            .lu_listing7(true)
            .force_threads(256)
            .host_threads(2)
            .recovery(RecoveryPolicy::default())
            .trace(prof.clone())
            .build()
            .unwrap();
        assert_eq!(opts.math, MathMode::Precise);
        assert_eq!(opts.exec, ExecMode::Representative);
        assert_eq!(opts.approach, Some(Approach::PerBlock));
        assert_eq!(opts.layout, Some(Layout::TwoDCyclic));
        assert_eq!(opts.panel, Some(8));
        assert!(opts.tree_reduction && opts.lu_listing7);
        assert_eq!(opts.force_threads, Some(256));
        assert_eq!(opts.host_threads, Some(2));
        assert!(opts.trace.is_some());
    }

    #[test]
    fn forced_knobs_override_the_planned_fields() {
        let params = ModelParams::table_iv();
        let cfg = GpuConfig::quadro_6000();
        let opts = RunOpts::builder()
            .approach(Approach::PerBlock)
            .layout(Layout::RowCyclic)
            .panel(4)
            .build()
            .unwrap();
        // 6x6 would plan per-thread; the forced knobs must win.
        let plan = resolve_plan(&params, &cfg, Algorithm::Lu, 6, 6, 0, 1, 1024, &opts);
        assert_eq!(plan.approach, Approach::PerBlock);
        assert_eq!(plan.layout, Layout::RowCyclic);
        assert_eq!(plan.panel, 4);
    }

    #[test]
    fn explicit_plan_outranks_forced_knobs_and_planner() {
        let params = ModelParams::table_iv();
        let cfg = GpuConfig::quadro_6000();
        let exact = Plan::new(Approach::Tiled).with_panel(8);
        let opts = RunOpts::builder()
            .approach(Approach::PerThread)
            .panel(32)
            .plan(exact)
            .build()
            .unwrap();
        let plan = resolve_plan(&params, &cfg, Algorithm::Qr, 240, 66, 0, 2, 128, &opts);
        assert_eq!(plan, exact, "the explicit plan is dispatched verbatim");
    }

    #[test]
    fn default_planner_matches_the_seed_heuristic() {
        let params = ModelParams::table_iv();
        let cfg = GpuConfig::quadro_6000();
        let opts = RunOpts::default();
        let cases = [
            (6, 6, 0, 1, Approach::PerThread),
            (56, 56, 0, 1, Approach::PerBlock),
            (56, 56, 1, 1, Approach::PerBlock),
            (240, 66, 0, 2, Approach::Tiled),
            (16, 32, 0, 1, Approach::Tiled),
        ];
        for (m, n, rhs, ew, want) in cases {
            let plan = resolve_plan(&params, &cfg, Algorithm::Qr, m, n, rhs, ew, 512, &opts);
            assert_eq!(plan.approach, want, "{m}x{n} rhs={rhs} ew={ew}");
            assert_eq!(plan.layout, Layout::TwoDCyclic);
            assert_eq!(plan.threads, None);
        }
    }
}
