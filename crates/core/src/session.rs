//! The unified entry point for batched execution: a [`Session`] owns the
//! simulated device, the default [`RunOpts`], the model parameters derived
//! from the device config, and an optional [`Profiler`] — so repeated
//! launches reuse one device handle and one set of model parameters instead
//! of rebuilding both per call (the latent cost of the old free functions).
//!
//! ```
//! use regla_core::{MatBatch, Session};
//!
//! let session = Session::new();
//! let a = MatBatch::from_fn(8, 8, 256, |k, i, j| {
//!     ((k + i * 3 + j) % 7) as f32 + if i == j { 8.0 } else { 0.0 }
//! });
//! let run = session.qr(&a).unwrap();
//! assert!(run.status.iter().all(|s| s.is_ok()));
//! ```
//!
//! Every solve-family entry point dispatches through [`Session::run`] on an
//! [`Op`], so benches and experiments can drive the whole API surface from
//! one place; the named methods (`qr`, `lu`, `solve`, ...) are sugar.

use crate::api::{self, BatchRun, RunOpts};
use crate::batch::MatBatch;
use crate::elem::DeviceScalar;
use crate::error::ReglaError;
use crate::matrix::Mat;
use crate::per_thread::PtAlg;
use crate::scalar::Scalar;
use crate::status::RecoveryStats;
use crate::tiled::MultiLaunch;
use regla_gpu_sim::{Gpu, GpuConfig, Profiler};
use regla_model::{Algorithm, Approach, ModelParams, Plan, PlanKey};
use std::borrow::Cow;
use std::ops::Range;

/// The batched operations a [`Session`] can run — the single dispatch
/// surface behind the named sugar methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// In-place Householder QR of each matrix.
    Qr,
    /// In-place LU without pivoting.
    Lu,
    /// Gauss-Jordan reduction of `[A | B]` (any rhs width).
    GjSolve,
    /// QR factor-and-back-substitute of `[A | B]` (any rhs width).
    QrSolve,
    /// `min ‖Ax − b‖` for tall A; the solution lands in
    /// [`OpOutput::solution`].
    LeastSquares,
    /// Cholesky factorization of SPD batches.
    Cholesky,
    /// Gauss-Jordan inversion via `[A | I]`; the inverses land in
    /// [`OpOutput::solution`].
    Invert,
    /// Batched `C = A · B`.
    Gemm,
}

impl Op {
    /// Every operation, for exhaustive sweeps in benches and tests.
    pub const ALL: [Op; 8] = [
        Op::Qr,
        Op::Lu,
        Op::GjSolve,
        Op::QrSolve,
        Op::LeastSquares,
        Op::Cholesky,
        Op::Invert,
        Op::Gemm,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Op::Qr => "qr",
            Op::Lu => "lu",
            Op::GjSolve => "gj-solve",
            Op::QrSolve => "qr-solve",
            Op::LeastSquares => "least-squares",
            Op::Cholesky => "cholesky",
            Op::Invert => "invert",
            Op::Gemm => "gemm",
        }
    }

    /// Whether [`Session::run`] requires a second operand batch.
    pub fn needs_rhs(&self) -> bool {
        matches!(
            self,
            Op::GjSolve | Op::QrSolve | Op::LeastSquares | Op::Gemm
        )
    }

    /// Columns a run carries next to `n`-column systems given a
    /// `rhs`-column second operand: none for the operations that take no
    /// right-hand side, and `n` for [`Op::Invert`]'s identity.
    pub(crate) fn carried_cols(&self, n: usize, rhs: usize) -> usize {
        match self {
            Op::Invert => n,
            op if op.needs_rhs() => rhs,
            _ => 0,
        }
    }

    /// The predictive-model algorithm this operation is priced as, or
    /// `None` for operations the model has no estimate for (GEMM). This
    /// is what fleets and serving layers use to derive deadline budgets,
    /// admission prices and flush targets.
    pub fn model_algorithm(&self) -> Option<Algorithm> {
        match self {
            Op::Qr => Some(Algorithm::Qr),
            Op::Lu => Some(Algorithm::Lu),
            Op::GjSolve | Op::Invert => Some(Algorithm::GaussJordan),
            Op::QrSolve => Some(Algorithm::QrSolve),
            Op::LeastSquares => Some(Algorithm::LeastSquares),
            Op::Cholesky => Some(Algorithm::Cholesky),
            Op::Gemm => None,
        }
    }

    /// The second operand, which the [`Op::needs_rhs`] operations require.
    pub(crate) fn rhs<'b, T>(
        &self,
        b: Option<&'b MatBatch<T>>,
    ) -> Result<&'b MatBatch<T>, ReglaError> {
        b.ok_or_else(|| {
            ReglaError::InvalidConfig(format!("Op::{self:?} requires a right-hand-side batch"))
        })
    }

    /// Check the operand shapes and return the system this operation's
    /// kernel reduces in place: `a` itself, `[A | B]`, or `[A | I]` for
    /// [`Op::Invert`]. The staged system carries
    /// [`Op::carried_cols`] columns next to `a`'s. GEMM reduces no system.
    pub(crate) fn stage<'a, T: Scalar>(
        &self,
        a: &'a MatBatch<T>,
        b: Option<&MatBatch<T>>,
    ) -> Result<Cow<'a, MatBatch<T>>, ReglaError> {
        use ReglaError::DimensionMismatch;
        if *self == Op::Gemm {
            return Err(ReglaError::Unsupported("GEMM stages no system".into()));
        }
        let b = if self.needs_rhs() {
            Some(self.rhs(b)?)
        } else {
            None
        };
        api::validate_batch(a)?;
        let (m, n) = (a.rows(), a.cols());
        if *self == Op::LeastSquares && m < n {
            return Err(DimensionMismatch(format!(
                "least squares needs a tall system, got {m} x {n}"
            )));
        }
        if matches!(self, Op::GjSolve | Op::QrSolve | Op::Cholesky | Op::Invert) && m != n {
            return Err(DimensionMismatch(format!(
                "expected square systems, got {m} x {n}"
            )));
        }
        let Some(b) = b else {
            return Ok(match self {
                Op::Invert => {
                    let eye = MatBatch::replicate(&Mat::identity(n), a.count());
                    Cow::Owned(MatBatch::augment(a, &eye))
                }
                _ => Cow::Borrowed(a),
            });
        };
        if b.rows() != m {
            return Err(DimensionMismatch(format!(
                "rhs has {} rows but the systems have {m}",
                b.rows()
            )));
        }
        if b.count() != a.count() {
            return Err(DimensionMismatch(format!(
                "rhs batch holds {} problems but the system batch holds {}",
                b.count(),
                a.count()
            )));
        }
        if b.cols() == 0 {
            return Err(DimensionMismatch(
                "rhs must have at least one column".into(),
            ));
        }
        if *self == Op::LeastSquares && b.cols() != 1 {
            return Err(DimensionMismatch(
                "least_squares takes a single right-hand side".into(),
            ));
        }
        Ok(Cow::Owned(MatBatch::augment(a, b)))
    }

    /// The kernel that reduces the staged system under `approach`, or
    /// `None` for GEMM. Least squares back-substitutes in the QR solve
    /// kernel, except tiled, where QR leaves `[R | y]` for the host.
    pub(crate) fn kernel(&self, approach: Approach) -> Option<PtAlg> {
        Some(match self {
            Op::Qr => PtAlg::Qr,
            Op::LeastSquares if approach == Approach::Tiled => PtAlg::Qr,
            Op::QrSolve | Op::LeastSquares => PtAlg::QrSolve,
            Op::Lu => PtAlg::Lu,
            Op::Cholesky => PtAlg::Cholesky,
            Op::GjSolve | Op::Invert => PtAlg::Gj,
            Op::Gemm => return None,
        })
    }

    /// The answer read back from `out`, the system `kernel` reduced over
    /// `n` factored columns: `x` for least squares and `A⁻¹` for
    /// [`Op::Invert`]; `None` for the operations whose answer is `out`.
    /// Where `kernel` left `[R | y]`, `x` is back-substituted on the host
    /// for the `executed` problems and reads zero elsewhere.
    pub(crate) fn answer<T: Scalar>(
        &self,
        kernel: PtAlg,
        out: &MatBatch<T>,
        n: usize,
        executed: &[Range<usize>],
    ) -> Option<MatBatch<T>> {
        match self {
            Op::LeastSquares if kernel == PtAlg::Qr => {
                Some(api::back_substitute_batch(out, n, executed))
            }
            Op::LeastSquares => Some(out.sub(0, n, n, 1)),
            Op::Invert => Some(out.sub(0, n, n, n)),
            _ => None,
        }
    }
}

/// Result of [`Session::run`]: the batch run plus, for the operations that
/// produce one, an extracted solution batch.
#[derive(Clone, Debug)]
pub struct OpOutput<T> {
    pub run: BatchRun<T>,
    /// `x` for [`Op::LeastSquares`], `A⁻¹` for [`Op::Invert`]; `None` for
    /// the in-place operations (their result is [`BatchRun::out`]).
    pub solution: Option<MatBatch<T>>,
}

impl<T: crate::scalar::Scalar> OpOutput<T> {
    /// Reassemble chunk outputs, already in problem order, into one
    /// output: the inverse of [`OpOutput::split_problems`]. Launch stats
    /// and statuses concatenate, recovery counts add up, and the first
    /// chunk's profile stands for the run.
    pub(crate) fn concat(parts: Vec<OpOutput<T>>) -> OpOutput<T> {
        let outs: Vec<_> = parts.iter().map(|o| o.run.out.clone()).collect();
        let out = MatBatch::concat_problems(&outs);
        let taus = parts
            .iter()
            .map(|o| o.run.taus.clone())
            .collect::<Option<Vec<_>>>()
            .map(|t| MatBatch::concat_problems(&t));
        let solution = parts
            .iter()
            .map(|o| o.solution.clone())
            .collect::<Option<Vec<_>>>()
            .map(|s| MatBatch::concat_problems(&s));

        let mut stats = MultiLaunch::default();
        let mut status = Vec::new();
        let mut recovery = RecoveryStats::default();
        let mut profile = None;
        let approach = parts[0].run.approach;
        for o in parts {
            for l in o.run.stats.launches {
                stats.push(l);
            }
            status.extend(o.run.status);
            recovery.merge(&o.run.recovery);
            if profile.is_none() {
                profile = o.run.profile;
            }
        }
        let sanitizer = api::merge_sanitizer(&stats);
        OpOutput {
            run: BatchRun {
                out,
                approach,
                stats,
                taus,
                status,
                recovery,
                profile,
                sanitizer,
            },
            solution,
        }
    }

    /// Split a coalesced output back into per-request outputs: `lens[i]`
    /// problems each, in order, covering the whole batch. The de-interleave
    /// step of a serving front-end — every per-problem artifact (`out`,
    /// `taus`, `status`, `solution`) is sliced problem-wise, so under
    /// [`regla_gpu_sim::ExecMode::Full`] each piece is bit-identical to
    /// running that request's problems alone (the kernels are
    /// batch-size-independent per problem).
    ///
    /// Aggregate run artifacts (launch stats, recovery, profile, sanitizer)
    /// describe the coalesced dispatch and are not divisible; each split
    /// piece carries empty aggregates.
    pub fn split_problems(&self, lens: &[usize]) -> Vec<OpOutput<T>> {
        let total: usize = lens.iter().sum();
        assert_eq!(
            total,
            self.run.out.count(),
            "split lengths must cover the whole batch"
        );
        let mut start = 0;
        lens.iter()
            .map(|&len| {
                let piece = OpOutput {
                    run: BatchRun {
                        out: self.run.out.slice_problems(start, len),
                        approach: self.run.approach,
                        stats: MultiLaunch::default(),
                        taus: self
                            .run
                            .taus
                            .as_ref()
                            .map(|t| t.slice_problems(start, len)),
                        status: self.run.status[start..start + len].to_vec(),
                        recovery: RecoveryStats::default(),
                        profile: None,
                        sanitizer: None,
                    },
                    solution: self
                        .solution
                        .as_ref()
                        .map(|s| s.slice_problems(start, len)),
                };
                start += len;
                piece
            })
            .collect()
    }
}

/// Builder for [`Session`]: device config, default run options, profiler.
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    cfg: Option<GpuConfig>,
    opts: RunOpts,
    profiler: Option<Profiler>,
}

impl SessionBuilder {
    /// Device configuration (defaults to the paper's Quadro 6000).
    pub fn config(mut self, cfg: GpuConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Default [`RunOpts`] applied by the named methods and [`Session::run`].
    pub fn opts(mut self, opts: RunOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Attach a profiler: any launch whose options don't already carry a
    /// trace sink records into it.
    pub fn profiler(mut self, p: impl Into<Option<Profiler>>) -> Self {
        self.profiler = p.into();
        self
    }

    pub fn build(self) -> Session {
        let cfg = self.cfg.unwrap_or_default();
        let params = ModelParams::from_config(&cfg);
        Session {
            gpu: Gpu::new(cfg),
            opts: self.opts,
            params,
            profiler: self.profiler,
        }
    }
}

/// A handle over the simulated device: owns the [`Gpu`], the default
/// [`RunOpts`], the cached [`ModelParams`], and an optional [`Profiler`].
///
/// Construct with [`Session::new`] (Quadro 6000 defaults),
/// [`Session::with_config`], or [`Session::builder`]. All methods take
/// `&self`; the session can be shared across threads (the `Gpu`'s buffer
/// arena, device-memory pool and schedule cache are internally
/// synchronized, and so is the profiler). Calls on one session reuse the
/// device memory earlier calls returned (see
/// [`Gpu::checkout_memory`](regla_gpu_sim::Gpu::checkout_memory)).
#[derive(Clone, Debug)]
pub struct Session {
    gpu: Gpu,
    opts: RunOpts,
    params: ModelParams,
    profiler: Option<Profiler>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session on the paper's Quadro 6000 with default options.
    pub fn new() -> Self {
        Session::builder().build()
    }

    /// A session on `cfg` with default options.
    pub fn with_config(cfg: GpuConfig) -> Self {
        Session::builder().config(cfg).build()
    }

    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The owned device handle (stable across calls — launches reuse it).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    pub fn config(&self) -> &GpuConfig {
        &self.gpu.cfg
    }

    /// Model parameters derived once from the session's config.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The session's default run options.
    pub fn opts(&self) -> &RunOpts {
        &self.opts
    }

    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Options for one call: the session profiler backfills `trace` when
    /// the caller didn't set one.
    fn effective(&self, opts: &RunOpts) -> RunOpts {
        let mut o = opts.clone();
        if o.trace.is_none() {
            o.trace = self.profiler.clone();
        }
        o
    }

    /// Run `op` with the session's default options.
    pub fn run<T: DeviceScalar>(
        &self,
        op: Op,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
    ) -> Result<OpOutput<T>, ReglaError> {
        self.run_with(op, a, b, &self.opts)
    }

    /// Run `op` with explicit options — the one dispatch point every other
    /// entry point funnels through.
    pub fn run_with<T: DeviceScalar>(
        &self,
        op: Op,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
        opts: &RunOpts,
    ) -> Result<OpOutput<T>, ReglaError> {
        api::run_op(&self.gpu, &self.params, op, a, b, &self.effective(opts))
    }

    /// The model's price, in cycles on this session's device, of
    /// [`Session::run_with`] running `op` on `batch` problems of `m x n`
    /// with a `rhs`-column second operand under `opts`: the plan that
    /// call resolves, priced at the exact batch. `None` for GEMM and for
    /// plans the model cannot price.
    pub fn price<T: DeviceScalar>(
        &self,
        op: Op,
        m: usize,
        n: usize,
        rhs: usize,
        batch: usize,
        opts: &RunOpts,
    ) -> Option<f64> {
        let (key, plan) = self.resolve::<T>(op, m, n, rhs, batch, opts)?;
        regla_model::price(&self.params, self.config(), &key, &plan, batch)
    }

    /// [`Session::price`], or for a plan the model cannot price (a forced
    /// 1D layout, or per-thread past twice the register budget) the
    /// slowest device approach's price of the same shape
    /// ([`regla_model::worst_price`] over [`Approach::DEVICE`], each at
    /// its default plan): a stand-in on this device's own scale. `None`
    /// when no device approach prices, as for GEMM.
    pub fn price_or_worst<T: DeviceScalar>(
        &self,
        op: Op,
        m: usize,
        n: usize,
        rhs: usize,
        batch: usize,
        opts: &RunOpts,
    ) -> Option<f64> {
        let (key, plan) = self.resolve::<T>(op, m, n, rhs, batch, opts)?;
        let (p, cfg) = (&self.params, self.config());
        regla_model::price(p, cfg, &key, &plan, batch)
            .or_else(|| regla_model::worst_price(p, cfg, &key, &Approach::DEVICE, batch))
    }

    /// The model key and the resolved plan of [`Session::run_with`]
    /// running `op` on `batch` problems of `m x n` with a `rhs`-column
    /// second operand; `None` for GEMM.
    fn resolve<T: DeviceScalar>(
        &self,
        op: Op,
        m: usize,
        n: usize,
        rhs: usize,
        batch: usize,
        opts: &RunOpts,
    ) -> Option<(PlanKey, Plan)> {
        let alg = op.model_algorithm()?;
        let rhs = op.carried_cols(n, rhs);
        let (p, cfg) = (&self.params, self.config());
        let plan = api::resolve_plan(p, cfg, alg, m, n, rhs, T::WORDS, batch, opts);
        let key = PlanKey::new(alg, m, n, rhs, T::WORDS, batch, opts.math);
        Some((key, plan))
    }

    // ---- named sugar -----------------------------------------------------

    /// Batched in-place Householder QR.
    pub fn qr<T: DeviceScalar>(&self, a: &MatBatch<T>) -> Result<BatchRun<T>, ReglaError> {
        self.run(Op::Qr, a, None).map(|o| o.run)
    }

    /// Batched in-place LU without pivoting.
    pub fn lu<T: DeviceScalar>(&self, a: &MatBatch<T>) -> Result<BatchRun<T>, ReglaError> {
        self.run(Op::Lu, a, None).map(|o| o.run)
    }

    /// Batched linear solve via QR of `[A | B]` (any rhs width). Alias:
    /// [`Session::qr_solve`].
    pub fn solve<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
    ) -> Result<BatchRun<T>, ReglaError> {
        self.qr_solve(a, b)
    }

    /// Batched QR solve of `[A | B]`: factor, then back-substitute every
    /// carried column.
    pub fn qr_solve<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
    ) -> Result<BatchRun<T>, ReglaError> {
        self.run(Op::QrSolve, a, Some(b)).map(|o| o.run)
    }

    /// Batched Gauss-Jordan reduction of `[A | B]` (any rhs width).
    pub fn gj_solve<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
    ) -> Result<BatchRun<T>, ReglaError> {
        self.run(Op::GjSolve, a, Some(b)).map(|o| o.run)
    }

    /// Batched least squares `min ‖Ax − b‖`; returns the run and `x`.
    pub fn least_squares<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
    ) -> Result<(BatchRun<T>, MatBatch<T>), ReglaError> {
        self.run(Op::LeastSquares, a, Some(b)).map(|o| {
            let x = o.solution.expect("least squares always extracts x");
            (o.run, x)
        })
    }

    /// Batched Cholesky factorization of SPD batches.
    pub fn cholesky<T: DeviceScalar>(&self, a: &MatBatch<T>) -> Result<BatchRun<T>, ReglaError> {
        self.run(Op::Cholesky, a, None).map(|o| o.run)
    }

    /// Batched inversion via Gauss-Jordan on `[A | I]`; returns the
    /// inverses and the run.
    pub fn invert<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
    ) -> Result<(MatBatch<T>, BatchRun<T>), ReglaError> {
        self.run(Op::Invert, a, None).map(|o| {
            let inv = o.solution.expect("invert always extracts the inverses");
            (inv, o.run)
        })
    }

    /// Batched `C = A · B`.
    pub fn gemm<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
    ) -> Result<BatchRun<T>, ReglaError> {
        self.run(Op::Gemm, a, Some(b)).map(|o| o.run)
    }

    /// Run `op` chunked over streams with copy/compute overlap: the batch
    /// is split into [`crate::PipelineOpts::chunks`] pieces round-robined
    /// over [`crate::PipelineOpts::streams`], and the resulting H2D /
    /// kernel / D2H schedule is resolved on the device's stream timeline.
    /// Under [`regla_gpu_sim::ExecMode::Full`] results are bit-identical
    /// to [`Session::run`] (under the sampled modes each chunk runs its own
    /// sample); the gain (if the device's copy engines allow any) is
    /// end-to-end time, reported in [`crate::PipelinedRun::report`].
    pub fn pipelined<T: DeviceScalar>(
        &self,
        op: Op,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
        popts: &crate::pipeline::PipelineOpts,
    ) -> Result<crate::pipeline::PipelinedRun<T>, ReglaError> {
        crate::pipeline::run_pipelined(self, op, a, b, popts, &self.opts)
    }

    /// [`Session::pipelined`] with explicit per-call [`RunOpts`].
    pub fn pipelined_with<T: DeviceScalar>(
        &self,
        op: Op,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
        popts: &crate::pipeline::PipelineOpts,
        opts: &RunOpts,
    ) -> Result<crate::pipeline::PipelinedRun<T>, ReglaError> {
        crate::pipeline::run_pipelined(self, op, a, b, popts, opts)
    }

    /// Batched least squares via communication-avoiding TSQR (outside the
    /// [`Op`] dispatch: it returns launch stats, not a [`BatchRun`]).
    pub fn tsqr_least_squares<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
    ) -> Result<(MatBatch<T>, MultiLaunch), ReglaError> {
        api::tsqr_run(&self.gpu, a, b, &self.effective(&self.opts))
    }

    /// [`Session::tsqr_least_squares`] with explicit per-call [`RunOpts`].
    pub fn tsqr_least_squares_with<T: DeviceScalar>(
        &self,
        a: &MatBatch<T>,
        b: &MatBatch<T>,
        opts: &RunOpts,
    ) -> Result<(MatBatch<T>, MultiLaunch), ReglaError> {
        api::tsqr_run(&self.gpu, a, b, &self.effective(opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dd_batch(n: usize, count: usize) -> MatBatch<f32> {
        MatBatch::from_fn(n, n, count, |k, i, j| {
            let v = (((k * 31 + i * 17 + j * 13) % 29) as f32) / 29.0 - 0.4;
            if i == j {
                v + n as f32
            } else {
                v
            }
        })
    }

    #[test]
    fn repeated_launches_reuse_device_state_and_stay_bit_identical() {
        // The regression this API fixes: every free-function call built a
        // fresh Gpu and re-derived ModelParams. The session's device and
        // params must be the same objects across calls, and repeated runs
        // bit-identical.
        let session = Session::new();
        let a = dd_batch(12, 96);
        let gpu0 = session.gpu() as *const Gpu;
        let params0 = session.params() as *const ModelParams;
        let r1 = session.qr(&a).unwrap();
        let r2 = session.qr(&a).unwrap();
        assert_eq!(gpu0, session.gpu() as *const Gpu);
        assert_eq!(params0, session.params() as *const ModelParams);
        assert_eq!(r1.out.data(), r2.out.data());
        assert_eq!(
            r1.taus.as_ref().unwrap().data(),
            r2.taus.as_ref().unwrap().data()
        );
        assert_eq!(r1.stats.time_s.to_bits(), r2.stats.time_s.to_bits());
    }

    #[test]
    fn a_warm_session_allocates_no_device_memory() {
        // A small sweep: per-thread points sampled, per-block and tiled
        // points at one block, then GEMM and TSQR, in growing and
        // shrinking sizes. The first pass grows the pool; the second
        // reuses it.
        use regla_gpu_sim::ExecMode;
        use regla_model::Approach;
        let session = Session::new();
        let opts = |approach, exec| {
            RunOpts::builder()
                .approach(approach)
                .exec(exec)
                .build()
                .unwrap()
        };
        let pt = opts(Approach::PerThread, ExecMode::Sampled(2));
        let pb = opts(Approach::PerBlock, ExecMode::Representative);
        let tiled = opts(Approach::Tiled, ExecMode::Representative);
        let c32 = MatBatch::from_fn(24, 8, 6, |k, i, j| {
            let re = (k + 3 * i + j) as f32 / 24.0 + f32::from(u8::from(i == j));
            crate::C32::new(re, 0.5)
        });
        let tall = MatBatch::from_fn(24, 4, 8, |k, i, j| {
            (k + 5 * i + 3 * j) as f32 / 24.0 + f32::from(u8::from(i == j))
        });
        let b = MatBatch::from_fn(24, 1, 8, |k, i, _| (k + i) as f32);
        let sq = dd_batch(6, 8);
        let pass = || {
            for n in [4, 8, 6] {
                for op in [Op::Qr, Op::Lu] {
                    session.run_with(op, &dd_batch(n, 640), None, &pt).unwrap();
                }
            }
            for n in [16, 8] {
                session
                    .run_with(Op::Qr, &dd_batch(n, 40), None, &pb)
                    .unwrap();
            }
            session.run_with(Op::Qr, &c32, None, &tiled).unwrap();
            session.gemm(&sq, &sq).unwrap();
            session.tsqr_least_squares(&tall, &b).unwrap();
        };
        pass();
        let grown = session.gpu().memories_allocated();
        assert!(grown >= 1);
        pass();
        assert_eq!(session.gpu().memories_allocated(), grown);
    }

    #[test]
    fn run_requires_rhs_for_two_operand_ops() {
        let session = Session::new();
        let a = dd_batch(8, 16);
        for op in Op::ALL {
            if op.needs_rhs() {
                assert!(
                    session.run(op, &a, None).is_err(),
                    "{} must demand a rhs",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn staged_systems_carry_the_priced_columns() {
        // `Session::price` keys its plan on `carried_cols`, and a run
        // resolves its plan from the staged system: the two must agree.
        let (n, count) = (6, 4);
        let a = dd_batch(n, count);
        for op in Op::ALL.into_iter().filter(|&op| op != Op::Gemm) {
            let rhs = if op == Op::LeastSquares { 1 } else { 3 };
            let b = MatBatch::<f32>::zeros(n, rhs, count);
            let staged = op.stage(&a, Some(&b)).unwrap();
            let carried = op.carried_cols(n, rhs);
            assert_eq!(staged.cols() - n, carried, "{}", op.name());
            assert_eq!((staged.rows(), staged.count()), (n, count), "{}", op.name());
            // The in-place ops reduce `a` itself, without a copy.
            assert_eq!(
                matches!(staged, Cow::Borrowed(_)),
                carried == 0,
                "{}",
                op.name()
            );
        }
    }

    #[test]
    fn session_profiler_records_launches() {
        let prof = Profiler::new();
        let session = Session::builder().profiler(prof.clone()).build();
        let a = dd_batch(8, 64);
        session.qr(&a).unwrap();
        assert!(prof.launch_count() > 0);
    }
}
