//! # regla-cpu — the multicore CPU baseline ("MKL on a Core i7-2600")
//!
//! The paper compares its GPU kernels against Intel MKL with the problems
//! "distributed evenly across all four cores using pthreads" (§VI-B).
//! This crate is the equivalent baseline for the reproduction: native Rust
//! LAPACK-style factorizations (from `regla-core::host`) with a batched
//! driver that splits the problems across OS threads, plus wall-clock
//! measurement helpers that report GFLOP/s the same way the paper does.
//!
//! Differences from MKL are documented in DESIGN.md: these are
//! straightforward scalar implementations, so absolute CPU GFLOP/s are
//! lower than MKL's hand-tuned SSE/AVX kernels; the figure harnesses print
//! the paper's published MKL numbers alongside for the shape comparison.

#![forbid(unsafe_code)]

use regla_core::host;
use regla_core::per_thread::PtAlg;
use regla_core::{Mat, MatBatch, ProblemStatus, Scalar};
use std::time::Instant;

pub mod baseline;

pub use baseline::{mkl_reference_gflops, MklReference};

/// Which CPU solver to run over a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuAlg {
    /// Partial-pivot LU (what MKL `sgetrf` does).
    LuPivot,
    /// LU without pivoting (matching the GPU kernel semantics).
    LuNoPivot,
    /// Householder QR.
    Qr,
    /// Gauss-Jordan solve of `[A|b]` (b = last column of the batch).
    GjSolve,
    /// Linear solve via QR (factor + back substitution).
    QrSolve,
    /// Cholesky factorization (SPD matrices; extension).
    Cholesky,
}

/// Result of a timed batched CPU run.
#[derive(Clone, Debug)]
pub struct CpuRun<T> {
    pub out: MatBatch<T>,
    pub seconds: f64,
    pub flops: f64,
}

impl<T> CpuRun<T> {
    pub fn gflops(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.flops / self.seconds / 1e9
        }
    }
}

/// FLOP count attributed to one problem (the paper's conventions; complex
/// counted at 4x real).
pub fn flops_for<T: Scalar>(alg: CpuAlg, m: usize, n: usize) -> f64 {
    use regla_model::Algorithm;
    let base = match alg {
        CpuAlg::LuPivot | CpuAlg::LuNoPivot => Algorithm::Lu.flops(m, n),
        CpuAlg::Qr => Algorithm::Qr.flops(m, n),
        CpuAlg::GjSolve => Algorithm::GaussJordan.flops(m, n),
        CpuAlg::QrSolve => Algorithm::QrSolve.flops(m, n),
        CpuAlg::Cholesky => Algorithm::Cholesky.flops(m, n),
    };
    if T::IS_COMPLEX {
        4.0 * base
    } else {
        base
    }
}

impl CpuAlg {
    /// The device kernel this solver mirrors, whose host routine
    /// ([`host::solve_in_place`]) it runs; `None` for the partial-pivot
    /// LU, which no kernel runs.
    fn kernel(self) -> Option<PtAlg> {
        match self {
            CpuAlg::LuPivot => None,
            CpuAlg::LuNoPivot => Some(PtAlg::Lu),
            CpuAlg::Qr => Some(PtAlg::Qr),
            CpuAlg::GjSolve => Some(PtAlg::Gj),
            CpuAlg::QrSolve => Some(PtAlg::QrSolve),
            CpuAlg::Cholesky => Some(PtAlg::Cholesky),
        }
    }
}

/// Solve one problem in place and report the same [`ProblemStatus`]
/// verdict the GPU paths produce, so verdicts are comparable backend to
/// backend. The CPU never sees hardware faults, so `FaultDetected` cannot
/// occur here. Every solver but the partial-pivot LU factors the leading
/// `min(rows, cols)` columns, so the QR solve of `[A | b]` back-substitutes
/// the one carried column.
fn solve_one<T: Scalar>(alg: CpuAlg, a: &mut Mat<T>) -> ProblemStatus {
    let Some(kernel) = alg.kernel() else {
        let status = match host::lu_partial_pivot_in_place(a) {
            Ok(_) => ProblemStatus::Ok,
            Err(z) => ProblemStatus::ZeroPivot { col: z.column },
        };
        return host::screen_finite(status, a);
    };
    let nfac = a.rows().min(a.cols());
    host::solve_in_place(kernel, a, nfac).0
}

/// Run `alg` over every problem of the batch, split across `threads`
/// OS threads (the paper's "each core is assigned a subset").
pub fn run_batch<T: Scalar>(alg: CpuAlg, batch: &MatBatch<T>, threads: usize) -> MatBatch<T> {
    run_batch_status(alg, batch, threads).0
}

/// Like [`run_batch`], but also reports one [`ProblemStatus`] verdict per
/// problem — the baseline the GPU paths' verdicts are compared against in
/// the resilience tests.
pub fn run_batch_status<T: Scalar>(
    alg: CpuAlg,
    batch: &MatBatch<T>,
    threads: usize,
) -> (MatBatch<T>, Vec<ProblemStatus>) {
    let count = batch.count();
    let threads = threads.clamp(1, count.max(1));
    let mut results: Vec<Option<(Mat<T>, ProblemStatus)>> = vec![None; count];
    if threads <= 1 {
        for (k, slot) in results.iter_mut().enumerate() {
            let mut m = batch.mat(k);
            let s = solve_one(alg, &mut m);
            *slot = Some((m, s));
        }
    } else {
        let chunk = count.div_ceil(threads);
        std::thread::scope(|scope| {
            for (c, slot_chunk) in results.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                scope.spawn(move || {
                    for (off, slot) in slot_chunk.iter_mut().enumerate() {
                        let mut m = batch.mat(base + off);
                        let s = solve_one(alg, &mut m);
                        *slot = Some((m, s));
                    }
                });
            }
        });
    }
    let mut out = MatBatch::zeros(batch.rows(), batch.cols(), count);
    let mut status = Vec::with_capacity(count);
    for (k, r) in results.into_iter().enumerate() {
        let (m, s) = r.expect("all problems solved");
        out.set_mat(k, &m);
        status.push(s);
    }
    (out, status)
}

/// Timed batched run with the paper's GFLOP/s accounting. `nfac` is the
/// factored width (excluding appended right-hand sides).
pub fn timed_batch<T: Scalar>(
    alg: CpuAlg,
    batch: &MatBatch<T>,
    nfac: usize,
    threads: usize,
) -> CpuRun<T> {
    let t0 = Instant::now();
    let out = run_batch(alg, batch, threads);
    let seconds = t0.elapsed().as_secs_f64();
    let flops = flops_for::<T>(alg, batch.rows(), nfac) * batch.count() as f64;
    CpuRun {
        out,
        seconds,
        flops,
    }
}

/// Number of worker threads to use by default (the host's parallelism).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regla_core::C32;

    fn dd_batch(n: usize, count: usize) -> MatBatch<f32> {
        let mut b = MatBatch::from_fn(n, n, count, |k, i, j| {
            (((k * 31 + i * 7 + j * 3) % 17) as f32) / 17.0 - 0.3
        });
        for k in 0..count {
            let mut m = b.mat(k);
            m.make_diagonally_dominant();
            b.set_mat(k, &m);
        }
        b
    }

    #[test]
    fn batched_lu_matches_sequential() {
        let b = dd_batch(8, 10);
        let par = run_batch(CpuAlg::LuNoPivot, &b, 4);
        let seq = run_batch(CpuAlg::LuNoPivot, &b, 1);
        assert_eq!(par.max_frob_dist(&seq), 0.0);
    }

    #[test]
    fn pivoted_lu_reconstructs() {
        let b = dd_batch(6, 4);
        let out = run_batch(CpuAlg::LuPivot, &b, 2);
        for k in 0..4 {
            // Diagonally dominant => no pivoting happens => P = I.
            let (l, u) = host::split_lu(&out.mat(k));
            let d = l.matmul(&u).frob_dist(&b.mat(k));
            assert!(d < 1e-4);
        }
    }

    #[test]
    fn qr_solve_augmented_batches() {
        let a = dd_batch(7, 5);
        let rhs = MatBatch::from_fn(7, 1, 5, |k, i, _| (k + i) as f32 * 0.25 - 0.5);
        let aug = MatBatch::augment(&a, &rhs);
        let out = run_batch(CpuAlg::QrSolve, &aug, 3);
        for k in 0..5 {
            let x: Vec<f32> = (0..7).map(|i| out.get(k, i, 7)).collect();
            let bk: Vec<f32> = (0..7).map(|i| rhs.get(k, i, 0)).collect();
            assert!(host::residual_norm(&a.mat(k), &x, &bk) < 1e-3);
        }
    }

    #[test]
    fn gflops_accounting_uses_paper_conventions() {
        let r = CpuRun::<f32> {
            out: MatBatch::zeros(1, 1, 1),
            seconds: 1.0,
            flops: 2e9,
        };
        assert!((r.gflops() - 2.0).abs() < 1e-12);
        // Complex QR counted at 4x the real FLOPs (Section VII).
        let fr = flops_for::<f32>(CpuAlg::Qr, 240, 66);
        let fc = flops_for::<C32>(CpuAlg::Qr, 240, 66);
        assert_eq!(fc, 4.0 * fr);
    }

    #[test]
    fn timing_is_positive() {
        let b = dd_batch(16, 32);
        let run = timed_batch(CpuAlg::Qr, &b, 16, 2);
        assert!(run.seconds > 0.0);
        assert!(run.gflops() > 0.0);
    }
}
