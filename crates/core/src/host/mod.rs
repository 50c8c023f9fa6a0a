//! Host (CPU) reference implementations of the paper's four algorithms
//! (Section III) plus GEMM. These serve as correctness oracles for the GPU
//! kernels, as the panel factorizations of the tiled and hybrid paths, and
//! as the building blocks of the `regla-cpu` MKL-style baseline.

pub mod cholesky;
pub mod gemm;
pub mod gj;
pub mod lu;
pub mod ls;
pub mod qr;

pub use cholesky::{cholesky_in_place, cholesky_solve, extract_l, NotPositiveDefinite};
pub use gemm::{gemm, matmul, Op};
pub use gj::{gj_reduce_in_place, gj_solve};
pub use lu::{
    lu_nopivot_in_place, lu_nopivot_solve, lu_partial_pivot_in_place, lu_solve, split_lu,
    ZeroPivot,
};
pub use ls::{least_squares, residual_norm};
pub use qr::{
    apply_qh, back_substitute, extract_r, form_q, householder_qr_in_place, qr_solve,
};

use crate::matrix::Mat;
use crate::per_thread::PtAlg;
use crate::scalar::Scalar;
use crate::status::ProblemStatus;

/// Solve one problem in place with the host routine that mirrors the
/// device kernel `alg`, factoring the leading `nfac` columns. The no-pivot
/// LU, Gauss-Jordan and Cholesky report the column of a zero pivot (or of
/// the first non-positive Cholesky diagonal) as
/// [`ProblemStatus::ZeroPivot`]; QR returns its reflector scales; the QR
/// solve back-substitutes every carried column, as the device kernels'
/// `solving` mode does. The verdict then passes [`screen_finite`].
///
/// The one per-problem host solve behind recovery's fallback, the fleet's
/// CPU pool and the `regla-cpu` baseline.
pub fn solve_in_place<T: Scalar>(
    alg: PtAlg,
    a: &mut Mat<T>,
    nfac: usize,
) -> (ProblemStatus, Vec<T>) {
    let pivot =
        |col: Option<usize>| col.map_or(ProblemStatus::Ok, |col| ProblemStatus::ZeroPivot { col });
    let mut taus = Vec::new();
    let status = match alg {
        PtAlg::Lu => pivot(lu_nopivot_in_place(a).err().map(|z| z.column)),
        PtAlg::Gj => pivot(gj_reduce_in_place(a).err().map(|z| z.column)),
        PtAlg::Cholesky => pivot(cholesky_in_place(a).err().map(|e| e.column)),
        PtAlg::Qr => {
            taus = qr::householder_qr_cols_in_place(a, nfac);
            ProblemStatus::Ok
        }
        PtAlg::QrSolve => {
            qr::householder_qr_cols_in_place(a, nfac);
            for rc in nfac..a.cols() {
                let y: Vec<T> = (0..nfac).map(|i| a[(i, rc)]).collect();
                let x = back_substitute(&a.submatrix(0, 0, nfac, nfac), &y);
                for (i, v) in x.into_iter().enumerate() {
                    a[(i, rc)] = v;
                }
            }
            ProblemStatus::Ok
        }
    };
    (screen_finite(status, a), taus)
}

/// Demote an `Ok` verdict to [`ProblemStatus::NonFinite`] when any word
/// of `a` is not finite: the screen every device path applies after a
/// launch, so host and device verdicts compare one to one.
pub fn screen_finite<T: Scalar>(status: ProblemStatus, a: &Mat<T>) -> ProblemStatus {
    let finite = a.data().iter().all(|v| {
        let w = v.to_words();
        w[0].is_finite() && w[1].is_finite()
    });
    if status.is_ok() && !finite {
        ProblemStatus::NonFinite
    } else {
        status
    }
}
