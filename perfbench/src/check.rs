//! Output checks against the host reference (`regla_core::host`).
//!
//! A checked problem passes when its largest entry-wise difference from
//! the host reference, over the largest reference entry, stays within
//! [`TOL`]. Only the entries an operation defines are compared: the packed
//! `L\U` for LU, `R` (each row normalized by its diagonal's phase) for QR,
//! `L` for Cholesky and the solution columns for the solves.

use crate::gen::Rng;
use regla_core::host::{cholesky, gj, lu, qr};
use regla_core::{BatchRun, Mat, MatBatch, Op, Scalar};
use regla_gpu_sim::{ExecMode, LaunchConfig};
use regla_model::Approach;

/// Relative tolerance on the largest entry-wise difference. The largest
/// checked shape (240 x 66 complex QR) agrees to about 1e-6; a silent
/// mantissa flip in a stored result moves an entry by 2^-2 of itself or
/// more, which this tolerance rejects.
pub const TOL: f64 = 1e-4;

/// Problems checked per call (fewer when fewer problems executed).
pub const SAMPLE: usize = 4;

/// Problem indices whose outputs the call really computed: under
/// `Sampled`/`Representative` execution only some blocks run, and the
/// others hold stale bytes by contract. The block-to-problem mapping comes
/// from the run's first launch: a per-thread block carries one problem per
/// thread, every other block one problem.
pub fn executed_problems<T>(run: &BatchRun<T>, exec: ExecMode, count: usize) -> Vec<usize> {
    let Some(l0) = run.stats.launches.first() else {
        return (0..count).collect();
    };
    let per_block = if run.approach == Approach::PerThread {
        l0.threads_per_block
    } else {
        1
    };
    LaunchConfig::new(l0.grid_blocks, 1)
        .exec(exec)
        .executed_blocks()
        .into_iter()
        .flat_map(|b| (b * per_block)..((b + 1) * per_block).min(count))
        .collect()
}

/// A seeded sample of up to `k` distinct entries of `from`.
pub fn sample(from: &[usize], k: usize, seed: u64) -> Vec<usize> {
    let mut pool = from.to_vec();
    let mut rng = Rng::new(seed);
    let take = k.min(pool.len());
    for i in 0..take {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

/// Relative difference of problem `p`'s output from the host reference.
/// `out` is the device output (the augmented `[A | B]` for the solves).
pub fn rel_diff<T: Scalar>(
    op: Op,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
    out: &MatBatch<T>,
    p: usize,
) -> f64 {
    let (m, n) = (a.rows(), a.cols());
    let rhs = b.map_or(0, |b| b.cols());
    let mut r = Mat::from_fn(m, n + rhs, |i, j| match b {
        Some(b) if j >= n => b.get(p, i, j - n),
        _ => a.get(p, i, j),
    });
    // Which (row, col) entries the operation defines, given n.
    let keep: fn(usize, usize, usize) -> bool = match op {
        Op::Lu => {
            let _ = lu::lu_nopivot_in_place(&mut r);
            |_, _, _| true
        }
        Op::Qr => {
            qr::householder_qr_cols_in_place(&mut r, n);
            |i, j, n| i <= j && j < n
        }
        Op::Cholesky => {
            let _ = cholesky::cholesky_in_place(&mut r);
            |i, j, _| i >= j
        }
        Op::GjSolve => {
            let _ = gj::gj_reduce_in_place(&mut r);
            |_, j, n| j >= n
        }
        Op::QrSolve => {
            qr::householder_qr_cols_in_place(&mut r, n);
            let f = r.submatrix(0, 0, n, n);
            for c in n..n + rhs {
                let y: Vec<T> = (0..n).map(|i| r[(i, c)]).collect();
                for (i, x) in qr::back_substitute(&f, &y).into_iter().enumerate() {
                    r[(i, c)] = x;
                }
            }
            |i, j, n| j >= n && i < n
        }
        other => panic!("no host reference wired for {other:?}"),
    };
    // R is unique only up to the sign (phase) of each row, and the
    // per-thread kernels choose the opposite reflector sign to the host:
    // compare QR rows with their diagonal's phase divided out.
    let phase = |v: T| {
        let a = v.abs();
        if op == Op::Qr && a > 0.0 {
            v.conj().scale(1.0 / a)
        } else {
            T::one()
        }
    };
    let (mut diff, mut scale) = (0.0f64, 0.0f64);
    for i in 0..m {
        let (pr, pd) = if i < n {
            (phase(r[(i, i)]), phase(out.get(p, i, i)))
        } else {
            (T::one(), T::one())
        };
        for j in 0..n + rhs {
            if keep(i, j, n) {
                let want = r[(i, j)] * pr;
                scale = scale.max(want.abs());
                diff = diff.max((out.get(p, i, j) * pd - want).abs());
            }
        }
    }
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_distinct_seeded_and_bounded() {
        let from: Vec<usize> = (10..30).collect();
        let s = sample(&from, 4, 3);
        assert_eq!(s, sample(&from, 4, 3));
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert!(s.iter().all(|x| from.contains(x)));
        assert_eq!(sample(&from[..2], 4, 3).len(), 2);
    }

    #[test]
    fn reference_matches_itself_and_rejects_a_flip() {
        let a = crate::gen::real(6, 6, 2, crate::gen::Kind::DiagDominant, 5);
        let mut out = a.clone();
        let mut m = out.mat(1);
        lu::lu_nopivot_in_place(&mut m).unwrap();
        out.set_mat(1, &m);
        assert!(rel_diff(Op::Lu, &a, None, &out, 1) < 1e-6);
        let v = out.get(1, 3, 3);
        out.set(1, 3, 3, f32::from_bits(v.to_bits() ^ (1 << 22)));
        assert!(rel_diff(Op::Lu, &a, None, &out, 1) > TOL);
    }
}
