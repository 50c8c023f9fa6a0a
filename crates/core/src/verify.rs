//! Algorithm-based result verification: ABFT checksum relations and
//! residual screens.
//!
//! The finite screen, the sanitizer and the simulated ECC report catch
//! faults that *announce* themselves. A bit flip that lands in a stored
//! factor and still produces a finite value sails past all three — the
//! classic silent-data-corruption gap. This module closes it with the
//! Huang–Abraham observation that checksums commute with factorization:
//! for the checksum vector `e = (1, …, 1)`,
//!
//! * LU:        `L(Ue) = Ae`            (unit-diagonal L),
//! * Cholesky:  `L(Lᴴe) = Ae`           (lower triangle only),
//! * QR+taus:   `Q(Re) = Ae`            (reverse reflector sweep, so a
//!   corrupted tau or reflector is caught, not just a corrupted R),
//! * QR, no taus (tiled): `Rᴴ(Re) = Aᴴ(Ae)`  (the Gram relation
//!   `AᴴA = RᴴR`),
//!
//! plus the one-matvec residual screen `‖A·x̂ − b‖ / (‖A‖·‖x̂‖ + ‖b‖)`
//! for paths that return a solution. Every screen is a handful of
//! matrix-vector products per problem — O(n²) against the O(n³)
//! factorization — computed on the host in f64.
//!
//! Verification is strictly observational: outputs, taus and the
//! pre-verification verdicts are bit-identical with it on or off. Its
//! only effect is demoting finite-but-wrong `Ok` problems to
//! [`ProblemStatus::VerifyFailed`], which is *not settled*, so the
//! existing [`crate::RecoveryPolicy`] retry/fallback machinery re-runs
//! exactly the flagged problems. `regla_model::verify_cycles` prices the
//! overhead so dispatch and admission control can decide when to pay it.

use crate::batch::MatBatch;
use crate::elem::DeviceScalar;
use crate::per_thread::PtAlg;
use crate::scalar::Scalar;
use crate::status::{ProblemStatus, VerifyScreen};
use std::ops::Range;

pub use regla_model::VerifyMode;

/// Relative tolerance of the screens for an `m`-row problem: comfortably
/// above the f32 factorization's backward-error floor (~`n·ε` with a
/// small constant), comfortably below the ≥1/8 relative perturbation the
/// silent-corruption fault model injects.
pub fn tolerance(m: usize) -> f64 {
    64.0 * m.max(4) as f64 * f32::EPSILON as f64
}

/// Host-precision value: complex f64, the accumulation type of every
/// screen (real scalars ride along with a zero imaginary part).
#[derive(Clone, Copy, Debug, Default)]
struct V {
    re: f64,
    im: f64,
}

impl V {
    fn of<T: Scalar>(x: T) -> V {
        let w = x.to_words();
        V {
            re: w[0] as f64,
            im: w[1] as f64,
        }
    }
    fn add(self, o: V) -> V {
        V {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    fn sub(self, o: V) -> V {
        V {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
    fn mul(self, o: V) -> V {
        V {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    fn conj(self) -> V {
        V {
            re: self.re,
            im: -self.im,
        }
    }
    fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

fn norm(v: &[V]) -> f64 {
    v.iter().map(|x| x.abs2()).sum::<f64>().sqrt()
}

fn diff_norm(a: &[V], b: &[V]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.sub(*y).abs2())
        .sum::<f64>()
        .sqrt()
}

/// Frobenius norm of the leading `nfac` columns of problem `p`.
fn frob_a<T: Scalar>(aug: &MatBatch<T>, p: usize, nfac: usize) -> f64 {
    let m = aug.rows();
    let mut s = 0.0;
    for j in 0..nfac {
        for i in 0..m {
            s += V::of(aug.get(p, i, j)).abs2();
        }
    }
    s.sqrt()
}

/// `A·e` over the leading `nfac` columns of problem `p` (the input-side
/// checksum every factorization identity compares against).
fn a_times_e<T: Scalar>(aug: &MatBatch<T>, p: usize, nfac: usize) -> Vec<V> {
    let m = aug.rows();
    (0..m)
        .map(|i| {
            let mut s = V::default();
            for j in 0..nfac {
                s = s.add(V::of(aug.get(p, i, j)));
            }
            s
        })
        .collect()
}

/// Normalize a checksum defect against the natural scale of the
/// right-hand side `r` (guarded by `floor` for cancellation-prone
/// inputs), clamped finite so it can live inside an `Eq` status.
fn normalized(defect: f64, r_norm: f64, floor: f64) -> f64 {
    let d = defect / r_norm.max(floor).max(f64::MIN_POSITIVE);
    if d.is_finite() {
        d
    } else {
        f64::MAX
    }
}

/// LU checksum `L(Ue) = Ae` (square factor, unit-diagonal L).
fn lu_checksum<T: Scalar>(aug: &MatBatch<T>, out: &MatBatch<T>, p: usize, n: usize) -> f64 {
    let r = a_times_e(aug, p, n);
    // u = U e (upper triangle incl. diagonal), then w = L u (unit diag).
    let u: Vec<V> = (0..n)
        .map(|i| {
            let mut s = V::default();
            for j in i..n {
                s = s.add(V::of(out.get(p, i, j)));
            }
            s
        })
        .collect();
    let w: Vec<V> = (0..n)
        .map(|i| {
            let mut s = u[i];
            for (k, &uk) in u.iter().enumerate().take(i) {
                s = s.add(V::of(out.get(p, i, k)).mul(uk));
            }
            s
        })
        .collect();
    normalized(diff_norm(&w, &r), norm(&r), frob_a(aug, p, n))
}

/// Cholesky checksum `L(Lᴴe) = Ae`, reading only the lower triangle (the
/// kernels may leave stale input above the diagonal).
fn cholesky_checksum<T: Scalar>(aug: &MatBatch<T>, out: &MatBatch<T>, p: usize, n: usize) -> f64 {
    let r = a_times_e(aug, p, n);
    // t = Lᴴ e: conjugated column sums of the lower triangle.
    let t: Vec<V> = (0..n)
        .map(|k| {
            let mut s = V::default();
            for i in k..n {
                s = s.add(V::of(out.get(p, i, k)).conj());
            }
            s
        })
        .collect();
    let w: Vec<V> = (0..n)
        .map(|i| {
            let mut s = V::default();
            for (k, &tk) in t.iter().enumerate().take(i + 1) {
                s = s.add(V::of(out.get(p, i, k)).mul(tk));
            }
            s
        })
        .collect();
    normalized(diff_norm(&w, &r), norm(&r), frob_a(aug, p, n))
}

/// QR checksum `Q(Re) = Ae` via the reverse reflector sweep (`Q = H_1⋯H_n`
/// with `H_k = I − τ v vᴴ`, the host `form_q` convention) — covers
/// corruption in R, in a stored reflector, *and* in a tau.
fn qr_checksum<T: Scalar>(
    aug: &MatBatch<T>,
    out: &MatBatch<T>,
    taus: &MatBatch<T>,
    p: usize,
    nfac: usize,
) -> f64 {
    let m = aug.rows();
    let r = a_times_e(aug, p, nfac);
    // w = R e, padded with zeros below the triangle.
    let mut w: Vec<V> = (0..m)
        .map(|i| {
            let mut s = V::default();
            if i < nfac {
                for j in i..nfac {
                    s = s.add(V::of(out.get(p, i, j)));
                }
            }
            s
        })
        .collect();
    // w ← Q w: innermost reflector first, exactly as `host::qr::form_q`.
    for k in (0..nfac).rev() {
        let tau = V::of(taus.get(p, k, 0));
        if tau.abs2() == 0.0 {
            continue;
        }
        let mut s = w[k];
        for (i, &wi) in w.iter().enumerate().skip(k + 1) {
            s = s.add(V::of(out.get(p, i, k)).conj().mul(wi));
        }
        let t = tau.mul(s);
        w[k] = w[k].sub(t);
        for (i, wi) in w.iter_mut().enumerate().skip(k + 1) {
            *wi = wi.sub(V::of(out.get(p, i, k)).mul(t));
        }
    }
    normalized(diff_norm(&w, &r), norm(&r), frob_a(aug, p, nfac))
}

/// Tau-less QR checksum via the Gram relation `Rᴴ(Re) = Aᴴ(Ae)` — the
/// tiled path reuses its tau scratch per panel, so only R survives.
fn gram_checksum<T: Scalar>(aug: &MatBatch<T>, out: &MatBatch<T>, p: usize, nfac: usize) -> f64 {
    let m = aug.rows();
    let ae = a_times_e(aug, p, nfac);
    let g1: Vec<V> = (0..nfac)
        .map(|j| {
            let mut s = V::default();
            for (i, &aei) in ae.iter().enumerate().take(m) {
                s = s.add(V::of(aug.get(p, i, j)).conj().mul(aei));
            }
            s
        })
        .collect();
    let re: Vec<V> = (0..nfac)
        .map(|i| {
            let mut s = V::default();
            for j in i..nfac {
                s = s.add(V::of(out.get(p, i, j)));
            }
            s
        })
        .collect();
    let g2: Vec<V> = (0..nfac)
        .map(|j| {
            let mut s = V::default();
            for (i, &rei) in re.iter().enumerate().take(j + 1) {
                s = s.add(V::of(out.get(p, i, j)).conj().mul(rei));
            }
            s
        })
        .collect();
    let fa = frob_a(aug, p, nfac);
    normalized(diff_norm(&g2, &g1), norm(&g1), fa * fa)
}

/// Solve-path residual `‖A(Xe) − Be‖ / (‖A‖_F·‖Xe‖ + ‖Be‖)`: all rhs
/// columns folded into one matvec through the checksum vector.
fn solve_residual<T: Scalar>(aug: &MatBatch<T>, out: &MatBatch<T>, p: usize, nfac: usize) -> f64 {
    let cols = aug.cols();
    let xe: Vec<V> = (0..nfac)
        .map(|i| {
            let mut s = V::default();
            for j in nfac..cols {
                s = s.add(V::of(out.get(p, i, j)));
            }
            s
        })
        .collect();
    let be: Vec<V> = (0..nfac)
        .map(|i| {
            let mut s = V::default();
            for j in nfac..cols {
                s = s.add(V::of(aug.get(p, i, j)));
            }
            s
        })
        .collect();
    let ax: Vec<V> = (0..nfac)
        .map(|i| {
            let mut s = V::default();
            for (k, &xk) in xe.iter().enumerate() {
                s = s.add(V::of(aug.get(p, i, k)).mul(xk));
            }
            s
        })
        .collect();
    let denom = frob_a(aug, p, nfac) * norm(&xe) + norm(&be);
    normalized(diff_norm(&ax, &be), denom, f64::MIN_POSITIVE)
}

/// Checksum defect of problem `p` for the factorization `alg` produced,
/// or `None` when the op leaves no checkable factorization.
fn checksum_norm<T: Scalar>(
    aug: &MatBatch<T>,
    out: &MatBatch<T>,
    taus: Option<&MatBatch<T>>,
    p: usize,
    nfac: usize,
    alg: PtAlg,
) -> Option<f64> {
    let m = aug.rows();
    match alg {
        // L and U are square triangles of the in-place factor.
        PtAlg::Lu if m == nfac => Some(lu_checksum(aug, out, p, nfac)),
        PtAlg::Cholesky if m == nfac => Some(cholesky_checksum(aug, out, p, nfac)),
        PtAlg::Qr | PtAlg::QrSolve => Some(match taus {
            Some(t) => qr_checksum(aug, out, t, p, nfac),
            None => gram_checksum(aug, out, p, nfac),
        }),
        // Gauss-Jordan reduces in place and keeps no factorization; the
        // residual screen is its verification.
        _ => None,
    }
}

/// Problems one host thread screens per claim: enough work to pay for
/// the claim's round trip through the worker pool.
const CHUNK: usize = 64;

/// Run the configured screens over a launched batch, demoting `Ok`
/// problems whose checksum or residual breaks tolerance to
/// [`ProblemStatus::VerifyFailed`]. Only the `executed` problem ranges
/// are screened (under sampled execution the others were never computed
/// and hold zeros); non-`Ok` problems already have a stronger verdict.
/// The screens run in chunks of [`CHUNK`] problems on up to `threads`
/// host threads ([`regla_gpu_sim::par_map`]; fewer problems than one
/// chunk stay on the calling thread), and the verdicts apply in problem
/// order, identical at every thread count. Returns how many problems were
/// flagged.
#[allow(clippy::too_many_arguments)]
pub(crate) fn screen_problems<T: DeviceScalar>(
    aug: &MatBatch<T>,
    nfac: usize,
    alg: PtAlg,
    solved: bool,
    out: &MatBatch<T>,
    taus: Option<&MatBatch<T>>,
    executed: &[Range<usize>],
    status: &mut [ProblemStatus],
    mode: VerifyMode,
    threads: Option<usize>,
) -> usize {
    if !mode.is_on() {
        return 0;
    }
    let tol = tolerance(aug.rows());
    let verdict = |p: usize| {
        if mode.checksum() {
            if let Some(norm) = checksum_norm(aug, out, taus, p, nfac, alg) {
                if norm > tol {
                    return Some(ProblemStatus::VerifyFailed {
                        screen: VerifyScreen::Checksum,
                        norm,
                    });
                }
            }
        }
        if mode.residual() && solved && nfac < aug.cols() {
            let norm = solve_residual(aug, out, p, nfac);
            if norm > tol {
                return Some(ProblemStatus::VerifyFailed {
                    screen: VerifyScreen::Residual,
                    norm,
                });
            }
        }
        None
    };
    let todo: Vec<usize> = executed
        .iter()
        .flat_map(|r| r.clone())
        .filter(|&p| status[p].is_ok())
        .collect();
    let chunks: Vec<&[usize]> = todo.chunks(CHUNK).collect();
    let verdicts = regla_gpu_sim::par_map(&chunks, threads, |chunk| {
        chunk.iter().map(|&p| verdict(p)).collect::<Vec<_>>()
    });
    let mut flagged = 0;
    for (&p, v) in todo.iter().zip(verdicts.into_iter().flatten()) {
        if let Some(v) = v {
            status[p] = v;
            flagged += 1;
        }
    }
    flagged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host;
    use crate::matrix::Mat;

    fn dd_mat(n: usize, seed: usize) -> Mat<f32> {
        Mat::from_fn(n, n, |i, j| {
            let v = (((seed * 13 + i * 7 + j * 3) % 23) as f32) / 23.0 - 0.4;
            if i == j {
                v + n as f32
            } else {
                v
            }
        })
    }

    /// Flip a low-order mantissa bit, the silent-corruption fault model.
    fn flip(v: f32) -> f32 {
        f32::from_bits(v.to_bits() ^ (1 << 22))
    }

    #[test]
    fn lu_checksum_accepts_clean_and_catches_flip() {
        let n = 12;
        let a = dd_mat(n, 1);
        let mut f = a.clone();
        host::lu::lu_nopivot_in_place(&mut f).unwrap();
        let aug = MatBatch::replicate(&a, 1);
        let mut out = MatBatch::replicate(&f, 1);
        let clean = lu_checksum(&aug, &out, 0, n);
        assert!(clean < tolerance(n), "clean defect {clean}");
        out.set(0, 3, 5, flip(out.get(0, 3, 5)));
        let bad = lu_checksum(&aug, &out, 0, n);
        assert!(bad > tolerance(n), "corrupted defect {bad}");
    }

    #[test]
    fn qr_checksum_catches_factor_and_tau_corruption() {
        let n = 10;
        let a = dd_mat(n, 2);
        let mut f = a.clone();
        let t = host::qr::householder_qr_in_place(&mut f);
        let aug = MatBatch::replicate(&a, 1);
        let out = MatBatch::replicate(&f, 1);
        let mut taus = MatBatch::<f32>::zeros(n, 1, 1);
        for (i, &v) in t.iter().enumerate() {
            taus.set(0, i, 0, v);
        }
        let clean = qr_checksum(&aug, &out, &taus, 0, n);
        assert!(clean < tolerance(n), "clean defect {clean}");
        // A flipped R entry breaks the identity…
        let mut bad_out = out.clone();
        bad_out.set(0, 1, 4, flip(bad_out.get(0, 1, 4)));
        assert!(qr_checksum(&aug, &bad_out, &taus, 0, n) > tolerance(n));
        // …and so does a flipped tau, which a Gram-only screen misses.
        let mut bad_taus = taus.clone();
        bad_taus.set(0, 2, 0, flip(bad_taus.get(0, 2, 0)));
        assert!(qr_checksum(&aug, &out, &bad_taus, 0, n) > tolerance(n));
        assert!(gram_checksum(&aug, &out, 0, n) < tolerance(n));
    }

    #[test]
    fn cholesky_checksum_ignores_stale_upper_triangle() {
        let n = 8;
        // SPD via A = M Mᵀ + n I.
        let m0 = dd_mat(n, 3);
        let a = Mat::from_fn(n, n, |i, j| {
            (0..n).map(|k| m0[(i, k)] * m0[(j, k)]).sum::<f32>()
                + if i == j { n as f32 } else { 0.0 }
        });
        let mut f = a.clone();
        host::cholesky::cholesky_in_place(&mut f).unwrap();
        // Poison the strict upper triangle: the screen must not read it.
        let mut poisoned = f.clone();
        for i in 0..n {
            for j in i + 1..n {
                poisoned[(i, j)] = 1e30;
            }
        }
        let aug = MatBatch::replicate(&a, 1);
        let mut out = MatBatch::replicate(&poisoned, 1);
        let clean = cholesky_checksum(&aug, &out, 0, n);
        assert!(clean < tolerance(n), "clean defect {clean}");
        out.set(0, 5, 2, flip(out.get(0, 5, 2)));
        assert!(cholesky_checksum(&aug, &out, 0, n) > tolerance(n));
    }

    #[test]
    fn solve_residual_accepts_true_solution_and_catches_flip() {
        let n = 9;
        let a = dd_mat(n, 4);
        let x: Vec<f32> = (0..n).map(|i| (i as f32) / 3.0 - 1.0).collect();
        let mut aug = MatBatch::<f32>::zeros(n, n + 1, 1);
        let mut out = MatBatch::<f32>::zeros(n, n + 1, 1);
        for i in 0..n {
            let mut b = 0.0;
            for j in 0..n {
                aug.set(0, i, j, a[(i, j)]);
                b += a[(i, j)] * x[j];
            }
            aug.set(0, i, n, b);
            out.set(0, i, n, x[i]);
        }
        let clean = solve_residual(&aug, &out, 0, n);
        assert!(clean < tolerance(n), "clean residual {clean}");
        out.set(0, 4, n, flip(out.get(0, 4, n)));
        assert!(solve_residual(&aug, &out, 0, n) > tolerance(n));
    }

    #[test]
    fn screen_respects_executed_mask_and_existing_verdicts() {
        let n = 6;
        let a = dd_mat(n, 5);
        let mut f = a.clone();
        host::lu::lu_nopivot_in_place(&mut f).unwrap();
        let aug = MatBatch::replicate(&a, 3);
        let mut out = MatBatch::replicate(&f, 3);
        // Corrupt all three; mask out problem 1, pre-verdict problem 2.
        for p in 0..3 {
            out.set(p, 2, 3, flip(out.get(p, 2, 3)));
        }
        let mut status = vec![
            ProblemStatus::Ok,
            ProblemStatus::Ok,
            ProblemStatus::FaultDetected,
        ];
        let executed = [0..1, 2..3];
        let flagged = screen_problems(
            &aug,
            n,
            PtAlg::Lu,
            false,
            &out,
            None,
            &executed,
            &mut status,
            VerifyMode::Full,
            None,
        );
        assert_eq!(flagged, 1);
        assert!(matches!(
            status[0],
            ProblemStatus::VerifyFailed {
                screen: VerifyScreen::Checksum,
                ..
            }
        ));
        assert_eq!(status[1], ProblemStatus::Ok, "unexecuted: not screened");
        assert_eq!(status[2], ProblemStatus::FaultDetected);
        // Off mode is a strict no-op.
        let mut st2 = vec![ProblemStatus::Ok; 3];
        let f2 = screen_problems(
            &aug,
            n,
            PtAlg::Lu,
            false,
            &out,
            None,
            &executed,
            &mut st2,
            VerifyMode::Off,
            None,
        );
        assert_eq!(f2, 0);
        assert!(st2.iter().all(|s| s.is_ok()));
    }

    /// Chunks screened on several host threads give the statuses and
    /// norms of one thread, in problem order.
    #[test]
    fn verdicts_are_identical_at_every_thread_count() {
        let (n, count) = (6, 5 * CHUNK + 7);
        let a = dd_mat(n, 6);
        let mut f = a.clone();
        host::lu::lu_nopivot_in_place(&mut f).unwrap();
        let aug = MatBatch::replicate(&a, count);
        let mut out = MatBatch::replicate(&f, count);
        let mut before = vec![ProblemStatus::Ok; count];
        for p in (0..count).step_by(7) {
            out.set(p, p % n, (p / 7) % n, flip(out.get(p, p % n, (p / 7) % n)));
        }
        for p in (0..count).step_by(11) {
            before[p] = ProblemStatus::FaultDetected;
        }
        let executed = [0..2 * CHUNK + 3, 2 * CHUNK + 9..count];
        let screen = |threads| {
            let mut status = before.clone();
            let flagged = screen_problems(
                &aug,
                n,
                PtAlg::Lu,
                false,
                &out,
                None,
                &executed,
                &mut status,
                VerifyMode::Full,
                Some(threads),
            );
            (flagged, status)
        };
        let one = screen(1);
        assert!(one.0 > 2 * CHUNK / 7, "only {} flagged", one.0);
        for threads in [2, 3, 8] {
            assert_eq!(screen(threads), one, "at {threads} threads");
        }
    }
}
