//! GPU-kernel correctness: every device path must agree with the host
//! reference implementations, for real and complex scalars, across the
//! per-thread, per-block (all three layouts) and tiled approaches.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regla_core::host;
use regla_core::{C32, Layout, MatBatch, Op, RunOpts, Session};
use regla_model::Approach;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn rand_f32_batch(r: &mut StdRng, m: usize, n: usize, count: usize, dd: bool) -> MatBatch<f32> {
    let mut b = MatBatch::from_fn(m, n, count, |_, _, _| r.random_range(-1.0f32..1.0));
    if dd {
        for k in 0..count {
            let mut mk = b.mat(k);
            mk.make_diagonally_dominant();
            b.set_mat(k, &mk);
        }
    }
    b
}

fn rand_c32_batch(r: &mut StdRng, m: usize, n: usize, count: usize, dd: bool) -> MatBatch<C32> {
    let mut b = MatBatch::from_fn(m, n, count, |_, _, _| {
        C32::new(r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0))
    });
    if dd {
        for k in 0..count {
            let mut mk = b.mat(k);
            mk.make_diagonally_dominant();
            b.set_mat(k, &mk);
        }
    }
    b
}

fn opts(approach: Approach) -> RunOpts {
    RunOpts::builder().approach(approach).build().unwrap()
}

/// Compare a device QR factorization against the host reference.
///
/// When the matrices are diagonally dominant the pivots stay far from the
/// sign boundary and both sides choose identical reflector signs, so the
/// packed factorizations can be compared elementwise. (On general random
/// matrices a pivot with tiny real part can flip sign under the 22-bit
/// fast-math arithmetic, flipping a whole column — harmless for solving,
/// enormous in Frobenius distance; those cases use
/// `assert_r_gram_matches` instead.)
fn assert_qr_matches_host<T: regla_core::DeviceScalar>(
    out: &MatBatch<T>,
    input: &MatBatch<T>,
    tol: f64,
) {
    for k in 0..input.count() {
        let mut f = input.mat(k);
        host::householder_qr_in_place(&mut f);
        let d = out.mat(k).frob_dist(&f);
        assert!(
            d < tol * f.frob_norm().max(1.0),
            "problem {k}: |device - host| = {d}"
        );
    }
}

/// Full self-consistency: rebuild Q from the device's own reflectors and
/// taus and verify Q·R reproduces the input.
fn assert_qr_reconstructs<T: regla_core::DeviceScalar>(
    run: &regla_core::BatchRun<T>,
    input: &MatBatch<T>,
    tol: f64,
) {
    let taus = run.taus.as_ref().expect("QR returns taus");
    for k in 0..input.count() {
        let f = run.out.mat(k);
        let tk: Vec<T> = (0..f.cols().min(f.rows())).map(|i| taus.get(k, i, 0)).collect();
        let q = host::form_q(&f, &tk);
        let r = host::extract_r(&f);
        let a = input.mat(k);
        let d = q.matmul(&r).frob_dist(&a);
        assert!(d < tol * a.frob_norm().max(1.0), "problem {k}: |QR - A| = {d}");
    }
}

/// Sign-convention-independent QR check: Q unitary implies RᴴR = AᴴA.
fn assert_r_gram_matches<T: regla_core::DeviceScalar>(
    out: &MatBatch<T>,
    input: &MatBatch<T>,
    tol: f64,
) {
    for k in 0..input.count() {
        let a = input.mat(k);
        let r = host::extract_r(&out.mat(k));
        let ata = a.hermitian_transpose().matmul(&a);
        let rtr = r.hermitian_transpose().matmul(&r);
        let d = rtr.frob_dist(&ata);
        assert!(
            d < tol * ata.frob_norm().max(1.0),
            "problem {k}: |R^H R - A^H A| = {d}"
        );
    }
}

#[test]
fn per_thread_lu_matches_host() {
    let session = Session::new();
    let mut r = rng(1);
    let a = rand_f32_batch(&mut r, 6, 6, 100, true);
    let run = session.run_with(Op::Lu, &a, None, &opts(Approach::PerThread)).unwrap().run;
    assert_eq!(run.approach, Approach::PerThread);
    for k in 0..a.count() {
        let mut f = a.mat(k);
        host::lu_nopivot_in_place(&mut f).unwrap();
        assert!(run.out.mat(k).frob_dist(&f) < 2e-4 * f.frob_norm());
    }
}

#[test]
fn per_thread_qr_matches_host() {
    let session = Session::new();
    let mut r = rng(2);
    let a = rand_f32_batch(&mut r, 7, 7, 64, false);
    let run = session.run_with(Op::Qr, &a, None, &opts(Approach::PerThread)).unwrap().run;
    assert_r_gram_matches(&run.out, &a, 1e-2);
    assert_qr_reconstructs(&run, &a, 1e-2);
}

#[test]
fn per_thread_gj_solves_systems() {
    let session = Session::new();
    let mut r = rng(3);
    let a = rand_f32_batch(&mut r, 6, 6, 50, true);
    let b = rand_f32_batch(&mut r, 6, 1, 50, false);
    let run = session.run_with(Op::GjSolve, &a, Some(&b), &opts(Approach::PerThread)).unwrap().run;
    for k in 0..a.count() {
        let x: Vec<f32> = (0..6).map(|i| run.out.get(k, i, 6)).collect();
        let bk: Vec<f32> = (0..6).map(|i| b.get(k, i, 0)).collect();
        let res = host::residual_norm(&a.mat(k), &x, &bk);
        assert!(res < 1e-3, "problem {k}: residual {res}");
    }
}

#[test]
fn per_block_lu_matches_host_2d() {
    let session = Session::new();
    let mut r = rng(4);
    let a = rand_f32_batch(&mut r, 24, 24, 6, true);
    let run = session.run_with(Op::Lu, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    assert_eq!(run.approach, Approach::PerBlock);
    for k in 0..a.count() {
        let mut f = a.mat(k);
        host::lu_nopivot_in_place(&mut f).unwrap();
        let d = run.out.mat(k).frob_dist(&f);
        assert!(d < 1e-3 * f.frob_norm(), "problem {k}: {d}");
    }
}

#[test]
fn per_block_qr_matches_host_2d() {
    let session = Session::new();
    let mut r = rng(5);
    let a = rand_f32_batch(&mut r, 24, 24, 5, false);
    let run = session.run_with(Op::Qr, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    assert_r_gram_matches(&run.out, &a, 1e-2);
    assert_qr_reconstructs(&run, &a, 1e-2);
}

#[test]
fn per_block_qr_tall_matrix() {
    let session = Session::new();
    let mut r = rng(6);
    let a = rand_f32_batch(&mut r, 40, 12, 4, false);
    let run = session.run_with(Op::Qr, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    assert_qr_matches_host(&run.out, &a, 2e-3);
}

#[test]
fn per_block_complex_qr_matches_host() {
    let session = Session::new();
    let mut r = rng(7);
    let a = rand_c32_batch(&mut r, 16, 16, 4, false);
    let run = session.run_with(Op::Qr, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    assert_qr_matches_host(&run.out, &a, 5e-3);
}

#[test]
fn per_block_gj_solves_2d() {
    let session = Session::new();
    let mut r = rng(8);
    let a = rand_f32_batch(&mut r, 20, 20, 4, true);
    let b = rand_f32_batch(&mut r, 20, 1, 4, false);
    let run = session.run_with(Op::GjSolve, &a, Some(&b), &opts(Approach::PerBlock)).unwrap().run;
    for k in 0..a.count() {
        let x: Vec<f32> = (0..20).map(|i| run.out.get(k, i, 20)).collect();
        let bk: Vec<f32> = (0..20).map(|i| b.get(k, i, 0)).collect();
        assert!(host::residual_norm(&a.mat(k), &x, &bk) < 1e-2);
    }
}

#[test]
fn per_block_qr_solve_2d() {
    let session = Session::new();
    let mut r = rng(9);
    let a = rand_f32_batch(&mut r, 24, 24, 4, true);
    let b = rand_f32_batch(&mut r, 24, 1, 4, false);
    let run = session.run_with(Op::QrSolve, &a, Some(&b), &opts(Approach::PerBlock)).unwrap().run;
    for k in 0..a.count() {
        let x: Vec<f32> = (0..24).map(|i| run.out.get(k, i, 24)).collect();
        let bk: Vec<f32> = (0..24).map(|i| b.get(k, i, 0)).collect();
        let res = host::residual_norm(&a.mat(k), &x, &bk);
        assert!(res < 1e-2, "problem {k}: residual {res}");
    }
}

#[test]
fn qr_solve_agrees_across_layouts() {
    // Figure 7's three layouts must all produce correct solutions.
    let session = Session::new();
    let mut r = rng(10);
    let a = rand_f32_batch(&mut r, 16, 16, 3, true);
    let b = rand_f32_batch(&mut r, 16, 1, 3, false);
    for layout in [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic] {
        let o = RunOpts::builder()
            .approach(Approach::PerBlock)
            .layout(layout)
            .build().unwrap();
        let run = session.run_with(Op::QrSolve, &a, Some(&b), &o).unwrap().run;
        for k in 0..a.count() {
            let x: Vec<f32> = (0..16).map(|i| run.out.get(k, i, 16)).collect();
            let bk: Vec<f32> = (0..16).map(|i| b.get(k, i, 0)).collect();
            let res = host::residual_norm(&a.mat(k), &x, &bk);
            assert!(res < 1e-2, "{layout:?} problem {k}: residual {res}");
        }
    }
}

#[test]
fn complex_gj_solves() {
    let session = Session::new();
    let mut r = rng(11);
    let a = rand_c32_batch(&mut r, 12, 12, 3, true);
    let b = rand_c32_batch(&mut r, 12, 1, 3, false);
    let run = session.run_with(Op::GjSolve, &a, Some(&b), &opts(Approach::PerBlock)).unwrap().run;
    for k in 0..a.count() {
        let x: Vec<C32> = (0..12).map(|i| run.out.get(k, i, 12)).collect();
        let bk: Vec<C32> = (0..12).map(|i| b.get(k, i, 0)).collect();
        assert!(host::residual_norm(&a.mat(k), &x, &bk) < 1e-2);
    }
}

#[test]
fn tiled_qr_matches_host_tall_real() {
    let session = Session::new();
    let mut r = rng(12);
    // Tall enough to need several panels but small enough to test quickly.
    let a = rand_f32_batch(&mut r, 60, 20, 2, false);
    let run = session.run_with(Op::Qr, &a, None, &opts(Approach::Tiled)).unwrap().run;
    for k in 0..a.count() {
        let mut f = a.mat(k);
        host::householder_qr_in_place(&mut f);
        // R must match in the upper triangle (the panel reflectors are
        // organised differently, so compare R only).
        for j in 0..20 {
            for i in 0..=j {
                let d = (run.out.get(k, i, j) - f[(i, j)]).abs();
                assert!(
                    d < 2e-3,
                    "problem {k} R({i},{j}): {} vs {}",
                    run.out.get(k, i, j),
                    f[(i, j)]
                );
            }
        }
    }
}

#[test]
fn tiled_least_squares_complex_radar_shape() {
    let session = Session::new();
    let mut r = rng(13);
    // A miniature 240x66-style problem: tall complex least squares.
    let a = rand_c32_batch(&mut r, 48, 12, 2, false);
    let b = rand_c32_batch(&mut r, 48, 1, 2, false);
    let o = RunOpts::builder().approach(Approach::Tiled).build().unwrap();
    let x = session.run_with(Op::LeastSquares, &a, Some(&b), &o).unwrap().solution.unwrap();
    for k in 0..a.count() {
        let bk: Vec<C32> = (0..48).map(|i| b.get(k, i, 0)).collect();
        let xk: Vec<C32> = (0..12).map(|i| x.get(k, i, 0)).collect();
        let href = host::least_squares(&a.mat(k), &bk);
        for (dev, hst) in xk.iter().zip(&href) {
            assert!((*dev - *hst).abs() < 5e-2, "{dev:?} vs {hst:?}");
        }
    }
}

#[test]
fn least_squares_per_block_tall() {
    let session = Session::new();
    let mut r = rng(14);
    let a = rand_f32_batch(&mut r, 32, 8, 4, false);
    let b = rand_f32_batch(&mut r, 32, 1, 4, false);
    let (_, x) = session.least_squares(&a, &b).unwrap();
    for k in 0..a.count() {
        let bk: Vec<f32> = (0..32).map(|i| b.get(k, i, 0)).collect();
        let xk: Vec<f32> = (0..8).map(|i| x.get(k, i, 0)).collect();
        let href = host::least_squares(&a.mat(k), &bk);
        for (dev, hst) in xk.iter().zip(&href) {
            assert!((dev - hst).abs() < 1e-2, "{dev} vs {hst}");
        }
    }
}

#[test]
fn gemm_batch_matches_host() {
    let session = Session::new();
    let mut r = rng(15);
    let a = rand_f32_batch(&mut r, 16, 12, 5, false);
    let b = rand_f32_batch(&mut r, 12, 10, 5, false);
    let run = session.run_with(Op::Gemm, &a, Some(&b), &RunOpts::default()).unwrap().run;
    for k in 0..a.count() {
        let c = a.mat(k).matmul(&b.mat(k));
        assert!(run.out.mat(k).frob_dist(&c) < 1e-3 * c.frob_norm());
    }
}

#[test]
fn gemm_complex_gmm_shape() {
    // The speech-recognition motivation: 79x16 complex-free multiplies —
    // here a smaller complex variant to exercise the complex path.
    let session = Session::new();
    let mut r = rng(16);
    let a = rand_c32_batch(&mut r, 20, 8, 3, false);
    let b = rand_c32_batch(&mut r, 8, 6, 3, false);
    let run = session.run_with(Op::Gemm, &a, Some(&b), &RunOpts::default()).unwrap().run;
    for k in 0..a.count() {
        let c = a.mat(k).matmul(&b.mat(k));
        assert!(run.out.mat(k).frob_dist(&c) < 1e-3 * c.frob_norm().max(1.0));
    }
}

#[test]
fn fast_math_error_is_bounded() {
    // --use_fast_math (22-bit reciprocal/sqrt) must stay close to precise.
    use regla_gpu_sim::MathMode;
    let session = Session::new();
    let mut r = rng(17);
    let a = rand_f32_batch(&mut r, 16, 16, 3, true);
    let b = rand_f32_batch(&mut r, 16, 1, 3, false);
    let solve = |math: MathMode| {
        let o = RunOpts::builder().math(math).approach(Approach::PerBlock).build().unwrap();
        session.run_with(Op::QrSolve, &a, Some(&b), &o).unwrap().run
    };
    let fast = solve(MathMode::Fast);
    let precise = solve(MathMode::Precise);
    let d = fast.out.max_frob_dist(&precise.out);
    assert!(d > 0.0, "fast math should differ in the low bits");
    assert!(d < 1e-3, "fast-math drift too large: {d}");
    // And precise mode must cost more cycles (the paper's ~30% penalty).
    assert!(precise.time_s() > fast.time_s());
}

#[test]
fn auto_dispatch_picks_sensible_approaches() {
    let session = Session::new();
    let mut r = rng(18);
    let small = rand_f32_batch(&mut r, 6, 6, 32, true);
    let run = session.run_with(Op::Lu, &small, None, &RunOpts::default()).unwrap().run;
    assert_eq!(run.approach, Approach::PerThread);
    let mid = rand_f32_batch(&mut r, 40, 40, 2, true);
    let run = session.run_with(Op::Lu, &mid, None, &RunOpts::default()).unwrap().run;
    assert_eq!(run.approach, Approach::PerBlock);
}

#[test]
fn invert_batch_produces_inverses() {
    let session = Session::new();
    let mut r = rng(30);
    let a = rand_f32_batch(&mut r, 12, 12, 3, true);
    let (inv, run) = session.invert(&a).unwrap();
    assert!(run.not_solved().iter().all(|&f| !f));
    for k in 0..3 {
        let prod = a.mat(k).matmul(&inv.mat(k));
        let eye = regla_core::Mat::<f32>::identity(12);
        let d = prod.frob_dist(&eye);
        assert!(d < 1e-2, "problem {k}: |A*inv(A) - I| = {d}");
    }
}

#[test]
fn gj_multi_rhs_solves_all_columns() {
    let session = Session::new();
    let mut r = rng(31);
    let a = rand_f32_batch(&mut r, 10, 10, 2, true);
    let b = rand_f32_batch(&mut r, 10, 3, 2, false);
    let run = session.run_with(Op::GjSolve, &a, Some(&b), &RunOpts::default()).unwrap().run;
    for k in 0..2 {
        for c in 0..3 {
            let x: Vec<f32> = (0..10).map(|i| run.out.get(k, i, 10 + c)).collect();
            let bc: Vec<f32> = (0..10).map(|i| b.get(k, i, c)).collect();
            let res = host::residual_norm(&a.mat(k), &x, &bc);
            assert!(res < 1e-2, "problem {k} rhs {c}: residual {res}");
        }
    }
}

#[test]
fn singularity_flags_fire_on_zero_pivot() {
    let session = Session::new();
    let mut a = MatBatch::<f32>::zeros(8, 8, 2);
    // Problem 0: permutation-like (zero pivot at k=0); problem 1: identity.
    for i in 0..8 {
        a.set(0, i, (i + 1) % 8, 1.0);
        a.set(1, i, i, 1.0);
    }
    let run = session.run_with(Op::Lu, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    assert!(run.not_solved()[0], "singular problem must raise the flag");
    assert!(!run.not_solved()[1], "identity must not raise the flag");
}

#[test]
fn tree_reduction_matches_serial_results() {
    let session = Session::new();
    let mut r = rng(32);
    let a = rand_f32_batch(&mut r, 20, 20, 3, true);
    let serial = session.run_with(Op::Qr, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    let tree_opts = RunOpts::builder()
        .approach(Approach::PerBlock)
        .tree_reduction(true)
        .build().unwrap();
    let tree = session.run_with(Op::Qr, &a, None, &tree_opts).unwrap().run;
    // Same algorithm, different summation order: results agree closely.
    let d = serial.out.max_frob_dist(&tree.out);
    assert!(d < 1e-2, "tree vs serial divergence {d}");
}

#[test]
fn listing7_lu_is_slower_but_equal() {
    let session = Session::new();
    let mut r = rng(33);
    let a = rand_f32_batch(&mut r, 24, 24, 2, true);
    let hoisted = session.run_with(Op::Lu, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    let l7_opts = RunOpts::builder()
        .approach(Approach::PerBlock)
        .lu_listing7(true)
        .build().unwrap();
    let l7 = session.run_with(Op::Lu, &a, None, &l7_opts).unwrap().run;
    assert_eq!(hoisted.out.max_frob_dist(&l7.out), 0.0, "identical math");
    assert!(
        l7.time_s() > hoisted.time_s(),
        "re-reading shared per FMA must cost more: {} vs {}",
        l7.time_s(),
        hoisted.time_s()
    );
}

#[test]
fn qr_solve_multi_rhs() {
    let session = Session::new();
    let mut r = rng(34);
    let a = rand_f32_batch(&mut r, 14, 14, 2, true);
    let b = rand_f32_batch(&mut r, 14, 2, 2, false);
    let run = session.run_with(Op::QrSolve, &a, Some(&b), &RunOpts::default()).unwrap().run;
    for k in 0..2 {
        for c in 0..2 {
            let x: Vec<f32> = (0..14).map(|i| run.out.get(k, i, 14 + c)).collect();
            let bc: Vec<f32> = (0..14).map(|i| b.get(k, i, c)).collect();
            let res = host::residual_norm(&a.mat(k), &x, &bc);
            assert!(res < 1e-2, "problem {k} rhs {c}: residual {res}");
        }
    }
}

fn spd_f32_batch(r: &mut StdRng, n: usize, count: usize) -> MatBatch<f32> {
    // A = B Bᵀ + n I per problem.
    let mut out = MatBatch::zeros(n, n, count);
    for k in 0..count {
        let b = regla_core::Mat::from_fn(n, n, |_, _| r.random_range(-1.0f32..1.0));
        let mut a = b.matmul(&b.hermitian_transpose());
        for i in 0..n {
            a[(i, i)] += n as f32;
        }
        out.set_mat(k, &a);
    }
    out
}

#[test]
fn per_thread_cholesky_matches_host() {
    let session = Session::new();
    let mut r = rng(40);
    let a = spd_f32_batch(&mut r, 6, 40);
    let run = session.run_with(Op::Cholesky, &a, None, &opts(Approach::PerThread)).unwrap().run;
    assert!(run.not_solved().is_empty() || run.not_solved().iter().all(|&f| !f));
    for k in 0..a.count() {
        let mut f = a.mat(k);
        host::cholesky_in_place(&mut f).unwrap();
        let dev_l = host::extract_l(&run.out.mat(k));
        let ref_l = host::extract_l(&f);
        assert!(dev_l.frob_dist(&ref_l) < 1e-3 * ref_l.frob_norm());
    }
}

#[test]
fn per_block_cholesky_reconstructs() {
    let session = Session::new();
    let mut r = rng(41);
    let a = spd_f32_batch(&mut r, 20, 4);
    let run = session.run_with(Op::Cholesky, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    for k in 0..a.count() {
        assert!(!run.not_solved()[k]);
        let l = host::extract_l(&run.out.mat(k));
        let llt = l.matmul(&l.hermitian_transpose());
        let d = llt.frob_dist(&a.mat(k));
        assert!(d < 1e-2 * a.mat(k).frob_norm(), "problem {k}: {d}");
    }
}

#[test]
fn per_block_cholesky_complex_hermitian() {
    let session = Session::new();
    let mut r = rng(42);
    let n = 12;
    let mut a = MatBatch::<C32>::zeros(n, n, 2);
    for k in 0..2 {
        let b = regla_core::Mat::from_fn(n, n, |_, _| {
            C32::new(r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0))
        });
        let mut h = b.matmul(&b.hermitian_transpose());
        for i in 0..n {
            h[(i, i)] += C32::new(2.0 * n as f32, 0.0);
        }
        a.set_mat(k, &h);
    }
    let run = session.run_with(Op::Cholesky, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    for k in 0..2 {
        let l = host::extract_l(&run.out.mat(k));
        let llh = l.matmul(&l.hermitian_transpose());
        let d = llh.frob_dist(&a.mat(k));
        assert!(d < 2e-2 * a.mat(k).frob_norm(), "problem {k}: {d}");
    }
}

#[test]
fn cholesky_flags_non_spd_problems() {
    let session = Session::new();
    let mut a = MatBatch::<f32>::zeros(8, 8, 2);
    for i in 0..8 {
        a.set(0, i, i, 1.0);
        a.set(1, i, i, if i == 3 { -1.0 } else { 1.0 });
    }
    let run = session.run_with(Op::Cholesky, &a, None, &opts(Approach::PerBlock)).unwrap().run;
    assert!(!run.not_solved()[0]);
    assert!(run.not_solved()[1], "indefinite problem must be flagged");
}

#[test]
fn tsqr_least_squares_matches_host() {
    let session = Session::new();
    let mut r = rng(50);
    // Tall enough for two stage-0 blocks plus a combine.
    let a = rand_f32_batch(&mut r, 72, 10, 3, false);
    let b = rand_f32_batch(&mut r, 72, 1, 3, false);
    let (x, stats) = session.tsqr_least_squares(&a, &b).unwrap();
    assert!(stats.launches.len() >= 4, "stage-0 blocks + combine + gather");
    for k in 0..3 {
        let bk: Vec<f32> = (0..72).map(|i| b.get(k, i, 0)).collect();
        let href = host::least_squares(&a.mat(k), &bk);
        for (dev, hst) in (0..10).map(|i| x.get(k, i, 0)).zip(&href) {
            assert!((dev - hst).abs() < 2e-2, "problem {k}: {dev} vs {hst}");
        }
    }
}

#[test]
fn tsqr_complex_radar_shape() {
    let session = Session::new();
    let mut r = rng(51);
    let a = rand_c32_batch(&mut r, 96, 12, 2, false);
    let b = rand_c32_batch(&mut r, 96, 1, 2, false);
    let (x, _) = session.tsqr_least_squares(&a, &b).unwrap();
    for k in 0..2 {
        let bk: Vec<C32> = (0..96).map(|i| b.get(k, i, 0)).collect();
        let href = host::least_squares(&a.mat(k), &bk);
        for (dev, hst) in (0..12).map(|i| x.get(k, i, 0)).zip(&href) {
            assert!((dev - *hst).abs() < 5e-2, "problem {k}: {dev:?} vs {hst:?}");
        }
    }
}

#[test]
fn tsqr_single_block_degenerates_to_per_block() {
    // m <= block height: one stage-0 factorization, then normalisation.
    let session = Session::new();
    let mut r = rng(52);
    let a = rand_f32_batch(&mut r, 16, 8, 2, false);
    let b = rand_f32_batch(&mut r, 16, 1, 2, false);
    let (x, _) = session.tsqr_least_squares(&a, &b).unwrap();
    for k in 0..2 {
        let bk: Vec<f32> = (0..16).map(|i| b.get(k, i, 0)).collect();
        let href = host::least_squares(&a.mat(k), &bk);
        for (dev, hst) in (0..8).map(|i| x.get(k, i, 0)).zip(&href) {
            assert!((dev - hst).abs() < 2e-2);
        }
    }
}

#[test]
fn global_level_qr_matches_host() {
    use regla_core::global_level::{global_level_qr, GlobalLevelOpts};
    use regla_core::per_block::SubMat;
    use regla_gpu_sim::GlobalMemory;
    let session = Session::new();
    let gpu = session.gpu();
    let mut r = rng(60);
    let a = rand_f32_batch(&mut r, 12, 12, 3, true);
    let mut gmem = GlobalMemory::new(a.words_per_mat() * 3 + 4096);
    let all = 0..3;
    let ptr = a.to_device(&mut gmem, std::slice::from_ref(&all));
    let opts = GlobalLevelOpts {
        exec: regla_gpu_sim::ExecMode::Full,
        ..Default::default()
    };
    let stats = global_level_qr::<regla_gpu_sim::Rv>(
        gpu, &mut gmem, SubMat::whole(ptr, 12, 12), 12, 12, 3, opts,
    )
    .unwrap();
    // 4 launches per column (minus the last column's updates).
    assert!(stats.launches.len() >= 40);
    let mut out = MatBatch::<f32>::zeros(12, 12, 3);
    out.copy_from_device(&gmem, ptr, std::slice::from_ref(&all));
    for k in 0..3 {
        let mut f = a.mat(k);
        host::householder_qr_in_place(&mut f);
        let am = a.mat(k);
        let r_dev = host::extract_r(&out.mat(k));
        let ata = am.hermitian_transpose().matmul(&am);
        let rtr = r_dev.hermitian_transpose().matmul(&r_dev);
        assert!(
            rtr.frob_dist(&ata) < 1e-2 * ata.frob_norm(),
            "problem {k}: global-level R wrong"
        );
    }
}

#[test]
fn streams_do_not_help_fine_grained_launches() {
    use regla_core::global_level::{global_level_qr, GlobalLevelOpts};
    use regla_core::per_block::SubMat;
    use regla_gpu_sim::GlobalMemory;
    let session = Session::new();
    let gpu = session.gpu();
    let mut r = rng(61);
    let a = rand_f32_batch(&mut r, 16, 16, 64, true);
    let run = |streams: usize| {
        let mut gmem = GlobalMemory::new(a.words_per_mat() * 64 + 8192);
        let ptr = a.to_device(&mut gmem, std::slice::from_ref(&(0..64)));
        let opts = GlobalLevelOpts {
            streams,
            ..Default::default()
        };
        global_level_qr::<regla_gpu_sim::Rv>(
            gpu, &mut gmem, SubMat::whole(ptr, 16, 16), 16, 16, 64, opts,
        )
        .unwrap()
        .time_s
    };
    // GF100's effective concurrency for this pattern is 1: the paper's
    // "no benefit from using multiple streams".
    assert_eq!(run(1), run(4));
}
