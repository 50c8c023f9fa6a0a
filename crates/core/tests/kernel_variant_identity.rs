//! Value-domain identity for the kernel variants the random sweeps in
//! `fast_slow_identity.rs` never reach.
//!
//! Every register kernel has one body that runs in a tracked domain (the
//! scoreboarded instrumented path) or a plain one (the observer-free fast
//! path on replay blocks). Each case below runs a default launch and the
//! same launch with `slow_path(true)`, and compares the exact bits of the
//! outputs, taus, solutions, statuses and per-launch modeled cycles. Every
//! batch spans at least two blocks, so replay blocks run in both legs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regla_core::{
    DeviceScalar, Layout, MatBatch, Op, OpOutput, RunOpts, RunOptsBuilder, Session, C32,
};
use regla_gpu_sim::MathMode;
use regla_model::Approach;

#[derive(Debug, PartialEq)]
struct Fingerprint {
    out: Vec<u32>,
    taus: Option<Vec<u32>>,
    solution: Option<Vec<u32>>,
    status: Vec<regla_core::ProblemStatus>,
    cycles: Vec<u64>,
}

fn bits<T: DeviceScalar>(b: &MatBatch<T>) -> Vec<u32> {
    b.data()
        .iter()
        .flat_map(|x| x.to_words()[..T::WORDS].to_vec())
        .map(f32::to_bits)
        .collect()
}

fn fingerprint<T: DeviceScalar>(o: &OpOutput<T>) -> Fingerprint {
    Fingerprint {
        out: bits(&o.run.out),
        taus: o.run.taus.as_ref().map(bits),
        solution: o.solution.as_ref().map(bits),
        status: o.run.status.clone(),
        cycles: o
            .run
            .stats
            .launches
            .iter()
            .map(|l| l.cycles.to_bits())
            .collect(),
    }
}

fn rand_batch(seed: u64, m: usize, n: usize, count: usize) -> MatBatch<f32> {
    let mut r = StdRng::seed_from_u64(seed);
    MatBatch::from_fn(m, n, count, |_, _, _| r.random_range(-1.0f32..1.0))
}

/// Diagonally dominant (so LU/GJ pivots stay away from zero) and, being
/// symmetric, SPD for Cholesky.
fn spd_batch(seed: u64, n: usize, count: usize) -> MatBatch<f32> {
    let m = rand_batch(seed, n, n, count);
    MatBatch::from_fn(n, n, count, |k, i, j| {
        let s = 0.5 * (m.get(k, i, j) + m.get(k, j, i));
        if i == j {
            s + n as f32
        } else {
            s
        }
    })
}

/// Inputs for `op` at `n x n` (rhs where the op needs one).
fn inputs(op: Op, n: usize, count: usize, seed: u64) -> (MatBatch<f32>, Option<MatBatch<f32>>) {
    let a = match op {
        Op::Cholesky | Op::Lu | Op::GjSolve => spd_batch(seed, n, count),
        _ => rand_batch(seed, n, n, count),
    };
    let b = match op {
        Op::GjSolve => Some(rand_batch(seed + 1, n, 2, count)),
        Op::QrSolve => Some(rand_batch(seed + 1, n, 1, count)),
        _ => None,
    };
    (a, b)
}

/// Run `op` with the options `opts` builds, once by default and once on
/// the instrumented path, and assert the two runs agree bit for bit.
fn assert_identical<T: DeviceScalar>(
    what: &str,
    op: Op,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
    opts: impl Fn() -> RunOptsBuilder,
) {
    let run = |o: RunOpts| {
        let out = Session::builder()
            .opts(o)
            .build()
            .run(op, a, b)
            .expect(what);
        let fast: Vec<bool> = out.run.stats.launches.iter().map(|l| l.sim_fast).collect();
        (fingerprint(&out), fast)
    };
    let (default, fast) = run(opts().build().unwrap());
    let (slow, slow_fast) = run(opts().slow_path(true).build().unwrap());
    assert!(!default.cycles.is_empty(), "{what}: no launch ran");
    assert!(
        fast.iter().all(|&f| f),
        "{what}: the default run must take the fast path"
    );
    assert!(
        !slow_fast.iter().any(|&f| f),
        "{what}: slow_path must be instrumented"
    );
    assert_eq!(default, slow, "{what}: default and slow-path runs differ");
}

#[test]
fn forced_per_block_kernels_under_every_layout() {
    let ops = [Op::Lu, Op::Qr, Op::QrSolve, Op::GjSolve, Op::Cholesky];
    for layout in [Layout::TwoDCyclic, Layout::RowCyclic, Layout::ColCyclic] {
        for (i, op) in ops.into_iter().enumerate() {
            let (a, b) = inputs(op, 10, 3, 100 + i as u64);
            assert_identical(&format!("{op:?} {layout:?}"), op, &a, b.as_ref(), || {
                RunOpts::builder()
                    .approach(Approach::PerBlock)
                    .layout(layout)
            });
        }
    }
}

#[test]
fn tree_reduction_and_listing7_variants() {
    for op in [Op::Qr, Op::QrSolve] {
        let (a, b) = inputs(op, 12, 3, 200);
        assert_identical(&format!("{op:?} tree"), op, &a, b.as_ref(), || {
            RunOpts::builder()
                .approach(Approach::PerBlock)
                .layout(Layout::TwoDCyclic)
                .tree_reduction(true)
        });
    }
    let (a, _) = inputs(Op::Lu, 12, 3, 201);
    assert_identical("Lu listing7", Op::Lu, &a, None, || {
        RunOpts::builder()
            .approach(Approach::PerBlock)
            .lu_listing7(true)
    });
}

#[test]
fn precise_math_mode() {
    let ops = [Op::Lu, Op::Qr, Op::QrSolve, Op::GjSolve, Op::Cholesky];
    for approach in [Approach::PerThread, Approach::PerBlock] {
        for (i, op) in ops.into_iter().enumerate() {
            // Per-thread blocks hold 64 problems: 70 spans two of them.
            let count = if approach == Approach::PerThread {
                70
            } else {
                3
            };
            let (a, b) = inputs(op, 6, count, 300 + i as u64);
            assert_identical(
                &format!("{op:?} {approach:?} precise"),
                op,
                &a,
                b.as_ref(),
                || {
                    RunOpts::builder()
                        .approach(approach)
                        .math(MathMode::Precise)
                },
            );
        }
    }
}

#[test]
fn tiled_qr_apply_and_gemm_kernels() {
    // Panel QR plus the reflector-apply kernel on the trailing columns.
    let a = rand_batch(400, 24, 12, 3);
    assert_identical("tiled Qr", Op::Qr, &a, None, || {
        RunOpts::builder().approach(Approach::Tiled).panel(4)
    });
    let b = rand_batch(401, 24, 1, 3);
    assert_identical("tiled LeastSquares", Op::LeastSquares, &a, Some(&b), || {
        RunOpts::builder().approach(Approach::Tiled).panel(4)
    });
    // The per-block GEMM kernel.
    let x = rand_batch(402, 9, 7, 3);
    let y = rand_batch(403, 7, 11, 3);
    assert_identical("Gemm", Op::Gemm, &x, Some(&y), RunOpts::builder);
}

#[test]
fn tsqr_least_squares_is_identical() {
    let a = rand_batch(500, 48, 6, 3);
    let b = rand_batch(501, 48, 1, 3);
    let run = |slow: bool| {
        let opts = RunOpts::builder().slow_path(slow).build().unwrap();
        let (x, ml) = Session::builder()
            .opts(opts)
            .build()
            .tsqr_least_squares(&a, &b)
            .expect("tsqr runs");
        let cycles: Vec<u64> = ml.launches.iter().map(|l| l.cycles.to_bits()).collect();
        (bits(&x), cycles)
    };
    let (default, slow) = (run(false), run(true));
    assert!(!default.1.is_empty());
    assert_eq!(default, slow);
}

#[test]
fn complex_per_block_qr_at_stap_shape() {
    let mut r = StdRng::seed_from_u64(600);
    let a = MatBatch::from_fn(80, 16, 2, |_, _, _| {
        C32::new(r.random_range(-1.0f32..1.0), r.random_range(-1.0f32..1.0))
    });
    assert_identical("complex Qr 80x16", Op::Qr, &a, None, || {
        RunOpts::builder().approach(Approach::PerBlock)
    });
}
