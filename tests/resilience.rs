//! Structured failure semantics, end to end: per-problem verdicts agree
//! with the CPU baseline across the execution paths, malformed inputs come
//! back as errors (never panics), and seeded fault-injection campaigns are
//! detected, recovered, and bit-reproducible.

use proptest::prelude::*;
use regla::core::{MatBatch, Op, ProblemStatus, RecoveryPolicy, ReglaError, RunOpts, Session};
use regla::cpu::{run_batch_status, CpuAlg};
use regla::gpu_sim::FaultPlan;
use regla::model::Approach;

fn dd_batch(n: usize, count: usize, seed: usize) -> MatBatch<f32> {
    MatBatch::from_fn(n, n, count, |k, i, j| {
        let h = ((k * 131 + i * 37 + j * 101 + seed) % 97) as f32 / 97.0;
        h + if i == j { n as f32 } else { 0.0 }
    })
}

fn raw(approach: Approach) -> RunOpts {
    RunOpts::builder()
        .approach(approach)
        .recovery(RecoveryPolicy::off())
        .build().unwrap()
}

/// Singular problems get the same `ZeroPivot` verdict — same column — from
/// the per-thread path, the per-block path, and the CPU baseline.
#[test]
fn singular_verdicts_match_cpu_baseline() {
    let session = Session::new();
    let n = 8;
    let count = 12;
    let mut a = dd_batch(n, count, 3);
    // Problem 2: zero pivot at column 0. Problem 7: the diagonal entry at
    // column 3 is zeroed on an otherwise diagonal problem, so elimination
    // reaches column 3 with a zero pivot.
    for j in 0..n {
        a.set(2, 0, j, 0.0);
        a.set(2, j, 0, 0.0);
        for i in 0..n {
            a.set(7, i, j, if i == j { 1.0 } else { 0.0 });
        }
    }
    a.set(7, 3, 3, 0.0);

    let (_, cpu_status) = run_batch_status(CpuAlg::LuNoPivot, &a, 2);
    assert_eq!(cpu_status[2], ProblemStatus::ZeroPivot { col: 0 });
    assert_eq!(cpu_status[7], ProblemStatus::ZeroPivot { col: 3 });

    for approach in [Approach::PerThread, Approach::PerBlock] {
        let run = session.run_with(Op::Lu, &a, None, &raw(approach)).unwrap().run;
        assert_eq!(
            run.status, cpu_status,
            "{approach:?} LU verdicts diverge from the CPU baseline"
        );
        assert!(run.not_solved()[2] && run.not_solved()[7]);
        assert!(run.status[0].is_ok());
    }

    // Cholesky reports the first non-positive-definite column the same way.
    let mut spd = MatBatch::from_fn(n, n, 4, |_, i, j| if i == j { 2.0 } else { 0.1 });
    spd.set(1, 4, 4, -3.0);
    let (_, cpu_chol) = run_batch_status(CpuAlg::Cholesky, &spd, 2);
    for approach in [Approach::PerThread, Approach::PerBlock] {
        let run = session.run_with(Op::Cholesky, &spd, None, &raw(approach)).unwrap().run;
        assert_eq!(
            run.status, cpu_chol,
            "{approach:?} Cholesky verdicts diverge from the CPU baseline"
        );
        assert_eq!(run.status[1], ProblemStatus::ZeroPivot { col: 4 });
    }
}

/// NaN/Inf-contaminated problems are flagged `NonFinite` by every path —
/// per-thread, per-block, and tiled — matching the CPU baseline's screen.
#[test]
fn nonfinite_verdicts_match_across_all_three_paths() {
    let session = Session::new();
    let n = 8;
    let count = 24;
    let mut a = dd_batch(n, count, 9);
    a.set(5, 1, 1, f32::NAN);
    a.set(17, 0, 3, f32::INFINITY);

    let (_, cpu_status) = run_batch_status(CpuAlg::Qr, &a, 2);
    assert_eq!(cpu_status[5], ProblemStatus::NonFinite);
    assert_eq!(cpu_status[17], ProblemStatus::NonFinite);

    for approach in [Approach::PerThread, Approach::PerBlock, Approach::Tiled] {
        let run = session.run_with(Op::Qr, &a, None, &raw(approach)).unwrap().run;
        assert_eq!(
            run.status, cpu_status,
            "{approach:?} QR verdicts diverge from the CPU baseline"
        );
    }
}

/// The bounded recovery policy repairs non-finite problems via the CPU
/// fallback only when asked, and reports what it did.
#[test]
fn recovery_policy_bounds_are_respected() {
    let session = Session::new();
    let mut a = dd_batch(6, 10, 1);
    a.set(4, 2, 2, f32::NAN);

    // Policy off: the verdict stays raw, nothing retried.
    let run = session.run_with(Op::Lu, &a, None, &raw(Approach::PerBlock)).unwrap().run;
    assert_eq!(run.status[4], ProblemStatus::NonFinite);
    assert_eq!(run.recovery.retried, 0);
    assert_eq!(run.recovery.fell_back, 0);

    // Default policy: a NaN input cannot be repaired by retrying or by the
    // host (the data itself is poisoned), so it ends unrecovered — but the
    // policy is bounded: exactly one retry and one fallback, no loops.
    let run = session
        .run_with(
            Op::Lu,
            &a,
            None,
            &RunOpts::builder().approach(Approach::PerBlock).build().unwrap(),
        )
        .unwrap()
        .run;
    assert_eq!(run.status[4], ProblemStatus::NonFinite);
    assert_eq!(run.recovery.retried, 1);
    assert_eq!(run.recovery.fell_back, 1);
    assert_eq!(run.recovery.recovered, 0);
    assert_eq!(run.recovery.unrecovered, 1);
    assert!(run.status.iter().enumerate().all(|(k, s)| k == 4 || s.is_ok()));
}

/// A seeded fault campaign over a per-block LU batch: every injected fault
/// is detected, every tainted problem is recovered (retry first, CPU
/// fallback as the backstop), and the whole run is bit-reproducible.
#[test]
fn fault_campaign_detects_and_recovers_everything() {
    let session = Session::new();
    let n = 10;
    let count = 192;
    let a = dd_batch(n, count, 77);
    let opts = RunOpts::builder()
        .approach(Approach::PerBlock)
        .fault(FaultPlan::new(0xFEED_BEEF, 24))
        .build().unwrap();

    let run = session.run_with(Op::Lu, &a, None, &opts).unwrap().run;

    // Detection: the simulator's fault report (per-launch ECC records) and
    // the recovery layer must agree — every applied fault was seen.
    let applied = run.stats.launches.iter().map(|l| l.faults.len() as u64).sum::<u64>();
    assert!(applied >= 20, "campaign applied only {applied} faults");
    assert_eq!(
        run.recovery.faults_detected, applied,
        "per-block launches map one block to one problem, so detected \
         problems must equal applied faults"
    );

    // Recovery: everything settled, nothing left tainted.
    assert_eq!(run.recovery.unrecovered, 0);
    assert_eq!(run.recovery.recovered, run.recovery.faults_detected);
    assert!(run.status.iter().all(|s| s.is_ok()));
    assert!(run.recovery.retried >= run.recovery.faults_detected);

    // Correctness of the recovered factors: L·U must reconstruct A for
    // every problem a fault had tainted.
    for l in &run.stats.launches {
        for f in &l.faults {
            let p = f.block;
            let fact = run.out.mat(p);
            let (lo, up) = regla::core::host::split_lu(&fact);
            let d = lo.matmul(&up).frob_dist(&a.mat(p));
            assert!(
                d < 1e-3 * a.mat(p).frob_norm(),
                "problem {p} recovered to a wrong factorization (dist {d})"
            );
        }
    }

    // Reproducibility: the same seed faults the same blocks and yields
    // bit-identical output and identical recovery accounting.
    let rerun = session.run_with(Op::Lu, &a, None, &opts).unwrap().run;
    let bits = |b: &MatBatch<f32>| -> Vec<u32> { b.data().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&run.out), bits(&rerun.out));
    assert_eq!(run.status, rerun.status);
    assert_eq!(run.recovery, rerun.recovery);
}

/// Malformed configurations come back as structured errors.
#[test]
fn malformed_inputs_are_structured_errors() {
    let session = Session::new();
    let a = dd_batch(6, 4, 0);

    // Non-perfect-square force_threads under the 2D layout — rejected at
    // build time, before any batch is uploaded.
    let err = RunOpts::builder().force_threads(7).build().unwrap_err();
    assert!(matches!(err, ReglaError::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains("perfect square"), "{err}");

    // Zero panel width on the tiled path.
    let err = RunOpts::builder().panel(0).build().unwrap_err();
    assert!(matches!(err, ReglaError::InvalidConfig(_)), "{err}");

    // Options assembled by direct field mutation still hit the same
    // validation at the entry points.
    let mut opts = RunOpts::default();
    opts.force_threads = Some(7);
    let err = session.run_with(Op::Qr, &a, None, &opts).unwrap_err();
    assert!(matches!(err, ReglaError::InvalidConfig(_)), "{err}");

    // Empty batch.
    let empty = MatBatch::<f32>::zeros(6, 6, 0);
    assert_eq!(
        session.lu(&empty).unwrap_err(),
        ReglaError::EmptyBatch
    );

    // Mismatched right-hand sides.
    let b = MatBatch::<f32>::zeros(5, 1, 4);
    let err = session.gj_solve(&a, &b).unwrap_err();
    assert!(matches!(err, ReglaError::DimensionMismatch(_)), "{err}");

    // Non-square systems where square is required.
    let rect = MatBatch::<f32>::zeros(6, 4, 2);
    let rhs = MatBatch::<f32>::zeros(6, 1, 2);
    let err = session.qr_solve(&rect, &rhs).unwrap_err();
    assert!(matches!(err, ReglaError::DimensionMismatch(_)), "{err}");

    // GEMM inner-dimension disagreement.
    let ga = MatBatch::<f32>::zeros(4, 5, 2);
    let gb = MatBatch::<f32>::zeros(6, 3, 2);
    let err = session.gemm(&ga, &gb).unwrap_err();
    assert!(matches!(err, ReglaError::DimensionMismatch(_)), "{err}");

    // Forced approaches the kernels cannot run, rejected before staging.
    let forced = |approach| RunOpts::builder().approach(approach).build().unwrap();
    let tall = MatBatch::<f32>::zeros(10, 8, 2);
    let err = session
        .run_with(Op::Qr, &tall, None, &forced(Approach::PerThread))
        .unwrap_err();
    assert!(matches!(err, ReglaError::DimensionMismatch(_)), "{err}");
    assert!(
        err.to_string()
            .contains("per-thread kernels handle square systems"),
        "{err}"
    );
    let wide = MatBatch::<f32>::zeros(6, 8, 2);
    let err = session
        .run_with(Op::Qr, &wide, None, &forced(Approach::Tiled))
        .unwrap_err();
    assert!(matches!(err, ReglaError::DimensionMismatch(_)), "{err}");
    assert!(
        err.to_string().contains("tiled QR needs a tall system"),
        "{err}"
    );
    let err = session
        .run_with(Op::Lu, &a, None, &forced(Approach::Hybrid))
        .unwrap_err();
    assert!(matches!(err, ReglaError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("hybrid"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No public entry point panics, whatever the dims and options thrown
    /// at it: every call resolves to `Ok` or a structured `ReglaError`.
    #[test]
    fn public_api_never_panics(
        n in 1usize..7,
        m in 1usize..9,
        count in 0usize..6,
        rhs_rows in 1usize..9,
        rhs_count in 0usize..6,
        ft in prop::sample::select(vec![None, Some(0usize), Some(7), Some(16), Some(64)]),
        panel in 0usize..3,
        approach in prop::sample::select(vec![
            None,
            Some(Approach::PerThread),
            Some(Approach::PerBlock),
            Some(Approach::Tiled),
            Some(Approach::Hybrid),
        ]),
    ) {
        let session = Session::new();
        let a = MatBatch::<f32>::from_fn(m, n, count, |k, i, j| {
            ((k * 7 + i * 3 + j) % 5) as f32 - 1.0 + if i == j { 4.0 } else { 0.0 }
        });
        let b = MatBatch::<f32>::from_fn(rhs_rows, 1, rhs_count, |_, i, _| i as f32);
        // Invalid knob combinations (zero panel, non-square thread
        // counts) surface as structured errors at build time; everything
        // buildable must then run every op without panicking. Outcomes
        // (Ok or Err) are irrelevant here; the property is the absence of
        // panics on any input.
        if let Ok(opts) = RunOpts::builder()
            .approach(approach)
            .force_threads(ft)
            .panel(panel)
            .build()
        {
            for op in [
                Op::Qr,
                Op::Lu,
                Op::Cholesky,
                Op::GjSolve,
                Op::QrSolve,
                Op::LeastSquares,
                Op::Gemm,
                Op::Invert,
            ] {
                let rhs = if op.needs_rhs() { Some(&b) } else { None };
                let _ = session.run_with(op, &a, rhs, &opts);
            }
            let _ = session.tsqr_least_squares_with(&a, &b, &opts);
        }
    }
}
