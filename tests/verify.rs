//! End-to-end result verification: a silently corrupted factor — one the
//! simulated ECC/machine-check report never carries — sails through as
//! `Ok` with verification off (the pinned gap this layer closes), is
//! flagged `VerifyFailed` by the ABFT screens, and is re-solved by the
//! ordinary verification-gated recovery. The screens themselves are
//! strictly observational: outputs are bit-identical with verification on
//! and off.

use regla::core::{
    MatBatch, Op, ProblemStatus, RecoveryPolicy, RunOpts, Session, VerifyMode,
};
use regla::gpu_sim::{FaultKind, FaultPlan};
use regla::model::Approach;

fn dd_batch(n: usize, count: usize, seed: usize) -> MatBatch<f32> {
    MatBatch::from_fn(n, n, count, |k, i, j| {
        let h = ((k * 131 + i * 37 + j * 101 + seed) % 97) as f32 / 97.0;
        h + if i == j { n as f32 } else { 0.0 }
    })
}

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

/// One silent mantissa flip per faulted block on a per-block QR batch.
fn silent_opts(verify: VerifyMode, recovery: RecoveryPolicy) -> RunOpts {
    RunOpts::builder()
        .approach(Approach::PerBlock)
        .fault(FaultPlan::new(0x51_13_27, 12).kind(FaultKind::SilentFlip))
        .verify(verify)
        .recovery(recovery)
        .build()
        .unwrap()
}

/// Pinned regression: the exact failure mode this layer exists for. A
/// low-order mantissa flip in a QR factor is invisible to the fault
/// report (`LaunchStats::faults` stays empty, every verdict reads `Ok`)
/// until the checksum screens are turned on.
#[test]
fn silent_corruption_is_ok_without_verification_and_flagged_with_it() {
    let session = Session::new();
    let a = dd_batch(10, 96, 41);

    // Verification off, recovery off: the corruption lands and nothing
    // notices — the documented pre-verification gap.
    let blind = session
        .run_with(
            Op::Qr,
            &a,
            None,
            &silent_opts(VerifyMode::Off, RecoveryPolicy::off()),
        )
        .unwrap()
        .run;
    let silent: usize = blind
        .stats
        .launches
        .iter()
        .map(|l| l.silent_faults.len())
        .sum();
    let reported: usize = blind.stats.launches.iter().map(|l| l.faults.len()).sum();
    assert!(silent >= 8, "campaign fired only {silent} silent flips");
    assert_eq!(reported, 0, "silent flips must not reach the ECC report");
    assert!(
        blind.status.iter().all(|s| s.is_ok()),
        "without verification every corrupted problem still reads Ok"
    );
    assert_eq!(blind.recovery.verify_failures, 0);

    // Same seed, screens on, recovery still off: every silently faulted
    // block is flagged, and nothing else is.
    let screened = session
        .run_with(
            Op::Qr,
            &a,
            None,
            &silent_opts(VerifyMode::Full, RecoveryPolicy::off()),
        )
        .unwrap()
        .run;
    let faulted: Vec<usize> = screened
        .stats
        .launches
        .iter()
        .flat_map(|l| l.silent_faults.iter())
        .map(|f| f.block)
        .collect();
    assert!(!faulted.is_empty());
    for &p in &faulted {
        assert!(
            matches!(screened.status[p], ProblemStatus::VerifyFailed { .. }),
            "problem {p} carries a silent flip but reads {:?}",
            screened.status[p]
        );
    }
    for (p, s) in screened.status.iter().enumerate() {
        if !faulted.contains(&p) {
            assert!(s.is_ok(), "clean problem {p} was flagged: {s:?}");
        }
    }
    assert_eq!(screened.recovery.verify_failures, faulted.len() as u64);
    // `VerifyFailed` is not a settled verdict — that is what gates the
    // recovery path onto it.
    assert!(screened.status.iter().any(|s| !s.is_settled()));
}

/// With the default bounded policy, flagged problems ride the ordinary
/// retry machinery: the re-run is fault-free, passes the same screens,
/// and the accounting shows verification drove the recovery.
#[test]
fn verification_gated_recovery_resolves_flagged_problems() {
    let session = Session::new();
    let a = dd_batch(10, 96, 41);
    let run = session
        .run_with(
            Op::Qr,
            &a,
            None,
            &silent_opts(VerifyMode::Full, RecoveryPolicy::default()),
        )
        .unwrap()
        .run;
    assert!(run.recovery.verify_failures > 0, "campaign fired nothing");
    assert_eq!(run.recovery.verify_recovered, run.recovery.verify_failures);
    assert_eq!(run.recovery.unrecovered, 0);
    assert!(run.status.iter().all(|s| s.is_ok()));

    // Recovered factors are right, not merely re-stamped: the Gram
    // identity RᴴR = AᴴA holds for every problem a flip had tainted.
    for l in &run.stats.launches {
        for f in &l.silent_faults {
            let p = f.block;
            let r = regla::core::host::extract_r(&run.out.mat(p));
            let rtr = r.hermitian_transpose().matmul(&r);
            let ata = a.mat(p).hermitian_transpose().matmul(&a.mat(p));
            let rel = rtr.frob_dist(&ata) / ata.frob_norm();
            assert!(
                rel < 1e-3,
                "problem {p} recovered to a wrong factor (rel {rel:.2e})"
            );
        }
    }
}

/// The screens are strictly observational: on a clean batch, outputs and
/// verdicts are bit-identical whether verification is off, residual-only,
/// or full, and nothing is flagged.
#[test]
fn verification_is_bit_transparent_on_clean_runs() {
    let session = Session::new();
    let a = dd_batch(8, 64, 7);
    let b = MatBatch::from_fn(8, 2, 64, |k, i, j| ((k + i * 3 + j) % 11) as f32 - 5.0);
    for approach in [Approach::PerThread, Approach::PerBlock] {
        let run_at = |mode: VerifyMode| {
            let opts = RunOpts::builder()
                .approach(approach)
                .verify(mode)
                .build()
                .unwrap();
            session.run_with(Op::QrSolve, &a, Some(&b), &opts).unwrap().run
        };
        let off = run_at(VerifyMode::Off);
        for mode in [VerifyMode::Residual, VerifyMode::Checksum, VerifyMode::Full] {
            let on = run_at(mode);
            assert_eq!(
                bits(&off.out),
                bits(&on.out),
                "{approach:?}/{mode:?} perturbed the output bits"
            );
            assert_eq!(off.status, on.status);
            assert!(on.status.iter().all(|s| s.is_ok()));
        }
    }
}
