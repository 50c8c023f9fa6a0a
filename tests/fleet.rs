//! Multi-device fleet semantics, end to end: a single-device no-chaos
//! fleet is bit-identical to a plain `Session`; a chaos-killed device's
//! campaign is bit-identical and telemetry-identical across host-thread
//! counts and the fast/slow simulator paths; unservable configurations
//! fail with structured errors instead of hanging; the CPU pool matches
//! the regla-cpu baseline bit for bit; shares follow the price of the plan
//! that runs, or the slowest approach's when the model cannot price it;
//! and model-derived deadlines leave a healthy fleet alone.

use proptest::prelude::*;
use regla::core::{
    ChaosPlan, Fleet, FleetPolicy, FleetRun, Layout, Mat, MatBatch, Op, RecoveryStats, ReglaError,
    RunOpts, Session, C32,
};
use regla::cpu::{run_batch_status, CpuAlg};
use regla::gpu_sim::{ExecMode, GpuConfig};
use regla::model::{Algorithm, Approach, PlanKey};

fn dd_batch(n: usize, count: usize, seed: usize) -> MatBatch<f32> {
    MatBatch::from_fn(n, n, count, |k, i, j| {
        let h = ((k * 131 + i * 37 + j * 101 + seed) % 97) as f32 / 97.0;
        h + if i == j { n as f32 } else { 0.0 }
    })
}

fn bits(b: &MatBatch<f32>) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

/// Run a two-device campaign where the chaos plan kills device 1, at a
/// given host-thread count and engine path. Returns everything the
/// campaign is supposed to keep invariant.
fn killed_device_campaign(
    op: Op,
    a: &MatBatch<f32>,
    b: Option<&MatBatch<f32>>,
    host_threads: usize,
    slow_path: bool,
) -> (FleetRun<f32>, RecoveryStats) {
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200())
        .opts(
            RunOpts::builder()
                .host_threads(host_threads)
                .slow_path(slow_path)
                .build().unwrap(),
        )
        // Several dispatches per device, so device 1 dies mid-run (on its
        // second) instead of after its whole share.
        .policy(FleetPolicy {
            chunks_per_device: 4,
            ..FleetPolicy::default()
        })
        .chaos(ChaosPlan::new(0xDEAD).device_death(1, 1).fault_storm(0, 1, 2, 4))
        .build()
        .unwrap();
    let run = fleet.run(op, a, b).unwrap();
    let rec = run.output.run.recovery;
    (run, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A chaos campaign that kills a device mid-run produces bit-identical
    /// outputs and identical RecoveryStats at 1, 2 and 8 host threads and
    /// on both the fast and instrumented-slow simulator paths.
    #[test]
    fn killed_device_campaign_is_deterministic_across_engines(
        n in 5usize..10,
        count in prop::sample::select(vec![40usize, 96, 130]),
        seed in 0usize..400,
        op in prop::sample::select(vec![Op::Qr, Op::Lu, Op::GjSolve]),
    ) {
        let a = dd_batch(n, count, seed);
        let b = op.needs_rhs().then(|| {
            MatBatch::from_fn(n, 1, count, |k, i, _| ((k + i + seed) % 11) as f32 * 0.25 + 1.0)
        });
        let (r1, rec1) = killed_device_campaign(op, &a, b.as_ref(), 1, false);
        prop_assert!(r1.output.run.status.iter().all(|s| s.is_ok()));
        prop_assert!(
            rec1.device_failovers + r1.report.cpu_pool_chunks as u64 > 0,
            "the killed device's work went nowhere"
        );
        for (threads, slow) in [(2, false), (8, false), (1, true), (8, true)] {
            let (r2, rec2) = killed_device_campaign(op, &a, b.as_ref(), threads, slow);
            prop_assert_eq!(
                bits(&r1.output.run.out),
                bits(&r2.output.run.out),
                "outputs differ at host_threads={} slow_path={}",
                threads,
                slow
            );
            prop_assert_eq!(&r1.output.run.status, &r2.output.run.status);
            prop_assert_eq!(rec1, rec2, "recovery stats differ at host_threads={} slow_path={}", threads, slow);
            prop_assert_eq!(&r1.report, &r2.report);
        }
    }
}

#[test]
fn single_device_fleet_is_bit_identical_to_session() {
    let cfg = GpuConfig::quadro_6000();
    let session = Session::with_config(cfg.clone());
    let fleet = Fleet::builder().device(cfg).build().unwrap();
    for (op, n, count) in [(Op::Qr, 9, 135), (Op::Lu, 7, 64), (Op::Invert, 6, 50)] {
        let a = dd_batch(n, count, 17);
        let want = session.run(op, &a, None).unwrap();
        let got = fleet.run(op, &a, None).unwrap();
        assert_eq!(bits(&got.output.run.out), bits(&want.run.out), "{op:?} out");
        assert_eq!(got.output.run.status, want.run.status, "{op:?} status");
        match (&got.output.run.taus, &want.run.taus) {
            (Some(g), Some(w)) => assert_eq!(bits(g), bits(w), "{op:?} taus"),
            (None, None) => {}
            _ => panic!("{op:?}: taus presence differs"),
        }
        match (&got.output.solution, &want.solution) {
            (Some(g), Some(w)) => assert_eq!(bits(g), bits(w), "{op:?} solution"),
            (None, None) => {}
            _ => panic!("{op:?}: solution presence differs"),
        }
        assert_eq!(got.output.run.recovery, want.run.recovery, "{op:?} recovery");
    }
}

/// The fleet's CPU pool and the regla-cpu baseline run one host solve. A
/// fleet whose only device dies at its first dispatch degrades the whole
/// batch to the pool, whose outputs then match `run_batch_status` bit for
/// bit, NaNs included, with equal verdicts, on a batch that holds one
/// singular and one NaN problem.
#[test]
fn cpu_pool_matches_the_cpu_baseline_bit_for_bit() {
    let (n, count) = (6, 12);
    let mut a = dd_batch(n, count, 3);
    a.set_mat(4, &Mat::zeros(n, n));
    let mut nan = a.mat(7);
    nan[(3, 2)] = f32::NAN;
    a.set_mat(7, &nan);
    let b = MatBatch::from_fn(n, 1, count, |k, i, _| ((k + i) % 5) as f32 - 2.0);
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .chaos(ChaosPlan::new(1).device_death(0, 0))
        .build()
        .unwrap();
    for (op, alg) in [
        (Op::Lu, CpuAlg::LuNoPivot),
        (Op::Qr, CpuAlg::Qr),
        (Op::GjSolve, CpuAlg::GjSolve),
        (Op::QrSolve, CpuAlg::QrSolve),
        (Op::Cholesky, CpuAlg::Cholesky),
    ] {
        let rhs = op.needs_rhs().then_some(&b);
        let run = fleet.run(op, &a, rhs).unwrap();
        assert_eq!(run.report.cpu_pool_chunks, run.report.chunks, "{op:?}");
        let system = rhs.map_or_else(|| a.clone(), |b| MatBatch::augment(&a, b));
        let (want, status) = run_batch_status(alg, &system, 1);
        assert!(status.iter().any(|s| !s.is_ok()), "{op:?}: {status:?}");
        assert_eq!(bits(&run.output.run.out), bits(&want), "{op:?} out");
        assert_eq!(run.output.run.status, status, "{op:?} status");
    }
}

#[test]
fn zero_devices_and_unservable_fleets_fail_structurally() {
    assert!(matches!(
        Fleet::builder().build(),
        Err(ReglaError::FleetUnavailable(_))
    ));

    // Every device dead from dispatch 0 and no CPU pool: the run must
    // return (not hang, not panic) with a structured error.
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::quadro_6000_dual_copy())
        .policy(FleetPolicy {
            cpu_pool: false,
            ..FleetPolicy::default()
        })
        .chaos(ChaosPlan::new(3).device_death(0, 0).device_death(1, 0))
        .build()
        .unwrap();
    let a = dd_batch(6, 24, 5);
    match fleet.run(Op::Lu, &a, None) {
        Err(ReglaError::FleetUnavailable(msg)) => {
            assert!(msg.contains("failed on every device"), "msg = {msg}");
        }
        other => panic!("expected FleetUnavailable, got {other:?}"),
    }

    // Same campaign with the CPU pool on: everything still gets solved.
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::quadro_6000_dual_copy())
        .chaos(ChaosPlan::new(3).device_death(0, 0).device_death(1, 0))
        .build()
        .unwrap();
    let run = fleet.run(Op::Lu, &a, None).unwrap();
    assert!(run.output.run.status.iter().all(|s| s.is_ok()));
    assert_eq!(run.output.run.recovery.cpu_degraded, 24);
}

#[test]
fn deadline_misses_surface_as_structured_launch_errors() {
    // An impossibly tight deadline on a session run surfaces the
    // structured launch error (the fleet turns these into failovers).
    let session = Session::new();
    let a = dd_batch(8, 32, 9);
    let opts = RunOpts::builder().deadline_cycles(1).build().unwrap();
    match session.run_with(Op::Lu, &a, None, &opts) {
        Err(ReglaError::Launch(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("deadline exceeded"), "msg = {msg}");
        }
        other => panic!("expected a deadline launch error, got {other:?}"),
    }
}

/// Shares follow the price of the plan the run resolves, not of the
/// approach the model rates cheapest: with per-block forced, 6x6 LU splits
/// about 1 : 2 between a Quadro 6000 and a GT200 (a per-thread price would
/// split it about evenly).
#[test]
fn fleet_shares_price_the_plan_the_run_resolves() {
    let opts = RunOpts::builder()
        .approach(Approach::PerBlock)
        .exec(ExecMode::Representative)
        .build()
        .unwrap();
    let fleet = Fleet::builder()
        .device(GpuConfig::quadro_6000())
        .device(GpuConfig::gt200())
        .opts(opts.clone())
        .build()
        .unwrap();
    let count = 4096;
    let run = fleet.run(Op::Lu, &dd_batch(6, count, 3), None).unwrap();
    assert_eq!(run.output.run.approach, Approach::PerBlock);
    let rates: Vec<f64> = fleet
        .sessions()
        .map(|s| {
            let cycles = s.price::<f32>(Op::Lu, 6, 6, 0, count, &opts).unwrap();
            1.0 / s.config().cycles_to_secs(cycles)
        })
        .collect();
    let planned: Vec<usize> = run
        .report
        .devices
        .iter()
        .map(|d| d.planned_problems)
        .collect();
    // Over two devices, the largest-remainder split rounds device 0's
    // exact share (half goes to the lower index).
    let share0 = (count as f64 * rates[0] / (rates[0] + rates[1])).round() as usize;
    assert_eq!(planned, [share0, count - share0]);
    assert!(2 * planned[1] > 3 * planned[0], "planned = {planned:?}");
}

/// A plan the model cannot price (LU 8x8 under a forced 1D layout) weighs
/// each device at the slowest device approach's price on its own clock:
/// here per-block at its default 2D layout, so the batch splits as it
/// does without the forced layout, about 1 : 2 between a Quadro 6000 and
/// a GT200, not evenly. Plans and the model's pricing conditions do not
/// depend on the device, so a plan prices on every device of a fleet or
/// on none; GEMM, which no approach prices, still splits evenly.
#[test]
fn unpriceable_plans_share_by_the_device_envelope() {
    let opts = |layout| {
        RunOpts::builder()
            .layout(layout)
            .exec(ExecMode::Representative)
            .build()
            .unwrap()
    };
    let fleet = |opts: &RunOpts| {
        Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .opts(opts.clone())
            .build()
            .unwrap()
    };
    let count = 4096;
    let (a, b) = (dd_batch(8, count, 5), dd_batch(8, count, 6));
    let planned = |fleet: &Fleet, op, b: Option<&MatBatch<f32>>| -> Vec<usize> {
        let run = fleet.run(op, &a, b).unwrap();
        run.report
            .devices
            .iter()
            .map(|d| d.planned_problems)
            .collect()
    };
    let (row, two_d) = (opts(Layout::RowCyclic), opts(Layout::TwoDCyclic));
    let (row_fleet, two_d_fleet) = (fleet(&row), fleet(&two_d));
    for s in row_fleet.sessions() {
        assert_eq!(s.price::<f32>(Op::Lu, 8, 8, 0, count, &row), None);
        let key = PlanKey::new(Algorithm::Lu, 8, 8, 0, 1, count, row.math);
        let device =
            regla::model::worst_price(s.params(), s.config(), &key, &Approach::DEVICE, count);
        let priced = s.price_or_worst::<f32>(Op::Lu, 8, 8, 0, count, &row);
        assert_eq!(priced, device);
        assert_eq!(priced, s.price::<f32>(Op::Lu, 8, 8, 0, count, &two_d));
    }
    let split = planned(&row_fleet, Op::Lu, None);
    assert_eq!(split, planned(&two_d_fleet, Op::Lu, None));
    assert!(2 * split[1] > 3 * split[0], "planned = {split:?}");
    assert_eq!(
        planned(&row_fleet, Op::Gemm, Some(&b)),
        [count / 2, count / 2]
    );
}

/// DESIGN §12's envelope: a deadline armed at the slowest approach's
/// price times the slack never fires on a healthy fleet, for the shapes
/// that serve, the chaos campaign, the pipeline experiment and STAP run.
#[test]
fn deadline_envelope_never_fires_on_a_healthy_fleet() {
    let fleet = |slack| {
        Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .opts(
                RunOpts::builder()
                    .exec(ExecMode::Representative)
                    .build()
                    .unwrap(),
            )
            .policy(FleetPolicy {
                deadline_slack: Some(slack),
                ..FleetPolicy::default()
            })
            .build()
            .unwrap()
    };
    let healthy_fleet = fleet(4.0);
    let healthy = |what: String, rec: RecoveryStats| {
        assert_eq!(rec.deadline_misses, 0, "{what}: {rec:?}");
        assert_eq!(rec.cpu_degraded, 0, "{what}: {rec:?}");
    };

    // (op, n, rhs, count): serve's traffic, the chaos campaign's chunks,
    // and the pipeline experiment's cases.
    let mut cases = Vec::new();
    for count in [8, 16, 32, 64, 128] {
        cases.extend([
            (Op::Lu, 8, 0, count),
            (Op::Qr, 10, 0, count),
            (Op::GjSolve, 8, 1, count),
        ]);
    }
    cases.extend([(Op::Qr, 8, 0, 4096), (Op::Lu, 8, 0, 4096)]);
    cases.extend([
        (Op::Qr, 32, 0, 4096),
        (Op::Qr, 56, 0, 2016),
        (Op::GjSolve, 16, 1, 4096),
    ]);
    for (op, n, rhs, count) in cases {
        let a = dd_batch(n, count, n);
        let b = (rhs > 0).then(|| MatBatch::from_fn(n, rhs, count, |k, i, _| ((k + i) % 7) as f32));
        let run = healthy_fleet.run(op, &a, b.as_ref()).unwrap();
        healthy(
            format!("{op:?} {n}x{n}+{rhs} x{count}"),
            run.output.run.recovery,
        );
    }

    // STAP's complex QR shapes: per-block, then tiled twice.
    for (m, n) in [(80, 16), (240, 66), (192, 96)] {
        let a = MatBatch::from_fn(m, n, 128, |k, i, j| {
            let h = ((k * 31 + i * 7 + j * 13) % 17) as f32 / 17.0;
            C32::new(h + if i == j { m as f32 } else { 0.0 }, 0.5 - h)
        });
        let run = healthy_fleet.run(Op::Qr, &a, None).unwrap();
        healthy(format!("complex QR {m}x{n} x128"), run.output.run.recovery);
    }

    // The envelope is armed: a thousandth of it is blown.
    let run = fleet(1e-3).run(Op::Lu, &dd_batch(8, 64, 8), None).unwrap();
    assert!(
        run.output.run.recovery.deadline_misses > 0,
        "{:?}",
        run.output.run.recovery
    );
}
