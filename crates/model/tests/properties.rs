//! Property-based tests of the analytic model: monotonicity and
//! scale-consistency laws that any sane cost model must satisfy.

use proptest::prelude::*;
use regla_gpu_sim::{GpuConfig, MathMode};
use regla_model::{
    arithmetic_intensity, block_plan, heuristic_plan, per_block, per_thread, price, tau_global,
    tau_local, Algorithm, ModelParams, PlanKey,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn logp_terms_are_additive(
        m1 in 0.0f64..100.0, m2 in 0.0f64..100.0,
        b1 in 0.0f64..1e6, b2 in 0.0f64..1e6,
        f1 in 0.0f64..1e4, f2 in 0.0f64..1e4,
    ) {
        let p = ModelParams::table_iv();
        let a = tau_global(&p, m1, b1, f1) + tau_global(&p, m2, b2, f2);
        let c = tau_global(&p, m1 + m2, b1 + b2, f1 + f2);
        prop_assert!((a - c).abs() < 1e-6 * c.max(1.0));
    }

    #[test]
    fn tau_local_grows_with_thread_count(
        msgs in 0.0f64..100.0,
        syncs in 1.0f64..50.0,
        t1 in 32usize..512,
    ) {
        let p = ModelParams::table_iv();
        let small = tau_local(&p, msgs, syncs, 0.0, 0.0, t1);
        let big = tau_local(&p, msgs, syncs, 0.0, 0.0, t1 * 2);
        prop_assert!(big >= small);
    }

    #[test]
    fn flop_counts_scale_cubically(n in 2usize..64) {
        for alg in [Algorithm::GaussJordan, Algorithm::Lu, Algorithm::Qr, Algorithm::Cholesky] {
            let f1 = alg.flops(n, n);
            let f2 = alg.flops(2 * n, 2 * n);
            let ratio = f2 / f1;
            prop_assert!(
                (7.0..9.0).contains(&ratio),
                "{alg:?}: doubling n gave ratio {ratio}"
            );
            prop_assert_eq!(alg.flops_complex(n, n), 4.0 * f1);
        }
    }

    #[test]
    fn intensity_increases_with_n(n in 4usize..128) {
        let a = arithmetic_intensity(Algorithm::Qr, n, n, 4);
        let b = arithmetic_intensity(Algorithm::Qr, 2 * n, 2 * n, 4);
        prop_assert!(b > a);
    }

    #[test]
    fn per_thread_roofline_is_linear_in_bandwidth(n in 3usize..12) {
        let mut p = ModelParams::table_iv();
        let g1 = per_thread::predicted_gflops(&p, Algorithm::Lu, n, 4);
        p.beta_glb_gbs *= 2.0;
        let g2 = per_thread::predicted_gflops(&p, Algorithm::Lu, n, 4);
        prop_assert!((g2 / g1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn block_prediction_time_scales_with_batch(
        n in prop::sample::select(vec![16usize, 32, 48, 56]),
        batch in 112usize..2000,
    ) {
        let p = ModelParams::table_iv();
        let cfg = GpuConfig::quadro_6000();
        let t1 = per_block::predict_block(&p, &cfg, Algorithm::Qr, n, n, 0, 1, batch).time_s;
        let t2 = per_block::predict_block(&p, &cfg, Algorithm::Qr, n, n, 0, 1, 2 * batch).time_s;
        // Doubling the batch costs between 1.5x and 2.5x (wave quantisation).
        let r = t2 / t1;
        prop_assert!((1.4..2.6).contains(&r), "batch scaling ratio {r}");
    }

    #[test]
    fn compute_cycles_grow_with_n(n in 8usize..70) {
        let p = ModelParams::table_iv();
        let a = per_block::block_compute_cycles(&p, &block_plan(n, n, 0, 1), Algorithm::Qr, 8);
        let b = per_block::block_compute_cycles(
            &p,
            &block_plan(n + 8, n + 8, 0, 1),
            Algorithm::Qr,
            8,
        );
        prop_assert!(b > a);
    }

    #[test]
    fn slower_memory_never_speeds_predictions_up(n in 3usize..8) {
        let p = ModelParams::table_iv();
        let mut slow = p.clone();
        slow.beta_glb_gbs /= 2.0;
        let fast_t = per_thread::predicted_time_s(&p, Algorithm::Qr, n, 1000, 4);
        let slow_t = per_thread::predicted_time_s(&slow, Algorithm::Qr, n, 1000, 4);
        prop_assert!(slow_t > fast_t);
    }

    #[test]
    fn heuristic_plan_always_has_a_finite_positive_price(
        n in prop::sample::select(vec![4usize, 8, 16, 56, 96, 240, 1024]),
        batch in prop::sample::select(vec![1usize, 100, 10_000]),
    ) {
        let p = ModelParams::table_iv();
        let cfg = GpuConfig::quadro_6000();
        let key = PlanKey::new(Algorithm::Qr, n, n, 0, 1, batch, MathMode::Fast);
        let cycles = price(&p, &cfg, &key, &heuristic_plan(&key), batch);
        prop_assert!(cycles.is_some_and(|c| c.is_finite() && c > 0.0), "{cycles:?}");
    }
}
