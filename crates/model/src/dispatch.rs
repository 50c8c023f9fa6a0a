//! The model's one cost oracle: [`price`] turns a dispatch [`Plan`] for a
//! [`PlanKey`] into predicted device cycles at an exact batch size.
//!
//! It covers the design space of Figure 10: one problem per thread for
//! register-resident sizes, one problem per block up to the register-file
//! capacity of a block, the sequential tiled QR beyond it, and the hybrid
//! CPU+GPU library for single large factorizations. The tuner ranks its
//! candidate plans with it, fleet deadlines take its slowest approach,
//! and `regla-core`'s `Session::price` prices the plan a run resolves for
//! fleet shares, serve admission and the pipeline estimate.

use crate::intensity::{bytes_moved, Algorithm};
use crate::params::ModelParams;
use crate::per_block::{block_compute_cycles, predict_block_plan};
use crate::plan::{
    block_plan, block_plan_with_threads, thread_plan, Approach, Layout, Plan, PlanKey,
    PER_BLOCK_MAX_DECLARED_REGS,
};
use regla_gpu_sim::{occupancy, GpuConfig};

/// Cycle estimate for the sequential panel tiled QR `regla-core`
/// launches: per panel, a per-block factor kernel over the `prows x pw`
/// panel, then a reflector-apply kernel over the trailing columns.
#[allow(clippy::too_many_arguments)]
pub fn tiled_panel_cycles(
    p: &ModelParams,
    cfg: &GpuConfig,
    m: usize,
    n: usize,
    rhs: usize,
    elem_words: usize,
    panel: usize,
    batch: usize,
) -> f64 {
    let cols = n + rhs;
    let mut total = 0.0;
    let mut j0 = 0;
    while j0 < n {
        let pw = panel.min(n - j0);
        let prows = m - j0;
        let plan = block_plan(prows, pw, 0, elem_words);
        let occ = occupancy(
            cfg,
            plan.threads,
            plan.regs_per_thread.min(cfg.max_regs_per_thread),
            plan.shared_words * 4,
        );
        let bpw = (occ.blocks_per_sm * cfg.num_sms).max(1);
        let waves = (batch as f64 / bpw as f64).ceil();
        let wave_blocks = bpw.min(batch) as f64;
        let factor = block_compute_cycles(p, &plan, Algorithm::Qr, occ.blocks_per_sm);
        let panel_bytes = 2.0 * (prows * pw * elem_words * 4) as f64;
        total += (factor + panel_bytes * wave_blocks / p.glb_bytes_per_cycle()) * waves;
        let tcols = cols - (j0 + pw);
        if tcols > 0 {
            // Applying pw reflectors to tcols trailing columns does
            // ~2·prows·pw·tcols FLOPs against the factor's ~2·prows·pw²,
            // on the same layout and sync cadence.
            let apply = factor * 1.5 * tcols as f64 / pw as f64;
            let apply_bytes = 2.0 * (prows * (pw + tcols) * elem_words * 4) as f64;
            total += (apply + apply_bytes * wave_blocks / p.glb_bytes_per_cycle()) * waves;
        }
        j0 += pw;
    }
    total
}

/// Predicted cycles, on `cfg`'s clock, for dispatching `batch` problems of
/// `key`'s shape with `plan`. The batch is taken as given, not as
/// `key`'s power-of-two bucket, so 8 000 problems are not priced as
/// 4 096. `None` when the model cannot price the combination: an approach
/// infeasible for the shape, or a 1D layout, which only the simulator can
/// judge.
pub fn price(
    p: &ModelParams,
    cfg: &GpuConfig,
    key: &PlanKey,
    plan: &Plan,
    batch: usize,
) -> Option<f64> {
    let PlanKey {
        alg,
        m,
        n,
        rhs,
        elem_words,
        ..
    } = *key;
    match plan.approach {
        Approach::PerThread => {
            if m != n {
                return None;
            }
            // The paper's per-thread model is bandwidth-bound and assumes
            // a register-resident matrix. Moderate spill (the n = 8
            // regime, where Figure 4 still has per-thread winning) is
            // priced with a local-traffic penalty proportional to the
            // spilled fraction so the tuner can rank it and let the
            // simulator arbitrate; past 2x the register budget the spill
            // traffic dominates and the plan is not priced at all.
            let tp = thread_plan(n, rhs, elem_words);
            let budget = 64.0;
            let over = tp.regs_per_thread as f64 - budget;
            if over > budget {
                return None;
            }
            let penalty = 1.0 + over.max(0.0) / budget;
            // Figure 4's bandwidth bound (`per_thread::predicted_time_s`),
            // with the key's carried columns: an `[A | I]` inversion or a
            // multi-column solve moves all of them, not the one column
            // the algorithm alone implies.
            let bytes = bytes_moved(n, n, rhs, 4 * elem_words) * batch as f64;
            let t = bytes / (p.beta_glb_gbs * 1e9) * penalty;
            Some(cfg.secs_to_cycles(t))
        }
        Approach::PerBlock => {
            if m < n || plan.layout != Layout::TwoDCyclic {
                return None;
            }
            let threads = plan.block_threads_for(m, n + rhs, elem_words);
            let bp = block_plan_with_threads(m, n, rhs, elem_words, threads);
            if bp.regs_per_thread > PER_BLOCK_MAX_DECLARED_REGS {
                return None;
            }
            let pred = predict_block_plan(p, cfg, alg, bp, batch);
            Some(cfg.secs_to_cycles(pred.time_s))
        }
        Approach::Tiled => {
            if m < n
                || !matches!(
                    alg,
                    Algorithm::Qr | Algorithm::LeastSquares | Algorithm::QrSolve
                )
            {
                return None;
            }
            if plan.panel == 0 {
                return None;
            }
            Some(tiled_panel_cycles(
                p, cfg, m, n, rhs, elem_words, plan.panel, batch,
            ))
        }
        Approach::Hybrid => {
            // A coarse asymptotic model of a MAGMA-class library: one
            // problem at a time, GEMM-bound for large n and CPU-bound
            // under its 96-wide panel, plus each problem's PCIe round
            // trip.
            let flops = match elem_words {
                2 => alg.flops_complex(m, n),
                _ => alg.flops(m, n),
            };
            let rate_gflops = if n < 96 {
                5.0
            } else {
                let nn = n as f64;
                450.0 * nn / (nn + 700.0)
            };
            let xfer = 2.0 * (m * (n + rhs) * elem_words * 4) as f64 / (cfg.pcie_gbs * 1e9)
                + 2.0 * cfg.pcie_latency_us * 1e-6;
            let t = batch as f64 * (flops / (rate_gflops * 1e9) + xfer);
            Some(cfg.secs_to_cycles(t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regla_gpu_sim::MathMode;

    fn setup() -> (ModelParams, GpuConfig) {
        (ModelParams::table_iv(), GpuConfig::quadro_6000())
    }

    /// The approach `price` rates cheapest for a batch of `key`'s shape.
    fn cheapest(key: &PlanKey, batch: usize) -> Approach {
        let (p, cfg) = setup();
        Approach::ALL
            .into_iter()
            .filter_map(|a| price(&p, &cfg, key, &Plan::new(a), batch).map(|c| (a, c)))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("hybrid is always priced")
            .0
    }

    #[test]
    fn prices_rank_the_figure_10_design_space() {
        let cases = [
            (Algorithm::Lu, 6, 6, 1, 64000, Approach::PerThread),
            (Algorithm::Qr, 56, 56, 1, 8000, Approach::PerBlock),
            (Algorithm::Qr, 240, 66, 2, 128, Approach::Tiled),
            (Algorithm::Qr, 4096, 4096, 1, 1, Approach::Hybrid),
        ];
        for (alg, m, n, ew, batch, want) in cases {
            let key = PlanKey::new(alg, m, n, 0, ew, batch, MathMode::Fast);
            assert_eq!(cheapest(&key, batch), want, "{alg:?} {m}x{n} x{batch}");
        }
    }

    #[test]
    fn price_covers_the_feasible_space() {
        let (p, cfg) = setup();
        let key = PlanKey::new(Algorithm::Qr, 56, 56, 0, 1, 8192, MathMode::Fast);
        let at = |plan: Plan| price(&p, &cfg, &key, &plan, 8192);
        let pb64 = at(Plan::new(Approach::PerBlock)).unwrap();
        let pb256 = at(Plan::new(Approach::PerBlock).with_threads(256)).unwrap();
        assert!(pb64 > 0.0 && pb256 > 0.0);
        assert_ne!(pb64, pb256, "the thread knob changes the estimate");
        // 56x56 is not register-resident per thread, and 1D layouts are
        // left to the simulator.
        assert!(at(Plan::new(Approach::PerThread)).is_none());
        assert!(at(Plan::new(Approach::PerBlock).with_layout(Layout::RowCyclic)).is_none());
        // The hybrid library prices every shape.
        assert!(at(Plan::new(Approach::Hybrid)).unwrap() > pb64);
        // Tiled pricing responds to the panel-width knob.
        let kt = PlanKey::new(Algorithm::Qr, 240, 66, 0, 2, 128, MathMode::Fast);
        let t16 = price(&p, &cfg, &kt, &Plan::new(Approach::Tiled), 128).unwrap();
        let t8 = price(
            &p,
            &cfg,
            &kt,
            &Plan::new(Approach::Tiled).with_panel(8),
            128,
        )
        .unwrap();
        assert!(t16 > 0.0 && t8 > 0.0 && t16 != t8);
    }

    /// The per-thread arm prices the key's carried columns: `[A | I]`
    /// carries n of them. Per-thread Invert 8×8 (140 registers, past
    /// twice the 64-register budget) is unpriced, so the test takes 7×7,
    /// the largest priced: it costs (7 + 7) / (7 + 1) times a GJ solve's
    /// traffic under its own spill penalty. LU, QR and GJ with one
    /// right-hand side keep Figure 4's estimate bit for bit.
    #[test]
    fn per_thread_prices_the_carried_columns() {
        let (p, cfg) = setup();
        let batch = 4096;
        let plan = Plan::new(Approach::PerThread);
        let at = |alg, n, rhs| {
            let key = PlanKey::new(alg, n, n, rhs, 1, batch, MathMode::Fast);
            price(&p, &cfg, &key, &plan, batch)
        };
        assert!(at(Algorithm::GaussJordan, 8, 8).is_none());
        let invert = at(Algorithm::GaussJordan, 7, 7).unwrap();
        let solve = at(Algorithm::GaussJordan, 7, 1).unwrap();
        let penalty = |rhs| {
            let regs = thread_plan(7, rhs, 1).regs_per_thread as f64;
            1.0 + (regs - 64.0).max(0.0) / 64.0
        };
        let want = (14.0 / 8.0) * penalty(7) / penalty(1);
        assert!((invert / solve - want).abs() < 1e-9 * want, "{invert} vs {solve}");
        for (alg, n, rhs) in [
            (Algorithm::Lu, 4, 0),
            (Algorithm::Qr, 4, 0),
            (Algorithm::GaussJordan, 4, 1),
        ] {
            let figure_4 = crate::per_thread::predicted_time_s(&p, alg, n, batch, 4);
            assert_eq!(at(alg, n, rhs), Some(cfg.secs_to_cycles(figure_4)), "{alg:?}");
        }
    }

    #[test]
    fn price_is_taken_at_the_exact_batch() {
        let (p, cfg) = setup();
        let key = PlanKey::new(Algorithm::Lu, 8, 8, 0, 1, 8000, MathMode::Fast);
        assert_eq!(key.batch(), 4096);
        for a in [Approach::PerBlock, Approach::Hybrid] {
            let plan = Plan::new(a);
            let bucket = price(&p, &cfg, &key, &plan, key.batch()).unwrap();
            let exact = price(&p, &cfg, &key, &plan, 8000).unwrap();
            assert!(exact > 1.5 * bucket, "{a:?}: {exact} vs {bucket}");
        }
    }
}
