//! The benchmark's one model-pricing function.

use regla_gpu_sim::GpuConfig;
use regla_model::{
    block_plan_with_threads, per_thread, predict_block_plan, tiled_panel_cycles, Approach,
    ModelParams, Plan, PlanKey,
};

/// Model-predicted device cycles for `batch` problems of `key`'s shape
/// dispatched with `plan`: the per-approach predictors that
/// `regla_model::plan_cycles` wraps, priced at the exact batch size rather
/// than `PlanKey`'s power-of-two bucket (which would price an 8 000-problem
/// batch as 4 096). `None` where the model has no price for the approach.
pub fn price_cycles(
    params: &ModelParams,
    cfg: &GpuConfig,
    key: &PlanKey,
    batch: usize,
    plan: &Plan,
) -> Option<f64> {
    let PlanKey {
        alg,
        m,
        n,
        rhs,
        elem_words: ew,
        ..
    } = *key;
    match plan.approach {
        Approach::PerThread if m == n => {
            Some(cfg.secs_to_cycles(per_thread::predicted_time_s(params, alg, n, batch, 4 * ew)))
        }
        Approach::PerBlock if m >= n => {
            let threads = plan.block_threads_for(m, n + rhs, ew);
            let bp = block_plan_with_threads(m, n, rhs, ew, threads);
            Some(predict_block_plan(params, cfg, alg, bp, batch).total_cycles)
        }
        Approach::Tiled if m >= n => Some(tiled_panel_cycles(
            params, cfg, m, n, rhs, ew, plan.panel, batch,
        )),
        _ => None,
    }
}
