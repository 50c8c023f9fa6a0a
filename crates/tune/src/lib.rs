//! # regla-tune — model-driven autotuner for the dispatch-[`Plan`] API
//!
//! The paper dispatches with two hand-entered thresholds: per-thread while
//! the matrix fits one thread's registers, per-block while the declared
//! registers stay under the spill ceiling, and the 64/256 thread rule at
//! 81 tile words. This crate *derives* those decisions instead:
//!
//! 1. **Enumerate** the mapping x layout x thread-count x panel x
//!    chunk/stream design space for a [`PlanKey`] (Figure 10's axes, plus
//!    the knobs the paper fixed by hand);
//! 2. **Rank** every candidate by model-predicted cycles at the key's
//!    representative batch ([`regla_model::price`]) — candidates the
//!    model cannot price (1D layouts on the per-block path) are pruned,
//!    exactly as Figure 7 prunes them empirically, and the hybrid library
//!    is not enumerated at all (it is no device plan);
//! 3. **Validate** the top-k survivors in the fast-path simulator (the
//!    observer-free [`regla_core::Session`] path) on a capped
//!    representative batch;
//! 4. **Emit** a serializable [`DecisionTable`] mapping each key to the
//!    winning plan plus the cycle estimates that justified it.
//!
//! The emitted table is consulted at dispatch via
//! `RunOpts::builder().planner(Planner::Table(..))`; keys it does not
//! cover fall back to the paper's heuristic, so a partial table is always
//! safe. Tuned per-block entries pin their thread count explicitly
//! (`threads: Some(..)`), so the 64/256 rule is replaced by a derived,
//! per-key threshold.
//!
//! ```
//! use regla_gpu_sim::{GpuConfig, MathMode};
//! use regla_model::{Algorithm, ModelParams, PlanKey, Planner};
//! use regla_tune::Tuner;
//! use std::sync::Arc;
//!
//! let tuner = Tuner::new(ModelParams::table_iv(), GpuConfig::quadro_6000());
//! let key = PlanKey::new(Algorithm::Qr, 24, 24, 0, 1, 64, MathMode::Fast);
//! let outcome = tuner.tune([key]);
//! assert_eq!(outcome.table.len(), 1);
//! let planner = Planner::Table(Arc::new(outcome.table));
//! ```

#![forbid(unsafe_code)]

use regla_core::{MatBatch, Op, RunOpts, Session, C32};
use regla_gpu_sim::GpuConfig;
use regla_model::{
    block_threads, price, Algorithm, Approach, DecisionTable, Layout, ModelParams, Plan, PlanKey,
    TableEntry,
};

/// The candidate axes the tuner sweeps. [`TuneSpace::default`] covers the
/// paper's design space; [`TuneSpace::fast`] is a reduced grid for smoke
/// runs and CI (`REGLA_FAST=1`).
#[derive(Clone, Debug)]
pub struct TuneSpace {
    /// Explicit per-block 2D-cyclic thread counts to sweep (perfect
    /// squares), in addition to the 64/256-rule default.
    pub thread_counts: Vec<usize>,
    /// Register layouts to enumerate for the per-block mapping. The 1D
    /// layouts are enumerated but priced out by the model (Figure 7); they
    /// stay in the space so a future pricing rule can resurrect them.
    pub layouts: Vec<Layout>,
    /// Tiled-path panel widths to sweep.
    pub panels: Vec<usize>,
    /// Advisory (chunks, streams) pipeline hints. The model prices them
    /// identically (they reshape the dispatch, not the kernels), so ties
    /// resolve to the first listed pair — keep `(1, 1)` first.
    pub pipeline: Vec<(usize, usize)>,
    /// How many distinct execution shapes to validate in the simulator.
    pub top_k: usize,
    /// Probe-batch ceiling for simulator validation: keys bucketed at
    /// larger batches are probed at this size (relative ranking is what
    /// matters, and the fast path is linear in the batch).
    pub validate_batch_cap: usize,
}

impl Default for TuneSpace {
    fn default() -> Self {
        TuneSpace {
            thread_counts: vec![16, 64, 144, 256],
            layouts: Layout::ALL.to_vec(),
            panels: vec![8, 16, 24, 32],
            pipeline: vec![(1, 1), (4, 2)],
            top_k: 5,
            validate_batch_cap: 32,
        }
    }
}

impl TuneSpace {
    /// Reduced grid for smoke runs: two thread counts, two panels, top-2
    /// validation on tiny probe batches.
    pub fn fast() -> Self {
        TuneSpace {
            thread_counts: vec![64, 256],
            layouts: vec![Layout::TwoDCyclic],
            panels: vec![8, 16],
            pipeline: vec![(1, 1)],
            top_k: 2,
            validate_batch_cap: 8,
        }
    }
}

/// A model-priced candidate, in rank order.
#[derive(Clone, Copy, Debug)]
pub struct Ranked {
    pub plan: Plan,
    pub predicted_cycles: f64,
}

/// A candidate after (attempted) simulator validation. `simulated_cycles`
/// is `None` when the probe could not run (the dispatch layer rejected the
/// plan for this shape, or the approach is model-only).
#[derive(Clone, Copy, Debug)]
pub struct Evaluated {
    pub plan: Plan,
    pub predicted_cycles: Option<f64>,
    pub simulated_cycles: Option<f64>,
}

/// Everything the tuner learned about one key: the full model ranking, the
/// validated top-k, and the chosen table entry.
#[derive(Clone, Debug)]
pub struct KeyReport {
    pub key: PlanKey,
    pub ranked: Vec<Ranked>,
    pub validated: Vec<Evaluated>,
    pub entry: TableEntry,
}

/// The result of a tuning sweep: the decision table plus per-key reports.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub table: DecisionTable,
    pub reports: Vec<KeyReport>,
}

/// Enumerate the feasible design space for `key`: every (mapping, layout,
/// thread count, panel, pipeline hint) combination the dispatch layer
/// could execute. Infeasibility that depends only on the key's shape is
/// pruned here; per-candidate feasibility (register ceilings) is what the
/// model's pricing enforces.
pub fn enumerate_plans(key: &PlanKey, space: &TuneSpace) -> Vec<Plan> {
    let mut plans = Vec::new();
    let tall = key.m >= key.n;
    let tiled_alg = matches!(
        key.alg,
        Algorithm::Qr | Algorithm::LeastSquares | Algorithm::QrSolve
    );
    for &(chunks, streams) in &space.pipeline {
        if key.m == key.n {
            plans.push(Plan::new(Approach::PerThread).with_pipeline(chunks, streams));
        }
        if tall {
            for &l in &space.layouts {
                let base = Plan::new(Approach::PerBlock)
                    .with_layout(l)
                    .with_pipeline(chunks, streams);
                plans.push(base);
                if l == Layout::TwoDCyclic {
                    for &t in &space.thread_counts {
                        plans.push(base.with_threads(t));
                    }
                }
            }
        }
        if tall && tiled_alg {
            for &pw in &space.panels {
                plans.push(
                    Plan::new(Approach::Tiled)
                        .with_panel(pw)
                        .with_pipeline(chunks, streams),
                );
            }
        }
    }
    plans
}

/// Price the enumerated space for `key` and return it sorted by predicted
/// cycles (ascending). Candidates the model cannot price are dropped; the
/// sort is stable, so ties keep enumeration order (simplest hint first).
pub fn rank_plans(
    params: &ModelParams,
    cfg: &GpuConfig,
    key: &PlanKey,
    space: &TuneSpace,
) -> Vec<Ranked> {
    let mut ranked: Vec<Ranked> = enumerate_plans(key, space)
        .into_iter()
        .filter_map(|plan| {
            price(params, cfg, key, &plan, key.batch()).map(|predicted_cycles| Ranked {
                plan,
                predicted_cycles,
            })
        })
        .collect();
    ranked.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));
    ranked
}

/// The fields of a plan that change what the device actually executes for
/// `key`. Pipeline hints are advisory, thread overrides are resolved to
/// their effective per-block count (so `threads: None` and an explicit
/// count matching the 64/256 rule collapse), and the panel width only
/// matters on the tiled path — candidates that launch the same kernels
/// are validated once.
fn exec_shape(key: &PlanKey, p: &Plan) -> (Approach, Layout, usize, usize) {
    let threads = match p.approach {
        Approach::PerBlock => p.block_threads_for(key.m, key.n + key.rhs, key.elem_words),
        _ => 0,
    };
    let panel = if p.approach == Approach::Tiled { p.panel } else { 0 };
    (p.approach, p.layout, threads, panel)
}

/// Model-driven autotuner: enumerates, ranks, validates and emits
/// [`DecisionTable`]s for one device configuration.
#[derive(Clone, Debug)]
pub struct Tuner {
    params: ModelParams,
    cfg: GpuConfig,
    space: TuneSpace,
    session: Session,
}

impl Tuner {
    pub fn new(params: ModelParams, cfg: GpuConfig) -> Self {
        Tuner {
            params,
            cfg: cfg.clone(),
            space: TuneSpace::default(),
            session: Session::with_config(cfg),
        }
    }

    pub fn with_space(mut self, space: TuneSpace) -> Self {
        self.space = space;
        self
    }

    pub fn space(&self) -> &TuneSpace {
        &self.space
    }

    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Probe one concrete plan for `key` in the fast-path simulator and
    /// return its modeled cycle count, or `None` when the dispatch layer
    /// cannot run the plan for this shape. The probe batch is
    /// deterministic and capped at [`TuneSpace::validate_batch_cap`].
    pub fn simulate_plan(&self, key: &PlanKey, plan: &Plan) -> Option<f64> {
        let count = key.batch().min(self.space.validate_batch_cap).max(1);
        let opts = RunOpts::builder()
            .plan(*plan)
            .math(key.math)
            .build()
            .ok()?;
        let (op, rhs_cols) = op_for(key.alg, key.rhs);
        let time_s = match key.elem_words {
            1 => self.probe::<f32>(key, op, rhs_cols, count, &opts),
            2 => self.probe::<C32>(key, op, rhs_cols, count, &opts),
            _ => None,
        }?;
        Some(self.cfg.secs_to_cycles(time_s))
    }

    fn probe<T: ProbeScalar>(
        &self,
        key: &PlanKey,
        op: Op,
        rhs_cols: usize,
        count: usize,
        opts: &RunOpts,
    ) -> Option<f64> {
        let spd = key.alg == Algorithm::Cholesky;
        let a = T::probe_batch(key.m, key.n, count, spd);
        let b = (rhs_cols > 0).then(|| T::probe_batch(key.m, rhs_cols, count, false));
        let out = self.session.run_with(op, &a, b.as_ref(), opts).ok()?;
        Some(out.run.time_s())
    }

    /// Tune one key: rank the space, validate the top-k distinct execution
    /// shapes, choose the simulated winner (model order breaks the tie
    /// when no probe ran). Returns `None` when the model can price nothing
    /// for the key (no device-executable approach).
    pub fn tune_key(&self, key: &PlanKey) -> Option<KeyReport> {
        let ranked = rank_plans(&self.params, &self.cfg, key, &self.space);
        let first = ranked.first()?;

        let mut validated: Vec<Evaluated> = Vec::new();
        let mut seen: Vec<(Approach, Layout, usize, usize)> = Vec::new();
        for r in &ranked {
            if validated.len() >= self.space.top_k.max(1) {
                break;
            }
            let shape = exec_shape(key, &r.plan);
            if seen.contains(&shape) {
                continue;
            }
            seen.push(shape);
            validated.push(Evaluated {
                plan: r.plan,
                predicted_cycles: Some(r.predicted_cycles),
                simulated_cycles: self.simulate_plan(key, &r.plan),
            });
        }

        let best = validated
            .iter()
            .filter(|v| v.simulated_cycles.is_some())
            .min_by(|a, b| {
                a.simulated_cycles
                    .unwrap()
                    .total_cmp(&b.simulated_cycles.unwrap())
            })
            .copied()
            .unwrap_or(Evaluated {
                plan: first.plan,
                predicted_cycles: Some(first.predicted_cycles),
                simulated_cycles: None,
            });

        let entry = TableEntry {
            plan: self.materialize(key, best.plan),
            predicted_cycles: best.predicted_cycles.unwrap_or(f64::INFINITY),
            simulated_cycles: best.simulated_cycles,
        };
        Some(KeyReport {
            key: *key,
            ranked,
            validated,
            entry,
        })
    }

    /// Pin the derived thread count into a chosen per-block plan so the
    /// emitted table replaces the 64/256 rule with an explicit, per-key
    /// threshold (dispatch-identical, but self-describing).
    fn materialize(&self, key: &PlanKey, mut plan: Plan) -> Plan {
        if plan.approach == Approach::PerBlock
            && plan.layout == Layout::TwoDCyclic
            && plan.threads.is_none()
        {
            plan.threads = Some(block_threads(key.m, key.n + key.rhs, key.elem_words));
        }
        plan
    }

    /// Tune every key and emit the decision table (device-stamped with
    /// this tuner's config name) plus the per-key reports.
    pub fn tune(&self, keys: impl IntoIterator<Item = PlanKey>) -> TuneOutcome {
        let mut table = DecisionTable::new(self.cfg.name);
        let mut reports = Vec::new();
        for key in keys {
            if let Some(r) = self.tune_key(&key) {
                table.insert(key, r.entry);
                reports.push(r);
            }
        }
        TuneOutcome { table, reports }
    }

    /// Simulate *every* distinct execution shape in the enumerated space
    /// for `key` — the exhaustive baseline a regret measurement compares
    /// the model's pick against. Unpriceable plans are probed too (the
    /// model's blind spots are exactly what regret must catch).
    pub fn exhaustive(&self, key: &PlanKey) -> Vec<Evaluated> {
        let mut out: Vec<Evaluated> = Vec::new();
        let mut seen: Vec<(Approach, Layout, usize, usize)> = Vec::new();
        for plan in enumerate_plans(key, &self.space) {
            let shape = exec_shape(key, &plan);
            if seen.contains(&shape) {
                continue;
            }
            seen.push(shape);
            out.push(Evaluated {
                plan,
                predicted_cycles: price(&self.params, &self.cfg, key, &plan, key.batch()),
                simulated_cycles: self.simulate_plan(key, &plan),
            });
        }
        out
    }
}

/// Map an algorithm onto the session op that exercises it, plus the rhs
/// width the probe must carry (0 = no rhs operand).
fn op_for(alg: Algorithm, rhs: usize) -> (Op, usize) {
    match alg {
        Algorithm::GaussJordan => (Op::GjSolve, rhs.max(1)),
        Algorithm::Lu => (Op::Lu, 0),
        Algorithm::Qr => (Op::Qr, 0),
        Algorithm::LeastSquares => (Op::LeastSquares, rhs.max(1)),
        Algorithm::QrSolve => (Op::QrSolve, rhs.max(1)),
        Algorithm::Cholesky => (Op::Cholesky, 0),
    }
}

/// Deterministic, well-conditioned probe batches for validation runs.
trait ProbeScalar: regla_core::DeviceScalar {
    /// `count` diagonally-dominant `m x n` matrices (symmetric when `spd`,
    /// so the Cholesky probes are positive definite).
    fn probe_batch(m: usize, n: usize, count: usize, spd: bool) -> MatBatch<Self>;
}

fn probe_entry(k: usize, i: usize, j: usize, m: usize, spd: bool) -> f32 {
    let (a, b) = if spd { (i.min(j), i.max(j)) } else { (i, j) };
    let h = ((k * 131 + a * 37 + b * 101) % 97) as f32 / 97.0;
    h + if i == j { m as f32 + 1.0 } else { 0.0 }
}

impl ProbeScalar for f32 {
    fn probe_batch(m: usize, n: usize, count: usize, spd: bool) -> MatBatch<f32> {
        MatBatch::from_fn(m, n, count, |k, i, j| probe_entry(k, i, j, m, spd))
    }
}

impl ProbeScalar for C32 {
    fn probe_batch(m: usize, n: usize, count: usize, spd: bool) -> MatBatch<C32> {
        // Real-valued entries keep the symmetric probes Hermitian.
        MatBatch::from_fn(m, n, count, |k, i, j| {
            C32::new(probe_entry(k, i, j, m, spd), 0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regla_gpu_sim::MathMode;
    use regla_model::heuristic_plan;

    fn tuner() -> Tuner {
        Tuner::new(ModelParams::table_iv(), GpuConfig::quadro_6000())
            .with_space(TuneSpace::fast())
    }

    fn key(alg: Algorithm, m: usize, n: usize, rhs: usize, batch: usize) -> PlanKey {
        PlanKey::new(alg, m, n, rhs, 1, batch, MathMode::Fast)
    }

    #[test]
    fn enumeration_covers_the_design_space_axes() {
        let space = TuneSpace::default();
        let k = key(Algorithm::Qr, 56, 56, 0, 1024);
        let plans = enumerate_plans(&k, &space);
        // Mapping axis.
        for a in [Approach::PerThread, Approach::PerBlock, Approach::Tiled] {
            assert!(plans.iter().any(|p| p.approach == a), "{a:?} missing");
        }
        // Layout axis.
        for l in Layout::ALL {
            assert!(plans.iter().any(|p| p.layout == l), "{l:?} missing");
        }
        // Thread-count axis: every configured square plus the rule default.
        for t in &space.thread_counts {
            assert!(plans.iter().any(|p| p.threads == Some(*t)));
        }
        assert!(plans
            .iter()
            .any(|p| p.approach == Approach::PerBlock && p.threads.is_none()));
        // Panel and pipeline axes.
        for pw in &space.panels {
            assert!(plans
                .iter()
                .any(|p| p.approach == Approach::Tiled && p.panel == *pw));
        }
        for hint in &space.pipeline {
            assert!(plans.iter().any(|p| (p.chunks, p.streams) == *hint));
        }
        // Shape pruning: wide problems lose per-block and per-thread.
        let wide = enumerate_plans(&key(Algorithm::Qr, 16, 32, 0, 64), &space);
        assert!(wide.iter().all(|p| p.approach == Approach::Tiled));
        // Non-QR algorithms have no tiled kernel.
        let lu = enumerate_plans(&key(Algorithm::Lu, 56, 56, 0, 64), &space);
        assert!(lu.iter().all(|p| p.approach != Approach::Tiled));
    }

    #[test]
    fn ranking_is_sorted_and_prunes_unpriceable_plans() {
        let t = tuner();
        let k = key(Algorithm::Qr, 56, 56, 0, 1024);
        let ranked = rank_plans(&t.params, &t.cfg, &k, &TuneSpace::default());
        assert!(!ranked.is_empty());
        assert!(ranked
            .windows(2)
            .all(|w| w[0].predicted_cycles <= w[1].predicted_cycles));
        // 1D layouts are model-unpriceable and must be gone; hybrid is
        // never enumerated.
        assert!(ranked
            .iter()
            .all(|r| r.plan.layout == Layout::TwoDCyclic && r.plan.approach != Approach::Hybrid));
    }

    #[test]
    fn tuned_entry_wins_within_its_validated_set() {
        let t = tuner();
        let k = key(Algorithm::Qr, 24, 24, 0, 64);
        let report = t.tune_key(&k).expect("priceable key");
        let sim = report.entry.simulated_cycles.expect("top-k was validated");
        for v in &report.validated {
            if let Some(s) = v.simulated_cycles {
                assert!(sim <= s, "chosen {sim} loses to a validated candidate {s}");
            }
        }
    }

    #[test]
    fn per_block_entries_pin_a_derived_thread_count() {
        let t = tuner();
        let k = key(Algorithm::Lu, 40, 40, 0, 64);
        let report = t.tune_key(&k).expect("priceable key");
        if report.entry.plan.approach == Approach::PerBlock {
            assert!(
                report.entry.plan.threads.is_some(),
                "tuned per-block plans must carry an explicit thread count"
            );
        }
    }

    #[test]
    fn emitted_table_round_trips_and_dispatches() {
        let t = tuner();
        let keys = [
            key(Algorithm::Qr, 6, 6, 0, 32),
            key(Algorithm::Qr, 24, 24, 0, 32),
        ];
        let outcome = t.tune(keys);
        assert_eq!(outcome.table.len(), 2);
        assert!(outcome.table.device.contains("Quadro 6000"));
        let text = outcome.table.to_text();
        let back = DecisionTable::from_text(&text).unwrap();
        assert_eq!(back, outcome.table);
        for k in &keys {
            assert!(back.lookup(k).is_some());
        }
    }

    #[test]
    fn probe_failures_fall_back_to_the_model_order() {
        // A per-thread-only key where every probe still runs: the entry
        // must simply exist. And a key whose best plan can't be probed at
        // this shape still yields the model's first choice.
        let t = tuner();
        let k = key(Algorithm::QrSolve, 6, 6, 1, 16);
        let report = t.tune_key(&k).expect("priceable");
        assert!(report.entry.predicted_cycles.is_finite());
    }

    #[test]
    fn exhaustive_covers_distinct_execution_shapes_once() {
        let t = tuner();
        let k = key(Algorithm::Qr, 24, 24, 0, 16);
        let all = t.exhaustive(&k);
        let mut shapes: Vec<_> = all.iter().map(|e| exec_shape(&k, &e.plan)).collect();
        let n = shapes.len();
        shapes.dedup();
        assert_eq!(n, shapes.len(), "duplicate execution shape probed");
        // The heuristic's choice is always part of the exhaustive sweep.
        let h = heuristic_plan(&k);
        assert!(all.iter().any(|e| e.plan.approach == h.approach));
    }
}
