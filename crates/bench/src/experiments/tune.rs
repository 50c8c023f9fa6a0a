//! `autotune` — regret of the model-driven autotuner on the Figure 10
//! design space.
//!
//! For each (alg, m, n, rhs, batch) key the tuner enumerates the mapping x
//! layout x thread-count x panel space, ranks it by model-predicted cycles
//! and validates the top-k in the fast-path simulator. This experiment
//! then measures what that pipeline *costs* against two baselines, all on
//! simulated cycles of identical probe batches:
//!
//! * **exhaustive** — every distinct execution shape in the space probed
//!   in the simulator; its minimum is the oracle the regret is against;
//! * **heuristic** — the paper's hand-chosen configuration (the 64/256
//!   rule and the fixed panel width).
//!
//! The acceptance gate (`autotune` bin) requires the tuned pick within 5%
//! of the exhaustive oracle on every key; rows land in the `tune` section
//! of `results/BENCH_sim.json`.

use crate::bench_telemetry::{Collector, Row, Section, Val};
use crate::report::Table;
use regla_gpu_sim::{GpuConfig, MathMode};
use regla_model::{heuristic_plan, Algorithm, Approach, DecisionTable, ModelParams, Plan, PlanKey};
use regla_tune::{TuneSpace, Tuner};

/// One (alg, shape, batch) row: the tuned plan against the paper's hand
/// heuristic and the exhaustive-search winner, with regret in simulated
/// cycles.
#[derive(Clone, Debug)]
pub struct TuneRow {
    pub alg: String,
    /// `m x n` (+`rhs` carried columns when nonzero).
    pub shape: String,
    pub batch: usize,
    /// Model-priced candidates in the enumerated design space.
    pub candidates: usize,
    /// Distinct execution shapes the tuner validated in the simulator.
    pub validated: usize,
    /// Compact plan strings (`approach/layout/threads/panel`).
    pub heuristic: String,
    pub tuned: String,
    pub best: String,
    /// Model-predicted cycles of the tuned plan.
    pub predicted_cycles: f64,
    /// Simulated cycles: tuned pick, heuristic pick, exhaustive winner.
    pub tuned_sim_cycles: f64,
    pub heuristic_sim_cycles: f64,
    pub exhaustive_sim_cycles: f64,
    /// `(tuned - exhaustive) / exhaustive`, percent (the gate metric).
    pub regret_pct: f64,
    /// `(heuristic - exhaustive) / exhaustive`, percent.
    pub heuristic_regret_pct: f64,
    /// Whether tuning changed the execution shape vs the hand heuristic.
    pub plan_changed: bool,
}

impl TuneRow {
    /// The row's `tune` entry in `BENCH_sim.json`.
    pub fn row(&self) -> Row {
        vec![
            ("alg", self.alg.as_str().into()),
            ("shape", self.shape.as_str().into()),
            ("batch", self.batch.into()),
            ("candidates", self.candidates.into()),
            ("validated", self.validated.into()),
            ("heuristic", self.heuristic.as_str().into()),
            ("tuned", self.tuned.as_str().into()),
            ("best", self.best.as_str().into()),
            ("predicted_cycles", Val::Num(self.predicted_cycles, 1)),
            ("tuned_sim_cycles", Val::Num(self.tuned_sim_cycles, 1)),
            ("heuristic_sim_cycles", Val::Num(self.heuristic_sim_cycles, 1)),
            ("exhaustive_sim_cycles", Val::Num(self.exhaustive_sim_cycles, 1)),
            ("regret_pct", Val::Num(self.regret_pct, 3)),
            ("heuristic_regret_pct", Val::Num(self.heuristic_regret_pct, 3)),
            ("plan_changed", self.plan_changed.into()),
        ]
    }
}

/// Compact `approach/layout/threads/panel` plan label for reports.
fn plan_str(p: &Plan) -> String {
    format!(
        "{}/{}/t{}/p{}",
        p.approach.code(),
        p.layout.code(),
        p.threads.map_or_else(|| "auto".to_string(), |t| t.to_string()),
        p.panel
    )
}

/// Whether two plans launch the same kernels for `key` (panel width only
/// matters on the tiled path; `threads: None` and an explicit count that
/// matches the 64/256 rule are the same launch).
pub fn same_execution(key: &PlanKey, a: &Plan, b: &Plan) -> bool {
    let cols = key.n + key.rhs;
    a.approach == b.approach
        && a.layout == b.layout
        && a.block_threads_for(key.m, cols, key.elem_words)
            == b.block_threads_for(key.m, cols, key.elem_words)
        && (a.approach != Approach::Tiled || a.panel == b.panel)
}

/// The fig10 key sweep: square QR across the per-thread / per-block /
/// spill regimes, plus tall least-squares shapes (the tiled regime) and a
/// few solver keys with carried right-hand sides.
pub fn fig10_keys(fast: bool) -> Vec<PlanKey> {
    let batch = if fast { 32 } else { 256 };
    let mut v = Vec::new();
    let sizes: &[usize] = if fast {
        &[6, 24, 56]
    } else {
        &[4, 6, 8, 16, 24, 40, 56, 64, 80, 96]
    };
    for &n in sizes {
        v.push(PlanKey::new(Algorithm::Qr, n, n, 0, 1, batch, MathMode::Fast));
    }
    let talls: &[(usize, usize)] = if fast {
        &[(48, 24)]
    } else {
        &[(48, 24), (96, 48), (128, 64)]
    };
    for &(m, n) in talls {
        v.push(PlanKey::new(
            Algorithm::LeastSquares,
            m,
            n,
            1,
            1,
            batch,
            MathMode::Fast,
        ));
    }
    if !fast {
        for &n in &[8usize, 32, 56] {
            v.push(PlanKey::new(Algorithm::QrSolve, n, n, 1, 1, batch, MathMode::Fast));
            v.push(PlanKey::new(Algorithm::Lu, n, n, 0, 1, batch, MathMode::Fast));
        }
    }
    v
}

/// Run the autotune sweep and return (rendered report, per-key rows, the
/// emitted decision table). The table is what the acceptance bin writes
/// to `results/decision_table.txt`.
pub fn autotune_artifacts(fast: bool) -> (String, Vec<TuneRow>, DecisionTable) {
    let space = if fast {
        TuneSpace::fast()
    } else {
        TuneSpace::default()
    };
    let tuner = Tuner::new(ModelParams::table_iv(), GpuConfig::quadro_6000()).with_space(space);
    let keys = fig10_keys(fast);
    let outcome = tuner.tune(keys.iter().copied());

    let mut t = Table::new(
        "Autotune — model-picked plans vs exhaustive search vs the paper's \
         hand heuristic (simulated cycles on identical probe batches)",
        &[
            "alg", "shape", "heuristic", "tuned", "best", "tuned cyc", "best cyc",
            "regret", "heur regret",
        ],
    );
    let mut rows = Vec::new();
    for report in &outcome.reports {
        let key = report.key;
        let exhaustive = tuner.exhaustive(&key);
        let Some((best_plan, best_sim)) = exhaustive
            .iter()
            .filter_map(|e| e.simulated_cycles.map(|s| (e.plan, s)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue;
        };
        let tuned_sim = match report.entry.simulated_cycles {
            Some(s) => s,
            None => match tuner.simulate_plan(&key, &report.entry.plan) {
                Some(s) => s,
                None => continue,
            },
        };
        let h = heuristic_plan(&key);
        let h_sim = tuner.simulate_plan(&key, &h).unwrap_or(tuned_sim);
        let regret_pct = 100.0 * (tuned_sim - best_sim) / best_sim;
        let heuristic_regret_pct = 100.0 * (h_sim - best_sim) / best_sim;
        let shape = if key.rhs > 0 {
            format!("{}x{}+{}", key.m, key.n, key.rhs)
        } else {
            format!("{}x{}", key.m, key.n)
        };
        let row = TuneRow {
            alg: key.alg.code().to_string(),
            shape: shape.clone(),
            batch: key.batch(),
            candidates: report.ranked.len(),
            validated: report.validated.len(),
            heuristic: plan_str(&h),
            tuned: plan_str(&report.entry.plan),
            best: plan_str(&best_plan),
            predicted_cycles: report.entry.predicted_cycles,
            tuned_sim_cycles: tuned_sim,
            heuristic_sim_cycles: h_sim,
            exhaustive_sim_cycles: best_sim,
            regret_pct,
            heuristic_regret_pct,
            plan_changed: !same_execution(&key, &report.entry.plan, &h),
        };
        t.row(&[
            row.alg.clone(),
            shape,
            row.heuristic.clone(),
            row.tuned.clone(),
            row.best.clone(),
            format!("{:.0}", row.tuned_sim_cycles),
            format!("{:.0}", row.exhaustive_sim_cycles),
            format!("{:+.2}%", row.regret_pct),
            format!("{:+.2}%", row.heuristic_regret_pct),
        ]);
        rows.push(row);
    }
    let (max_regret, mean_h) = (
        rows.iter().map(|r| r.regret_pct).fold(0.0f64, f64::max),
        rows.iter().map(|r| r.heuristic_regret_pct).sum::<f64>() / rows.len().max(1) as f64,
    );
    t.note(format!(
        "{} keys tuned; max tuned regret {:.2}% (gate: <= 5%); mean heuristic \
         regret {:.2}%. Tuned per-block entries pin derived thread counts, \
         replacing the hand 64/256 rule.",
        rows.len(),
        max_regret,
        mean_h,
    ));
    (t.render(), rows, outcome.table)
}

/// Harness entry point (see `experiments::ALL`).
pub fn autotune(fast: bool, c: &mut Collector) -> String {
    let (report, rows, _) = autotune_artifacts(fast);
    c.add(Section::Tune, rows.iter().map(TuneRow::row));
    report
}
