//! The analytic cost model for the one-problem-per-block approach
//! (Section V-D, Table VI).
//!
//! Costs follow the paper's accounting, refined with the two effects the
//! measurements expose:
//!
//! * **latency terms** — the implementation is in-order and latency-bound:
//!   dependent FLOPs cost γ each, dependent shared accesses cost α_sh plus
//!   the GF100 address computation, serial reductions walk √p partials,
//!   and every phase ends in an α_sync barrier;
//! * **issue terms** — the SM's issue ports are shared by all resident
//!   blocks (8 at 64 threads/block), so throughput-heavy phases (the
//!   rank-1 update, the matrix-vector multiply) are bounded by
//!   `resident × warp-issue-work` even when each block's critical path is
//!   short.
//!
//! Each operation costs `max(latency, resident * issue) + syncs * α_sync`.
//! Complex elements multiply chain depth and word traffic by two and the
//! FLOP issue work by four.

use crate::intensity::Algorithm;
use crate::params::ModelParams;
use crate::plan::BlockPlan;
use regla_gpu_sim::{occupancy, GpuConfig};

/// Per-panel cycle estimate for Householder QR, split into the three
/// operations of Figure 8.
#[derive(Clone, Copy, Debug)]
pub struct PanelEstimate {
    /// 1-based panel index (Figure 8's x-axis).
    pub panel: usize,
    /// Form the Householder vector: norm, reduce, scale, publish.
    pub form_hh: f64,
    /// Matrix-vector multiply (w = Aᴴ v) including its reductions.
    pub matvec: f64,
    /// Rank-1 update of the trailing matrix.
    pub rank1: f64,
}

impl PanelEstimate {
    pub fn total(&self) -> f64 {
        self.form_hh + self.matvec + self.rank1
    }
}

struct Costs<'a> {
    p: &'a ModelParams,
    /// Words per element (1 real, 2 complex).
    ew: f64,
    threads: usize,
    warps: f64,
    resident: f64,
    /// Sustained LD/ST issue interval (2 x derating).
    ldst: f64,
}

impl Costs<'_> {
    fn new<'a>(p: &'a ModelParams, plan: &BlockPlan, resident: usize) -> Costs<'a> {
        Costs {
            p,
            ew: plan.elem_words as f64,
            threads: plan.threads,
            warps: (plan.threads as f64 / p.warp_size as f64).max(1.0),
            resident: resident as f64,
            ldst: 2.342,
        }
    }

    /// `k` independent stores to shared memory: issue-bound plus drain.
    fn store_seq(&self, k: f64) -> f64 {
        self.ldst * k * self.ew + self.p.alpha_sh
    }

    /// `k` independent loads from shared memory with address arithmetic.
    fn load_seq(&self, k: f64) -> f64 {
        3.0 * k * self.ew + self.p.alpha_sh
    }

    /// Dependent chain of `k` multiply-adds (a running sum / column norm).
    fn chain(&self, k: f64) -> f64 {
        k * self.ew * self.p.gamma
    }

    /// `k` independent multiply-adds: issue plus one pipeline drain.
    fn indep(&self, k: f64) -> f64 {
        k * self.ew + self.p.gamma
    }

    /// Serial reduction over `r` partials held in shared memory (the
    /// paper's `(1 + √p)β + √p·γ`); each link is a dependent load + add.
    fn reduction(&self, r: f64) -> f64 {
        r * (self.p.alpha_sh * self.ew.min(2.0) + self.p.gamma)
    }

    fn sync(&self) -> f64 {
        self.p.alpha_sync(self.threads)
    }

    /// One operation: latency vs resident-shared issue, plus barriers.
    fn op(&self, latency: f64, warp_issue: f64, syncs: f64) -> f64 {
        let issue = self.resident * self.warps * warp_issue;
        latency.max(issue) + syncs * self.sync()
    }

    /// Issue cost of `fp` FLOP-equivalent and `ld` LD/ST warp instructions
    /// (dual issue folds the smaller of the two).
    fn issue_mix(&self, fp: f64, ld: f64) -> f64 {
        (fp * self.ew.powi(2)).max(ld * self.ldst * self.ew)
    }
}

/// Per-panel QR estimates (the model side of Figure 8).
pub fn qr_panels(p: &ModelParams, plan: &BlockPlan, resident: usize) -> Vec<PanelEstimate> {
    let c = Costs::new(p, plan, resident);
    let rdim = plan.rdim;
    let rw = rdim as f64; // reduction width of the 2D layout
    let mut out = Vec::with_capacity(plan.panels());
    for k in 0..plan.panels() {
        let cols_in_panel = rdim.min(plan.n - k * rdim) as f64;
        let n_t = (plan.hreg.saturating_sub(k)).max(1) as f64; // rows/thread
        let w_t = (plan.wreg.saturating_sub(k)).max(1) as f64; // cols/thread

        // ---- Form Householder vector (Table VI "Column" rows) ----------
        // Phase 1: partial column norms (dependent abs² chain) + publish.
        let p1 = c.op(c.chain(n_t) + c.store_seq(1.0), c.issue_mix(2.0 * n_t, 2.0), 1.0);
        // Phase 2: the diagonal owner reduces and forms beta/tau/inv
        // (sqrt + 2 divisions + the writes); single-thread, latency-bound.
        let p2 = c.op(
            c.reduction(rw)
                + p.gamma_sqrt
                + 2.0 * p.gamma_div
                + 2.0 * p.gamma
                + 2.0 * p.beta_chain() * c.ew,
            0.0,
            1.0,
        );
        // Phase 3: scale the column and publish it (Listing 6).
        let p3 = c.op(
            c.indep(n_t) + c.store_seq(n_t),
            c.issue_mix(n_t, 2.0 * n_t),
            1.0,
        );
        let form_hh = p1 + p2 + p3;

        // ---- Matrix-vector multiply (Table VI "Trailing Matrix") -------
        // Phase 4: read the Householder vector, per owned column an N-deep
        // dependent accumulation chain, publish partials.
        let p4 = c.op(
            c.load_seq(n_t) + c.chain(n_t * w_t) + c.store_seq(w_t),
            c.issue_mix(n_t * w_t, n_t + 2.0 * w_t),
            1.0,
        );
        // Phase 5: per-column reductions, round-robin over all threads.
        let p5 = c.op(
            c.reduction(rw) + c.store_seq(1.0),
            c.issue_mix(1.0, rw * c.ew),
            1.0,
        );
        let matvec = p4 + p5;

        // ---- Rank-1 update ----------------------------------------------
        let rank1 = c.op(
            c.load_seq(n_t + w_t) + c.indep(n_t * w_t) * c.ew,
            c.issue_mix(n_t * w_t, n_t + w_t),
            1.0,
        );

        out.push(PanelEstimate {
            panel: k + 1,
            form_hh: form_hh * cols_in_panel,
            matvec: matvec * cols_in_panel,
            rank1: rank1 * cols_in_panel,
        });
    }
    out
}

/// Per-column LU cost split into the kernel's two labeled phases:
/// `(column, rank-1)` (Table VI "LU Estimates").
fn lu_column_parts(c: &Costs, p: &ModelParams, n_t: f64, w_t: f64) -> (f64, f64) {
    // Column: the diagonal thread computes and publishes 1/a_kk; everyone
    // scales the column and writes l & u to shared memory.
    let p1 = c.op(p.gamma_div + 2.0 * p.beta_chain() * c.ew, 0.0, 1.0);
    let p2 = c.op(
        c.indep(n_t) + c.store_seq(2.0 * n_t),
        c.issue_mix(n_t, 4.0 * n_t),
        1.0,
    );
    // Trailing: read l & u back, rank-1 update of the Schur complement.
    let p3 = c.op(
        c.load_seq(n_t + w_t) + c.indep(n_t * w_t) * c.ew,
        c.issue_mix(n_t * w_t, n_t + w_t),
        1.0,
    );
    (p1 + p2, p3)
}

/// One named phase's predicted cycles. The `label` matches the kernel's
/// `phase_label` exactly (e.g. `"panel 3: rank-1"`), so a simulated
/// launch trace can be joined against the model phase by phase.
#[derive(Clone, Debug)]
pub struct PhaseEstimate {
    pub label: String,
    pub cycles: f64,
}

/// Predicted cycles of every labeled compute phase of one block, in kernel
/// order. Summing the entries gives [`block_compute_cycles`]; the labels
/// match the per-block kernels' `phase_label` calls so per-phase
/// predicted-vs-simulated discrepancy can be reported (DRAM-bound `load` /
/// `store` phases are not included here — they depend on the wave size,
/// see [`BlockPrediction::dram_cycles_per_wave`]).
pub fn phase_estimates(
    p: &ModelParams,
    plan: &BlockPlan,
    alg: Algorithm,
    resident: usize,
) -> Vec<PhaseEstimate> {
    let c = Costs::new(p, plan, resident);
    let rdim = plan.rdim;
    let mut out = Vec::new();
    let panel_geometry = |k: usize| {
        let cols = rdim.min(plan.n - k * rdim) as f64;
        let n_t = (plan.hreg.saturating_sub(k)).max(1) as f64;
        let w_t = (plan.wreg.saturating_sub(k)).max(1) as f64;
        (cols, n_t, w_t)
    };
    match alg {
        Algorithm::Qr => {
            for e in qr_panels(p, plan, resident) {
                out.push(PhaseEstimate {
                    label: format!("panel {}: form-hh", e.panel),
                    cycles: e.form_hh,
                });
                out.push(PhaseEstimate {
                    label: format!("panel {}: matvec", e.panel),
                    cycles: e.matvec,
                });
                out.push(PhaseEstimate {
                    label: format!("panel {}: rank-1", e.panel),
                    cycles: e.rank1,
                });
            }
        }
        Algorithm::Lu => {
            for k in 0..plan.panels() {
                let (cols, n_t, w_t) = panel_geometry(k);
                let (column, rank1) = lu_column_parts(&c, p, n_t, w_t);
                out.push(PhaseEstimate {
                    label: format!("panel {}: column", k + 1),
                    cycles: cols * column,
                });
                out.push(PhaseEstimate {
                    label: format!("panel {}: rank-1", k + 1),
                    cycles: cols * rank1,
                });
            }
        }
        Algorithm::GaussJordan => {
            for k in 0..plan.panels() {
                let (cols, _, w_t) = panel_geometry(k);
                let n_t = plan.hreg.max(1) as f64;
                let (column, rank1) = lu_column_parts(&c, p, n_t, w_t);
                out.push(PhaseEstimate {
                    label: format!("panel {}: column", k + 1),
                    cycles: cols * column,
                });
                out.push(PhaseEstimate {
                    label: format!("panel {}: rank-1", k + 1),
                    cycles: cols * rank1,
                });
            }
        }
        Algorithm::Cholesky => {
            // Half of an LU step (lower triangle only) plus the pivot sqrt.
            for k in 0..plan.panels() {
                let (cols, n_t, w_t) = panel_geometry(k);
                let (column, rank1) = lu_column_parts(&c, p, n_t, w_t);
                out.push(PhaseEstimate {
                    label: format!("panel {}: pivot", k + 1),
                    cycles: cols * (0.5 * column + p.gamma_sqrt),
                });
                out.push(PhaseEstimate {
                    label: format!("panel {}: syrk", k + 1),
                    cycles: cols * 0.5 * rank1,
                });
            }
        }
        Algorithm::QrSolve | Algorithm::LeastSquares => {
            out = phase_estimates(p, plan, Algorithm::Qr, resident);
            let back: f64 = (0..plan.n)
                .map(|_| {
                    p.gamma_div
                        + 4.0 * p.beta_chain() * c.ew
                        + c.indep(1.0)
                        + 4.0 * c.sync()
                })
                .sum();
            out.push(PhaseEstimate {
                label: String::from("back-substitute"),
                cycles: back,
            });
        }
    }
    out
}

/// Total on-chip compute cycles for one block (no DRAM), per algorithm:
/// the sum of every labeled phase in [`phase_estimates`].
pub fn block_compute_cycles(
    p: &ModelParams,
    plan: &BlockPlan,
    alg: Algorithm,
    resident: usize,
) -> f64 {
    phase_estimates(p, plan, alg, resident)
        .iter()
        .map(|e| e.cycles)
        .sum()
}

/// A complete one-problem-per-block performance prediction.
#[derive(Clone, Debug)]
pub struct BlockPrediction {
    pub plan: BlockPlan,
    pub alg: Algorithm,
    pub batch: usize,
    /// On-chip compute cycles per block.
    pub compute_cycles: f64,
    /// DRAM cycles to stream one wave's matrices in and out.
    pub dram_cycles_per_wave: f64,
    /// Blocks resident on the chip at once (occupancy x SMs).
    pub blocks_per_wave: usize,
    pub total_cycles: f64,
    pub time_s: f64,
    pub gflops: f64,
}

/// Predict the performance of a batch (the dashed lines of Figure 9).
#[allow(clippy::too_many_arguments)]
pub fn predict_block(
    p: &ModelParams,
    cfg: &GpuConfig,
    alg: Algorithm,
    m: usize,
    n: usize,
    rhs_cols: usize,
    elem_words: usize,
    batch: usize,
) -> BlockPrediction {
    let plan = crate::plan::block_plan(m, n, rhs_cols, elem_words);
    predict_block_plan(p, cfg, alg, plan, batch)
}

/// [`predict_block`] for an explicit [`BlockPlan`] — the entry point the
/// tuner prices forced-thread-count candidates through.
pub fn predict_block_plan(
    p: &ModelParams,
    cfg: &GpuConfig,
    alg: Algorithm,
    plan: crate::plan::BlockPlan,
    batch: usize,
) -> BlockPrediction {
    let (m, n, elem_words) = (plan.m, plan.n, plan.elem_words);
    let occ = occupancy(
        cfg,
        plan.threads,
        plan.regs_per_thread.min(cfg.max_regs_per_thread),
        plan.shared_words * 4,
    );
    let blocks_per_wave = (occ.blocks_per_sm * cfg.num_sms).max(1);

    let compute = block_compute_cycles(p, &plan, alg, occ.blocks_per_sm);
    let bytes_per_block = 2.0 * (plan.m * plan.cols() * elem_words * 4) as f64;
    let wave_blocks = blocks_per_wave.min(batch) as f64;
    let dram_per_wave = bytes_per_block * wave_blocks / p.glb_bytes_per_cycle();

    let wave_cycles = compute + dram_per_wave;
    let waves = (batch as f64 / blocks_per_wave as f64).ceil();
    let total_cycles = wave_cycles * waves;
    let time_s = p.cycles_to_secs(total_cycles);
    let flops = match elem_words {
        2 => alg.flops_complex(m, n),
        _ => alg.flops(m, n),
    } * batch as f64;
    BlockPrediction {
        plan,
        alg,
        batch,
        compute_cycles: compute,
        dram_cycles_per_wave: dram_per_wave,
        blocks_per_wave,
        total_cycles,
        time_s,
        gflops: flops / time_s / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::block_plan;

    fn params() -> ModelParams {
        ModelParams::table_iv()
    }

    #[test]
    fn qr_56_compute_is_in_the_paper_range() {
        // Table V: ~150k cycles of compute for a 56x56 single-precision QR.
        let plan = block_plan(56, 56, 0, 1);
        let cyc = block_compute_cycles(&params(), &plan, Algorithm::Qr, 8);
        assert!(
            (100_000.0..210_000.0).contains(&cyc),
            "QR 56x56 model = {cyc} cycles, paper measured ~150k"
        );
    }

    #[test]
    fn lu_is_cheaper_than_qr() {
        let plan = block_plan(56, 56, 0, 1);
        let lu = block_compute_cycles(&params(), &plan, Algorithm::Lu, 8);
        let qr = block_compute_cycles(&params(), &plan, Algorithm::Qr, 8);
        assert!(lu < 0.65 * qr, "LU {lu} vs QR {qr}");
    }

    #[test]
    fn panel_costs_decrease_monotonically() {
        // Figure 8: each panel is cheaper than the previous one.
        let plan = block_plan(56, 56, 0, 1);
        let panels = qr_panels(&params(), &plan, 8);
        assert_eq!(panels.len(), 7);
        for w in panels.windows(2) {
            assert!(w[1].total() < w[0].total());
        }
    }

    #[test]
    fn prediction_peaks_before_the_thread_switch() {
        // Figure 9's shape: GFLOPS at 72 (last 64-thread size) exceeds 80
        // (first 256-thread size, occupancy drop).
        let p = params();
        let cfg = GpuConfig::quadro_6000();
        let g72 = predict_block(&p, &cfg, Algorithm::Qr, 72, 72, 0, 1, 8000).gflops;
        let g80 = predict_block(&p, &cfg, Algorithm::Qr, 80, 80, 0, 1, 8000).gflops;
        assert!(g72 > g80, "expected drop at 80: {g72} vs {g80}");
    }

    #[test]
    fn prediction_lands_near_200_gflops_at_56() {
        // Figure 9: measured and predicted QR at n = 56 sit near 200 GFLOPS.
        let p = params();
        let cfg = GpuConfig::quadro_6000();
        let g = predict_block(&p, &cfg, Algorithm::Qr, 56, 56, 0, 1, 8000).gflops;
        assert!((120.0..280.0).contains(&g), "QR@56 predicted {g} GFLOPS");
    }

    #[test]
    fn small_blocks_are_slow() {
        // The per-block approach wastes parallelism on tiny matrices.
        let p = params();
        let cfg = GpuConfig::quadro_6000();
        let g8 = predict_block(&p, &cfg, Algorithm::Qr, 8, 8, 0, 1, 8000).gflops;
        let g56 = predict_block(&p, &cfg, Algorithm::Qr, 56, 56, 0, 1, 8000).gflops;
        assert!(g8 < 0.25 * g56);
    }

    #[test]
    fn complex_prediction_scales_flops_by_four() {
        let p = params();
        let cfg = GpuConfig::quadro_6000();
        let re = predict_block(&p, &cfg, Algorithm::Qr, 48, 48, 0, 1, 1000);
        let cx = predict_block(&p, &cfg, Algorithm::Qr, 48, 48, 0, 2, 1000);
        // Complex does 4x the FLOPs in ~2x the cycles per chain step: the
        // reported GFLOP/s must not be lower than the real-valued run.
        assert!(cx.gflops > re.gflops);
    }
}
