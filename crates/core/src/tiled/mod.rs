//! Sequential tiled QR for matrices that exceed one block's register file
//! (Section VII): the paper's 240x66 STAP problems "do not fit in a single
//! thread block so we employ a sequential tiled QR factorization algorithm
//! similar to the approach in the PLASMA multicore linear algebra library".
//!
//! The factorization proceeds by column panels. Each panel is factored by
//! the one-problem-per-block QR kernel on a tall submatrix view; its
//! reflectors are then applied to the trailing columns by the streaming
//! apply kernel. Each problem occupies one block throughout, so a batch of
//! radar problems fills the chip. Between steps the data rests in DRAM,
//! which is why this path has lower arithmetic intensity than the pure
//! register-resident kernels — the paper observes the same slowdown for
//! 240x66 ("some of the register file space is being wasted").

pub mod tsqr;

use crate::api::RunOpts;
use crate::elem::Elem;
use crate::layout::{Layout, LayoutMap};
use crate::per_block::{QrApplyKernel, QrBlockKernel, SubMat};
use regla_gpu_sim::{GlobalMemory, Gpu, LaunchConfig, LaunchError, LaunchStats};

pub use tsqr::tsqr;

/// Aggregate statistics of a multi-launch operation.
#[derive(Clone, Debug, Default)]
pub struct MultiLaunch {
    pub launches: Vec<LaunchStats>,
    pub time_s: f64,
    pub flops: f64,
}

impl MultiLaunch {
    pub fn push(&mut self, s: LaunchStats) {
        self.time_s += s.time_s;
        self.flops += s.flops;
        self.launches.push(s);
    }

    pub fn gflops(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.flops / self.time_s / 1e9
        }
    }

    /// Aggregate full-wave phase cycles by label across every launch (in
    /// first-appearance order): where a multi-launch operation spends a
    /// wave's time, phase by phase.
    pub fn phase_totals(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for l in &self.launches {
            for pt in &l.phase_times {
                match totals.iter_mut().find(|(n, _)| *n == pt.label) {
                    Some((_, c)) => *c += pt.cycles,
                    None => totals.push((pt.label.clone(), pt.cycles)),
                }
            }
        }
        totals
    }
}

/// Tiled QR of a batch of `count` tall matrices (`m x (n + rhs_cols)`,
/// the trailing `rhs_cols` carried but not factored) already resident on
/// the device at view `a`. Reflector scales are written to `d_tau`
/// (`count * n` elements, allocated by the caller).
///
/// The panel width `nb` comes from the resolved dispatch plan (the tuned
/// knob); every observability/chaos knob (trace sink, sanitizer, watchdog,
/// fault plan, deadline, stall) comes straight from the one [`RunOpts`]
/// the whole run shares.
#[allow(clippy::too_many_arguments)]
pub fn tiled_qr<E: Elem>(
    gpu: &Gpu,
    gmem: &mut GlobalMemory,
    a: SubMat,
    m: usize,
    n: usize,
    rhs_cols: usize,
    count: usize,
    d_tau: regla_gpu_sim::DPtr,
    nb: usize,
    opts: &RunOpts,
) -> Result<MultiLaunch, LaunchError> {
    assert!(m >= n, "tiled QR requires m >= n");
    assert!(nb >= 1, "panel width must be >= 1");
    let mut agg = MultiLaunch::default();
    let cols = n + rhs_cols;
    let mut j0 = 0;
    while j0 < n {
        let pw = nb.min(n - j0);
        let prows = m - j0;
        // --- factor the panel ------------------------------------------
        // The panel (prows x pw) must keep its register tile small; use
        // the same 64/256-thread rule as the square kernels.
        let threads = regla_model::block_plan(prows, pw, 0, E::WORDS).threads;
        let lm = LayoutMap::new(Layout::TwoDCyclic, threads, prows, pw);
        let panel_view = a.offset(j0, j0);
        // Taus for this panel land at bid * pw + k in the scratch region,
        // which is exactly how the apply kernel reads them back
        // (tau_stride = pw, tau_off = 0).
        let kern = QrBlockKernel::<E>::new(panel_view, lm, count).with_tau(d_tau);
        let regs = lm.local_len() * E::WORDS + 14;
        let lc = opts
            .apply_observability(
                LaunchConfig::new(count, threads)
                    .regs(regs)
                    .shared_words(kern.shared_words()),
            )
            .fault(opts.fault)
            .name(format!("qr panel {prows}x{pw} tiled"))
            .deadline_cycles(opts.deadline_cycles)
            .stall_cycles(opts.stall_cycles);
        agg.push(gpu.launch(&kern, &lc, gmem)?);

        // --- apply the reflectors to the trailing columns ---------------
        let tcols = cols - (j0 + pw);
        if tcols > 0 {
            let apply =
                QrApplyKernel::<E>::new(panel_view, a.offset(j0, j0 + pw), d_tau, lm, tcols, count);
            let lc = opts
                .apply_observability(
                    LaunchConfig::new(count, threads)
                        .regs(regs)
                        .shared_words(apply.shared_words()),
                )
                .fault(opts.fault)
                .name(format!("qr apply {prows}x{tcols} tiled"))
                .deadline_cycles(opts.deadline_cycles)
                .stall_cycles(opts.stall_cycles);
            agg.push(gpu.launch(&apply, &lc, gmem)?);
        }
        j0 += pw;
    }
    Ok(agg)
}
