//! # regla-hybrid — the MAGMA/CULA-style hybrid CPU+GPU blocked baseline
//!
//! Section VI-A: "Panels are factored on the CPU and sent to the GPU where
//! the trailing matrix is updated using matrix-matrix multiply... The
//! panel width in the current MAGMA release is 96 so all problems less
//! than 96 wide are done entirely on the CPU."
//!
//! This crate provides that comparator for Figures 10 and 11:
//!
//! * a *functional* blocked Householder QR / LU (panel factorization on
//!   the host, blocked trailing update), so the baseline really solves the
//!   problems;
//! * a *timing model* composing the three hybrid cost components — CPU
//!   panel factorization (MKL-anchored rates), GPU GEMM trailing updates
//!   (MAGMA GEMM asymptote on GF100), and PCIe panel traffic — with
//!   optional look-ahead overlap;
//! * `CpuStart` / `GpuStart` entry points: when the data starts on the
//!   GPU, the mostly-on-CPU small factorizations pay an extra round trip,
//!   which is why the paper's "MAGMA GPU Start" line sits below "CPU
//!   Start" (Figure 11);
//! * a sequential per-problem loop: "The library does not provide the
//!   ability to run multiple problems simultaneously so we put a loop
//!   around the function call."

#![forbid(unsafe_code)]

use regla_core::host;
use regla_core::{Mat, Scalar};
use regla_cpu::mkl_reference_gflops;
use regla_gpu_sim::{GpuConfig, PcieModel};
use regla_model::Algorithm;

/// Where the problem data lives before and after the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// Data starts (and ends) on the CPU.
    Cpu,
    /// Data starts (and ends) on the GPU: the library round-trips it.
    Gpu,
}

/// Configuration of the hybrid library model.
#[derive(Clone, Debug)]
pub struct HybridCfg {
    /// Panel width (MAGMA: 96).
    pub panel: usize,
    /// GEMM asymptote of the GPU in GFLOP/s (MAGMA sgemm on GF100).
    pub gemm_peak_gflops: f64,
    /// Half-saturation size of the GEMM rate curve.
    pub gemm_half_n: f64,
    /// Factor applied to the MKL anchor rates for MAGMA's sequential
    /// single-problem panel factorization.
    pub cpu_rate_factor: f64,
    /// Host link model.
    pub pcie: PcieModel,
    /// Overlap CPU panel work with GPU updates (MAGMA's look-ahead).
    pub lookahead: bool,
    /// Fixed per-call overhead (kernel launches, library entry), seconds.
    pub call_overhead_s: f64,
}

impl HybridCfg {
    pub fn magma_like(cfg: &GpuConfig) -> Self {
        HybridCfg {
            panel: 96,
            gemm_peak_gflops: 520.0,
            gemm_half_n: 500.0,
            cpu_rate_factor: 0.6,
            pcie: PcieModel::from_config(cfg),
            lookahead: true,
            call_overhead_s: 20e-6,
        }
    }

    /// Achievable GEMM rate for trailing updates of width `n`.
    pub fn gemm_gflops(&self, n: usize) -> f64 {
        let n = n as f64;
        self.gemm_peak_gflops * n / (n + self.gemm_half_n)
    }

    /// CPU panel-factorization rate for problems of size `n`.
    pub fn cpu_gflops(&self, n: usize) -> f64 {
        mkl_reference_gflops(n) * self.cpu_rate_factor
    }
}

/// Timing breakdown of one hybrid factorization.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridTiming {
    pub cpu_s: f64,
    pub gpu_s: f64,
    pub pcie_s: f64,
    /// Wall time after look-ahead overlap.
    pub total_s: f64,
}

/// Predicted wall time of one `m x n` factorization through the hybrid
/// library (Section VI-A's cost structure).
pub fn hybrid_time(cfg: &HybridCfg, alg: Algorithm, m: usize, n: usize, start: Start) -> HybridTiming {
    let mut t = HybridTiming::default();
    let elem_bytes = 4usize;
    let matrix_bytes = m * n * elem_bytes;
    let mut round_trip = 0.0;
    if start == Start::Gpu {
        // Round-trip: the library fetches the matrix and puts it back;
        // this is serial with everything else.
        round_trip = 2.0 * cfg.pcie.transfer_secs(matrix_bytes);
        t.pcie_s += round_trip;
    }
    if n < cfg.panel {
        // Entirely on the CPU.
        t.cpu_s = alg.flops(m, n) / (cfg.cpu_gflops(n) * 1e9);
        t.total_s = t.cpu_s + t.pcie_s + cfg.call_overhead_s;
        return t;
    }
    // Blocked factorization: panel on CPU, trailing GEMM on GPU.
    let nb = cfg.panel;
    let lu_scale = match alg {
        Algorithm::Lu => 0.5, // LU trailing updates move half the data of QR's
        _ => 1.0,
    };
    let mut j0 = 0;
    let mut cpu_chain = 0.0; // serialized CPU+PCIe chain
    let mut gpu_chain = 0.0;
    let mut first_panel = 0.0;
    while j0 < n {
        let pw = nb.min(n - j0);
        let prows = m - j0;
        let panel_flops = Algorithm::Qr.flops(prows, pw);
        let cpu = panel_flops / (cfg.cpu_gflops(n.min(96)) * 1e9);
        let panel_bytes = prows * pw * elem_bytes;
        let xfer = 2.0 * cfg.pcie.transfer_secs(panel_bytes);
        let tcols = n - j0 - pw;
        let update_flops = 4.0 * prows as f64 * pw as f64 * tcols as f64 * lu_scale;
        let gpu = update_flops / (cfg.gemm_gflops(tcols.max(1)) * 1e9);
        t.cpu_s += cpu;
        t.pcie_s += xfer;
        t.gpu_s += gpu;
        if j0 == 0 {
            first_panel = cpu + xfer;
        }
        cpu_chain += cpu + xfer;
        gpu_chain += gpu;
        j0 += pw;
    }
    t.total_s = if cfg.lookahead {
        // Look-ahead overlaps the CPU panel chain with the GPU updates,
        // except the first panel (nothing to overlap yet). The initial
        // round trip (GPU-start) is serial with everything.
        cpu_chain.max(first_panel + gpu_chain)
    } else {
        t.cpu_s + t.gpu_s + t.pcie_s - round_trip
    } + round_trip
        + cfg.call_overhead_s;
    t
}

/// GFLOP/s of a sequential loop over `count` problems through the hybrid
/// library (how the paper benchmarks MAGMA in Figures 10-11).
pub fn hybrid_batch_gflops(
    cfg: &HybridCfg,
    alg: Algorithm,
    m: usize,
    n: usize,
    count: usize,
    start: Start,
) -> f64 {
    let per = hybrid_time(cfg, alg, m, n, start).total_s;
    let flops = alg.flops(m, n) * count as f64;
    flops / (per * count as f64) / 1e9
}

/// Functional blocked Householder QR: factor `nb`-wide panels, then apply
/// the panel's reflectors to the trailing matrix (the work the GPU does in
/// the real library). Produces exactly the factorization of the unblocked
/// reference.
pub fn blocked_qr_in_place<T: Scalar>(a: &mut Mat<T>, nb: usize) -> Vec<T> {
    let (m, n) = (a.rows(), a.cols());
    let kmax = m.min(n);
    let mut taus = Vec::with_capacity(kmax);
    let mut j0 = 0;
    while j0 < kmax {
        let pw = nb.min(kmax - j0);
        // Factor the panel (rows j0.., cols j0..j0+pw) on the "CPU".
        let mut panel = a.submatrix(j0, j0, m - j0, pw);
        let ptaus = host::householder_qr_in_place(&mut panel);
        for i in 0..m - j0 {
            for j in 0..pw {
                a[(j0 + i, j0 + j)] = panel[(i, j)];
            }
        }
        // Apply the reflectors to the trailing columns (the "GPU" GEMM).
        for (k, &tau) in ptaus.iter().enumerate() {
            if tau == T::zero() {
                taus.push(tau);
                continue;
            }
            let kk = j0 + k;
            let tch = tau.conj();
            for j in j0 + pw..n {
                let mut w = a[(kk, j)];
                for i in kk + 1..m {
                    w += a[(i, kk)].conj() * a[(i, j)];
                }
                let tw = tch * w;
                a[(kk, j)] -= tw;
                for i in kk + 1..m {
                    let upd = a[(i, kk)] * tw;
                    a[(i, j)] -= upd;
                }
            }
            taus.push(tau);
        }
        j0 += pw;
    }
    taus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HybridCfg {
        HybridCfg::magma_like(&GpuConfig::quadro_6000())
    }

    #[test]
    fn blocked_qr_equals_unblocked() {
        let a = Mat::from_fn(40, 24, |i, j| {
            ((i * 13 + j * 7) % 23) as f64 / 23.0 + if i == j { 2.0 } else { 0.0 }
        });
        let mut blocked = a.clone();
        let bt = blocked_qr_in_place(&mut blocked, 8);
        let mut reference = a.clone();
        let rt = host::householder_qr_in_place(&mut reference);
        assert!(blocked.frob_dist(&reference) < 1e-10 * a.frob_norm());
        for (b, r) in bt.iter().zip(&rt) {
            assert!((b - r).abs() < 1e-12);
        }
    }

    #[test]
    fn small_problems_run_entirely_on_cpu() {
        let c = cfg();
        let t = hybrid_time(&c, Algorithm::Qr, 56, 56, Start::Cpu);
        assert_eq!(t.gpu_s, 0.0);
        assert!(t.cpu_s > 0.0);
    }

    #[test]
    fn gpu_start_pays_the_round_trip() {
        let c = cfg();
        let cpu = hybrid_time(&c, Algorithm::Qr, 56, 56, Start::Cpu);
        let gpu = hybrid_time(&c, Algorithm::Qr, 56, 56, Start::Gpu);
        assert!(gpu.total_s > cpu.total_s);
        assert!(gpu.pcie_s > 0.0);
    }

    #[test]
    fn large_problems_approach_gemm_rate() {
        let c = cfg();
        let g = hybrid_batch_gflops(&c, Algorithm::Qr, 4096, 4096, 1, Start::Cpu);
        assert!(
            (300.0..550.0).contains(&g),
            "hybrid at 4096 = {g} GFLOPS (Figure 10 right end ~450)"
        );
    }

    #[test]
    fn small_batched_problems_are_orders_slower_than_batched_kernels() {
        // Figure 11: MAGMA at n = 56 is ~100x below the per-block kernels.
        let c = cfg();
        let g = hybrid_batch_gflops(&c, Algorithm::Qr, 56, 56, 5000, Start::Cpu);
        assert!(g < 10.0, "MAGMA-like at 56 = {g} GFLOPS");
    }

    #[test]
    fn design_space_crossover_exists() {
        // Hybrid must lose below ~100 and win big above ~1000 (Figure 10).
        let c = cfg();
        let small = hybrid_batch_gflops(&c, Algorithm::Qr, 64, 64, 1000, Start::Cpu);
        let large = hybrid_batch_gflops(&c, Algorithm::Qr, 2048, 2048, 1, Start::Cpu);
        assert!(large > 20.0 * small);
    }

    #[test]
    fn gemm_rate_curve_is_monotone() {
        let c = cfg();
        let mut last = 0.0;
        for n in [64, 128, 512, 2048, 8192] {
            let g = c.gemm_gflops(n);
            assert!(g > last);
            last = g;
        }
        assert!(last < c.gemm_peak_gflops);
    }
}
