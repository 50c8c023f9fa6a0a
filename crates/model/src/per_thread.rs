//! Predictions for the one-problem-per-thread approach (Section IV).
//!
//! The paper's model here is a pure roofline: FLOPs are free (γ = 0),
//! latency is hidden by multithreading (α_glb = 0), and the only cost is
//! moving the matrix between DRAM and the register files. Expected
//! performance is arithmetic intensity times achievable DRAM bandwidth —
//! the dashed lines of Figure 4. The model deliberately ignores register
//! spilling, which is why it diverges from measurement past n = 8.

use crate::intensity::{arithmetic_intensity, bytes_moved, Algorithm};
use crate::params::ModelParams;

/// Predicted GFLOP/s for `n x n` problems solved one per thread.
pub fn predicted_gflops(p: &ModelParams, alg: Algorithm, n: usize, elem_bytes: usize) -> f64 {
    arithmetic_intensity(alg, n, n, elem_bytes) * p.beta_glb_gbs
}

/// Predicted wall time for a batch of `count` problems.
pub fn predicted_time_s(
    p: &ModelParams,
    alg: Algorithm,
    n: usize,
    count: usize,
    elem_bytes: usize,
) -> f64 {
    let rhs = match alg {
        Algorithm::GaussJordan | Algorithm::LeastSquares | Algorithm::QrSolve => 1,
        _ => 0,
    };
    let bytes = bytes_moved(n, n, rhs, elem_bytes) * count as f64;
    bytes / (p.beta_glb_gbs * 1e9)
}

/// The communication lower bound the paper closes Section IV with: even
/// with blocked algorithms inside a thread, performance is "determined by
/// the amount of global bandwidth and the amount of local storage per
/// thread ... regardless of the blocking strategy or algorithm" (Ballard,
/// Demmel, Holtz, Schwartz \[6\]). For O(n³) dense linear algebra with M
/// words of local storage, at least `flops / sqrt(8 M)` words must cross
/// the memory interface, bounding the attainable rate at
/// `beta_glb * sqrt(8 M) / word_bytes` FLOP/s.
pub fn communication_bound_gflops(p: &ModelParams, local_words: usize, elem_bytes: usize) -> f64 {
    let m = local_words as f64;
    p.beta_glb_gbs * (8.0 * m).sqrt() / elem_bytes as f64
}

/// The largest n for which the *entire* matrix fits the per-thread
/// register file (below which the simple read-once/write-once bound of
/// `predicted_gflops` applies instead of the blocked bound).
pub fn register_resident_limit(regs: usize, rhs_cols: usize, elem_words: usize) -> usize {
    let mut n = 1;
    while (n + 1) * (n + 1 + rhs_cols) * elem_words + 12 <= regs {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_7x7_predicts_126_gflops() {
        // Section IV's worked example: 1.17 FLOPs/byte x 108 GB/s ≈ 126.
        let p = ModelParams::table_iv();
        let g = predicted_gflops(&p, Algorithm::Qr, 7, 4);
        assert!((g - 126.0).abs() < 2.0, "got {g}");
    }

    #[test]
    fn prediction_grows_linearly_with_n_for_qr() {
        // AI of QR is Θ(n), so the roofline grows with n.
        let p = ModelParams::table_iv();
        let g4 = predicted_gflops(&p, Algorithm::Qr, 4, 4);
        let g8 = predicted_gflops(&p, Algorithm::Qr, 8, 4);
        assert!(g8 > 1.8 * g4);
    }

    #[test]
    fn lu_predicts_half_of_gj() {
        let p = ModelParams::table_iv();
        let lu = predicted_gflops(&p, Algorithm::Lu, 6, 4);
        let qr = predicted_gflops(&p, Algorithm::Qr, 6, 4);
        assert!(lu < qr, "LU does fewer flops on the same bytes");
    }

    #[test]
    fn communication_bound_caps_blocked_per_thread() {
        // With the GF100's 64 registers, a blocked per-thread algorithm
        // cannot beat ~1.2 TFLOP/s even in theory... but the relevant
        // regime (the paper's point) is that the bound *scales with the
        // square root of local storage*: 4x the registers only doubles it.
        let p = ModelParams::table_iv();
        let b64 = communication_bound_gflops(&p, 64, 4);
        let b256 = communication_bound_gflops(&p, 256, 4);
        assert!((b256 / b64 - 2.0).abs() < 1e-9);
        // And the register-resident roofline at n = 7 sits far below it:
        // the bound is not the binding constraint until spilling starts.
        let roofline = predicted_gflops(&p, Algorithm::Qr, 7, 4);
        assert!(roofline < b64);
    }

    #[test]
    fn register_limit_matches_figure_4() {
        assert_eq!(register_resident_limit(64, 0, 1), 7);
        assert_eq!(register_resident_limit(64, 0, 2), 5);
        assert!(register_resident_limit(256, 0, 1) > 7);
    }

    #[test]
    fn time_is_bandwidth_times_bytes() {
        let p = ModelParams::table_iv();
        let t = predicted_time_s(&p, Algorithm::Lu, 8, 64000, 4);
        let bytes = 2.0 * 64.0 * 4.0 * 64000.0;
        assert!((t - bytes / 108e9).abs() / t < 1e-12);
    }
}
