//! Doppler processing: the filter bank that precedes adaptive filtering.
//!
//! STAP has "many computational phases" (Section VII); the stage before
//! the adaptive solve is a Doppler filter bank — a windowed DFT across the
//! pulse dimension. Post-Doppler STAP then adapts only over the spatial
//! (channel) dimension within each Doppler bin, turning the big space-time
//! problem into many small ones: exactly the kind of batched small complex
//! systems (one per bin per range segment) this library accelerates.

use crate::datacube::DataCube;
use regla_core::{C32, Mat, MatBatch, Scalar, Session};
use std::f32::consts::TAU;

/// The data cube after Doppler filtering:
/// `bins x channels x range_gates` complex samples.
pub struct DopplerCube {
    pub bins: usize,
    pub channels: usize,
    pub range_gates: usize,
    data: Vec<C32>,
}

impl DopplerCube {
    /// Spatial snapshot of `gate` in Doppler `bin`.
    pub fn snapshot(&self, bin: usize, gate: usize) -> &[C32] {
        let base = (bin * self.range_gates + gate) * self.channels;
        &self.data[base..base + self.channels]
    }

    /// Normalised Doppler frequency at the centre of `bin`.
    pub fn bin_freq(&self, bin: usize) -> f32 {
        let b = bin as f32 / self.bins as f32;
        if b < 0.5 {
            b
        } else {
            b - 1.0
        }
    }
}

/// Windowed DFT filter bank across the pulse dimension (Hann window, one
/// output bin per pulse).
pub fn doppler_filterbank(cube: &DataCube) -> DopplerCube {
    let (nc, np, ng) = (cube.channels, cube.pulses, cube.range_gates);
    let bins = np;
    // Hann window tapers the Doppler sidelobes (clutter leakage control).
    let window: Vec<f32> = (0..np)
        .map(|p| 0.5 - 0.5 * (TAU * p as f32 / np as f32).cos())
        .collect();
    let mut data = vec![C32::default(); bins * nc * ng];
    for g in 0..ng {
        let snap = cube.snapshot(g);
        for b in 0..bins {
            for ch in 0..nc {
                let mut acc = C32::default();
                for p in 0..np {
                    let ph = -TAU * (b as f32) * (p as f32) / np as f32;
                    let tw = C32::new(ph.cos(), ph.sin());
                    acc += snap[p * nc + ch] * tw * C32::new(window[p], 0.0);
                }
                data[(b * ng + g) * nc + ch] = acc;
            }
        }
    }
    DopplerCube {
        bins,
        channels: nc,
        range_gates: ng,
        data,
    }
}

/// Spatial steering vector for `channels` elements at spatial frequency
/// `fs`.
pub fn spatial_steering(channels: usize, fs: f32) -> Vec<C32> {
    (0..channels)
        .map(|ch| {
            let ph = TAU * fs * ch as f32;
            C32::new(ph.cos(), ph.sin())
        })
        .collect()
}

/// Post-Doppler STAP: per Doppler bin, estimate the spatial covariance
/// from training gates, and solve `R w = s` for the adaptive spatial
/// weights — batched over all bins on the (simulated) GPU via the
/// Gauss-Jordan kernel (the systems are `channels x channels`, the MRI-
/// sized problems of the paper's introduction).
pub fn post_doppler_weights(
    session: &Session,
    dc: &DopplerCube,
    training_gates: &[usize],
    fs: f32,
    loading: f32,
) -> Vec<Vec<C32>> {
    let nc = dc.channels;
    let s = spatial_steering(nc, fs);
    // Batched spatial covariances: R_b = mean over gates of x x^H + δI.
    let mut cov = MatBatch::<C32>::zeros(nc, nc, dc.bins);
    for b in 0..dc.bins {
        let mut r = Mat::<C32>::zeros(nc, nc);
        for &g in training_gates {
            let x = dc.snapshot(b, g);
            for i in 0..nc {
                for j in 0..nc {
                    let upd = x[i] * x[j].conj();
                    r[(i, j)] += upd.scale(1.0 / training_gates.len() as f64);
                }
            }
        }
        for i in 0..nc {
            r[(i, i)] += C32::new(loading, 0.0);
        }
        cov.set_mat(b, &r);
    }
    let rhs = MatBatch::from_fn(nc, 1, dc.bins, |_, i, _| s[i]);
    let run = session
        .gj_solve(&cov, &rhs)
        .expect("valid covariance batch");
    (0..dc.bins)
        .map(|b| (0..nc).map(|i| run.out.get(b, i, nc)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacube::{CubeParams, Target};

    fn tone_cube(fd: f32) -> DataCube {
        let p = CubeParams {
            channels: 4,
            pulses: 16,
            range_gates: 8,
            clutter_amp: 0.0,
            noise_amp: 0.0,
            ..Default::default()
        };
        let t = Target {
            range_gate: 3,
            spatial_freq: 0.0,
            doppler_freq: fd,
            amplitude: 1.0,
        };
        DataCube::synthesize(&p, &[t])
    }

    #[test]
    fn tone_concentrates_in_its_bin() {
        // A target at bin-centre Doppler 4/16 lands in bin 4.
        let cube = tone_cube(4.0 / 16.0);
        let dc = doppler_filterbank(&cube);
        let power = |b: usize| -> f32 {
            dc.snapshot(b, 3).iter().map(|x| x.abs2()).sum::<f32>()
        };
        let peak = power(4);
        for b in 0..16 {
            if (b as i64 - 4).unsigned_abs() as usize > 1 {
                assert!(
                    power(b) < 0.05 * peak,
                    "bin {b} leaks {} vs peak {peak}",
                    power(b)
                );
            }
        }
    }

    #[test]
    fn bin_freq_wraps_negative() {
        let cube = tone_cube(0.0);
        let dc = doppler_filterbank(&cube);
        assert_eq!(dc.bin_freq(0), 0.0);
        assert!(dc.bin_freq(dc.bins - 1) < 0.0);
        assert!((dc.bin_freq(dc.bins / 4) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn spatial_steering_is_unit_modulus() {
        for v in spatial_steering(8, 0.3) {
            assert!((v.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn post_doppler_whitens_the_interference() {
        // Clutter at one Doppler/angle; a look direction away from it must
        // get near-matched-filter weights; at the clutter bin the weights
        // must steer away from the clutter's spatial signature.
        let p = CubeParams {
            channels: 6,
            pulses: 8,
            range_gates: 32,
            clutter_patches: 1,
            clutter_amp: 6.0,
            noise_amp: 0.2,
            ridge_slope: 1.0,
            seed: 7,
        };
        let cube = crate::datacube::DataCube::synthesize(&p, &[]);
        let dc = doppler_filterbank(&cube);
        let session = Session::new();
        let gates: Vec<usize> = (0..32).collect();
        let weights = post_doppler_weights(&session, &dc, &gates, 0.3, 0.3);
        assert_eq!(weights.len(), dc.bins);
        // Output clutter power with adaptive weights vs non-adaptive, at
        // every bin: adaptivity must not amplify the interference.
        let s = spatial_steering(6, 0.3);
        let mut adaptive = 0.0f32;
        let mut matched = 0.0f32;
        for (b, wb) in weights.iter().enumerate() {
            for g in 0..32 {
                let x = dc.snapshot(b, g);
                let dot = |w: &[C32]| -> f32 {
                    w.iter()
                        .zip(x)
                        .map(|(wi, xi)| wi.conj() * *xi)
                        .sum::<C32>()
                        .abs2()
                };
                // Normalise both weightings to unit gain on the steering.
                let wg: C32 = wb
                    .iter()
                    .zip(&s)
                    .map(|(wi, si)| wi.conj() * *si)
                    .sum();
                let sg: C32 = s.iter().zip(&s).map(|(a, b)| a.conj() * *b).sum();
                if wg.abs() > 1e-6 {
                    adaptive += dot(wb) / wg.abs2();
                }
                matched += dot(&s) / sg.abs2();
            }
        }
        assert!(
            adaptive < matched,
            "adaptive residual {adaptive} must undercut matched {matched}"
        );
    }
}
