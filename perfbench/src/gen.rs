//! Seeded input generation. Every batch is a pure function of a seed, so a
//! run's inputs repeat exactly for the same `--seed`; the program only ever
//! sees the generated matrices.

use regla_core::{MatBatch, C32};

/// SplitMix64: a small, fast, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent stream seed from a parent seed and a path of
/// indices (pass, round, point, ...).
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(seed ^ 0x005E_ED0F_BE4C_u64, |h, &x| {
        Rng::new(h ^ x.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
    })
}

/// Matrix family of a generated batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Uniform entries in `[-1, 1)`: right-hand sides and QR inputs.
    Plain,
    /// Plain plus `n` on the diagonal: the no-pivot LU and Gauss-Jordan
    /// kernels (the paper's choice) need no pivoting on these.
    DiagDominant,
    /// Symmetric and diagonally dominant with a positive diagonal, hence
    /// symmetric positive definite: Cholesky inputs.
    Spd,
}

/// A real batch of `count` `rows x cols` matrices.
pub fn real(rows: usize, cols: usize, count: usize, kind: Kind, seed: u64) -> MatBatch<f32> {
    let mut rng = Rng::new(seed);
    let diag = cols as f32;
    match kind {
        Kind::Plain => MatBatch::from_fn(rows, cols, count, |_, _, _| rng.unit()),
        Kind::DiagDominant => MatBatch::from_fn(rows, cols, count, |_, i, j| {
            rng.unit() + if i == j { diag } else { 0.0 }
        }),
        Kind::Spd => {
            let mut b = MatBatch::from_fn(rows, cols, count, |_, _, _| rng.unit());
            for k in 0..count {
                for j in 0..cols {
                    for i in 0..j {
                        b.set(k, i, j, b.get(k, j, i));
                    }
                    b.set(k, j, j, b.get(k, j, j).abs() + diag);
                }
            }
            b
        }
    }
}

/// A complex batch with uniform real and imaginary parts (STAP training
/// matrices).
pub fn complex(rows: usize, cols: usize, count: usize, seed: u64) -> MatBatch<C32> {
    let mut rng = Rng::new(seed);
    MatBatch::from_fn(rows, cols, count, |_, _, _| {
        C32::new(rng.unit(), rng.unit())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_batches_are_symmetric_with_dominant_diagonal() {
        let b = real(6, 6, 3, Kind::Spd, 7);
        for k in 0..3 {
            for i in 0..6 {
                let off: f32 = (0..6)
                    .filter(|&j| j != i)
                    .map(|j| b.get(k, i, j).abs())
                    .sum();
                assert!(b.get(k, i, i) > off);
                for j in 0..6 {
                    assert_eq!(b.get(k, i, j), b.get(k, j, i));
                }
            }
        }
    }

    #[test]
    fn same_seed_same_batch() {
        let a = real(5, 5, 4, Kind::DiagDominant, 11);
        let b = real(5, 5, 4, Kind::DiagDominant, 11);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), real(5, 5, 4, Kind::DiagDominant, 12).data());
    }
}
