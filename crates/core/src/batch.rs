//! Batches of equally-shaped matrices, on the host and on the device.
//!
//! The device layout is one column-major matrix after another, which is the
//! layout the paper's kernels consume: the per-block loader (Listing 4)
//! offsets `d_A` to its problem and gathers the 2D-cyclic tile from it.

use crate::matrix::Mat;
use crate::scalar::Scalar;
use regla_gpu_sim::{DPtr, GlobalMemory};
use std::ops::Range;

/// A batch of `count` matrices, each `rows x cols`, stored contiguously.
#[derive(Clone, Debug)]
pub struct MatBatch<T> {
    rows: usize,
    cols: usize,
    count: usize,
    data: Vec<T>,
}

impl<T: Scalar> MatBatch<T> {
    pub fn zeros(rows: usize, cols: usize, count: usize) -> Self {
        MatBatch {
            rows,
            cols,
            count,
            data: vec![T::zero(); rows * cols * count],
        }
    }

    /// Build each matrix entry with `f(problem, row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        count: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut b = Self::zeros(rows, cols, count);
        for k in 0..count {
            for j in 0..cols {
                for i in 0..rows {
                    b.set(k, i, j, f(k, i, j));
                }
            }
        }
        b
    }

    /// Replicate one matrix `count` times.
    pub fn replicate(mat: &Mat<T>, count: usize) -> Self {
        Self::from_fn(mat.rows(), mat.cols(), count, |_, i, j| mat[(i, j)])
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// Elements per problem.
    pub fn elems_per_mat(&self) -> usize {
        self.rows * self.cols
    }

    /// Device words per problem.
    pub fn words_per_mat(&self) -> usize {
        self.elems_per_mat() * T::WORDS
    }

    #[inline]
    pub fn get(&self, k: usize, i: usize, j: usize) -> T {
        self.data[k * self.elems_per_mat() + j * self.rows + i]
    }

    #[inline]
    pub fn set(&mut self, k: usize, i: usize, j: usize, v: T) {
        let e = self.elems_per_mat();
        self.data[k * e + j * self.rows + i] = v;
    }

    /// Copy problem `k` out as a standalone matrix.
    pub fn mat(&self, k: usize) -> Mat<T> {
        let e = self.elems_per_mat();
        Mat::from_col_major(self.rows, self.cols, &self.data[k * e..(k + 1) * e])
    }

    /// Overwrite problem `k`.
    pub fn set_mat(&mut self, k: usize, m: &Mat<T>) {
        assert_eq!((m.rows(), m.cols()), (self.rows, self.cols));
        let e = self.elems_per_mat();
        self.data[k * e..(k + 1) * e].copy_from_slice(m.data());
    }

    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Upload the problems in `problems` into a fresh device allocation
    /// sized for the whole batch and return its pointer. Each element's
    /// words are written straight into device memory. Problems outside
    /// the ranges are never written: they read as zero and stay
    /// uninitialized for the sanitizer's initcheck. The one range
    /// `0..count` uploads everything.
    pub fn to_device(&self, gmem: &mut GlobalMemory, problems: &[Range<usize>]) -> DPtr {
        let (e, wpm) = (self.elems_per_mat(), self.words_per_mat());
        let ptr = gmem.alloc(wpm * self.count);
        for r in problems {
            let dst = gmem.slice_mut(ptr.offset(r.start * wpm), r.len() * wpm);
            for (d, x) in dst
                .chunks_exact_mut(T::WORDS)
                .zip(&self.data[r.start * e..r.end * e])
            {
                d.copy_from_slice(&x.to_words()[..T::WORDS]);
            }
        }
        ptr
    }

    /// Download the problems in `problems` of a device batch of this shape
    /// at `ptr` straight into `self`; every other problem keeps its value.
    pub fn copy_from_device(&mut self, gmem: &GlobalMemory, ptr: DPtr, problems: &[Range<usize>]) {
        let (e, wpm) = (self.elems_per_mat(), self.words_per_mat());
        for r in problems {
            let src = gmem.slice(ptr.offset(r.start * wpm), r.len() * wpm);
            for (x, w) in self.data[r.start * e..r.end * e]
                .iter_mut()
                .zip(src.chunks_exact(T::WORDS))
            {
                let mut words = [0.0f32; 2];
                words[..T::WORDS].copy_from_slice(w);
                *x = T::from_words(words);
            }
        }
    }

    /// Horizontally concatenate two batches: `[A | B]` per problem (the
    /// augmented systems the solvers consume). Storage is column-major, so
    /// each augmented problem is A's columns followed by B's: two
    /// contiguous slice copies.
    pub fn augment(a: &MatBatch<T>, b: &MatBatch<T>) -> MatBatch<T> {
        assert_eq!(a.rows, b.rows, "row mismatch");
        assert_eq!(a.count, b.count, "batch size mismatch");
        let (ea, eb) = (a.elems_per_mat(), b.elems_per_mat());
        let mut data = Vec::with_capacity((ea + eb) * a.count);
        for k in 0..a.count {
            data.extend_from_slice(&a.data[k * ea..(k + 1) * ea]);
            data.extend_from_slice(&b.data[k * eb..(k + 1) * eb]);
        }
        MatBatch {
            rows: a.rows,
            cols: a.cols + b.cols,
            count: a.count,
            data,
        }
    }

    /// Copy problems `start .. start + len` into a new batch. Problems are
    /// stored contiguously, so this is one slice copy — the chunking
    /// primitive of the pipelined driver.
    pub fn slice_problems(&self, start: usize, len: usize) -> MatBatch<T> {
        assert!(
            start + len <= self.count,
            "slice {start}..{} exceeds batch of {}",
            start + len,
            self.count
        );
        let e = self.elems_per_mat();
        MatBatch {
            rows: self.rows,
            cols: self.cols,
            count: len,
            data: self.data[start * e..(start + len) * e].to_vec(),
        }
    }

    /// Reassemble equally-shaped batches into one (inverse of slicing a
    /// batch into chunks).
    pub fn concat_problems(parts: &[MatBatch<T>]) -> MatBatch<T> {
        assert!(!parts.is_empty(), "cannot concatenate zero batches");
        let (rows, cols) = (parts[0].rows, parts[0].cols);
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.data.len()).sum());
        let mut count = 0;
        for p in parts {
            assert_eq!((p.rows, p.cols), (rows, cols), "shape mismatch");
            data.extend_from_slice(&p.data);
            count += p.count;
        }
        MatBatch {
            rows,
            cols,
            count,
            data,
        }
    }

    /// Extract a rectangular sub-batch from every problem.
    pub fn sub(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatBatch<T> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        MatBatch::from_fn(rows, cols, self.count, |k, i, j| {
            self.get(k, r0 + i, c0 + j)
        })
    }

    /// Extract one column from every problem as an `rows x 1` batch.
    pub fn column(&self, j: usize) -> MatBatch<T> {
        self.sub(0, j, self.rows, 1)
    }

    /// Max Frobenius distance to another batch, per problem.
    pub fn max_frob_dist(&self, other: &MatBatch<T>) -> f64 {
        assert_eq!(self.count, other.count);
        (0..self.count)
            .map(|k| self.mat(k).frob_dist(&other.mat(k)))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C32;

    #[test]
    fn per_problem_indexing() {
        let b = MatBatch::from_fn(2, 2, 3, |k, i, j| (100 * k + 10 * i + j) as f32);
        assert_eq!(b.get(2, 1, 0), 210.0);
        assert_eq!(b.mat(1)[(0, 1)], 101.0);
    }

    #[test]
    fn device_round_trip_f32() {
        let b = MatBatch::from_fn(3, 2, 4, |k, i, j| (k + i * 7 + j * 13) as f32);
        let mut mem = GlobalMemory::with_bytes(1 << 16);
        let all = 0..4;
        let ptr = b.to_device(&mut mem, std::slice::from_ref(&all));
        let mut back = MatBatch::<f32>::zeros(3, 2, 4);
        back.copy_from_device(&mem, ptr, std::slice::from_ref(&all));
        assert_eq!(back.max_frob_dist(&b), 0.0);
    }

    #[test]
    fn device_round_trip_complex() {
        let b = MatBatch::from_fn(2, 2, 2, |k, i, j| C32::new(k as f32 + i as f32, j as f32));
        let mut mem = GlobalMemory::with_bytes(1 << 16);
        let all = 0..2;
        let ptr = b.to_device(&mut mem, std::slice::from_ref(&all));
        assert_eq!(mem.allocated_words(), 2 * 2 * 2 * 2);
        let mut back = MatBatch::<C32>::zeros(2, 2, 2);
        back.copy_from_device(&mem, ptr, std::slice::from_ref(&all));
        assert_eq!(back.max_frob_dist(&b), 0.0);
    }

    #[test]
    fn range_staging_moves_only_the_listed_problems() {
        let b = MatBatch::from_fn(2, 3, 5, |k, i, j| (k * 100 + i * 10 + j + 1) as f32);
        let mut mem = GlobalMemory::with_bytes(1 << 16);
        let ptr = b.to_device(&mut mem, &[1..2, 3..5]);
        assert_eq!(mem.allocated_words(), 2 * 3 * 5);
        let mut back = MatBatch::<f32>::zeros(2, 3, 5);
        back.copy_from_device(&mem, ptr, std::slice::from_ref(&(0..5)));
        for k in 0..5 {
            let want = if matches!(k, 1 | 3 | 4) {
                b.mat(k)
            } else {
                Mat::from_fn(2, 3, |_, _| 0.0)
            };
            assert_eq!(back.mat(k), want, "problem {k}");
        }
    }

    #[test]
    fn augment_appends_the_rhs_columns() {
        let a = MatBatch::from_fn(3, 2, 4, |k, i, j| (k * 100 + i * 10 + j) as f32);
        let b = MatBatch::from_fn(3, 1, 4, |k, i, _| -((k * 100 + i) as f32));
        let aug = MatBatch::augment(&a, &b);
        assert_eq!((aug.rows(), aug.cols(), aug.count()), (3, 3, 4));
        let want = MatBatch::from_fn(3, 3, 4, |k, i, j| {
            if j < 2 {
                a.get(k, i, j)
            } else {
                b.get(k, i, 0)
            }
        });
        assert_eq!(aug.data(), want.data());
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let b = MatBatch::from_fn(3, 2, 10, |k, i, j| (k * 100 + i * 10 + j) as f32);
        let parts = [
            b.slice_problems(0, 4),
            b.slice_problems(4, 3),
            b.slice_problems(7, 3),
        ];
        assert_eq!(parts[1].count(), 3);
        assert_eq!(parts[1].get(0, 2, 1), 421.0);
        let back = MatBatch::concat_problems(&parts);
        assert_eq!(back.count(), 10);
        assert_eq!(back.data(), b.data());
    }

    #[test]
    fn replicate_copies_the_prototype() {
        let m = Mat::from_fn(2, 2, |i, j| (i + j) as f32);
        let b = MatBatch::replicate(&m, 5);
        assert_eq!(b.count(), 5);
        assert_eq!(b.mat(4), m);
    }
}
