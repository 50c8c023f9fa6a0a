//! Column-major host matrix, the shape LAPACK and the paper's kernels use.

use crate::scalar::Scalar;

/// Dense column-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build from a column-major slice.
    pub fn from_col_major(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols);
        Mat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Borrow column `j`.
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Conjugate transpose.
    pub fn hermitian_transpose(&self) -> Mat<T> {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x.abs2()).sum::<f64>().sqrt()
    }

    /// `self - other` Frobenius distance.
    pub fn frob_dist(&self, other: &Mat<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs2())
            .sum::<f64>()
            .sqrt()
    }

    /// Naive matrix product (reference; performance code uses `host::gemm`).
    pub fn matmul(&self, other: &Mat<T>) -> Mat<T> {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let bkj = other[(k, j)];
                for i in 0..self.rows {
                    let v = out[(i, j)] + self[(i, k)] * bkj;
                    out[(i, j)] = v;
                }
            }
        }
        out
    }

    /// Extract a rectangular view as a new matrix.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Mat<T> {
        Mat::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Make the matrix strictly diagonally dominant in place (the paper
    /// benchmarks its pivot-free LU/GJ on diagonally dominant matrices).
    pub fn make_diagonally_dominant(&mut self) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let row_sum: f64 = (0..self.cols)
                .filter(|&j| j != i)
                .map(|j| self[(i, j)].abs())
                .sum();
            self[(i, i)] = T::from_f64(row_sum + 1.0);
        }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C32;

    #[test]
    fn col_major_layout() {
        let m = Mat::from_fn(2, 3, |i, j| (i + 10 * j) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        assert_eq!(m[(1, 2)], 21.0);
        assert_eq!(m.col(1), &[10.0, 11.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f32 + 1.0);
        let i = Mat::<f32>::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn hermitian_transpose_conjugates() {
        let a = Mat::from_fn(2, 2, |i, j| C32::new(i as f32, j as f32));
        let h = a.hermitian_transpose();
        assert_eq!(h[(0, 1)], C32::new(1.0, 0.0).conj());
        assert_eq!(h[(1, 0)], C32::new(0.0, 1.0).conj());
    }

    #[test]
    fn frobenius_norm_of_unit_vectors() {
        let m = Mat::<f32>::identity(4);
        assert!((m.frob_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diagonally_dominant_really_dominates() {
        let mut m = Mat::from_fn(4, 4, |i, j| ((i * j) as f32).sin());
        m.make_diagonally_dominant();
        for i in 0..4 {
            let off: f64 = (0..4)
                .filter(|&j| j != i)
                .map(|j| Scalar::abs(m[(i, j)]))
                .sum();
            assert!(Scalar::abs(m[(i, i)]) > off);
        }
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let s = a.submatrix(1, 2, 2, 2);
        assert_eq!(s[(0, 0)], a[(1, 2)]);
        assert_eq!(s[(1, 1)], a[(2, 3)]);
    }
}
