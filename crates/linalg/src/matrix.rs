//! Row-major dense `f64` matrix.
//!
//! Sized for the workloads in this repository: LSTM weight matrices up to a
//! few hundred rows/columns and GP Gram matrices up to a few thousand.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "from_vec: {} elements cannot fill {rows}x{cols}",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from nested row slices (for tests and small literals).
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Samples every entry uniformly from `[-scale, scale]`.
    pub fn random_uniform(rows: usize, cols: usize, scale: f64, rng: &mut impl Rng) -> Self {
        Matrix {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|_| rng.gen_range(-scale..=scale))
                .collect(),
        }
    }

    /// Xavier/Glorot uniform initialization for a layer with the given fan-in
    /// and fan-out, the initializer TensorFlow uses for LSTM kernels.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Self::random_uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`: ikj loop order streaming over `rhs`
    /// rows, one ascending-`k` accumulator per output element, zero
    /// entries of `self` skipped.
    ///
    /// No hot path multiplies two dense matrices; this is the oracle the
    /// packed-A GEMM ([`crate::pack::PackedA::matmul_into`]) is pinned to
    /// bitwise, and the reference `A^T A` build of the least-squares tests.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "matmul: ({}x{}) * ({}x{})",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0; m * n];
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            let a_row = &self.data[r * k..(r + 1) * k];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if self.cols != x.len() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("matvec: ({}x{}) * {}", self.rows, self.cols, x.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| crate::vecops::dot(self.row(r), x))
            .collect())
    }

    /// Allocation-free matrix-vector product `out = self * x` with the
    /// four-lane dot kernel — the per-timestep hot path of the recurrent
    /// backward passes.
    ///
    /// # Panics
    /// Panics on shape mismatch (hot path; callers guarantee shapes).
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(self.cols, x.len(), "matvec_into: input length");
        assert_eq!(self.rows, out.len(), "matvec_into: output length");
        for (r, o) in out.iter_mut().enumerate() {
            *o = crate::vecops::dot4(self.row(r), x);
        }
    }

    /// Transposed matrix-vector product `self^T * x`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if self.rows != x.len() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("matvec_t: ({}x{})^T * {}", self.rows, self.cols, x.len()),
            });
        }
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut out);
        Ok(out)
    }

    /// Allocation-free transposed matrix-vector product `out = self^T * x`.
    ///
    /// Streams whole rows of `self` (already the cache-friendly access
    /// order for a row-major transposed product, so no packing is needed)
    /// and accumulates with vectorizable row axpys.
    ///
    /// # Panics
    /// Panics on shape mismatch (hot path; callers guarantee shapes).
    pub fn matvec_t_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(self.rows, x.len(), "matvec_t_into: input length");
        assert_eq!(self.cols, out.len(), "matvec_t_into: output length");
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * xr;
            }
        }
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        self.zip_assign(rhs, "add_assign", |a, b| a + b)
    }

    /// In-place elementwise subtraction.
    pub fn sub_assign(&mut self, rhs: &Matrix) -> Result<()> {
        self.zip_assign(rhs, "sub_assign", |a, b| a - b)
    }

    /// In-place `self += alpha * rhs` (matrix axpy, the optimizer hot path).
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<()> {
        self.zip_assign(rhs, "axpy", |a, b| a + alpha * b)
    }

    fn zip_assign(
        &mut self,
        rhs: &Matrix,
        what: &str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "{what}: ({}x{}) vs ({}x{})",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a copy with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Reshapes to a `rows x cols` matrix of zeros, reusing the allocation
    /// (reused scratch that serves products of varying shapes).
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Sum of squares of all entries (used for global gradient clipping).
    pub fn sum_squares(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>()
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Maximum absolute difference to another matrix of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch (test helper).
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let i2 = Matrix::identity(2);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i2).unwrap(), a);
        assert_eq!(i3.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::random_uniform(9, 14, 1.0, &mut rng);
        let x: Vec<f64> = (0..14).map(|i| (i as f64 * 0.37).sin()).collect();
        let expect = a.matvec(&x).unwrap();
        let mut out = vec![f64::NAN; 9];
        a.matvec_into(&x, &mut out);
        for (e, o) in expect.iter().zip(&out) {
            assert!((e - o).abs() <= 1e-12 * (1.0 + e.abs()));
        }
    }

    #[test]
    fn matvec_t_into_matches_matvec_t() {
        let mut rng = StdRng::seed_from_u64(29);
        let a = Matrix::random_uniform(11, 6, 1.0, &mut rng);
        let x: Vec<f64> = (0..11).map(|i| i as f64 - 5.0).collect();
        let expect = a.matvec_t(&x).unwrap();
        let mut out = vec![f64::NAN; 6];
        a.matvec_t_into(&x, &mut out);
        assert_eq!(expect, out);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let x = vec![3.0, 4.0];
        assert_eq!(a.matvec(&x).unwrap(), vec![-1.0, 8.0]);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random_uniform(5, 7, 1.0, &mut rng);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let via_t = a.transpose().matvec(&x).unwrap();
        let direct = a.matvec_t(&x).unwrap();
        for (u, v) in via_t.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let g = Matrix::filled(2, 2, 2.0);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a, Matrix::zeros(2, 2));
        let mut b = Matrix::filled(2, 2, 3.0);
        b.scale(2.0);
        assert_eq!(b, Matrix::filled(2, 2, 6.0));
    }

    #[test]
    fn xavier_entries_within_limit() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = Matrix::xavier_uniform(30, 20, &mut rng);
        let limit = (6.0 / 50.0_f64).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        // Not degenerate.
        assert!(m.frobenius_norm() > 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn col_map_and_filled() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
        let doubled = a.map(|v| v * 2.0);
        assert_eq!(doubled, Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
        let b = Matrix::filled(2, 2, 1.5);
        assert_eq!(b.as_slice(), &[1.5; 4]);
        assert!(b.is_finite());
        let mut c = Matrix::filled(1, 1, f64::NAN);
        assert!(!c.is_finite());
        c.sub_assign(&Matrix::zeros(1, 1)).unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.0, 4.25]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
