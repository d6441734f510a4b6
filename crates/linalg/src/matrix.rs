//! Row-major dense `f64` matrix.
//!
//! Sized for the workloads in this repository: LSTM weight matrices up to a
//! few hundred rows/columns and GP Gram matrices up to a few thousand. The
//! matrix product switches to a rayon-parallel row partition once the work
//! grows past a threshold, following the data-parallelism idiom of the
//! HPC-parallel guides (sequential fallback below the threshold keeps small
//! products allocation- and scheduling-free).

use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// Minimum number of multiply-adds before `matmul` goes parallel.
const PAR_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Minimum number of multiply-adds before `matmul` dispatches to the
/// packed-panel register-tiled kernel. Below this the O(mk + kn) packing
/// traffic costs more than the tiled compute saves. Calibrated from the
/// `examples/crossover.rs` sweep on the CI host (median-of-9): square
/// n=4 runs at 0.60x (packing overhead swamps 64 flops), n=8 at 1.32x,
/// n=12 at 1.71x, rising monotonically to 4.0x by n=256 — so the flop
/// gate sits at the measured n=8 crossover, `8^3 = 512` multiply-adds.
const PACKED_FLOP_THRESHOLD: usize = 8 * 8 * 8;

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

    /// Matrix product `self * rhs`.
    ///
    /// Dispatches to the packed-panel register-tiled FMA kernel
    /// ([`Self::matmul_packed`]) once the flop count justifies the packing
    /// traffic, and to the naive streaming kernel ([`Self::matmul_naive`])
    /// below that. Results are deterministic run-to-run and
    /// `1e-9`-relative-bounded against [`Self::matmul_naive`] (the packed
    /// kernel's fused multiply-adds round once per step). Paths that need
    /// bit-level agreement with the references — the LSTM batched gate
    /// step and everything feeding the serve digests — use the bitwise
    /// kernels ([`Self::matmul_into`], [`crate::pack::PackedA`]) instead
    /// of this dispatcher. Both legs parallelize over blocks of output
    /// rows past an internal threshold (`64^3` multiply-adds) when more
    /// than one rayon thread exists.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        // Thin-row guard, from the examples/thinshape.rs probe: with fewer
        // than MR output rows the A panel is zero-padded to a full
        // micro-tile, so the kernel computes MR/m times the useful work —
        // measured 0.27x (m=1), 0.51x (m=2), 0.56x (m=4) against naive's
        // already-streaming row axpys, recovering to 1.19x at m=MR. Thin
        // *columns* stay packed (64x64x1 measured 1.93x, 256x256x1 2.14x):
        // the padded B panel still feeds full-width vector lanes where the
        // naive path strides.
        if self.cols == rhs.rows
            && self.rows >= crate::microkernel::MR
            && self.rows * self.cols * rhs.cols >= PACKED_FLOP_THRESHOLD
        {
            self.matmul_packed(rhs)
        } else {
            self.matmul_naive(rhs)
        }
    }

    /// Naive matrix product: ikj loop order streaming over `rhs` rows, with
    /// a rayon row partition past the flop threshold.
    ///
    /// This is the pre-blocking reference implementation; [`Self::matmul`]
    /// uses it for small products, and the perf-bench harness times the
    /// blocked kernel against it.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
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
        let flops = m * k * n;

        let row_kernel = |r: usize, out_row: &mut [f64]| {
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
        };

        if flops >= PAR_FLOP_THRESHOLD && rayon::current_num_threads() > 1 {
            out.par_chunks_mut(n)
                .enumerate()
                .for_each(|(r, out_row)| row_kernel(r, out_row));
        } else {
            for (r, out_row) in out.chunks_mut(n).enumerate() {
                row_kernel(r, out_row);
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// Packed-panel register-tiled matrix product (FMA lanes).
    ///
    /// Packs `self` into `MR`-row micro-panels and `rhs` into `NR`-column
    /// micro-panels once per call ([`crate::pack`]), then drives the
    /// `MR x NR` register-tiled fused-multiply-add microkernel
    /// ([`crate::microkernel::gemm_fma`]) over the panel grid: each output
    /// tile accumulates entirely in registers and both operands stream in
    /// exactly the order the kernel consumes them. Edge tiles compute on
    /// zero-padded panels and store only the live corner. Each output
    /// element accumulates its `k` products in ascending order through a
    /// single accumulator, but each FMA step rounds once instead of
    /// twice, so results are `1e-9`-relative-bounded against
    /// [`Self::matmul_naive`] rather than bitwise; the equivalence suite
    /// asserts that bound. Past the parallel threshold the `MR`-row panel
    /// strips fan out across rayon workers (same per-element chains, so
    /// parallelism never changes results).
    pub fn matmul_packed(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "matmul: ({}x{}) * ({}x{})",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        use crate::microkernel::{self, MR};

        // Packing scratch is thread-local and reused across calls: a fresh
        // half-megabyte Vec per product would spend more time in page
        // faults than the pack itself (measured ~35% of total call time at
        // n = 256 before the cache; both pack routines fully overwrite the
        // live lanes, so stale contents are harmless).
        thread_local! {
            static PACK_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }

        let mut out = vec![0.0; m * n];
        let flops = m * k * n;
        PACK_SCRATCH.with(|cell| {
            let (apack, bpack) = &mut *cell.borrow_mut();
            apack.resize(m.div_ceil(MR).max(1) * MR * k, 0.0);
            crate::pack::pack_a_into(&self.data, m, k, apack);
            crate::pack::pack_b_into(&rhs.data, k, n, bpack);
            let (a_panels, b_panels) = (&apack[..], &bpack[..]);
            if k > 0
                && n > 0
                && flops >= PAR_FLOP_THRESHOLD
                && rayon::current_num_threads() > 1
            {
                // One strip = the rows covered by one packed-A panel; each
                // worker runs the serial kernel on its own panel, so every
                // output element keeps its single ascending-`k` accumulator.
                out.par_chunks_mut(MR * n)
                    .enumerate()
                    .for_each(|(pi, strip)| {
                        let a_panel = &a_panels[pi * MR * k..(pi + 1) * MR * k];
                        microkernel::gemm_fma(strip.len() / n, k, n, a_panel, b_panels, strip);
                    });
            } else {
                microkernel::gemm_fma(m, k, n, a_panels, b_panels, &mut out);
            }
        });
        Matrix::from_vec(m, n, out)
    }

    /// Allocation-free matrix product `out = self * rhs`, written into a
    /// caller-owned flat row-major buffer rather than a fresh [`Matrix`]
    /// (the unpacked twin of [`crate::pack::PackedA::matmul_into`]).
    ///
    /// Runs serially with 2-row x 8-column register blocking, column tile
    /// outermost: each output tile accumulates entirely in registers and is
    /// stored once (no re-streaming of the output row per `k` like the
    /// naive update order), and the active `B` column panel (`k x 8`
    /// doubles) stays L1-hot while every `A` row pair sweeps past it. Each
    /// output element still accumulates its `k` products in ascending order
    /// exactly as [`Self::matmul_naive`] and [`Self::matmul_packed`] do,
    /// so results match [`Self::matmul`] **bitwise** at every shape (finite
    /// inputs; `x + 0.0*b` and the naive kernel's skip of zero `a`
    /// coefficients agree bitwise whenever `b` is finite).
    ///
    /// # Panics
    /// Panics on shape mismatch (hot path; callers guarantee shapes).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut [f64]) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_into: ({}x{}) * ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        assert_eq!(
            out.len(),
            m * n,
            "matmul_into: output length {} != {}x{}",
            out.len(),
            m,
            n
        );
        const JB: usize = 8;
        let b_data = &rhs.data[..k * n];
        let a_data = &self.data[..m * k];
        let mut j = 0;
        while j + JB <= n {
            let mut i = 0;
            while i + 2 <= m {
                let a0 = &a_data[i * k..(i + 1) * k];
                let a1 = &a_data[(i + 1) * k..(i + 2) * k];
                let mut acc0 = [0.0f64; JB];
                let mut acc1 = [0.0f64; JB];
                for p in 0..k {
                    let b = &b_data[p * n + j..p * n + j + JB];
                    let (x0, x1) = (a0[p], a1[p]);
                    for t in 0..JB {
                        acc0[t] += x0 * b[t];
                        acc1[t] += x1 * b[t];
                    }
                }
                out[i * n + j..i * n + j + JB].copy_from_slice(&acc0);
                out[(i + 1) * n + j..(i + 1) * n + j + JB].copy_from_slice(&acc1);
                i += 2;
            }
            if i < m {
                let a0 = &a_data[i * k..(i + 1) * k];
                let mut acc0 = [0.0f64; JB];
                for p in 0..k {
                    let b = &b_data[p * n + j..p * n + j + JB];
                    let x0 = a0[p];
                    for t in 0..JB {
                        acc0[t] += x0 * b[t];
                    }
                }
                out[i * n + j..i * n + j + JB].copy_from_slice(&acc0);
            }
            j += JB;
        }
        while j < n {
            let mut i = 0;
            while i + 2 <= m {
                let a0 = &a_data[i * k..(i + 1) * k];
                let a1 = &a_data[(i + 1) * k..(i + 2) * k];
                let (mut s0, mut s1) = (0.0f64, 0.0f64);
                for p in 0..k {
                    let b = b_data[p * n + j];
                    s0 += a0[p] * b;
                    s1 += a1[p] * b;
                }
                out[i * n + j] = s0;
                out[(i + 1) * n + j] = s1;
                i += 2;
            }
            if i < m {
                let a0 = &a_data[i * k..(i + 1) * k];
                let mut s0 = 0.0f64;
                for p in 0..k {
                    s0 += a0[p] * b_data[p * n + j];
                }
                out[i * n + j] = s0;
            }
            j += 1;
        }
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
    /// order for a row-major transposed product — no packing needed, unlike
    /// `matmul`) and accumulates with vectorizable row axpys.
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

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for a in &mut self.data {
            *a = f(*a);
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

    /// Sets every entry to zero, keeping the allocation (per-batch gradient
    /// reset in the training loop).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
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
    fn matmul_into_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(33);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (4, 7, 3), (64, 16, 129), (9, 80, 70)] {
            let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
            let expect = a.matmul_naive(&b).unwrap();
            // A dirty reused buffer must be fully overwritten.
            let mut out = vec![f64::NAN; m * n];
            a.matmul_into(&b, &mut out);
            assert_eq!(out, expect.as_slice(), "({m}x{k})*({k}x{n})");
        }
    }

    #[test]
    #[should_panic(expected = "matmul_into")]
    fn matmul_into_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = vec![0.0; 6];
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn parallel_and_serial_matmul_agree() {
        // Big enough to cross PAR_FLOP_THRESHOLD. The dispatcher lands on
        // the packed FMA kernel here, so the triple-loop reference is
        // matched through the documented 1e-9-relative dispatcher bound,
        // not bitwise.
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::random_uniform(80, 70, 1.0, &mut rng);
        let b = Matrix::random_uniform(70, 90, 1.0, &mut rng);
        let c = a.matmul(&b).unwrap();
        // Serial reference.
        let mut reference = Matrix::zeros(80, 90);
        for r in 0..80 {
            for cc in 0..90 {
                let mut s = 0.0;
                for k in 0..70 {
                    s += a[(r, k)] * b[(k, cc)];
                }
                reference[(r, cc)] = s;
            }
        }
        assert!(c.max_abs_diff(&reference) < 1e-9 * reference.frobenius_norm().max(1.0));
    }

    #[test]
    fn packed_matmul_matches_naive_within_1e9() {
        // Shapes straddle the micro-tile (8x4), the packed-dispatch
        // threshold, and the parallel threshold, including non-multiples
        // of MR/NR and the 1xN / Nx1 degenerate edges. Both kernels
        // accumulate each output through a single ascending-`p`
        // accumulator, but the packed kernel's FMA lanes round once per
        // step, so agreement is 1e-9 relative rather than bitwise — the
        // dispatcher's documented tolerance contract.
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 13, 9),
            (9, 13, 1),
            (3, 5, 2),
            (8, 6, 4),
            (17, 33, 9),
            (40, 300, 31),
            (70, 70, 70),
            (65, 257, 130),
        ] {
            let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
            let packed = a.matmul_packed(&b).unwrap();
            let naive = a.matmul_naive(&b).unwrap();
            let scale = naive.frobenius_norm().max(1.0);
            assert!(
                packed.max_abs_diff(&naive) <= 1e-9 * scale,
                "({m}x{k})*({k}x{n}): packed kernel drifts from naive by {}",
                packed.max_abs_diff(&naive)
            );
            // The public dispatcher routes to one of the two kernels it
            // was just checked against.
            let dispatched = a.matmul(&b).unwrap();
            assert!(
                dispatched == packed || dispatched == naive,
                "({m}x{k})*({k}x{n}): dispatcher produced a third answer"
            );
        }
    }

    #[test]
    fn packed_matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul_packed(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.matmul_naive(&b),
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
        let mut b = Matrix::filled(2, 2, 1.5);
        b.map_inplace(|v| v - 0.5);
        assert_eq!(b, Matrix::filled(2, 2, 1.0));
        b.fill_zero();
        assert_eq!(b, Matrix::zeros(2, 2));
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
