//! Gram-matrix construction — the `O(n^2 d)` hot section of every GP fit.
//!
//! The Bayesian optimizer refits its surrogate after each observation, so
//! over a search the Gram build is evaluated hundreds of times on steadily
//! growing `n`. From [`PACKED_MIN_POINTS`] training points on, [`build`]
//! runs [`build_packed`]: the per-point coordinate `Vec`s are packed into
//! one contiguous `n x d` slab and the symmetric matrix is filled in
//! blockwise lower-triangle tiles, keeping both tiles' coordinate strips
//! L1-resident instead of pointer-chasing a heap allocation per pair.
//! Every entry is computed exactly once with the same squared-distance
//! accumulation order and the same family formula as the retained
//! [`build_serial`] reference, so both paths are **bitwise identical** —
//! not merely tolerance-equivalent — and fit results are independent of
//! the dispatch.

use ld_linalg::Matrix;

use crate::kernel::Kernel;

/// Tile edge for [`build_packed`]. A 32x32 tile of pair distances touches
/// at most `2 * 32 * d` packed coordinates — for the BO search spaces here
/// (`d` in the single digits) both coordinate strips stay resident in L1
/// across the whole tile.
const BLOCK: usize = 32;

/// Point count below which [`build`] stays on the serial sweep: the packed
/// build's slab copy, strip transpose, and per-row distance pass are fixed
/// overhead that tiny builds cannot amortize. Measured on the packed
/// kernels' reference host (`crates/gp/examples` crossover probe, d=2
/// Matérn-5/2): serial wins at n=10 (0.84x) through n=14 (0.99x), packed
/// takes over at n=16 (1.07x) and widens to 1.25x by n=256.
const PACKED_MIN_POINTS: usize = 15;

/// Builds `K + noise I` for the given kernel and training inputs. Below
/// [`PACKED_MIN_POINTS`] the serial sweep wins (no slab copy to amortize);
/// from there the blocked [`build_packed`] sweep runs. Both paths are
/// bitwise identical, so dispatch never affects fit results. Public so
/// the perf-bench harness can time the Gram hot section in isolation.
pub fn build(kernel: &Kernel, x: &[Vec<f64>], noise: f64) -> Matrix {
    let timing = crate::sections::enabled();
    // ld-lint: allow(determinism, "opt-in kernel section timer; timing is observed, never fed back into the fit")
    let t0 = timing.then(std::time::Instant::now);
    let k = if x.len() < PACKED_MIN_POINTS {
        build_serial(kernel, x, noise)
    } else {
        build_packed(kernel, x, noise)
    };
    if let Some(t0) = t0 {
        crate::sections::add_gram_build(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    k
}

/// The pre-change serial build, retained as the reference path (and the
/// small-`n` fast path: no slab copy). Public so the perf-bench harness
/// and the cross-crate equivalence suite can pin the packed path against
/// it directly.
pub fn build_serial(kernel: &Kernel, x: &[Vec<f64>], noise: f64) -> Matrix {
    let n = x.len();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(&x[i], &x[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += noise;
    }
    k
}

/// Blocked symmetric build on packed coordinates — the single-thread fast
/// path. The training inputs arrive as one heap allocation per point
/// (`&[Vec<f64>]`), which the serial sweep chases pointer-by-pointer;
/// this build first packs them into one contiguous row-major `n x d` slab,
/// then fills the Gram matrix one [`BLOCK`]-wide column strip of the lower
/// triangle at a time, mirroring each value into the upper triangle as it
/// is produced. Per strip the `j`-range coordinates are transposed once
/// into coordinate-major (SoA) order, so the squared-distance pass for a
/// row `i` runs vector-wide **across the strip columns**: one `[f64;
/// BLOCK]` accumulator lane sweeps the coordinates, each strip column
/// still accumulating its own ascending-coordinate chain. The expensive
/// per-pair kernel formula (an `exp` per entry) is then evaluated only for
/// the live `j <= i` prefix.
///
/// Bitwise identical to [`build_serial`]: each pair's squared distance is
/// the same sequential ascending-coordinate
/// [`ld_linalg::vecops::sq_dist`] accumulation
/// (vectorizing across *pairs* leaves every pair's own chain untouched),
/// the family formula is the shared [`Kernel::eval_sq_dist`], every entry
/// is written exactly once, and the diagonal noise is added after the
/// value just as the serial sweep does.
pub fn build_packed(kernel: &Kernel, x: &[Vec<f64>], noise: f64) -> Matrix {
    let n = x.len();
    let d = x.first().map_or(0, Vec::len);
    // BO-scale slabs (tens of points, single-digit dimensions) fit on the
    // stack; a heap allocation per surrogate refit would be a measurable
    // slice of a sub-microsecond build.
    const COORD_STACK: usize = 512;
    let mut coord_stack = [0.0f64; COORD_STACK];
    let mut coord_heap = Vec::new();
    let coords: &mut [f64] = if n * d <= COORD_STACK {
        &mut coord_stack[..n * d]
    } else {
        coord_heap.resize(n * d, 0.0);
        &mut coord_heap
    };
    for (i, row) in x.iter().enumerate() {
        assert_eq!(row.len(), d, "ragged training inputs");
        coords[i * d..i * d + d].copy_from_slice(row);
    }
    let mut k = Matrix::zeros(n, n);
    let out = k.as_mut_slice();
    // Strip-transposed coordinates: `jt[c * BLOCK + jj]` is coordinate `c`
    // of point `jb + jj`. One transpose per column strip serves every row
    // `i >= jb` of that strip. BO-scale builds (tens of points, a handful
    // of dimensions) are called once per surrogate refit, so the strip
    // scratch lives on the stack unless the dimension count is unusually
    // large — a heap allocation per build would eat the layout win at
    // small `n`.
    const JT_STACK_D: usize = 16;
    let mut jt_stack = [0.0f64; BLOCK * JT_STACK_D];
    let mut jt_heap = Vec::new();
    let jt: &mut [f64] = if d <= JT_STACK_D {
        &mut jt_stack[..d * BLOCK]
    } else {
        jt_heap.resize(d * BLOCK, 0.0);
        &mut jt_heap
    };
    let mut d2 = [0.0f64; BLOCK];
    for jb in (0..n).step_by(BLOCK) {
        let j_end = (jb + BLOCK).min(n);
        let w = j_end - jb;
        for c in 0..d {
            for (jj, slot) in jt[c * BLOCK..c * BLOCK + w].iter_mut().enumerate() {
                *slot = coords[(jb + jj) * d + c];
            }
        }
        for i in jb..n {
            let xi = &coords[i * d..i * d + d];
            // Distances for the whole strip, vectorized across columns;
            // columns past `i` are cheap dead lanes never evaluated below.
            d2[..w].fill(0.0);
            for (c, &xc) in xi.iter().enumerate() {
                let row = &jt[c * BLOCK..c * BLOCK + w];
                for (s, &v) in d2[..w].iter_mut().zip(row) {
                    let t = xc - v;
                    *s += t * t;
                }
            }
            let live = (i + 1).min(j_end) - jb;
            for (jj, &r2) in d2[..live].iter().enumerate() {
                let v = kernel.eval_sq_dist(r2);
                out[i * n + jb + jj] = v;
                out[(jb + jj) * n + i] = v;
            }
        }
    }
    for i in 0..n {
        out[i * n + i] += noise;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn points(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * d + j) as f64 * 0.37).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn packed_build_matches_serial_bitwise() {
        // Shapes straddle the tile edge: sub-tile, exact multiple, and a
        // ragged final tile in both block rows and block columns.
        for (n, d) in [
            (1usize, 1usize),
            (7, 3),
            (BLOCK, 4),
            (BLOCK + 1, 2),
            (2 * BLOCK + 5, 3),
            (70, 1),
        ] {
            let x = points(n, d);
            for kind in [KernelKind::Rbf, KernelKind::Matern32, KernelKind::Matern52] {
                let kernel = Kernel::new(kind, 1.3, 0.4);
                let serial = build_serial(&kernel, &x, 1e-6);
                let packed = build_packed(&kernel, &x, 1e-6);
                assert_eq!(
                    serial.max_abs_diff(&packed),
                    0.0,
                    "n={n} d={d} {kind:?}: packed Gram differs from serial"
                );
            }
        }
    }

    #[test]
    fn empty_input_builds_empty_matrix() {
        let kernel = Kernel::new(KernelKind::Rbf, 1.0, 1.0);
        let k = build_packed(&kernel, &[], 1e-6);
        assert_eq!((k.rows(), k.cols()), (0, 0));
    }

    #[test]
    fn dispatcher_matches_serial_either_side_of_threshold() {
        let kernel = Kernel::new(KernelKind::Rbf, 0.9, 0.25);
        // The last serial size, the first packed size, and one well past it.
        for n in [PACKED_MIN_POINTS - 1, PACKED_MIN_POINTS, 30] {
            let x = points(n, 3);
            let reference = build_serial(&kernel, &x, 1e-8);
            assert_eq!(
                build(&kernel, &x, 1e-8).max_abs_diff(&reference),
                0.0,
                "n={n}"
            );
        }
    }
}
