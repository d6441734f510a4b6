//! The f64 GEMM kernel behind [`crate::pack::PackedA::matmul_into`].
//!
//! Determinism contract: every output element is owned by **one**
//! accumulator filled in ascending-`k` order, and zero-padded panel lanes
//! contribute `acc + (±0.0 * x)` terms that never reach a live element, so
//! edge tiles cannot perturb results. [`gemm`] runs the packed-A panels
//! against a **row-major** right operand with plain multiply-then-add
//! lanes, so it is **bitwise identical** to [`crate::Matrix::matmul`] on
//! finite inputs (that kernel's skip of zero `a` coefficients and this
//! one's `acc + 0.0 * b` agree bitwise whenever `b` is finite). Its
//! register tile is named `[f64; 8]` accumulator rows over an 8-wide
//! column block, `k` innermost, which LLVM's SLP pass turns into one
//! 512-bit lane per accumulator in every build; the packed-A layout allows
//! four accumulator rows per pass, because each k-step's four broadcasts
//! come from one contiguous panel line. (A wider `MR x NR` tile of nested
//! accumulator arrays was tried first and made vectorization a per-call-
//! site lottery — some instantiations ran 9x slower than others.) This is
//! the kernel behind every path under a bitwise contract: the LSTM batched
//! forward, one GEMM of each layer's fused `[W | U | b]` panel per step
//! whose every output is the chain
//! [`crate::pack::PackedA::matvec_into`] runs in the sequential gate step,
//! and through it the serve digests. It assigns its product; callers fold
//! any bias into the packed operand.

/// Micro-tile rows: one packed-A step is `MR` contiguous values.
pub const MR: usize = 8;

/// Column-block width of the bitwise kernel's register tile: one [`f64`]
/// accumulator array of this length is exactly one 512-bit register.
const JB: usize = 8;

/// Register-blocked packed-A GEMM with plain multiply/add lanes — bitwise
/// identical to [`crate::Matrix::matmul`]. Computes the `m x n` product
/// (flat row-major `out`) from pre-packed A panels (`ceil(m/MR)` panels of
/// `MR * k`, see [`crate::pack::PackedA`]) and an **unpacked** row-major
/// `k x n` right operand `b`.
///
/// Traversal: per A panel, per [`JB`]-wide column block, four named
/// `[f64; JB]` accumulator rows run the whole `k` loop in registers (four
/// independent add chains per vector port hide the add latency; the
/// packed panel makes each k-step's four broadcasts one contiguous line).
/// Per output element the arithmetic is still a single ascending-`k` plain
/// multiply/add chain starting from zero, which is what keeps the kernel
/// bitwise. Leftover columns (`n % JB`, so every column of a one-lane
/// product) turn the tile around: one `[f64; MR]` accumulator per column,
/// filled from the panel's contiguous k-step lines as
/// [`crate::pack::PackedA::matvec_into`] does, so the panel's rows are the
/// vector lanes and each live lane is the same chain.
///
/// # Panics
/// Panics if the panel buffer, `b`, or `out` do not match the stated
/// shapes (hot path; callers guarantee shapes).
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a_panels: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let mp = m.div_ceil(MR).max(1);
    assert_eq!(a_panels.len(), mp * MR * k, "gemm: packed A size");
    assert_eq!(b.len(), k * n, "gemm: rhs size");
    assert_eq!(out.len(), m * n, "gemm: output size");
    if k == 0 || n == 0 {
        // No products to accumulate: every output is the empty sum.
        out.fill(0.0);
        return;
    }
    for (pi, a_panel) in a_panels.chunks_exact(MR * k).enumerate() {
        let i0 = pi * MR;
        let rows = (m - i0).min(MR);
        let mut j = 0;
        while j + JB <= n {
            // Row quads: `r0` is 0 or 4 (`MR` = 8), so the four-lane
            // broadcast window below is always in bounds; padding lanes of
            // a short final panel are computed (zero contributions) and
            // clipped at store time.
            let mut r0 = 0;
            while r0 < rows {
                let live = (rows - r0).min(4);
                let mut acc0 = [0.0f64; JB];
                let mut acc1 = [0.0f64; JB];
                let mut acc2 = [0.0f64; JB];
                let mut acc3 = [0.0f64; JB];
                for p in 0..k {
                    let bq = &b[p * n + j..p * n + j + JB];
                    let ap = &a_panel[p * MR + r0..p * MR + r0 + 4];
                    let (x0, x1, x2, x3) = (ap[0], ap[1], ap[2], ap[3]);
                    for t in 0..JB {
                        acc0[t] += x0 * bq[t];
                        acc1[t] += x1 * bq[t];
                        acc2[t] += x2 * bq[t];
                        acc3[t] += x3 * bq[t];
                    }
                }
                let accs = [&acc0, &acc1, &acc2, &acc3];
                for (r, accr) in accs.into_iter().enumerate().take(live) {
                    let row = i0 + r0 + r;
                    out[row * n + j..row * n + j + JB].copy_from_slice(accr);
                }
                r0 += 4;
            }
            j += JB;
        }
        // Column remainder: the panel's `MR` rows as vector lanes, one
        // ascending-`k` chain per lane; padding lanes are never stored.
        // `b` and the panel's `rows x n` block of `out` are walked a row at
        // a time (a one-lane product's rows are single values) rather than
        // by a stride iterator or index arithmetic.
        let out_panel = &mut out[i0 * n..(i0 + rows) * n];
        for jj in j..n {
            let mut acc = [0.0f64; MR];
            for (step, b_row) in a_panel.chunks_exact(MR).zip(b.chunks_exact(n)) {
                let bv = b_row[jj];
                for (a, &av) in acc.iter_mut().zip(step) {
                    *a += av * bv;
                }
            }
            for (out_row, &cv) in out_panel.chunks_exact_mut(n).zip(&acc) {
                out_row[jj] = cv;
            }
        }
    }
}
