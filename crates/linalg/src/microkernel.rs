//! The f64 GEMM kernels driven by [`crate::pack`]: a streaming packed-A
//! kernel under the bitwise contract and a register-tiled FMA microkernel
//! for maximum throughput.
//!
//! Determinism contract: in both kernels every output element is owned by
//! **one** accumulator filled in ascending-`k` order, and zero-padded
//! panel lanes contribute `acc + (±0.0 * x)` terms that never reach a live
//! element, so edge tiles cannot perturb results. The kernels differ in
//! how the multiply-accumulate is expressed:
//!
//! - [`gemm`] runs the packed-A panels against a **row-major** right
//!   operand with plain multiply-then-add lanes — **bitwise identical** to
//!   [`crate::Matrix::matmul_naive`] (modulo the documented `-0.0`
//!   accumulator edge that [`crate::Matrix::matmul_into`] already
//!   accepts). Its register tile is deliberately the exact accumulation
//!   idiom of [`crate::Matrix::matmul_into`] — named `[f64; 8]`
//!   accumulator rows over an 8-wide column block, `k` innermost — which
//!   LLVM's SLP pass turns into one 512-bit lane per accumulator in every
//!   build; the packed-A layout then allows four accumulator rows per
//!   pass instead of two, because each k-step's four broadcasts come from
//!   one contiguous panel line. (A wider `MR x NR` tile of nested
//!   accumulator arrays was tried first and made vectorization a per-call-
//!   site lottery — some instantiations ran 9x slower than others.) This
//!   is the kernel behind every path under a bitwise contract: the LSTM
//!   batched forward, one GEMM of each layer's fused `[W | U | b]` panel
//!   per step whose every output is the chain
//!   [`crate::pack::PackedA::matvec_into`] runs in the sequential gate
//!   step, and through it the serve digests. Both kernels assign their
//!   product; callers fold any bias into the packed operand.
//! - [`gemm_fma`] is the BLIS-style microkernel: an `MR x NR` register
//!   tile per output block, packed-B column panels, and `f64::mul_add`
//!   lanes so LLVM emits fused multiply-add instructions — roughly twice
//!   the multiply-add throughput, at the cost of FMA's single rounding per
//!   step. Results are deterministic run-to-run but only
//!   `1e-9`-relative-bounded against the plain kernels; only
//!   [`crate::Matrix::matmul_packed`] (whose callers all assert through
//!   tolerances) uses it.

/// Micro-tile rows: one packed-A step is `MR` contiguous values.
pub const MR: usize = 8;

/// Micro-tile columns: one packed-B step is `NR` contiguous values.
pub const NR: usize = 16;

/// Vector-lane width the FMA accumulator tile is carved into: each tile
/// row is two `NRH`-wide halves, so every accumulator maps onto exactly
/// one 512-bit register (8 doubles) and LLVM's scalar-promotion keeps the
/// whole `MR x NR` tile in registers across the `k` loop instead of
/// spilling a 16-wide row it cannot type as a single vector.
const NRH: usize = NR / 2;

/// Column-block width of the bitwise kernel's register tile: one [`f64`]
/// accumulator array of this length is exactly one 512-bit register.
const JB: usize = 8;

/// Register-blocked packed-A GEMM with plain multiply/add lanes — bitwise
/// identical to the naive reference kernels. Computes the `m x n` product
/// (flat row-major `out`) from pre-packed A panels (`ceil(m/MR)` panels of
/// `MR * k`, see [`crate::pack::PackedA`]) and an **unpacked** row-major
/// `k x n` right operand `b`.
///
/// Traversal: per A panel, per [`JB`]-wide column block, four named
/// `[f64; JB]` accumulator rows run the whole `k` loop in registers —
/// [`crate::Matrix::matmul_into`]'s accumulation idiom, doubled in rows
/// (four independent add chains per vector port instead of two hides more
/// of the add latency; the packed panel makes each k-step's four
/// broadcasts one contiguous line). Per output element the arithmetic is
/// still a single ascending-`k` plain multiply/add chain starting from
/// zero, which is what keeps the kernel bitwise. Leftover columns
/// (`n % JB`, so every column of a one-lane product) turn the tile
/// around: one `[f64; MR]` accumulator per column, filled from the panel's
/// contiguous k-step lines as [`crate::pack::PackedA::matvec_into`] does,
/// so the panel's rows are the vector lanes and each live lane is the same
/// chain.
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
        for jj in j..n {
            let mut acc = [0.0f64; MR];
            for (step, &bv) in a_panel.chunks_exact(MR).zip(b[jj..].iter().step_by(n)) {
                for (a, &av) in acc.iter_mut().zip(step) {
                    *a += av * bv;
                }
            }
            for (i, &cv) in acc.iter().enumerate().take(rows) {
                out[(i0 + i) * n + jj] = cv;
            }
        }
    }
}

/// Register-tiled packed-panel GEMM with fused multiply-add lanes —
/// maximum throughput, `1e-9`-relative-bounded (not bitwise) against
/// [`gemm`] / [`crate::Matrix::matmul_naive`]. Computes the `m x n`
/// product from pre-packed A panels and pre-packed B column panels
/// (`ceil(n/NR)` panels of `NR * k`, see [`crate::pack::pack_b_into`]).
///
/// # Panics
/// Panics if the panel buffers or `out` do not match the stated shapes
/// (hot path; callers guarantee shapes).
pub fn gemm_fma(
    m: usize,
    k: usize,
    n: usize,
    a_panels: &[f64],
    b_panels: &[f64],
    out: &mut [f64],
) {
    let mp = m.div_ceil(MR).max(1);
    let np = n.div_ceil(NR).max(1);
    assert_eq!(a_panels.len(), mp * MR * k, "gemm_fma: packed A size");
    assert_eq!(b_panels.len(), np * NR * k, "gemm_fma: packed B size");
    assert_eq!(out.len(), m * n, "gemm_fma: output size");
    if k == 0 {
        // No products to accumulate: every output is the empty sum.
        out.fill(0.0);
        return;
    }
    // B-panel-outer order: one `NR * k` B panel is reused by every A panel
    // before the next is touched, so the larger packed operand stays hot in
    // L1 while the A panels stream. Per-tile accumulation order is
    // unchanged (each output tile is one ascending-`k` pass), so tile visit
    // order does not affect results.
    for (pj, b_panel) in b_panels.chunks_exact(NR * k).enumerate() {
        let j0 = pj * NR;
        let cols = n.saturating_sub(j0).min(NR);
        for (pi, a_panel) in a_panels.chunks_exact(MR * k).enumerate() {
            let i0 = pi * MR;
            let rows = m.saturating_sub(i0).min(MR);

            // Full-tile compute: padding lanes are zeros and never stored.
            // Row `i` of the tile lives in `acc_lo[i]` (columns 0..NRH) and
            // `acc_hi[i]` (columns NRH..NR); each half is one vector
            // register wide.
            let mut acc_lo = [[0.0f64; NRH]; MR];
            let mut acc_hi = [[0.0f64; NRH]; MR];
            for (a_step, b_step) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
                let (b_lo, b_hi) = b_step.split_at(NRH);
                for (row, &av) in acc_lo.iter_mut().zip(a_step) {
                    for (c, &bv) in row.iter_mut().zip(b_lo) {
                        *c = av.mul_add(bv, *c);
                    }
                }
                for (row, &av) in acc_hi.iter_mut().zip(a_step) {
                    for (c, &bv) in row.iter_mut().zip(b_hi) {
                        *c = av.mul_add(bv, *c);
                    }
                }
            }

            // Clipped store: only the live `rows x cols` corner is written.
            for (i, (row_lo, row_hi)) in acc_lo.iter().zip(&acc_hi).take(rows).enumerate() {
                let o0 = (i0 + i) * n + j0;
                let lo = cols.min(NRH);
                out[o0..o0 + lo].copy_from_slice(&row_lo[..lo]);
                if cols > NRH {
                    out[o0 + NRH..o0 + cols].copy_from_slice(&row_hi[..cols - NRH]);
                }
            }
        }
    }
}
