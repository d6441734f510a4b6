//! Opt-in nanosecond accounting for the kernel hot sections.
//!
//! A traced trainer (`Trainer::with_tracer`) and `ld-perfbench` want to
//! know how much wall time the two dominant inner sections consume — the
//! gate pre-activation mat-vecs of the forward unroll ("gate-matmul") and
//! the reverse sweep ("bptt") — without paying any cost when tracing is
//! off. The counters here are process-global atomics: a [`SectionGuard`]
//! arms them for the duration of a fit, the kernels accumulate elapsed
//! nanos while at least one guard is live, and the trainer diffs
//! before/after totals around each batch into the trace's synthetic
//! `forward` / `bptt` leaf spans.
//!
//! Timing is observed, never fed back into training, so determinism of the
//! numeric results is unaffected. When several traced fits run
//! concurrently the global totals interleave — the per-batch deltas are
//! then approximate attribution, which is fine for the benchmarking
//! cross-checks these sections exist for.

use std::sync::atomic::{AtomicU64, Ordering};

static ACTIVE_GUARDS: AtomicU64 = AtomicU64::new(0);
static GATE_MATMUL_NANOS: AtomicU64 = AtomicU64::new(0);
static BPTT_NANOS: AtomicU64 = AtomicU64::new(0);

/// Keeps section timing armed while alive (RAII; see [`activate`]).
#[derive(Debug)]
pub struct SectionGuard(());

impl Drop for SectionGuard {
    fn drop(&mut self) {
        ACTIVE_GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Arms the section timers until the returned guard is dropped.
pub fn activate() -> SectionGuard {
    ACTIVE_GUARDS.fetch_add(1, Ordering::Relaxed);
    SectionGuard(())
}

/// Whether any [`SectionGuard`] is currently live. Kernels check this once
/// per call and skip all clock reads when it is false.
pub fn enabled() -> bool {
    ACTIVE_GUARDS.load(Ordering::Relaxed) > 0
}

pub(crate) fn add_gate_matmul(nanos: u64) {
    GATE_MATMUL_NANOS.fetch_add(nanos, Ordering::Relaxed);
}

pub(crate) fn add_bptt(nanos: u64) {
    BPTT_NANOS.fetch_add(nanos, Ordering::Relaxed);
}

/// Cumulative `(gate_matmul, bptt)` nanoseconds since process start.
/// Callers diff two snapshots to attribute a window.
pub fn totals() -> (u64, u64) {
    (
        GATE_MATMUL_NANOS.load(Ordering::Relaxed),
        BPTT_NANOS.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_arms_and_disarms() {
        // Other tests may hold guards concurrently; only assert the delta
        // this test controls.
        let before = enabled();
        let g = activate();
        assert!(enabled());
        drop(g);
        let _ = before;
    }

    #[test]
    fn totals_accumulate() {
        let (g0, b0) = totals();
        add_gate_matmul(5);
        add_bptt(7);
        let (g1, b1) = totals();
        assert!(g1 >= g0 + 5);
        assert!(b1 >= b0 + 7);
    }
}
