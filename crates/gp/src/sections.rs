//! Opt-in nanosecond accounting for the Gram-construction and Cholesky
//! hot sections.
//!
//! Mirrors `ld-nn`'s kernel sections: process-global atomic counters armed
//! by an RAII [`SectionGuard`]. A traced Bayesian optimizer (and
//! `ld-perfbench`) arm a guard around surrogate fits and diff [`totals`]
//! snapshots into the trace's synthetic `gram_build` / `cholesky` leaf
//! spans, so the clock is never read unless a caller opted in. Timing
//! is observed, never fed back into the numerics, so determinism of the fit
//! results is unaffected; concurrent armed fits interleave into the global
//! totals (approximate attribution, which is all the benchmark cross-checks
//! need).

use std::sync::atomic::{AtomicU64, Ordering};

static ACTIVE_GUARDS: AtomicU64 = AtomicU64::new(0);
static GRAM_BUILD_NANOS: AtomicU64 = AtomicU64::new(0);
static CHOLESKY_NANOS: AtomicU64 = AtomicU64::new(0);

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

/// Whether any [`SectionGuard`] is currently live.
pub fn enabled() -> bool {
    ACTIVE_GUARDS.load(Ordering::Relaxed) > 0
}

pub(crate) fn add_gram_build(nanos: u64) {
    GRAM_BUILD_NANOS.fetch_add(nanos, Ordering::Relaxed);
}

pub(crate) fn add_cholesky(nanos: u64) {
    CHOLESKY_NANOS.fetch_add(nanos, Ordering::Relaxed);
}

/// Cumulative `(gram_build, cholesky)` nanoseconds since process start.
/// Callers diff two snapshots to attribute a window.
pub fn totals() -> (u64, u64) {
    (
        GRAM_BUILD_NANOS.load(Ordering::Relaxed),
        CHOLESKY_NANOS.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_and_totals() {
        let g = activate();
        assert!(enabled());
        let (gram0, chol0) = totals();
        add_gram_build(9);
        add_cholesky(4);
        let (gram1, chol1) = totals();
        assert!(gram1 >= gram0 + 9);
        assert!(chol1 >= chol0 + 4);
        drop(g);
    }
}
