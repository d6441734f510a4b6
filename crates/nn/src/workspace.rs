//! Reusable scratch arenas for the forward/backward hot loops.
//!
//! Before this module existed every `sample_grads` call allocated dozens of
//! short-lived `Vec`s (per-timestep gate vectors, cloned hidden states, the
//! backward's `dh` sequences). A [`Workspace`] owns all of those buffers
//! once; the layer kernels (`forward_into` / `backward_into`) resize-and-fill
//! instead of allocating, so a steady-state gradient evaluation performs no
//! heap allocation beyond the gradient accumulator the caller already holds.
//!
//! [`with_thread_workspace`] hands out a thread-local instance so the
//! trainer's rayon sample-parallelism stays allocation-free per worker: each
//! worker thread lazily builds one workspace and reuses it for every sample
//! in its chunk. The closure must not re-enter `with_thread_workspace`
//! (single `RefCell` per thread); the forecaster entry points never nest.

use std::cell::RefCell;

use crate::recurrent::LayerCache;

/// Scratch buffers shared by the recurrent and MLP forecaster kernels.
///
/// Fields are crate-internal: the kernels size every buffer on entry
/// (`clear` + `resize`), so a workspace carries no shape state between calls
/// and one instance serves models of different cells and architectures
/// back to back.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per-layer forward caches of a stacked recurrent forecaster, for
    /// every cell.
    pub(crate) caches: Vec<LayerCache>,
    /// Gate pre-activation gradients (`GATES * H`).
    pub(crate) dz: Vec<f64>,
    /// Hidden-state gradient carried backwards across time (`H`).
    pub(crate) dh_next: Vec<f64>,
    /// The cell's own `H`-wide backward buffer: the LSTM's carried
    /// cell-state gradient, the GRU's gradient w.r.t. `r . h_{t-1}`.
    pub(crate) dstate: Vec<f64>,
    /// Gradient flowing into the current layer's hidden sequence (`T x H`).
    pub(crate) dseq_a: Vec<f64>,
    /// Gradient w.r.t. the current layer's inputs (`T x input_dim`); swapped
    /// with `dseq_a` after each layer of the reverse sweep.
    pub(crate) dseq_b: Vec<f64>,
    /// Gradient from the dense head into the final hidden state (`H`).
    pub(crate) head_dh: Vec<f64>,
    /// MLP hidden activations / generic scratch.
    pub(crate) scratch_a: Vec<f64>,
    /// MLP pre-activation gradients / generic scratch.
    pub(crate) scratch_b: Vec<f64>,
    /// MLP input-gradient sink / generic scratch.
    pub(crate) scratch_c: Vec<f64>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Ensures `n` per-layer caches exist (contents are reset by the
    /// forward kernel).
    pub(crate) fn ensure_caches(&mut self, n: usize) {
        if self.caches.len() < n {
            self.caches.resize_with(n, LayerCache::default);
        }
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's shared [`Workspace`].
///
/// # Panics
/// Panics if `f` re-enters `with_thread_workspace` on the same thread (the
/// workspace is a single `RefCell`).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_workspace_is_reused() {
        let cap_after_first = with_thread_workspace(|ws| {
            ws.dseq_a.clear();
            ws.dseq_a.resize(128, 0.0);
            ws.dseq_a.capacity()
        });
        let cap_second = with_thread_workspace(|ws| ws.dseq_a.capacity());
        assert!(cap_second >= cap_after_first);
    }

    #[test]
    fn ensure_caches_grows_monotonically() {
        let mut ws = Workspace::new();
        ws.ensure_caches(3);
        assert_eq!(ws.caches.len(), 3);
        ws.ensure_caches(1);
        assert_eq!(ws.caches.len(), 3);
    }
}
