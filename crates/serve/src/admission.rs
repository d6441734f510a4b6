//! Admission control: a bounded request queue with deterministic shed
//! decisions.
//!
//! The shed decision is a pure function of queue occupancy, which is itself
//! a pure function of the submission sequence — never of wall-clock timing.
//! Two identically-seeded load runs therefore shed exactly the same request
//! ids, which is what lets the loadgen pin bitwise-identical responses
//! across runs even in overload.

use std::collections::VecDeque;

use crate::registry::ClientKey;

/// One prediction request: "given my recent history, forecast the next
/// interval's JAR". The window travels with the request so the engine holds
/// no per-tenant mutable state.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned id, unique per run and derived from the load
    /// schedule (never from arrival time).
    pub id: u64,
    /// Which registry entry answers this request.
    pub key: ClientKey,
    /// Recent raw (unscaled) observations, oldest first.
    pub history: Vec<f64>,
    /// Absolute logical-tick deadline: the engine must answer (or
    /// explicitly expire) the request by the end of this tick. `None`
    /// means no budget — the request waits out retries and deferrals.
    pub deadline: Option<u64>,
}

impl Request {
    /// A request with no deadline budget.
    pub fn new(id: u64, key: ClientKey, history: Vec<f64>) -> Self {
        Request {
            id,
            key,
            history,
            deadline: None,
        }
    }

    /// Attaches an absolute tick deadline.
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Queue accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused because the queue was full.
    pub shed: u64,
    /// Deepest the queue has ever been.
    pub peak_depth: usize,
}

/// A bounded FIFO of pending requests.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    queue: VecDeque<Request>,
    stats: AdmissionStats,
}

impl AdmissionQueue {
    /// Builds an empty queue holding at most `capacity` requests.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue needs capacity >= 1");
        AdmissionQueue {
            capacity,
            queue: VecDeque::with_capacity(capacity),
            stats: AdmissionStats::default(),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Offers a request. `Err` returns the request to the caller: it was
    /// shed because the queue is at its bound.
    pub fn offer(&mut self, req: Request) -> Result<(), Request> {
        if self.queue.len() >= self.capacity {
            self.stats.shed += 1;
            return Err(req);
        }
        self.queue.push_back(req);
        self.stats.admitted += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.queue.len());
        Ok(())
    }

    /// Takes every pending request, in admission order.
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, Request> {
        self.queue.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request::new(id, ClientKey::new(format!("t{id}"), "w"), vec![1.0, 2.0])
    }

    #[test]
    fn sheds_exactly_beyond_capacity_and_returns_the_request() {
        let mut q = AdmissionQueue::new(3);
        for id in 0..3 {
            assert!(q.offer(req(id)).is_ok());
        }
        let back = q.offer(req(99)).unwrap_err();
        assert_eq!(back.id, 99);
        let s = q.stats();
        assert_eq!((s.admitted, s.shed, s.peak_depth), (3, 1, 3));
        assert!(q.depth() <= q.capacity());
    }

    #[test]
    fn drain_preserves_admission_order_and_resets_depth() {
        let mut q = AdmissionQueue::new(4);
        for id in [5, 1, 9] {
            q.offer(req(id)).expect("admit");
        }
        let ids: Vec<u64> = q.drain().map(|r| r.id).collect();
        assert_eq!(ids, vec![5, 1, 9]);
        assert_eq!(q.depth(), 0);
        // Capacity frees up after a drain.
        assert!(q.offer(req(7)).is_ok());
    }
}
