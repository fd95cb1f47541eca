//! A tiny discrete-event simulation core.
//!
//! The application-study models (lock contention for Fig. 8, merge
//! pipelines for Fig. 9) are discrete-event simulations over the machine
//! models. This module provides the event queue they share: a
//! time-ordered heap with FIFO tie-breaking so runs are deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at an absolute time.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue keyed by simulated cycles.
///
/// # Examples
///
/// ```
/// use mcsim::des::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(30, "c");
/// q.push(10, "a");
/// q.push(10, "b");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((30, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    now: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Schedules `payload` at absolute `time`. Events scheduled in the
    /// past are clamped to the current time (they fire "now").
    pub fn push(&mut self, time: u64, payload: T) {
        let time = time.max(self.now);
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the earliest event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let e = self.heap.pop()?;
        self.now = e.time;
        Some((e.time, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(1, 0);
        q.push(5, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.push(20, ());
        assert_eq!(q.pop().map(|(t, _)| t), Some(10));
        // Scheduling in the past clamps to now.
        q.push(5, ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 10);
        assert_eq!(q.pop().map(|(t, _)| t), Some(20));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        q.push(1, ());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }
}
