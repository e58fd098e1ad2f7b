//! A deterministic discrete-event queue.
//!
//! Scenario harnesses in `trust-core` interleave touch events, sensor
//! captures, and protocol messages on one timeline. [`EventQueue`] orders
//! events by time with a stable FIFO tie-break, so simulations never depend
//! on hash ordering or insertion accidents.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of events of type `E`.
///
/// Events scheduled for the same instant dequeue in insertion order.
///
/// # Example
///
/// ```
/// use btd_sim::event::EventQueue;
/// use btd_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "b");
/// q.schedule(SimTime::from_nanos(10), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event, with
        // the lowest sequence number first among ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, event) in iter {
            self.schedule(at, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(t(7), "x");
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn collect_and_drain() {
        let q: EventQueue<&str> = vec![(t(2), "b"), (t(1), "a")].into_iter().collect();
        let drained = q.into_sorted_vec();
        assert_eq!(drained, vec![(t(1), "a"), (t(2), "b")]);
    }

    impl<E> EventQueue<E> {
        /// The timestamp of the earliest pending event, if any.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        /// Drains events in time order into a vector (consumes the queue).
        pub fn into_sorted_vec(mut self) -> Vec<(SimTime, E)> {
            let mut out = Vec::with_capacity(self.len());
            while let Some(item) = self.pop() {
                out.push(item);
            }
            out
        }
    }
}
