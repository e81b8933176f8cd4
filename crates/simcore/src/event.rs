//! A deterministic discrete-event queue.
//!
//! Events are ordered by firing time; events scheduled for the same instant
//! fire in insertion (FIFO) order. This determinism matters: the array
//! simulator frequently schedules a disk-completion and a request-arrival at
//! the same nanosecond, and reproducible experiment output requires a stable
//! tie-break.
//!
//! # Implementation
//!
//! A binary heap over `(time, seq)`, where `seq` is the queue's insertion
//! counter, so equal-time events pop in FIFO order. The engine keeps one
//! queue per shard and a shard holds few events at once (at most one disk
//! completion per disk, plus request timeouts and fault edges), so the
//! heap's `O(log n)` is a handful of compares, with no bucket array to
//! allocate per queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use mimd_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), 'b');
/// q.push(SimTime::from_millis(1), 'a');
/// q.push(SimTime::from_millis(2), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Time of the most recent pop; pushes and pops must not precede it.
    frontier: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed, so the max-heap's top is the minimum `(time, seq)`.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            frontier: SimTime::ZERO,
        }
    }

    /// Creates an empty queue; the horizon is ignored. This sized the
    /// timing wheel the heap replaced, and is kept for callers that still
    /// pass one.
    pub fn with_horizon_ns(_horizon_ns: u64) -> Self {
        Self::new()
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// Scheduling before the last popped instant would make simulated time
    /// run backwards; debug builds reject it.
    pub fn push(&mut self, at: SimTime, event: E) {
        crate::sim_invariant!(
            at >= self.frontier,
            "event scheduled in the past: {at} precedes frontier {}",
            self.frontier
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(at, _, event)| (at, event))
    }

    /// Like [`pop`](Self::pop), but also returns the event's insertion
    /// sequence number — the FIFO tie-break among same-instant events.
    /// The engine folds it into the determinism witness so two pops at
    /// the same nanosecond remain distinguishable in the digest.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        let e = self.heap.pop()?;
        crate::sim_invariant!(
            e.at >= self.frontier,
            "event queue popped {} after frontier {}",
            e.at,
            self.frontier
        );
        self.frontier = e.at;
        Some((e.at, e.seq, e.event))
    }

    /// The firing time of the earliest pending event, if any.
    ///
    /// ```
    /// use mimd_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// assert_eq!(q.peek_time(), None);
    /// q.push(SimTime::from_micros(9), "later");
    /// q.push(SimTime::from_micros(4), "sooner");
    /// assert_eq!(q.peek_time(), Some(SimTime::from_micros(4)));
    /// ```
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    ///
    /// ```
    /// use mimd_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_micros(1), ());
    /// q.push(SimTime::from_micros(2), ());
    /// assert_eq!(q.len(), 2);
    /// ```
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    ///
    /// ```
    /// use mimd_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// assert!(q.is_empty());
    /// q.push(SimTime::ZERO, ());
    /// assert!(!q.is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events and resets the monotonicity frontier
    /// (the queue may then be reused for a fresh run from t = 0).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.frontier = SimTime::ZERO;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 5);
        q.push(SimTime::from_millis(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_millis(3), 3);
        q.push(SimTime::from_millis(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    /// The reference the heap is held to: a plain vector that pops its
    /// minimum `(time, seq)` by linear scan.
    #[derive(Default)]
    struct ScanQueue {
        items: Vec<(SimTime, u64, u64)>,
        seq: u64,
    }

    impl ScanQueue {
        fn push(&mut self, at: SimTime, event: u64) {
            self.items.push((at, self.seq, event));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
            let i = (0..self.items.len()).min_by_key(|&i| (self.items[i].0, self.items[i].1))?;
            Some(self.items.remove(i))
        }
    }

    #[test]
    fn matches_reference_heap_under_interleaved_ops() {
        // The load-bearing equivalence test: under randomized interleaved
        // push/pop the queue's pop sequence, sequence numbers included,
        // must match a linear scan for the minimum `(time, seq)` — same
        // times, same FIFO tie-break. Times cluster near the frontier with
        // occasional far outliers and same-instant bursts.
        crate::check::check_cases("heap_matches_scan", 60, |case, rng| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut reference = ScanQueue::default();
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..400 {
                let pushes = rng.below(4);
                for _ in 0..pushes {
                    // Mostly near-future; ~1/8 far ahead.
                    let delta = if rng.below(8) == 0 {
                        rng.below(200_000_000)
                    } else {
                        rng.below(2_000_000)
                    };
                    // A burst of same-instant events exercises the FIFO rule.
                    let reps = 1 + rng.below(3);
                    for _ in 0..reps {
                        let at = SimTime::from_nanos(now + delta);
                        q.push(at, id);
                        reference.push(at, id);
                        id += 1;
                    }
                }
                if rng.below(3) > 0 {
                    let got = q.pop_entry();
                    let want = reference.pop();
                    assert_eq!(got, want, "case {case}: pop diverged");
                    if let Some((t, _, _)) = got {
                        now = t.as_nanos();
                    }
                }
            }
            loop {
                let got = q.pop_entry();
                let want = reference.pop();
                assert_eq!(got, want, "case {case}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
        });
    }
}
