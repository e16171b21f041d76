//! The event queue at the heart of the discrete-event kernel.
//!
//! Since kernel v3 the queue is a thin façade over [`LadderQueue`], a
//! two-level calendar queue with the exact `(time, insertion-seq)` pop
//! order the previous `BinaryHeap` implementation had — see
//! [`crate::ladder`] for the structure and the ordering proof. The
//! [`Scheduled`] wrapper (with the heap's inverted ordering) remains
//! available for reference implementations and differential tests.

use std::cmp::Ordering;

use crate::ladder::LadderQueue;
use crate::time::SimTime;

/// An event scheduled for a particular instant.
///
/// Ordering is by time, then by insertion sequence number, so two events
/// scheduled for the same instant are delivered in FIFO order. Deterministic
/// tie-breaking is essential for reproducible simulations.
///
/// Kernel v3 replaced the `BinaryHeap<Scheduled<E>>` inside [`EventQueue`]
/// with a ladder queue; `Scheduled` is retained as the reference ordering
/// (a max-heap of these pops the same sequence) for differential tests.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// Wraps `event` with an explicit firing time and tie-break sequence
    /// number (lower sequence pops first among same-instant events).
    pub fn new(time: SimTime, seq: u64, event: E) -> Self {
        Scheduled { time, seq, event }
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// Events popped from the queue are monotonically non-decreasing in time.
/// Scheduling an event earlier than the last popped event is a logic error
/// in the caller and is caught by a debug assertion in [`EventQueue::push`].
///
/// # Example
///
/// ```
/// use mn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(3), 'b');
/// q.push(SimTime::from_ns(1), 'a');
/// q.push(SimTime::from_ns(3), 'c'); // same instant as 'b': FIFO order
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    ladder: LadderQueue<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            ladder: LadderQueue::new(),
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            ladder: LadderQueue::with_capacity(capacity),
        }
    }

    /// Creates an empty queue with pre-allocated capacity and a tuned
    /// ladder bucket width in picoseconds (clamped to ≥ 1). Callers that
    /// know their scheduling horizon — e.g. the NoC, which derives it
    /// from the minimum link traversal time — use this to keep
    /// [`EventQueue::bucket_spills`] near zero across timing sweeps.
    /// Pop order is width-independent, so results are unchanged.
    pub fn with_capacity_and_bucket(capacity: usize, bucket_ps: u64) -> Self {
        EventQueue {
            ladder: LadderQueue::with_capacity_and_bucket(capacity, bucket_ps),
        }
    }

    /// The ladder bucket width in picoseconds this queue was built with.
    pub fn bucket_width_ps(&self) -> u64 {
        self.ladder.bucket_width_ps()
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` is earlier than the time of the most
    /// recently popped event (scheduling into the past).
    pub fn push(&mut self, time: SimTime, event: E) {
        self.ladder.push(time, event);
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ladder.pop()
    }

    /// Removes the entire same-time run at the head — every event firing
    /// at the earliest pending instant — appending the events to `out` in
    /// pop order and returning the instant and count. One call amortizes
    /// the per-pop bucket bookkeeping over the run; the flattened sequence
    /// is identical to repeated [`EventQueue::pop`].
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<(SimTime, usize)> {
        self.ladder.pop_batch_into(out)
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ladder.peek_time()
    }

    /// The time of the most recently popped event ([`SimTime::ZERO`] before
    /// the first pop).
    pub fn now(&self) -> SimTime {
        self.ladder.now()
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.ladder.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.ladder.is_empty()
    }

    /// Total number of events popped since construction.
    pub fn events_processed(&self) -> u64 {
        self.ladder.events_processed()
    }

    /// Total number of events pushed since construction.
    pub fn events_scheduled(&self) -> u64 {
        self.ladder.events_scheduled()
    }

    /// The largest number of events simultaneously pending since
    /// construction — the working-set size the underlying queue had to
    /// sustain. Event-coalescing optimizations drive this down.
    pub fn peak_len(&self) -> usize {
        self.ladder.peak_len()
    }

    /// Pushes that landed beyond the ladder window and took the overflow
    /// rung. A high ratio of spills to pushes means the bucket window is a
    /// poor fit for the workload's scheduling horizon.
    pub fn bucket_spills(&self) -> u64 {
        self.ladder.bucket_spills()
    }

    /// Times the ladder window was re-anchored from the overflow rung.
    pub fn rewindow_count(&self) -> u64 {
        self.ladder.rewindow_count()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut queue = EventQueue::new();
        queue.extend(iter);
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(4), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_and_emptiness() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.extend((0..5).map(|i| (SimTime::from_ns(i), i)));
        assert_eq!(q.len(), 5);
        assert_eq!(q.events_scheduled(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.push(SimTime::from_ns(1), ());
        q.push(SimTime::from_ns(2), ());
        q.pop();
        q.push(SimTime::from_ns(3), ());
        // Never more than 2 pending at once.
        assert_eq!(q.peak_len(), 2);
        while q.pop().is_some() {}
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn from_iterator_collects() {
        let q: EventQueue<u32> = (0..3).map(|i| (SimTime::from_ns(i), i as u32)).collect();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_ns(3), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }
}
