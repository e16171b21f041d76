//! The former name of the kernel's event queue.
//!
//! The two-level ladder (calendar) queue that used to live here was
//! replaced by the per-instant FIFO queue in [`crate::EventQueue`], which
//! keeps the same `(time, insertion sequence)` pop order and counters.
//! [`LadderQueue`] remains only as a deprecated alias of that type, and the
//! ordering and counter tests written against the ladder still run here,
//! against the queue that replaced it.

/// Deprecated alias of [`crate::EventQueue`]: the same type, with the same
/// `(time, insertion-seq)` pop order.
///
/// # Example
///
/// ```
/// # #![allow(deprecated)]
/// use mn_sim::ladder::LadderQueue;
/// use mn_sim::SimTime;
///
/// let mut q = LadderQueue::new();
/// q.push(SimTime::from_ns(3), 'b');
/// q.push(SimTime::from_ns(1), 'a');
/// q.push(SimTime::from_ns(3), 'c'); // same instant as 'b': FIFO order
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[deprecated(note = "the ladder queue was replaced; use `mn_sim::EventQueue`")]
pub type LadderQueue<E> = crate::EventQueue<E>;

#[cfg(test)]
mod tests {
    use crate::{EventQueue, SimTime};

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
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_ns(3), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.now(), SimTime::from_ns(5));
    }

    #[test]
    fn counters_track() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.is_empty());
        for i in 0..5u64 {
            q.push(SimTime::from_ns(i), i);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.events_scheduled(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.events_processed(), 5);
        assert!(q.is_empty());
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
}
