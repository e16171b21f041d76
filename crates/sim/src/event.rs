//! The event queue at the heart of the discrete-event kernel.
//!
//! [`EventQueue`] keeps one FIFO `Vec` per pending instant (a *slot*) and
//! a binary min-heap of the open slots keyed by `(time, creation order)`.
//! A push appends to the newest open slot at its instant, found through a
//! small direct-mapped hint table, or opens a new slot on a miss.
//!
//! ## The FIFO tie-break invariant
//!
//! The pop order is **exactly** `(time, insertion sequence)` — the order a
//! binary heap of [`Scheduled`] entries with an explicit sequence
//! tie-break produces, which is what pins the workspace's bit-reproducible
//! results. No sequence number is stored; the argument (see `DESIGN.md`
//! §5.3) is:
//!
//! 1. A slot holds events of one instant in push order, and is drained
//!    front to back.
//! 2. A push only ever joins the *newest* open slot at its instant: the
//!    hint table is written only when a slot opens, so it can never point
//!    back to an older one. A push that misses the hint — because no slot
//!    is open at its instant, because another instant evicted the hint
//!    entry, or because the slot at that instant is already being drained
//!    — opens a fresh slot with a larger creation order.
//! 3. So when two open slots share an instant, every event of the older
//!    slot was pushed before every event of the newer one, and the heap's
//!    creation-order tie-break pops the older slot first.
//!
//! Within an instant the pop order is therefore push order by
//! construction: no bucket geometry, no sort, no window to re-anchor.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for a particular instant.
///
/// Ordering is by time, then by insertion sequence number, so two events
/// scheduled for the same instant are delivered in FIFO order. Deterministic
/// tie-breaking is essential for reproducible simulations.
///
/// [`EventQueue`] reproduces this order without storing sequence numbers;
/// `Scheduled` is retained as the reference ordering (a max-heap of these
/// pops the same sequence) for differential tests.
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

/// Entries in the direct-mapped `time → newest open slot` hint table.
const HINT_BITS: u32 = 6;
const HINT_LEN: usize = 1 << HINT_BITS;
/// Hint-table value meaning "no slot".
const NO_SLOT: u32 = u32::MAX;

/// Events a pre-sized slot holds before its FIFO reallocates.
const SLOT_CAPACITY: usize = 16;

/// Heap keys pack `(time, creation order, slot index)` into one `u128`
/// (time in the high 64 bits, the slot index in the low [`IDX_BITS`]), so
/// integer order is `(time, creation order)` and a comparison is one
/// `u128` compare.
const IDX_BITS: u32 = 24;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
/// Creation orders are renumbered before they reach this bound.
const ORDER_LIMIT: u64 = 1 << (64 - IDX_BITS);

#[inline]
fn key(time: SimTime, order: u64, slot: u32) -> u128 {
    (u128::from(time.as_ps()) << 64) | u128::from(order << IDX_BITS | u64::from(slot))
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

#[inline]
fn key_slot(key: u128) -> u32 {
    (key as u64 & IDX_MASK) as u32
}

/// The hint-table index of `time` (Fibonacci hashing).
#[inline]
fn hint_index(time: SimTime) -> usize {
    (time.as_ps().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HINT_BITS)) as usize
}

/// A binary min-heap of slot keys that keeps its minimum outside the heap
/// when a push arrives as the new minimum. The router kernel's most common
/// step — open a slot at the current instant, then pop it — then costs no
/// sifting at all.
#[derive(Debug, Default)]
struct KeyHeap {
    /// When present, smaller than every key in `rest`.
    min: Option<u128>,
    rest: BinaryHeap<Reverse<u128>>,
}

impl KeyHeap {
    #[inline]
    fn push(&mut self, key: u128) {
        match self.min {
            Some(min) if key > min => self.rest.push(Reverse(key)),
            Some(min) => {
                self.rest.push(Reverse(min));
                self.min = Some(key);
            }
            None if self.rest.peek().is_some_and(|top| top.0 < key) => {
                self.rest.push(Reverse(key));
            }
            None => self.min = Some(key),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u128> {
        self.min.or_else(|| self.rest.peek().map(|top| top.0))
    }

    #[inline]
    fn pop(&mut self) -> Option<u128> {
        self.min.take().or_else(|| self.rest.pop().map(|top| top.0))
    }

    /// Every key, in no particular order.
    fn keys(&self) -> impl Iterator<Item = u128> + '_ {
        self.min.into_iter().chain(self.rest.iter().map(|k| k.0))
    }
}

/// The events of one pending instant.
#[derive(Debug)]
struct Slot<E> {
    time: SimTime,
    /// True while the slot accepts pushes: on the heap and not yet being
    /// drained by [`EventQueue::pop`].
    open: bool,
    /// In push order while open; reversed once `pop` starts draining, so
    /// each single pop is a `Vec::pop`.
    events: Vec<E>,
}

/// A time-ordered queue of simulation events.
///
/// Events popped from the queue are monotonically non-decreasing in time,
/// and same-instant events pop in push order (see the module docs).
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
    /// Slot storage; a slot is open (on the heap) or on the free list.
    slots: Vec<Slot<E>>,
    /// Indices of drained slots, reused before `slots` grows.
    free: Vec<u32>,
    /// Open slots by [`key`]; every slot on the heap is non-empty.
    heap: KeyHeap,
    /// `hint[hint_index(t)]` is the newest slot opened at a time with that
    /// hash; valid only if that slot is still open at exactly `t`.
    hint: [u32; HINT_LEN],
    next_order: u64,
    len: usize,
    now: SimTime,
    popped: u64,
    pushed: u64,
    peak: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: KeyHeap::default(),
            hint: [NO_SLOT; HINT_LEN],
            next_order: 0,
            len: 0,
            now: SimTime::ZERO,
            popped: 0,
            pushed: 0,
            peak: 0,
        }
    }

    /// Creates an empty queue sized for roughly `capacity` simultaneously
    /// pending events: that many slots, each pre-sized for 16 events, are
    /// built up front, and the heap and free list are reserved to match. A run whose pending set stays within
    /// `capacity` then allocates only when one instant collects a longer
    /// run than a slot has held so far.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.slots.reserve(capacity);
        q.free.reserve(capacity);
        q.heap.rest.reserve(capacity);
        for i in (0..capacity).rev() {
            q.slots.push(Slot {
                time: SimTime::ZERO,
                open: false,
                events: Vec::with_capacity(SLOT_CAPACITY),
            });
            q.free.push(i as u32);
        }
        q
    }

    /// Schedules `event` to fire at `time`; same-instant events pop in
    /// push order.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `time` is earlier than the time of the most
    /// recently popped event (scheduling into the past).
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} into the past (now = {})",
            self.now
        );
        self.pushed += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        let h = hint_index(time);
        if let Some(slot) = self.slots.get_mut(self.hint[h] as usize) {
            if slot.open && slot.time == time {
                slot.events.push(event);
                return;
            }
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                assert!(
                    self.slots.len() <= IDX_MASK as usize,
                    "more than 2^{IDX_BITS} pending instants"
                );
                self.slots.push(Slot {
                    time,
                    open: false,
                    events: Vec::new(),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.time = time;
        slot.open = true;
        slot.events.push(event);
        if self.next_order == ORDER_LIMIT {
            self.renumber();
        }
        self.heap.push(key(time, self.next_order, idx));
        self.next_order += 1;
        self.hint[h] = idx;
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = self.heap.peek()?;
        let (time, idx) = (key_time(head), key_slot(head));
        let slot = &mut self.slots[idx as usize];
        if slot.open {
            // Close the slot to pushes (a push at `time` now opens a newer
            // slot, which pops after this one) and reverse it once, so the
            // FIFO front is the `Vec` tail.
            slot.open = false;
            slot.events.reverse();
        }
        let event = slot.events.pop().expect("heap slots are non-empty");
        if slot.events.is_empty() {
            self.heap.pop();
            self.free.push(idx);
        }
        self.len -= 1;
        self.popped += 1;
        self.now = time;
        Some((time, event))
    }

    /// Removes the entire same-time run at the head — every event firing
    /// at the earliest pending instant — appending the events to `out` in
    /// pop order and returning the instant and count. The flattened
    /// sequence is identical to repeated [`EventQueue::pop`].
    ///
    /// When `out` is empty the earliest slot's `Vec` is swapped with it,
    /// so handing over the run copies nothing and `out`'s old buffer is
    /// recycled as a slot. Events pushed at the same instant afterwards
    /// open a new slot and form the next batch.
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<(SimTime, usize)> {
        let head = self.heap.pop()?;
        let time = key_time(head);
        let before = out.len();
        self.take_slot(key_slot(head), out);
        // Further open slots at `time` (opened by a hint collision, or by a
        // push at `time` after `pop` began draining the head slot) hold
        // later pushes and follow in creation order.
        while let Some(next) = self.heap.peek() {
            if key_time(next) != time {
                break;
            }
            self.heap.pop();
            self.take_slot(key_slot(next), out);
        }
        let n = out.len() - before;
        self.len -= n;
        self.popped += n as u64;
        self.now = time;
        Some((time, n))
    }

    /// Moves slot `idx`'s events (already off the heap) to the end of
    /// `out` in pop order and frees the slot.
    #[inline]
    fn take_slot(&mut self, idx: u32, out: &mut Vec<E>) {
        let slot = &mut self.slots[idx as usize];
        if !slot.open {
            // `pop` started draining this slot and reversed it.
            slot.events.reverse();
        }
        slot.open = false;
        if out.is_empty() {
            std::mem::swap(out, &mut slot.events);
        } else {
            out.append(&mut slot.events);
        }
        self.free.push(idx);
    }

    /// Gives the open slots creation orders `0..` in their pop order, so
    /// orders stay below [`ORDER_LIMIT`] however many slots a run opens.
    /// Relative order is kept, so the pop order is unchanged.
    #[cold]
    fn renumber(&mut self) {
        let mut keys: Vec<u128> = self.heap.keys().collect();
        keys.sort_unstable();
        self.heap = KeyHeap::default();
        for (order, &k) in keys.iter().enumerate() {
            self.heap.push(key(key_time(k), order as u64, key_slot(k)));
        }
        self.next_order = keys.len() as u64;
    }

    /// The firing time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(key_time)
    }

    /// The time of the most recently popped event ([`SimTime::ZERO`] before
    /// the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped since construction.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Total number of events pushed since construction.
    pub fn events_scheduled(&self) -> u64 {
        self.pushed
    }

    /// The largest number of events simultaneously pending since
    /// construction — the working-set size the queue had to sustain.
    /// Event-coalescing optimizations drive this down.
    pub fn peak_len(&self) -> usize {
        self.peak
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
    fn same_time_is_fifo_across_paths() {
        // The same instant reached before and after an earlier push, and
        // across a single pop that closes its slot mid-drain.
        let mut q = EventQueue::with_capacity(4);
        let t = SimTime::from_ns(1);
        for i in 0..10 {
            q.push(t, i);
        }
        q.push(SimTime::ZERO, -1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, -1)));
        assert_eq!(q.pop(), Some((t, 0)));
        for i in 10..15 {
            q.push(t, i);
        }
        for i in 1..15 {
            assert_eq!(q.pop(), Some((t, i)), "entry {i}");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_below_window_after_anchor() {
        // Push later, then earlier (but ≥ now): the earlier instant heads
        // the queue.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(100), 'z');
        q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(1), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'z']);
    }

    #[test]
    fn scattered_far_instants_drain_in_order() {
        // Instants spread over ~4 µs and pushed out of order.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for k in 0..40u64 {
            let t = SimTime::from_ps((k * 37 % 40) * 131_072 / 3 + 1);
            q.push(t, (t, k));
            expect.push((t, k));
        }
        // `k` equals push order, so sorting by (time, k) gives the
        // required pop order.
        expect.sort_by_key(|&(t, k)| (t, k));
        let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, expect);
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
        assert_eq!(q.peak_len(), 5);
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
        assert_eq!(q.now(), SimTime::from_ns(5));
    }

    #[test]
    fn pop_batch_drains_whole_same_time_runs() {
        let mut q = EventQueue::with_capacity(8);
        let t1 = SimTime::from_ns(1);
        let t2 = SimTime::from_ns(2);
        q.push(t2, 'd');
        q.push(t1, 'a');
        q.push(t1, 'b');
        q.push(t1, 'c');
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_into(&mut out), Some((t1, 3)));
        assert_eq!(out, ['a', 'b', 'c']);
        assert_eq!(q.now(), t1);
        assert_eq!(q.len(), 1);
        out.clear();
        assert_eq!(q.pop_batch_into(&mut out), Some((t2, 1)));
        assert_eq!(out, ['d']);
        assert_eq!(q.pop_batch_into(&mut out), None);
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn pop_batch_matches_pop_one_by_one() {
        // The same scrambled schedule drained via pop() and via
        // pop_batch_into() yields the same flattened sequence.
        let schedule: Vec<(SimTime, usize)> = (0..300usize)
            .map(|k| (SimTime::from_ps((k as u64 * 131_071 % 97) * 512), k))
            .collect();
        let mut a = EventQueue::with_capacity(64);
        let mut b = EventQueue::with_capacity(64);
        for &(t, v) in &schedule {
            a.push(t, v);
            b.push(t, v);
        }
        let mut one = Vec::new();
        while let Some((t, v)) = a.pop() {
            one.push((t, v));
        }
        let mut batched = Vec::new();
        let mut out = Vec::new();
        while let Some((t, _)) = b.pop_batch_into(&mut out) {
            batched.extend(out.drain(..).map(|v| (t, v)));
        }
        assert_eq!(one, batched);
    }

    /// Two instants whose hint entries collide leave two open slots at one
    /// instant; the older slot's events still pop first, by a single pop
    /// and by a batch drain alike, and one batch returns the whole run.
    #[test]
    fn hint_collision_keeps_time_then_push_order() {
        let t = SimTime::from_ps(1_000);
        let other = (1_001..)
            .map(SimTime::from_ps)
            .find(|&u| hint_index(u) == hint_index(t))
            .expect("a colliding instant exists");
        for batch in [false, true] {
            let mut q = EventQueue::with_capacity(8);
            // Open and drain three slots so the free list hands out slot
            // indices in descending order: the newer slot at `t` then has
            // the lower index, and only the creation order ranks it second.
            for ps in 1..=3 {
                q.push(SimTime::from_ps(ps), -1);
            }
            while q.pop().is_some() {}
            q.push(t, 0);
            q.push(t, 1);
            q.push(other, 100); // evicts `t` from the hint table
            q.push(t, 2); // misses the hint: a second open slot at `t`
            q.push(t, 3);
            let open_at_t = q.heap.keys().filter(|&k| key_time(k) == t).count();
            assert_eq!(open_at_t, 2, "the collision must leave two open slots");
            let mut got = Vec::new();
            if batch {
                let mut out = Vec::new();
                assert_eq!(q.pop_batch_into(&mut out), Some((t, 4)));
                got.extend(out.drain(..).map(|e| (t, e)));
                assert_eq!(q.pop_batch_into(&mut out), Some((other, 1)));
                got.extend(out.drain(..).map(|e| (other, e)));
                assert_eq!(q.pop_batch_into(&mut out), None);
            } else {
                got.extend(std::iter::from_fn(|| q.pop()));
            }
            assert_eq!(
                got,
                [(t, 0), (t, 1), (t, 2), (t, 3), (other, 100)],
                "batch drain: {batch}"
            );
        }
    }

    /// Renumbering creation orders mid-run, with two open slots at one
    /// instant and a slot half drained by `pop`, keeps the pop order.
    #[test]
    fn renumbering_creation_orders_keeps_pop_order() {
        let t = SimTime::from_ps(1_000);
        let other = (1_001..)
            .map(SimTime::from_ps)
            .find(|&u| hint_index(u) == hint_index(t))
            .expect("a colliding instant exists");
        let mut q = EventQueue::with_capacity(8);
        q.push(SimTime::from_ps(10), 0);
        q.push(SimTime::from_ps(10), 1);
        q.push(t, 2);
        q.push(other, 9);
        q.push(t, 3);
        assert_eq!(q.pop(), Some((SimTime::from_ps(10), 0)));
        q.push(SimTime::from_ps(10), 4); // behind the half-drained slot
        q.next_order = ORDER_LIMIT - 1;
        q.push(SimTime::from_ps(20), 6); // the last order before the limit
        q.push(SimTime::from_ps(20), 7);
        q.push(SimTime::from_ps(30), 8); // renumbers, then opens its slot
        assert_eq!(q.next_order, q.heap.keys().count() as u64);
        q.push(t, 5);
        let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, [1, 4, 6, 7, 8, 2, 3, 5, 9]);
    }
}
