//! Differential property test: [`EventQueue`] against a binary-heap
//! reference, driven with identical randomized push/pop schedules.
//!
//! The reference is the exact structure `EventQueue` used before kernel
//! v3 — a max-heap of [`Scheduled`] entries whose inverted `(time, seq)`
//! ordering delivers same-instant events in FIFO order. The goldens pin
//! that pop order bit-for-bit, so the queue must reproduce it exactly on
//! every schedule, including same-instant bursts, pushes at the current
//! instant, far-future pushes, and pushes ahead of the earliest pending
//! instant. (The test names date from the ladder queue the per-instant
//! queue replaced; the schedules are unchanged.)

use std::collections::BinaryHeap;

use mn_sim::{EventQueue, Scheduled, SimRng, SimTime};

/// The pre-v3 `EventQueue` core: a `BinaryHeap` with an insertion-seq
/// tie-break.
struct HeapQueue {
    heap: BinaryHeap<Scheduled<u32>>,
    next_seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled::new(time, seq, event));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the whole same-time run at the head, like
    /// `EventQueue::pop_batch_into`.
    fn pop_batch(&mut self) -> Option<(SimTime, Vec<u32>)> {
        let t = self.peek_time()?;
        let mut run = Vec::new();
        while self.peek_time() == Some(t) {
            run.push(self.pop().expect("peeked").1);
        }
        Some((t, run))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Pending entries at `time` tagged below `tag`, i.e. pushed before
    /// that tag was issued (tags are issued in push order).
    fn count_at_before(&self, time: SimTime, tag: u32) -> usize {
        self.heap
            .iter()
            .filter(|s| s.time == time && s.event < tag)
            .count()
    }
}

/// The offset grid the schedules draw from: the bucket width and
/// 256-bucket window of the former ladder queue. Kept so the schedules
/// mix near, boundary-aligned and far-future instants exactly as before.
const BUCKET_PS: u64 = 512;
const N_BUCKETS: u64 = 256;
const WINDOW_PS: u64 = N_BUCKETS * BUCKET_PS;

/// Draws a schedule-relative firing offset, biased toward the adversarial
/// cases: same-instant reuse, aligned instants, and far-future pushes.
fn draw_offset(rng: &mut SimRng, recent: &[u64]) -> u64 {
    match rng.below(10) {
        // Same instant as a recent push: exercises every FIFO tie path.
        0..=2 if !recent.is_empty() => recent[rng.below(recent.len() as u64) as usize],
        // Grid-aligned instants near `now`.
        3 => rng.below(4) * BUCKET_PS,
        4 => (rng.below(N_BUCKETS) + 1) * BUCKET_PS - 1,
        // Far future.
        5 => WINDOW_PS + rng.below(3 * WINDOW_PS),
        6 => WINDOW_PS * rng.below(8),
        // Short horizon, the common case.
        _ => rng.below(2 * WINDOW_PS),
    }
}

fn run_schedule(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut recent: Vec<u64> = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u32;

    for op in 0..ops {
        // Bias toward pushes so the queues stay populated, with occasional
        // pop bursts that drain across many instants.
        let do_push = queue.is_empty() || rng.below(100) < 55;
        if do_push {
            let burst = 1 + rng.geometric(0.4, 8);
            for _ in 0..burst {
                let t = now + draw_offset(&mut rng, &recent);
                recent.push(t);
                if recent.len() > 8 {
                    recent.remove(0);
                }
                queue.push(SimTime::from_ps(t), tag);
                heap.push(SimTime::from_ps(t), tag);
                tag += 1;
            }
        } else {
            let burst = 1 + rng.geometric(0.5, 16) as usize;
            for _ in 0..burst {
                assert_eq!(
                    queue.peek_time(),
                    heap.peek_time(),
                    "peek diverged (seed {seed}, op {op})"
                );
                let l = queue.pop();
                let h = heap.pop();
                assert_eq!(l, h, "pop diverged (seed {seed}, op {op})");
                match l {
                    Some((t, _)) => now = t.as_ps(),
                    None => break,
                }
            }
        }
    }

    // Drain both queues to the end.
    loop {
        assert_eq!(
            queue.peek_time(),
            heap.peek_time(),
            "drain peek (seed {seed})"
        );
        let l = queue.pop();
        let h = heap.pop();
        assert_eq!(l, h, "drain pop diverged (seed {seed})");
        if l.is_none() {
            break;
        }
    }
    assert!(queue.is_empty());
}

#[test]
fn ladder_matches_binary_heap_reference() {
    for seed in 0..64 {
        run_schedule(0xD1FF_0000 + seed, 2_000);
    }
}

#[test]
fn ladder_matches_reference_on_long_schedules() {
    for seed in 0..4 {
        run_schedule(0x4C0A_D500_u64.wrapping_add(seed), 40_000);
    }
}

#[test]
fn ladder_matches_reference_on_pure_same_instant_bursts() {
    // Everything at a handful of instants: the pop order is decided purely
    // by the FIFO tie-break.
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = SimRng::seed_from(77);
    let instants = [0u64, 1, BUCKET_PS - 1, BUCKET_PS, WINDOW_PS, WINDOW_PS + 1];
    for tag in 0..3_000u32 {
        let t = SimTime::from_ps(instants[rng.below(instants.len() as u64) as usize]);
        queue.push(t, tag);
        heap.push(t, tag);
    }
    loop {
        let l = queue.pop();
        assert_eq!(l, heap.pop());
        if l.is_none() {
            break;
        }
    }
}

/// Mixed single pops and batch drains with a branch that pushes at exactly
/// `now`. The branch fires before the first pop, between single pops while
/// entries pushed before `now` advanced remain at `now` (they must pop
/// ahead of the new pushes, which open a fresh slot behind the one being
/// drained), and right after a batch drain; each case must be reached.
fn run_lane_schedule(seed: u64, ops: usize, reached: &mut [usize; 3]) {
    let mut rng = SimRng::seed_from(seed);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut recent: Vec<u64> = Vec::new();
    let mut batch = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u32;
    // The first tag issued after `now` last advanced: pending entries at
    // `now` tagged below it were pushed before `now` reached them.
    let mut advanced_at_tag = 0u32;
    let mut popped_any = false;
    let mut after_batch = false;
    let mut after_single = false;
    let mut heap_peak = 0usize;

    for op in 0..ops {
        match rng.below(10) {
            // Push at exactly `now`.
            0..=2 => {
                let at = SimTime::from_ps(now);
                if !popped_any {
                    reached[0] += 1;
                } else if after_single && heap.count_at_before(at, advanced_at_tag) > 0 {
                    reached[1] += 1;
                } else if after_batch {
                    reached[2] += 1;
                }
                for _ in 0..1 + rng.geometric(0.5, 6) {
                    queue.push(at, tag);
                    heap.push(at, tag);
                    tag += 1;
                }
                after_batch = false;
                after_single = false;
            }
            // Push ahead of `now`, biased toward the adversarial offsets.
            3..=5 => {
                for _ in 0..1 + rng.geometric(0.4, 8) {
                    let t = now + draw_offset(&mut rng, &recent);
                    recent.push(t);
                    if recent.len() > 8 {
                        recent.remove(0);
                    }
                    queue.push(SimTime::from_ps(t), tag);
                    heap.push(SimTime::from_ps(t), tag);
                    tag += 1;
                }
                after_batch = false;
                after_single = false;
            }
            // Single pops.
            6..=7 => {
                for _ in 0..1 + rng.geometric(0.5, 4) {
                    let l = queue.pop();
                    assert_eq!(l, heap.pop(), "pop diverged (seed {seed}, op {op})");
                    let Some((t, _)) = l else { break };
                    popped_any = true;
                    if t.as_ps() != now {
                        now = t.as_ps();
                        advanced_at_tag = tag;
                    }
                }
                after_batch = false;
                after_single = true;
            }
            // One batch drain.
            _ => {
                batch.clear();
                let l = queue.pop_batch_into(&mut batch);
                let h = heap.pop_batch();
                assert_eq!(
                    l.map(|(t, n)| (t, batch.clone(), n)),
                    h.map(|(t, run)| {
                        let n = run.len();
                        (t, run, n)
                    }),
                    "batch diverged (seed {seed}, op {op})"
                );
                if let Some((t, _)) = l {
                    popped_any = true;
                    if t.as_ps() != now {
                        now = t.as_ps();
                        advanced_at_tag = tag;
                    }
                }
                after_batch = l.is_some();
                after_single = false;
            }
        }
        heap_peak = heap_peak.max(heap.len());
        assert_eq!(
            queue.peek_time(),
            heap.peek_time(),
            "peek (seed {seed}, op {op})"
        );
        assert_eq!(queue.len(), heap.len(), "len (seed {seed}, op {op})");
        assert_eq!(queue.is_empty(), heap.len() == 0);
        assert_eq!(queue.peak_len(), heap_peak, "peak (seed {seed}, op {op})");
        assert_eq!(queue.now(), SimTime::from_ps(now));
    }

    loop {
        let l = queue.pop();
        assert_eq!(l, heap.pop(), "drain pop diverged (seed {seed})");
        if l.is_none() {
            break;
        }
    }
    assert!(queue.is_empty());
}

#[test]
fn ladder_lane_matches_reference_under_batch_drains_and_pushes_at_now() {
    let mut reached = [0usize; 3];
    for seed in 0..32 {
        run_lane_schedule(0x1A4E_0000 + seed, 3_000, &mut reached);
    }
    let [before_first_pop, behind_bucketed, after_batch] = reached;
    assert!(
        before_first_pop > 0,
        "never pushed at now before the first pop"
    );
    assert!(
        behind_bucketed > 0,
        "never pushed at now while bucketed entries at now remained"
    );
    assert!(
        after_batch > 0,
        "never pushed at now right after a batch drain"
    );
}

/// At least 1,000 distinct far-future instants pending at once — each its
/// own slot on the heap — drained by a mix of single pops, batch drains
/// and further pushes, both at `now` and at instants already pending.
#[test]
fn many_far_future_instants_match_reference_under_mixed_drains() {
    let mut rng = SimRng::seed_from(0xFA2_F07E);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut pending: Vec<u64> = Vec::new();
    let mut batch = Vec::new();
    let mut tag = 0u32;
    let mut now = 0u64;
    fn push(queue: &mut EventQueue<u32>, heap: &mut HeapQueue, t: u64, tag: &mut u32) {
        queue.push(SimTime::from_ps(t), *tag);
        heap.push(SimTime::from_ps(t), *tag);
        *tag += 1;
    }
    for k in 0..1_500u64 {
        // Distinct, scrambled instants milliseconds ahead.
        let t = 1_000_000_000 + (k * 7_919 % 1_500) * 104_729;
        pending.push(t);
        push(&mut queue, &mut heap, t, &mut tag);
    }
    let distinct = |heap: &HeapQueue| {
        let mut times: Vec<SimTime> = heap.heap.iter().map(|s| s.time).collect();
        times.sort();
        times.dedup();
        times.len()
    };
    assert!(
        distinct(&heap) >= 1_000,
        "fewer than 1,000 distinct instants"
    );

    for op in 0..6_000 {
        match rng.below(8) {
            // Same-time pushes onto an instant that may already be pending.
            0..=1 => {
                let t = pending[rng.below(pending.len() as u64) as usize].max(now);
                for _ in 0..1 + rng.below(3) {
                    push(&mut queue, &mut heap, t, &mut tag);
                }
            }
            // Pushes at exactly `now`.
            2 => {
                for _ in 0..1 + rng.below(3) {
                    push(&mut queue, &mut heap, now, &mut tag);
                }
            }
            // A fresh far-future instant.
            3 => {
                let t = now + 1_000_000 + rng.below(1_000_000_000);
                pending.push(t);
                push(&mut queue, &mut heap, t, &mut tag);
            }
            // Single pops.
            4..=5 => {
                for _ in 0..1 + rng.below(4) {
                    let q = queue.pop();
                    assert_eq!(q, heap.pop(), "pop diverged (op {op})");
                    if let Some((t, _)) = q {
                        now = t.as_ps();
                    }
                }
            }
            // One batch drain.
            _ => {
                batch.clear();
                let q = queue
                    .pop_batch_into(&mut batch)
                    .map(|(t, n)| (t, batch.clone(), n));
                let h = heap.pop_batch().map(|(t, run)| {
                    let n = run.len();
                    (t, run, n)
                });
                assert_eq!(q, h, "batch diverged (op {op})");
                if let Some((t, _, _)) = q {
                    now = t.as_ps();
                }
            }
        }
        assert_eq!(queue.peek_time(), heap.peek_time(), "peek (op {op})");
        assert_eq!(queue.len(), heap.len(), "len (op {op})");
        assert_eq!(queue.now(), SimTime::from_ps(now), "now (op {op})");
    }
    loop {
        let q = queue.pop();
        assert_eq!(q, heap.pop(), "drain pop diverged");
        if q.is_none() {
            break;
        }
    }
    assert!(queue.is_empty());
}
