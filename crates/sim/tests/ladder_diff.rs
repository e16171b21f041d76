//! Differential property test: the ladder queue against a binary-heap
//! reference, driven with identical randomized push/pop schedules.
//!
//! The reference is the exact structure `EventQueue` used before kernel
//! v3 — a max-heap of [`Scheduled`] entries whose inverted `(time, seq)`
//! ordering delivers same-instant events in FIFO order. The goldens pin
//! that pop order bit-for-bit, so the ladder must reproduce it exactly on
//! every schedule, including same-instant bursts, bucket-boundary times,
//! window-overflowing far-future pushes, and pushes behind the window
//! anchor.

use std::collections::BinaryHeap;

use mn_sim::ladder::{BUCKET_PS, N_BUCKETS};
use mn_sim::{LadderQueue, Scheduled, SimRng, SimTime};

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
    /// `LadderQueue::pop_batch_into`.
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

const WINDOW_PS: u64 = N_BUCKETS as u64 * BUCKET_PS;

/// Draws a schedule-relative firing offset, biased toward the adversarial
/// cases: same-instant reuse, exact bucket/window boundaries, and
/// far-future spills.
fn draw_offset(rng: &mut SimRng, recent: &[u64]) -> u64 {
    match rng.below(10) {
        // Same instant as a recent push: exercises every FIFO tie path.
        0..=2 if !recent.is_empty() => recent[rng.below(recent.len() as u64) as usize],
        // Exact bucket boundaries around the window anchor.
        3 => rng.below(4) * BUCKET_PS,
        4 => (rng.below(N_BUCKETS as u64) + 1) * BUCKET_PS - 1,
        // Beyond the window: overflow rung + rewindow.
        5 => WINDOW_PS + rng.below(3 * WINDOW_PS),
        6 => WINDOW_PS * rng.below(8),
        // Short horizon, the common case.
        _ => rng.below(2 * WINDOW_PS),
    }
}

fn run_schedule(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut ladder: LadderQueue<u32> = LadderQueue::new();
    let mut heap = HeapQueue::new();
    let mut recent: Vec<u64> = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u32;

    for op in 0..ops {
        // Bias toward pushes so the queues stay populated, with occasional
        // pop bursts that drain across bucket and window boundaries.
        let do_push = ladder.is_empty() || rng.below(100) < 55;
        if do_push {
            let burst = 1 + rng.geometric(0.4, 8);
            for _ in 0..burst {
                let t = now + draw_offset(&mut rng, &recent);
                recent.push(t);
                if recent.len() > 8 {
                    recent.remove(0);
                }
                ladder.push(SimTime::from_ps(t), tag);
                heap.push(SimTime::from_ps(t), tag);
                tag += 1;
            }
        } else {
            let burst = 1 + rng.geometric(0.5, 16) as usize;
            for _ in 0..burst {
                assert_eq!(
                    ladder.peek_time(),
                    heap.peek_time(),
                    "peek diverged (seed {seed}, op {op})"
                );
                let l = ladder.pop();
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
            ladder.peek_time(),
            heap.peek_time(),
            "drain peek (seed {seed})"
        );
        let l = ladder.pop();
        let h = heap.pop();
        assert_eq!(l, h, "drain pop diverged (seed {seed})");
        if l.is_none() {
            break;
        }
    }
    assert!(ladder.is_empty());
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
    let mut ladder: LadderQueue<u32> = LadderQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = SimRng::seed_from(77);
    let instants = [0u64, 1, BUCKET_PS - 1, BUCKET_PS, WINDOW_PS, WINDOW_PS + 1];
    for tag in 0..3_000u32 {
        let t = SimTime::from_ps(instants[rng.below(instants.len() as u64) as usize]);
        ladder.push(t, tag);
        heap.push(t, tag);
    }
    loop {
        let l = ladder.pop();
        assert_eq!(l, heap.pop());
        if l.is_none() {
            break;
        }
    }
}

/// Mixed single pops and batch drains with a branch that pushes at exactly
/// `now` — the ladder's current-instant lane. The branch fires before the
/// first pop, between single pops while entries bucketed at `now` remain
/// (pushed before `now` advanced, so they must pop ahead of the lane), and
/// right after a batch drain; each case must be reached.
fn run_lane_schedule(seed: u64, ops: usize, reached: &mut [usize; 3]) {
    let mut rng = SimRng::seed_from(seed);
    let mut ladder: LadderQueue<u32> = LadderQueue::new();
    let mut heap = HeapQueue::new();
    let mut recent: Vec<u64> = Vec::new();
    let mut batch = Vec::new();
    let mut now = 0u64;
    let mut tag = 0u32;
    // The first tag issued after `now` last advanced: pending entries at
    // `now` tagged below it sit in a bucket, the rest in the lane.
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
                    ladder.push(at, tag);
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
                    ladder.push(SimTime::from_ps(t), tag);
                    heap.push(SimTime::from_ps(t), tag);
                    tag += 1;
                }
                after_batch = false;
                after_single = false;
            }
            // Single pops.
            6..=7 => {
                for _ in 0..1 + rng.geometric(0.5, 4) {
                    let l = ladder.pop();
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
                let l = ladder.pop_batch_into(&mut batch);
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
            ladder.peek_time(),
            heap.peek_time(),
            "peek (seed {seed}, op {op})"
        );
        assert_eq!(ladder.len(), heap.len(), "len (seed {seed}, op {op})");
        assert_eq!(ladder.is_empty(), heap.len() == 0);
        assert_eq!(ladder.peak_len(), heap_peak, "peak (seed {seed}, op {op})");
        assert_eq!(ladder.now(), SimTime::from_ps(now));
    }

    loop {
        let l = ladder.pop();
        assert_eq!(l, heap.pop(), "drain pop diverged (seed {seed})");
        if l.is_none() {
            break;
        }
    }
    assert!(ladder.is_empty());
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
