//! Kernel perf counters: cheap, always-on instrumentation so performance
//! regressions show up as numbers in `BENCH_kernel.json`, not as vibes.
//!
//! Two layers:
//!
//! - A process-global heap-allocation tally. The libraries in this
//!   workspace are `#![forbid(unsafe_code)]` and cannot install a
//!   `#[global_allocator]`; binaries that do (e.g. `kernel_bench`) feed
//!   every allocation through [`record_heap_alloc`], and the sim core
//!   snapshots [`heap_allocs`] around its steady-state loop to report
//!   allocations attributable to simulation alone (construction and
//!   teardown excluded). In binaries without a counting allocator the
//!   tally simply stays at zero.
//! - [`KernelCounters`], a per-run snapshot of queue traffic and arena
//!   high-water marks that the network and port layers fill in and the
//!   bench binary serializes.

use std::sync::atomic::{AtomicU64, Ordering};

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one heap allocation. Called from a counting
/// `#[global_allocator]` in bench binaries; relaxed ordering keeps the
/// hot-path cost to a single uncontended atomic add.
#[inline]
pub fn record_heap_alloc() {
    HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Total heap allocations recorded so far in this process (zero unless a
/// counting allocator is installed). Snapshot before and after a region to
/// attribute allocations to it.
#[inline]
pub fn heap_allocs() -> u64 {
    HEAP_ALLOCS.load(Ordering::Relaxed)
}

/// A per-simulation snapshot of kernel-internal traffic, filled in by the
/// network/port layers at the end of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Events pushed into the event queue.
    pub events_scheduled: u64,
    /// Events popped from the event queue.
    pub events_processed: u64,
    /// High-water mark of simultaneously pending events.
    pub queue_peak: u64,
    /// Always zero: the event queue has no bucket window to spill from.
    /// Kept only because the `perfbench` run schema reads it, until that
    /// schema's next revision.
    pub bucket_spills: u64,
    /// Always zero: the event queue has no window to re-anchor. Kept for
    /// the `perfbench` run schema like `bucket_spills`.
    pub rewindows: u64,
    /// High-water mark of live packets in the packet arena.
    pub arena_high_water: u64,
    /// Heap allocations during the steady-state loop (requires a counting
    /// allocator in the binary; zero otherwise).
    pub steady_heap_allocs: u64,
}
