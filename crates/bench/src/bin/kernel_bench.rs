//! `kernel_bench` — the DES-kernel microbenchmark behind `BENCH_kernel.json`.
//!
//! Times the canonical *chain-640-requests* microbench (the paper-baseline
//! chain MN driven to 640 completed requests), two larger reference points,
//! and a fault-enabled chain variant (CRC retry/replay exercises the
//! retry-buffer path), and reports the kernel-health metrics the hot-path
//! work targets:
//!
//! - **events/sec** and **ns/event** — wall time divided by the number of
//!   discrete events processed. The event stream is part of the
//!   bit-reproducible contract, so the denominator is stable across kernel
//!   changes and the ratio tracks pure dispatch cost.
//! - **peak queue depth** — the ladder queue's high-water mark.
//! - **allocations per 1k events** — counted by a wrapping global
//!   allocator, both for the whole run and for the *steady state* alone
//!   (the simulation loop after construction). Arena-backed packets and
//!   pooled buffers drive the steady-state figure to zero.
//! - **ladder spills / rewindows and arena high-water** — the kernel v3
//!   counters ([`mn_sim::KernelCounters`]); spills say how often events
//!   landed beyond the bucket window, the arena high-water bounds the
//!   packet working set.
//!
//! Results go to stdout (human-readable) and to `BENCH_kernel.json`
//! (`MN_BENCH_OUT` to relocate), so CI can archive the perf trajectory
//! per-PR and regressions are visible as a diff, not an anecdote.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::time::Instant;

use mn_core::{simulate_port, SystemConfig};
use mn_sim::counters;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// A pass-through allocator that counts heap operations on the hot path,
/// feeding the process-global tally in `mn_sim::counters` (which the port
/// simulator snapshots around its steady-state loop). Lives in the binary
/// (the workspace libraries `forbid(unsafe_code)`; the two calls below are
/// the canonical delegating-allocator idiom).
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`, which upholds the GlobalAlloc
// contract; the counter is a relaxed atomic add with no safety
// implications (and no allocation of its own).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counters::record_heap_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Case {
    name: &'static str,
    topology: TopologyKind,
    requests: u64,
    workload: Workload,
    iters: u32,
    /// Transient CRC fault rate (0.0 = healthy links).
    fault_rate: f64,
}

struct Measurement {
    name: String,
    events_per_iter: u64,
    queue_peak: usize,
    ns_per_event: f64,
    events_per_sec: f64,
    allocs_per_1k_events: f64,
    steady_allocs_per_1k_events: f64,
    bucket_spills: u64,
    rewindows: u64,
    arena_high_water: u64,
    wall_per_iter_ms: f64,
}

fn run_case(case: &Case) -> Measurement {
    let mut config =
        SystemConfig::paper_baseline(case.topology, 1.0).expect("paper baseline is valid");
    config.requests_per_port = case.requests;
    if case.fault_rate > 0.0 {
        config.noc.fault.transient_rate = case.fault_rate;
        config.noc.fault.seed = 7;
    }
    // MN_TRACE lets CI measure telemetry overhead (off/counters/full)
    // with the same binary; the event stream is identical either way.
    if let Some(mode) = mn_campaign::trace_from_env() {
        config.noc.trace = mode;
    }

    // Warm up (page in code, size caches) outside the measured window.
    let reference = simulate_port(&config, case.workload, 0);
    let events = reference.kernel_events();
    let kernel = reference.kernel_counters();

    let alloc_start = counters::heap_allocs();
    let start = Instant::now();
    let mut steady_allocs = 0u64;
    for _ in 0..case.iters {
        let obs = simulate_port(&config, case.workload, 0);
        assert_eq!(
            obs.kernel_events(),
            events,
            "event stream must be deterministic"
        );
        steady_allocs += obs.kernel_counters().steady_heap_allocs;
        std::hint::black_box(&obs);
    }
    let wall = start.elapsed();
    let allocs = counters::heap_allocs() - alloc_start;

    let total_events = events * u64::from(case.iters);
    let secs = wall.as_secs_f64();
    Measurement {
        name: case.name.to_string(),
        events_per_iter: events,
        queue_peak: kernel.queue_peak as usize,
        ns_per_event: secs * 1e9 / total_events as f64,
        events_per_sec: total_events as f64 / secs,
        allocs_per_1k_events: allocs as f64 * 1000.0 / total_events as f64,
        steady_allocs_per_1k_events: steady_allocs as f64 * 1000.0 / total_events as f64,
        bucket_spills: kernel.bucket_spills,
        rewindows: kernel.rewindows,
        arena_high_water: kernel.arena_high_water,
        wall_per_iter_ms: secs * 1e3 / f64::from(case.iters),
    }
}

fn main() {
    let cases = [
        Case {
            name: "chain-640-requests",
            topology: TopologyKind::Chain,
            requests: 640,
            workload: Workload::Dct,
            iters: 40,
            fault_rate: 0.0,
        },
        Case {
            name: "tree-2k-requests",
            topology: TopologyKind::Tree,
            requests: 2_000,
            workload: Workload::Nw,
            iters: 10,
            fault_rate: 0.0,
        },
        Case {
            name: "skiplist-2k-requests",
            topology: TopologyKind::SkipList,
            requests: 2_000,
            workload: Workload::Backprop,
            iters: 10,
            fault_rate: 0.0,
        },
        // Retry/replay path: transient CRC faults stretch link occupancy
        // and touch the per-link retry buffers every few hundred packets.
        Case {
            name: "chain-640-faulty",
            topology: TopologyKind::Chain,
            requests: 640,
            workload: Workload::Dct,
            iters: 40,
            fault_rate: 0.02,
        },
    ];

    // The host's available parallelism, archived so a wall-clock delta
    // between machines can be read against the cores each one had.
    let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available cores: {available_cores}");
    println!(
        "{:<22} {:>12} {:>8} {:>9} {:>13} {:>11} {:>11} {:>7} {:>8} {:>8} {:>10}",
        "case",
        "events/iter",
        "peak q",
        "ns/event",
        "events/sec",
        "alloc/1kev",
        "steady/1k",
        "spills",
        "rewind",
        "arena",
        "ms/iter"
    );
    let mut measurements = Vec::new();
    for case in &cases {
        let m = run_case(case);
        println!(
            "{:<22} {:>12} {:>8} {:>9.1} {:>13.0} {:>11.2} {:>11.3} {:>7} {:>8} {:>8} {:>10.3}",
            m.name,
            m.events_per_iter,
            m.queue_peak,
            m.ns_per_event,
            m.events_per_sec,
            m.allocs_per_1k_events,
            m.steady_allocs_per_1k_events,
            m.bucket_spills,
            m.rewindows,
            m.arena_high_water,
            m.wall_per_iter_ms
        );
        measurements.push(m);
    }

    let out = std::env::var("MN_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernel.json".to_string());
    let mut json = format!("{{\n  \"available_cores\": {available_cores},\n  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\":\"{}\",\"events_per_iter\":{},\"peak_queue_depth\":{},\
             \"ns_per_event\":{:.3},\"events_per_sec\":{:.0},\
             \"allocs_per_1k_events\":{:.2},\"steady_allocs_per_1k_events\":{:.3},\
             \"bucket_spills\":{},\"rewindows\":{},\"arena_high_water\":{},\
             \"wall_per_iter_ms\":{:.3}}}{comma}",
            m.name,
            m.events_per_iter,
            m.queue_peak,
            m.ns_per_event,
            m.events_per_sec,
            m.allocs_per_1k_events,
            m.steady_allocs_per_1k_events,
            m.bucket_spills,
            m.rewindows,
            m.arena_high_water,
            m.wall_per_iter_ms
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("warning: could not write {out}: {err}");
    } else {
        eprintln!("wrote {out}");
    }
}
