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
//!   changes and the ratio tracks pure dispatch cost. Each case is timed
//!   over [`ROUNDS`] rounds, interleaved across cases so a slow stretch of
//!   the machine hits every case alike; the report is the median round,
//!   with the interquartile range of ns/event as its spread.
//! - **peak queue depth** — the event queue's high-water mark.
//! - **allocations per 1k events** — counted by a wrapping global
//!   allocator, both for the whole run and for the *steady state* alone
//!   (the simulation loop after construction). Arena-backed packets and
//!   pre-sized buffers drive the steady-state figure to zero.
//! - **arena high-water** — from [`mn_sim::KernelCounters`]; it bounds
//!   the packet working set.
//!
//! Results go to stdout (human-readable) and to the `BENCH_kernel.json`
//! at the root of the checkout this binary was built from
//! (`MN_BENCH_OUT` to relocate), so CI can archive the perf trajectory
//! per-PR and regressions are visible as a diff, not an anecdote.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mn_core::{simulate_port, SystemConfig};
use mn_sim::{counters, KernelCounters};
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

/// Timed rounds per case; every round runs each case's `iters` once.
const ROUNDS: usize = 5;

struct Case {
    name: &'static str,
    topology: TopologyKind,
    requests: u64,
    workload: Workload,
    iters: u32,
    /// Transient CRC fault rate (0.0 = healthy links).
    fault_rate: f64,
}

/// One case's deterministic reference run, plus what its timed rounds
/// accumulate.
struct CaseRun {
    events_per_iter: u64,
    kernel: KernelCounters,
    config: SystemConfig,
    /// Wall time of each round's `iters` iterations.
    round_walls: Vec<Duration>,
    allocs: u64,
    steady_allocs: u64,
}

struct Measurement {
    name: String,
    events_per_iter: u64,
    queue_peak: usize,
    ns_per_event: f64,
    ns_per_event_iqr: f64,
    events_per_sec: f64,
    allocs_per_1k_events: f64,
    steady_allocs_per_1k_events: f64,
    arena_high_water: u64,
    wall_per_iter_ms: f64,
}

/// Builds the case's configuration and runs it once untimed: the warm-up
/// (page in code, size caches) and the event-count reference.
fn prepare(case: &Case) -> CaseRun {
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
    let reference = simulate_port(&config, case.workload, 0);
    CaseRun {
        events_per_iter: reference.kernel_events(),
        kernel: reference.kernel_counters(),
        config,
        round_walls: Vec::with_capacity(ROUNDS),
        allocs: 0,
        steady_allocs: 0,
    }
}

/// Times one round of `case`: its `iters` iterations back to back.
fn run_round(case: &Case, run: &mut CaseRun) {
    let alloc_start = counters::heap_allocs();
    let start = Instant::now();
    for _ in 0..case.iters {
        let obs = simulate_port(&run.config, case.workload, 0);
        assert_eq!(
            obs.kernel_events(),
            run.events_per_iter,
            "event stream must be deterministic"
        );
        run.steady_allocs += obs.kernel_counters().steady_heap_allocs;
        std::hint::black_box(&obs);
    }
    run.round_walls.push(start.elapsed());
    run.allocs += counters::heap_allocs() - alloc_start;
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly
/// between neighbors.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn summarize(case: &Case, run: &CaseRun) -> Measurement {
    let events_per_round = run.events_per_iter * u64::from(case.iters);
    let mut ns_per_event: Vec<f64> = run
        .round_walls
        .iter()
        .map(|wall| wall.as_secs_f64() * 1e9 / events_per_round as f64)
        .collect();
    ns_per_event.sort_by(f64::total_cmp);
    let median = quantile(&ns_per_event, 0.5);
    let total_events = events_per_round * run.round_walls.len() as u64;
    Measurement {
        name: case.name.to_string(),
        events_per_iter: run.events_per_iter,
        queue_peak: run.kernel.queue_peak as usize,
        ns_per_event: median,
        ns_per_event_iqr: quantile(&ns_per_event, 0.75) - quantile(&ns_per_event, 0.25),
        events_per_sec: 1e9 / median,
        allocs_per_1k_events: run.allocs as f64 * 1000.0 / total_events as f64,
        steady_allocs_per_1k_events: run.steady_allocs as f64 * 1000.0 / total_events as f64,
        arena_high_water: run.kernel.arena_high_water,
        wall_per_iter_ms: median * run.events_per_iter as f64 / 1e6,
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
    println!("available cores: {available_cores}, rounds: {ROUNDS}");
    let mut runs: Vec<CaseRun> = cases.iter().map(prepare).collect();
    for _ in 0..ROUNDS {
        for (case, run) in cases.iter().zip(&mut runs) {
            run_round(case, run);
        }
    }
    println!(
        "{:<22} {:>12} {:>8} {:>9} {:>7} {:>13} {:>11} {:>11} {:>8} {:>10}",
        "case",
        "events/iter",
        "peak q",
        "ns/event",
        "iqr",
        "events/sec",
        "alloc/1kev",
        "steady/1k",
        "arena",
        "ms/iter"
    );
    let mut measurements = Vec::new();
    for (case, run) in cases.iter().zip(&runs) {
        let m = summarize(case, run);
        println!(
            "{:<22} {:>12} {:>8} {:>9.1} {:>7.1} {:>13.0} {:>11.2} {:>11.3} {:>8} {:>10.3}",
            m.name,
            m.events_per_iter,
            m.queue_peak,
            m.ns_per_event,
            m.ns_per_event_iqr,
            m.events_per_sec,
            m.allocs_per_1k_events,
            m.steady_allocs_per_1k_events,
            m.arena_high_water,
            m.wall_per_iter_ms
        );
        measurements.push(m);
    }

    let out = std::env::var("MN_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json").to_string()
    });
    let mut json = format!("{{\n  \"available_cores\": {available_cores},\n  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\":\"{}\",\"events_per_iter\":{},\"peak_queue_depth\":{},\
             \"ns_per_event\":{:.3},\"ns_per_event_iqr\":{:.3},\"rounds\":{},\
             \"events_per_sec\":{:.0},\
             \"allocs_per_1k_events\":{:.2},\"steady_allocs_per_1k_events\":{:.3},\
             \"arena_high_water\":{},\
             \"wall_per_iter_ms\":{:.3}}}{comma}",
            m.name,
            m.events_per_iter,
            m.queue_peak,
            m.ns_per_event,
            m.ns_per_event_iqr,
            ROUNDS,
            m.events_per_sec,
            m.allocs_per_1k_events,
            m.steady_allocs_per_1k_events,
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
