//! `campaign_bench` — the campaign-throughput microbenchmark behind
//! `BENCH_campaign.json`.
//!
//! Where `kernel_bench` times the DES kernel underneath one port,
//! this times the *engine around it*: the work-stealing scheduler and
//! the content-addressed cache's hit path. Three measurements, all in
//! points/sec over the same grid:
//!
//! - **cold** — every point freshly simulated through the shared
//!   work-stealing pool (an empty cache directory).
//! - **warm-disk** — the campaign's hit path,
//!   [`load_keyed`](mn_campaign::DiskCache::load_keyed): read, verify,
//!   decode, count — with the metrics gate off.
//! - **warm-disk+mtr** — the same loop with the metrics gate on, timed in
//!   interleaved off/on pairs to give the gate's overhead.
//!
//! Results go to stdout (human-readable) and to the `BENCH_campaign.json`
//! at the root of the checkout this binary was built from
//! (`MN_BENCH_OUT` to relocate), so CI can archive the throughput
//! trajectory per-PR and show regressions as a diff, not an anecdote.

use std::fmt::Write as _;
use std::time::Instant;

use mn_campaign::{jobs_from_env, Campaign, CampaignPoint, DiskCache};
use mn_core::SystemConfig;
use mn_telemetry::registry;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// The benchmark grid: one topology, many seeds. Seeds (not topologies)
/// vary so every point costs about the same and points/sec is a stable
/// ratio rather than an average over wildly different denominators.
fn grid() -> Vec<CampaignPoint> {
    let mut points = Vec::new();
    for seed in 0..24u64 {
        let mut config =
            SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).expect("baseline is valid");
        config.requests_per_port = 480;
        config.seed = 0xBE9C_0000 + seed;
        points.push(CampaignPoint::new(config, Workload::Dct));
    }
    points
}

/// Repeats `pass` (one sweep over the grid) until enough wall time has
/// accumulated for a stable rate, and returns points/sec.
fn rate_of(points_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    // One untimed pass to warm whatever the path under test caches.
    pass();
    let start = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || start.elapsed().as_secs_f64() < 0.25 {
        pass();
        passes += 1;
    }
    f64::from(passes) * points_per_pass as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    // Workers honor MN_JOBS like every figure binary; the host's cores
    // are recorded separately so a row can be read against both.
    let jobs = jobs_from_env();
    let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch =
        std::env::temp_dir().join(format!("mncube-campaign-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let points = grid();
    let n = points.len();

    // --- cold: fresh simulation through the work-stealing pool ---------
    let cold_dir = scratch.join("cold");
    let campaign = Campaign::new(jobs).quiet().cache_dir(&cold_dir);
    let start = Instant::now();
    let outcome = campaign.run(points.clone());
    let cold_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.summary.fresh, n,
        "cold run must simulate everything"
    );
    let cold_rate = n as f64 / cold_secs;

    // --- warm-disk: the campaign's hit path ------------------------------
    // Fingerprints and cache keys are precomputed once, exactly as the
    // campaign itself does, so the loop times the hit path alone.
    let cache = DiskCache::new(&cold_dir);
    let keys: Vec<(String, String)> = points
        .iter()
        .map(|p| (p.fingerprint(), p.cache_key()))
        .collect();
    let one_pass = || {
        for (fingerprint, key) in &keys {
            let result = cache
                .load_keyed(fingerprint, key)
                .expect("entry just stored");
            std::hint::black_box(&result);
        }
    };
    // The gate is pinned off/on around the measurements so the delta is
    // the registry's true hit-path cost, not whatever MN_METRICS happened
    // to be in the environment.
    registry::set_metrics_enabled(false);
    let warm_disk_rate = rate_of(n, one_pass);

    // --- metrics overhead: the same warm-disk loop, gate off vs on -------
    // Interleaved pairs, not two separate timing windows: on a busy or
    // frequency-scaling machine two sequential 0.25 s windows disagree
    // by far more than the one gated atomic under test costs, while
    // alternating off/on passes see the same drift and cancel it.
    let mut off_secs = 0.0f64;
    let mut on_secs = 0.0f64;
    let mut pairs = 0u32;
    while pairs < 8 || off_secs + on_secs < 1.0 {
        registry::set_metrics_enabled(false);
        let t = Instant::now();
        one_pass();
        off_secs += t.elapsed().as_secs_f64();
        registry::set_metrics_enabled(true);
        let t = Instant::now();
        one_pass();
        on_secs += t.elapsed().as_secs_f64();
        pairs += 1;
    }
    registry::set_metrics_enabled(false);
    let warm_disk_on_rate = f64::from(pairs) * n as f64 / on_secs;
    let metrics_overhead_pct = (on_secs / off_secs - 1.0) * 100.0;

    let _ = std::fs::remove_dir_all(&scratch);

    println!("available cores: {available_cores}  workers: {jobs}  grid: {n} points");
    println!(
        "{:<14} {:>14} {:>12}",
        "measurement", "points/sec", "vs cold"
    );
    for (name, rate) in [
        ("cold", cold_rate),
        ("warm-disk", warm_disk_rate),
        ("warm-disk+mtr", warm_disk_on_rate),
    ] {
        println!("{:<14} {:>14.0} {:>11.1}x", name, rate, rate / cold_rate);
    }
    println!("metrics-on overhead on the warm-disk path: {metrics_overhead_pct:.2}%");

    let out = std::env::var("MN_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json").to_string()
    });
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"available_cores\": {available_cores},");
    let _ = writeln!(json, "  \"workers\": {jobs},");
    let _ = writeln!(json, "  \"grid_points\": {n},");
    let _ = writeln!(json, "  \"cold_points_per_sec\": {cold_rate:.0},");
    let _ = writeln!(json, "  \"warm_disk_points_per_sec\": {warm_disk_rate:.0},");
    let _ = writeln!(
        json,
        "  \"warm_disk_metrics_on_points_per_sec\": {warm_disk_on_rate:.0},"
    );
    let _ = writeln!(
        json,
        "  \"metrics_overhead_warm_disk_pct\": {metrics_overhead_pct:.2}"
    );
    json.push_str("}\n");
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("warning: could not write {out}: {err}");
    } else {
        eprintln!("wrote {out}");
    }
}
