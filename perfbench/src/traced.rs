//! The traced run: per-layer metrics, measured from outside the crates.
//!
//! 1. Untraced campaign pass(es), registry gate off: the engine's busy
//!    fraction and scheduling loss, and the makespan the tracing overhead
//!    is measured against.
//! 2. The same pass(es) with the `mn-telemetry` registry gate on: the
//!    engine's steal/park counters and the cache's hit/miss/store counts.
//! 3. A serial replay of every unique point outside the campaign, each
//!    call into a crate's public functions wrapped in a span (name, start,
//!    end, parent) kept in memory and written out at the end. Cold points
//!    are re-simulated call by call — key, trace drain, topology, network,
//!    `simulate_port` per port, merge, encode, store, then the read path;
//!    warm points run the cache read path alone. The calls' spans plus a
//!    stated residual sum to the replay's measured serial total.
//!
//! The standalone trace drain, topology build and network build repeat
//! work `simulate_port` does internally, so they are reported as
//! estimated shares of `simulate_port` time, not as time on top of it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mn_campaign::codec::{decode_result, encode_result};
use mn_campaign::{CampaignPoint, DiskCache};
use mn_core::{merge_port_observations, port_count, try_simulate_port, RunResult};
use mn_noc::Network;
use mn_telemetry::registry;
use mn_topo::{RoutingTable, Topology};
use mn_workloads::TraceGenerator;

use crate::json::Json;
use crate::passes::{self, cold_dir, entry_body, prepare_warm, warm_dir, Pass, Warm};
use crate::stats::median;
use crate::{Args, Paths, Report, Workload};

/// Total kernel events of the workload's unique points at the paper seed
/// (`warm-replay` simulates nothing). The event stream is part of the
/// bit-reproducible contract, so a change meant only to speed up the
/// simulator must leave this exact.
fn reference_events(workload: Workload) -> u64 {
    match workload {
        Workload::ColdPaper => 105_542_340,
        Workload::ColdLoaded => 28_565_328,
        Workload::WarmReplay => 0,
    }
}

/// Gate-off/gate-on pass pairs: `warm-replay`'s passes take milliseconds
/// and `cold-loaded`'s a few seconds, so they afford medians over several
/// pairs; `cold-paper` affords one.
const WARM_PAIRS: usize = 40;
const COLD_LOADED_PAIRS: usize = 3;

/// Open probes behind `cache.open_us` (median).
const OPEN_PROBES: usize = 7;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span log.
#[derive(Debug)]
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or(Json::Str("none".into()), |p| Json::Int(p as u64));
            let line = Json::object([
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("parent", parent),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
            ]);
            text.push_str(&format!("{line}\n"));
        }
        fs::write(path, text)
    }

    /// Per span name: (calls, total nanoseconds), for child spans only.
    fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            let entry = totals.entry(s.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += s.end_ns - s.start_ns;
        }
        totals
    }
}

/// Kernel counters summed (or maxed) over every simulated port.
#[derive(Debug, Default)]
struct Kernel {
    ports: u64,
    events: u64,
    queue_peak: u64,
    bucket_spills: u64,
    rewindows: u64,
    arena_high_water: u64,
    steady_allocs: u64,
    refs_drained: u64,
}

/// Simulated statistics averaged over the replayed results.
#[derive(Debug, Default)]
struct Simulated {
    results: u64,
    hops: f64,
    row_hits: f64,
    hosts: u64,
    marked: f64,
    window: f64,
}

impl Simulated {
    fn add(&mut self, result: &RunResult) {
        self.results += 1;
        self.hops += result.avg_hops;
        self.row_hits += result.row_hit_rate;
        if let Some(host) = result.telemetry.as_ref().and_then(|t| t.host.as_ref()) {
            self.hosts += 1;
            self.marked += host.marked_fraction();
            self.window += host.steady_window();
        }
    }
}

fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Replays one cold point call by call under a `point` span, stores it
/// into `cache`, and reads it back through the read path. Returns the
/// merged result, or `None` when a port partitioned.
fn replay_cold(
    spans: &mut Spans,
    kernel: &mut Kernel,
    cache: &DiskCache,
    point: &CampaignPoint,
) -> Option<RunResult> {
    let root = spans.open("point", None);
    let config = &point.config;
    let (fingerprint, key) = spans.time("point.key", root, || {
        (point.fingerprint(), point.cache_key())
    });

    // Mirrors `try_simulate_port`'s per-port trace construction.
    let space = config.capacity_per_port_gb() * (1 << 30);
    let ports = port_count(config);
    let drained: u64 = spans.time("workloads.gen", root, || {
        (0..ports)
            .map(|port| {
                let seed = config
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(port) + 1));
                let trace = TraceGenerator::new(point.workload.profile(), space, seed);
                trace
                    .take(config.requests_per_port as usize)
                    .fold(0u64, |refs, r| {
                        black_box(r);
                        refs + 1
                    })
            })
            .sum()
    });
    kernel.refs_drained += drained;

    let placement = config.placement().expect("grid configs are realizable");
    let topo = spans.time("topo.build", root, || {
        Topology::build(config.topology, &placement).expect("placement fits the topology")
    });
    black_box(spans.time("topo.routing", root, || RoutingTable::compute(&topo)));
    let topo = Arc::new(topo);
    let net = spans.time("noc.build", root, || {
        Network::try_new(Arc::clone(&topo), config.noc.clone())
    });
    drop(black_box(net));

    let mut observations = Vec::new();
    let mut partitioned = false;
    for port in 0..ports {
        let obs = spans.time("core.simulate_port", root, || {
            try_simulate_port(config, point.workload, port)
        });
        match obs {
            Ok(obs) => {
                let k = obs.kernel_counters();
                kernel.ports += 1;
                kernel.events += k.events_processed;
                kernel.queue_peak = kernel.queue_peak.max(k.queue_peak);
                kernel.bucket_spills += k.bucket_spills;
                kernel.rewindows += k.rewindows;
                kernel.arena_high_water = kernel.arena_high_water.max(k.arena_high_water);
                kernel.steady_allocs += k.steady_heap_allocs;
                observations.push(obs);
            }
            Err(_) => partitioned = true,
        }
    }
    if partitioned {
        spans.close(root);
        return None;
    }
    let result = spans.time("core.merge", root, || {
        merge_port_observations(config, point.workload, observations)
    });
    let encoded = spans.time("codec.encode", root, || encode_result(&result));
    black_box(&encoded);
    let stored = spans.time("cache.store", root, || cache.store(point, &result));
    if stored.is_ok() {
        read_path(spans, cache, root, &fingerprint, &key, false);
    }
    spans.close(root);
    Some(result)
}

/// The cache read path for one stored entry: the disk tier alone, a
/// `load_keyed` (first promoting from disk when `promote`), then a raw read
/// and a decode. Returns the decoded result.
fn read_path(
    spans: &mut Spans,
    cache: &DiskCache,
    root: usize,
    fingerprint: &str,
    key: &str,
    promote: bool,
) -> Option<RunResult> {
    black_box(spans.time("cache.load_disk", root, || {
        cache.load_uncached_keyed(fingerprint, key)
    }));
    if promote {
        black_box(spans.time("cache.load_promote", root, || {
            cache.load_keyed(fingerprint, key)
        }));
    }
    black_box(spans.time("cache.load_keyed", root, || {
        cache.load_keyed(fingerprint, key)
    }));
    let bytes = spans.time("cache.read", root, || {
        fs::read(cache.dir().join(format!("{key}.mnres")))
    });
    let body = bytes
        .ok()
        .and_then(|b| entry_body(&b).map(|body| String::from_utf8_lossy(body).into_owned()))?;
    spans.time("codec.decode", root, || decode_result(&body))
}

/// Replays one warm point: key, then the read path from a copy of the
/// committed cache, then a re-encode. Returns the decoded result.
fn replay_warm(spans: &mut Spans, cache: &DiskCache, point: &CampaignPoint) -> Option<RunResult> {
    let root = spans.open("point", None);
    let (fingerprint, key) = spans.time("point.key", root, || {
        (point.fingerprint(), point.cache_key())
    });
    let result = read_path(spans, cache, root, &fingerprint, &key, true);
    if let Some(result) = &result {
        black_box(spans.time("codec.encode", root, || encode_result(result)));
    }
    spans.close(root);
    result
}

/// `DiskCache` open as a campaign pays it: construction plus the first
/// load, which sweeps stale temporaries (a probe for an absent key, so the
/// hot tier is untouched). Median over fresh instances, in microseconds.
fn open_probe_us(dir: &Path) -> f64 {
    let times: Vec<f64> = (0..OPEN_PROBES)
        .map(|_| {
            let t = Instant::now();
            let cache = DiskCache::new(dir);
            black_box(cache.load_keyed("", "ffffffffffffffff"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Sum of point host time and the makespan of a pass, as
/// (busy fraction, scheduling loss in seconds).
fn engine_use(pass: &Pass, workers: usize) -> (f64, f64) {
    let host: f64 = pass
        .points
        .iter()
        .map(|p| p.outcome.host.as_secs_f64())
        .sum();
    let span = pass.makespan.as_secs_f64();
    (host / (span * workers as f64), span - host / workers as f64)
}

/// The counters a gate-on pass is measured by: the cache's hits, hot
/// hits, misses and stores summed over `dirs`, then the registry's engine
/// steals and parks.
fn counters(dirs: &BTreeSet<std::path::PathBuf>) -> [u64; 6] {
    let mut counts = [0; 6];
    for dir in dirs {
        let s = DiskCache::new(dir).stats();
        for (slot, v) in counts
            .iter_mut()
            .zip([s.hits, s.hot_hits, s.misses, s.stores])
        {
            *slot += v;
        }
    }
    for (name, v) in registry::metrics().counter_values() {
        match name {
            "mn_engine_steals_total" => counts[4] = v,
            "mn_engine_parks_total" => counts[5] = v,
            _ => {}
        }
    }
    counts
}

/// The traced run.
pub fn run(args: &Args, paths: &Paths, report: &mut Report) -> Result<(), String> {
    let warm = args.workload == Workload::WarmReplay;
    let warm_scratch = if warm {
        prepare_warm(paths, args.seed)
            .map_err(|e| format!("cannot copy the committed cache: {e}"))?
    } else {
        Warm::default()
    };
    let pairs = match args.workload {
        Workload::WarmReplay => WARM_PAIRS,
        Workload::ColdLoaded => COLD_LOADED_PAIRS,
        Workload::ColdPaper => 1,
    };
    let workers = crate::workers();

    // Phases 1 and 2, alternated pass by pass so machine drift falls on
    // both sides: gate off (even passes), gate on (odd passes). Pass 0 is
    // gate-off, so the first pass's report verification never lands in a
    // counted gate-on window.
    let mut makespans = [Vec::new(), Vec::new()];
    let mut busy = Vec::new();
    let mut loss = Vec::new();
    let mut tails = Vec::new();
    let mut tail_pct = 0;
    let mut counts = [0u64; 6];
    let mut replay_points: Vec<CampaignPoint> = Vec::new();
    let mut campaign_results: BTreeMap<String, RunResult> = BTreeMap::new();
    for n in 0..2 * pairs {
        let gate = n % 2 == 1;
        // `Campaign::from_env` pins the registry gate from MN_METRICS, so
        // the gate is switched the way a user switches it.
        if gate {
            std::env::set_var("MN_METRICS", "on");
        } else {
            std::env::remove_var("MN_METRICS");
        }
        let dirs: BTreeSet<_> = if warm {
            warm_scratch
                .figures
                .iter()
                .map(|f| warm_dir(paths, f))
                .collect()
        } else {
            BTreeSet::from([cold_dir(paths)])
        };
        let before = counters(&dirs);
        let (pass, failed) = passes::checked_pass(args, paths, &warm_scratch, n, report)?;
        report.failed += failed;
        report.attempted += pass.points.len() as u64;
        makespans[usize::from(gate)].push(pass.makespan.as_secs_f64());
        if gate {
            for (total, (a, b)) in counts.iter_mut().zip(counters(&dirs).iter().zip(before)) {
                *total += a - b;
            }
        } else {
            let (b, l) = engine_use(&pass, workers);
            busy.push(b);
            loss.push(l);
            let (pct, tail) = passes::point_tail_us(&pass);
            tail_pct = pct;
            tails.push(tail);
        }
        if replay_points.is_empty() {
            let mut seen = BTreeSet::new();
            for p in &pass.points {
                let key = p.outcome.point.cache_key();
                if seen.insert(key.clone()) {
                    replay_points.push(p.outcome.point.clone());
                    if let Ok(result) = &p.outcome.result {
                        campaign_results.insert(key, result.clone());
                    }
                }
            }
        }
        if !warm {
            let _ = fs::remove_dir_all(cold_dir(paths));
        }
    }
    // Counts per gate-on pass.
    let per_pass = counts.map(|c| c as f64 / pairs as f64);
    std::env::remove_var("MN_METRICS");
    registry::set_metrics_enabled(false);

    // cache.open_us on a directory like the ones the workload's campaigns
    // open: the committed cache's 716 entries for warm, empty for cold.
    let store_dir = paths.scratch.join("traced-store");
    let open_us = if warm {
        passes::copy_committed(paths, &store_dir).map_err(|e| format!("copy: {e}"))?;
        open_probe_us(&store_dir)
    } else {
        open_probe_us(&paths.scratch.join("traced-open"))
    };

    // Phase 3: the serial replay.
    let mut spans = Spans::new();
    let mut kernel = Kernel::default();
    let mut simulated = Simulated::default();
    let cache = DiskCache::new(&store_dir);
    let sharded_points = replay_points.iter().filter(|p| p.config.shards > 1).count();
    let serial = Instant::now();
    for point in &replay_points {
        let result = if warm {
            replay_warm(&mut spans, &cache, point)
        } else {
            replay_cold(&mut spans, &mut kernel, &cache, point)
        };
        let key = point.cache_key();
        match (&result, campaign_results.get(&key)) {
            (Some(serial), Some(campaign)) => {
                simulated.add(serial);
                if encode_result(serial) != encode_result(campaign) {
                    report.failed += 1;
                    report.problem(format!(
                        "{} / {}: serial replay differs from the 2-worker campaign",
                        point.config.label(),
                        point.workload.label()
                    ));
                }
            }
            (None, None) => {} // a designed partition, failed both ways
            _ => {
                report.failed += 1;
                report.problem(format!(
                    "{} / {}: serial replay and campaign disagree on success",
                    point.config.label(),
                    point.workload.label()
                ));
            }
        }
    }
    let serial_total = serial.elapsed().as_nanos() as u64;

    let spans_path = paths.out.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(err) = spans.write(&spans_path) {
        eprintln!("warning: could not write {}: {err}", spans_path.display());
    }

    let totals = spans.totals();
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.0);
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
    let mean_us = |name: &str| mean(total_ns(name), calls(name)) / 1e3;
    let sim_ns = total_ns("core.simulate_port");
    let share = |ns: f64| if sim_ns > 0.0 { ns / sim_ns } else { 0.0 };
    let calls_ns: f64 = totals.values().map(|t| t.1 as f64).sum();

    let reference = reference_events(args.workload);
    if args.sim_seed.is_none() && kernel.events != reference {
        report.problem(format!(
            "sim.events is {}, the reference is {reference}",
            kernel.events
        ));
    }

    let off = median(&makespans[0]);
    let on = median(&makespans[1]);
    report.metric("engine.busy_frac", median(&busy), "ratio");
    report.metric("engine.sched_loss_s", median(&loss), "s");
    report.metric("engine.steals", per_pass[4], "count");
    report.metric("engine.parks", per_pass[5], "count");
    report.metric("engine.point_tail_us", median(&tails), "us");
    report.metric("cache.load_disk_us", mean_us("cache.load_disk"), "us");
    report.metric("cache.load_hot_us", mean_us("cache.load_keyed"), "us");
    report.metric("cache.hits", per_pass[0], "count");
    report.metric("cache.hot_hits", per_pass[1], "count");
    report.metric("cache.misses", per_pass[2], "count");
    report.metric("cache.store_us", mean_us("cache.store"), "us");
    report.metric("cache.stores", per_pass[3], "count");
    report.metric("cache.open_us", open_us, "us");
    report.metric("codec.decode_us", mean_us("codec.decode"), "us");
    report.metric("codec.encode_us", mean_us("codec.encode"), "us");
    let encoded_bytes: f64 = campaign_results
        .values()
        .map(|r| encode_result(r).len() as f64)
        .sum();
    report.metric(
        "codec.bytes",
        mean(encoded_bytes, campaign_results.len() as u64),
        "bytes",
    );
    report.metric("point.key_us", mean_us("point.key"), "us");
    report.metric(
        "core.simulate_port_ms",
        mean(sim_ns, calls("core.simulate_port")) / 1e6,
        "ms",
    );
    report.metric("core.ns_per_event", mean(sim_ns, kernel.events), "ns");
    report.metric("core.merge_us", mean_us("core.merge"), "us");
    report.metric("core.sharded_points", sharded_points as f64, "count");
    report.metric("sim.events", kernel.events as f64, "count");
    report.metric("sim.queue_peak", kernel.queue_peak as f64, "count");
    report.metric("sim.bucket_spills", kernel.bucket_spills as f64, "count");
    report.metric("sim.rewindows", kernel.rewindows as f64, "count");
    report.metric(
        "sim.arena_high_water",
        kernel.arena_high_water as f64,
        "count",
    );
    report.metric(
        "sim.steady_allocs_per_1k",
        mean(kernel.steady_allocs as f64 * 1000.0, kernel.events),
        "1/1k",
    );
    report.metric("noc.build_us", mean_us("noc.build"), "us");
    report.metric(
        "topo.build_us",
        mean(
            total_ns("topo.build") + total_ns("topo.routing"),
            calls("topo.build"),
        ) / 1e3,
        "us",
    );
    report.metric(
        "workloads.gen_ns_per_ref",
        mean(total_ns("workloads.gen"), kernel.refs_drained),
        "ns",
    );
    // Inside `simulate_port`, `Network::try_new` computes the routing
    // table itself, so the topology share counts `Topology::build` alone.
    let gen_share = share(total_ns("workloads.gen"));
    let topo_share = share(total_ns("topo.build"));
    let noc_share = share(total_ns("noc.build"));
    report.metric("split.sim_gen_share", gen_share, "ratio");
    report.metric("split.sim_topo_share", topo_share, "ratio");
    report.metric("split.sim_noc_share", noc_share, "ratio");
    report.metric(
        "split.sim_residual_share",
        if sim_ns > 0.0 {
            1.0 - gen_share - topo_share - noc_share
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("split.serial_total_s", serial_total as f64 / 1e9, "s");
    report.metric("split.calls_s", calls_ns / 1e9, "s");
    report.metric(
        "split.residual_s",
        (serial_total as f64 - calls_ns) / 1e9,
        "s",
    );
    report.metric(
        "noc.avg_hops",
        mean(simulated.hops, simulated.results),
        "hops",
    );
    report.metric(
        "mem.row_hit_rate",
        mean(simulated.row_hits, simulated.results),
        "ratio",
    );
    report.metric(
        "host.marked_fraction",
        mean(simulated.marked, simulated.hosts),
        "ratio",
    );
    report.metric(
        "host.steady_window",
        mean(simulated.window, simulated.hosts),
        "requests",
    );
    report.metric("trace.makespan_off_s", off, "s");
    report.metric("trace.makespan_on_s", on, "s");
    report.metric("trace.overhead_s", on - off, "s");

    report.note("point_tail_percentile", Json::Int(u64::from(tail_pct)));
    report.note("replayed_points", Json::Int(replay_points.len() as u64));
    report.note("simulated_ports", Json::Int(kernel.ports));
    report.note("spans", Json::Int(spans.spans.len() as u64));
    report.note("spans_file", Json::str(spans_path.display().to_string()));
    report.note(
        "split_calls",
        Json::Object(
            totals
                .iter()
                .map(|(name, (n, ns))| {
                    (
                        name.to_string(),
                        Json::object([
                            ("calls", Json::Int(*n)),
                            ("s", Json::Num(*ns as f64 / 1e9)),
                        ]),
                    )
                })
                .collect(),
        ),
    );
    Ok(())
}
