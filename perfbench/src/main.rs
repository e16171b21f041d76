//! `perfbench` — the mncube benchmark: cold and warm regeneration of the
//! paper's figure grids, timed end to end, with a per-layer split timed
//! from outside the crates.
//!
//! ```text
//! perfbench --workload <cold-paper|warm-replay|cold-loaded> --seed <n>
//!           --seconds <s> --trace <0|1> [--sim-seed <n>]
//! ```
//!
//! Run it from the repository root (it reads `results/`). `--trace 0`
//! measures the end-to-end metrics; `--trace 1` makes the separate traced
//! run that reports the per-layer metrics. The last line of stdout is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Scratch
//! caches live under `.perfbench/` and are removed on exit; the run record
//! (provenance, metrics, notes) and the traced run's spans stay in
//! `.perfbench/out/`. See `perfbench/README.md` for the metric definitions.

mod figures;
mod json;
mod passes;
mod provenance;
mod stats;
mod traced;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mn_sim::counters;

use crate::json::Json;

/// A pass-through allocator that counts heap allocations into
/// `mn_sim::counters`, so the port simulator's steady-state allocation
/// tally (`sim.steady_allocs_per_1k`) is live in this binary. It lives here
/// because the workspace libraries `forbid(unsafe_code)`; this is the
/// delegating idiom `kernel_bench` uses.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`, which upholds the GlobalAlloc
// contract; the counter is a relaxed atomic add that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counters::record_heap_alloc();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The benchmark's workloads. The names are fixed: later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10 + Fig. 14 grids simulated into an empty cache directory.
    ColdPaper,
    /// Every rebuildable figure grid replayed from a copy of the
    /// committed cache.
    WarmReplay,
    /// The closed-loop and fault sweeps, simulated cold.
    ColdLoaded,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-paper" => Some(Workload::ColdPaper),
            "warm-replay" => Some(Workload::WarmReplay),
            "cold-loaded" => Some(Workload::ColdLoaded),
            _ => None,
        }
    }

    /// The workload's name as the command line spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold-paper",
            Workload::WarmReplay => "warm-replay",
            Workload::ColdLoaded => "cold-loaded",
        }
    }
}

/// Parsed and checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// The benchmark seed. The paper grids are fixed inputs; the seed
    /// orders the figures of each `warm-replay` pass.
    pub seed: u64,
    /// Measured run length in seconds (passes repeat until it is used).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// A held-out simulation seed: reseeds every grid point, replacing the
    /// golden comparisons with a serial-vs-campaign determinism check.
    pub sim_seed: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <cold-paper|warm-replay|cold-loaded> \
                     --seed <n> --seconds <s> --trace <0|1> [--sim-seed <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sim_seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let s = number()?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=3600, got {s}"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            "--sim-seed" => sim_seed = Some(number()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload == Workload::WarmReplay && sim_seed.is_some() {
        return Err("warm-replay replays the committed cache, which holds only \
                    paper-seed entries; --sim-seed applies to the cold workloads"
            .to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sim_seed,
    })
}

/// Campaign worker count: `min(2, available cores)`, fixed so runs on
/// bigger machines stay comparable with the 2-core reference container.
pub fn workers() -> usize {
    provenance::available_cores().min(2)
}

/// Clears every `MN_*` variable (a stray knob would silently reshape a
/// workload) and pins the ones the benchmark sets itself. Returns the names
/// that were set on entry, for the run record.
fn pin_environment(args: &Args) -> Vec<String> {
    let mut cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("MN_"))
        .collect();
    cleared.sort();
    for name in &cleared {
        std::env::remove_var(name);
    }
    // `Campaign::from_env` sizes the shared engine from MN_JOBS, and
    // `mn_bench::tune` reseeds every grid point from MN_SEED — the knobs
    // the figure binaries themselves honor.
    std::env::set_var("MN_JOBS", workers().to_string());
    if let Some(seed) = args.sim_seed {
        std::env::set_var("MN_SEED", seed.to_string());
    }
    cleared
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Grid points attempted (every pass, every point).
    pub attempted: u64,
    /// Points whose outcome differed from the reference (or that failed
    /// or retried without being designed to).
    pub failed: u64,
    /// Every correctness failure, described.
    pub problems: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Extra facts for the run record (percentiles, sample counts, splits).
    pub notes: Vec<(String, Json)>,
}

impl Report {
    /// Records a correctness failure.
    pub fn problem(&mut self, text: String) {
        if self.problems.len() < 50 {
            eprintln!("check failed: {text}");
        }
        self.problems.push(text);
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a fact to the run record.
    pub fn note(&mut self, key: impl Into<String>, value: Json) {
        self.notes.push((key.into(), value));
    }
}

/// Paths the benchmark reads and writes, all under the repository root.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The committed result cache (read only).
    pub committed_cache: PathBuf,
    /// The committed result tables (read only).
    pub results: PathBuf,
    /// This run's scratch directory (removed on exit).
    pub scratch: PathBuf,
    /// Where run records and spans are written.
    pub out: PathBuf,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("error: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    if !root.join("results/cache").is_dir() || !root.join("crates").is_dir() {
        eprintln!("error: run from the repository root (needs results/cache and crates/)");
        return ExitCode::from(2);
    }
    let cleared = pin_environment(&args);
    let paths = Paths {
        committed_cache: root.join("results/cache"),
        results: root.join("results"),
        scratch: root
            .join(".perfbench")
            .join(format!("scratch-{}", std::process::id())),
        out: root.join(".perfbench").join("out"),
    };
    for dir in [&paths.scratch, &paths.out] {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {err}", dir.display());
            return ExitCode::from(2);
        }
    }

    let mut report = Report::default();
    let pinned = provenance::chain_baseline_key();
    if pinned != provenance::PINNED_KEY {
        report.problem(format!(
            "chain-baseline key is {pinned}, expected the pinned {}",
            provenance::PINNED_KEY
        ));
    }
    let outcome = if args.trace {
        traced::run(&args, &paths, &mut report)
    } else {
        passes::run(&args, &paths, &mut report)
    };
    let _ = std::fs::remove_dir_all(&paths.scratch);
    if let Err(err) = outcome {
        eprintln!("error: {err}");
        return ExitCode::from(1);
    }

    let provenance = provenance::record(&args, &cleared);
    let correct = report.problems.is_empty()
        && report.failed == 0
        && report.attempted > 0
        && report.metrics.iter().all(|m| m.value.is_finite());
    let metrics = Json::Object(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::object([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    );
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("metrics", metrics),
    ]);
    let record = Json::object([
        ("provenance", provenance.clone()),
        ("result", result.clone()),
        ("notes", Json::Object(report.notes.clone())),
        (
            "problems",
            Json::Array(report.problems.iter().map(Json::str).collect()),
        ),
    ]);
    let record_path = paths.out.join(format!(
        "{}-trace{}-seed{}.json",
        args.workload.name(),
        u8::from(args.trace),
        args.seed
    ));
    if let Err(err) = std::fs::write(&record_path, format!("{record}\n")) {
        eprintln!("warning: could not write {}: {err}", record_path.display());
    }

    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (key, value) in &report.notes {
        println!("  {key} = {value}");
    }
    println!("provenance {provenance}");
    println!("{result}");
    ExitCode::SUCCESS
}
