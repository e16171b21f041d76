//! The untraced run: repeated passes over a workload's figure grids,
//! timed end to end, each checked for correct output.
//!
//! A pass is what a user regenerating the figures waits for. Its set-up
//! (grid construction, campaign and `DiskCache` open; the shared engine is
//! created at the first open and spawns its workers lazily at the first
//! submission) is timed apart from its makespan (first submit to last
//! result). Load is a closed loop: one submitter hands each grid to the
//! engine and waits for it before submitting the next.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use mn_bench::{closed_loop_report, fault_sweep_report, fig05_table, fig10_report, Harness};
use mn_campaign::codec::encode_result;
use mn_campaign::{Campaign, CampaignError, PointOutcome};
use mn_core::SimError;

use crate::figures::{self, Figure, DESIGNED_PARTITIONS};
use crate::json::Json;
use crate::stats::{median, peak_rss_mb, percentile, tail_percentile};
use crate::{Args, Paths, Report, Workload};

/// One submitted point's outcome, tagged with where it came from.
#[derive(Debug)]
pub struct Tagged {
    /// The figure binary the point belongs to.
    pub figure: &'static str,
    /// The point's position within its figure's submissions.
    pub index: usize,
    /// Whether the figure runs with the result cache attached.
    pub cached_figure: bool,
    /// What the campaign returned.
    pub outcome: PointOutcome,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Grid construction plus campaign (and cache) open.
    pub setup: Duration,
    /// First submit to last result.
    pub makespan: Duration,
    /// Every point's outcome, in submission order.
    pub points: Vec<Tagged>,
    /// Simulated memory requests over the freshly simulated points.
    pub fresh_requests: u64,
}

/// Opens a figure's campaign the way its binary does (`Campaign::from_env`:
/// the shared engine sized by `MN_JOBS`, the default retry budget,
/// coalescing on, the cache in `MN_CACHE_DIR`), minus the stderr summary.
pub fn open_campaign(figure: &Figure, dir: &Path) -> Campaign {
    std::env::set_var("MN_CACHE_DIR", dir);
    let campaign = Campaign::from_env().quiet();
    if figure.cached {
        campaign
    } else {
        campaign.no_cache()
    }
}

/// Builds the workload's grids and opens one campaign per figure, each on
/// `dir_for(figure)`: the part of a pass that happens before the first
/// submit.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir_for: &dyn Fn(&Figure) -> PathBuf,
) -> (Vec<Figure>, Vec<Campaign>) {
    let figures = figures::build(workload, seed);
    let campaigns = figures
        .iter()
        .map(|f| open_campaign(f, &dir_for(f)))
        .collect();
    (figures, campaigns)
}

/// Runs one pass: set-up, then every figure's submissions in order.
pub fn run_pass(workload: Workload, seed: u64, dir_for: &dyn Fn(&Figure) -> PathBuf) -> Pass {
    let start = Instant::now();
    let (figures, campaigns) = setup(workload, seed, dir_for);
    let setup = start.elapsed();

    let submit = Instant::now();
    let mut points = Vec::new();
    let mut fresh_requests = 0;
    for (figure, campaign) in figures.into_iter().zip(&campaigns) {
        let mut index = 0;
        for batch in figure.batches {
            let outcome = campaign.run(batch);
            fresh_requests += outcome.summary.fresh_requests;
            for point in outcome.outcomes {
                points.push(Tagged {
                    figure: figure.name,
                    index,
                    cached_figure: figure.cached,
                    outcome: point,
                });
                index += 1;
            }
        }
    }
    let makespan = submit.elapsed();
    Pass {
        setup,
        makespan,
        points,
        fresh_requests,
    }
}

/// The committed cache entry for `key`, as raw bytes.
fn committed_entry(paths: &Paths, key: &str) -> Option<Vec<u8>> {
    fs::read(paths.committed_cache.join(format!("{key}.mnres"))).ok()
}

/// The encoded-result body of a cache entry (after the header and the
/// fingerprint line).
pub fn entry_body(bytes: &[u8]) -> Option<&[u8]> {
    let mut newlines = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i);
    newlines.next()?;
    let second = newlines.next()?;
    Some(&bytes[second + 1..])
}

fn is_partition(error: &CampaignError) -> bool {
    matches!(
        error,
        CampaignError::Sim {
            error: SimError::Partitioned { .. },
            ..
        }
    )
}

/// Checks every outcome of a pass: each point succeeds on its first
/// attempt, except the fault sweep's designed partitions, which must fail
/// as partitions. Returns the number of failed points.
pub fn check_outcomes(pass: &Pass, report: &mut Report) -> u64 {
    let mut failed = 0;
    for p in &pass.points {
        let designed = p.figure == "fault_sweep" && DESIGNED_PARTITIONS.contains(&p.index);
        let ok = match (&p.outcome.result, designed) {
            (Ok(_), false) => p.outcome.attempts <= 1,
            (Err(e), true) => is_partition(e),
            _ => false,
        };
        if !ok {
            failed += 1;
            let what = match &p.outcome.result {
                Ok(_) if designed => "succeeded but partitions by design".to_string(),
                Ok(_) => format!("retried ({} attempts)", p.outcome.attempts),
                Err(e) => e.to_string(),
            };
            report.problem(format!("{} point {}: {what}", p.figure, p.index));
        }
    }
    failed
}

/// Checks that the entries a cold pass stored in `dir` are exactly the
/// pass's cached points, each byte-equal to the committed entry with the
/// same key. Returns the number of mismatched points.
fn check_stored(paths: &Paths, pass: &Pass, dir: &Path, report: &mut Report) -> u64 {
    let expected: BTreeSet<String> = pass
        .points
        .iter()
        .filter(|p| p.cached_figure && p.outcome.result.is_ok())
        .map(|p| p.outcome.point.cache_key())
        .collect();
    let stored: BTreeSet<String> = fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().into_string().ok())
                .filter_map(|name| name.strip_suffix(".mnres").map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let mut failed = 0;
    for key in expected.symmetric_difference(&stored) {
        failed += 1;
        report.problem(format!("cache entry {key} stored/expected mismatch"));
    }
    for key in expected.intersection(&stored) {
        let fresh = fs::read(dir.join(format!("{key}.mnres"))).ok();
        if fresh.is_none() || fresh != committed_entry(paths, key) {
            failed += 1;
            report.problem(format!(
                "stored entry {key} differs from results/cache/{key}.mnres"
            ));
        }
    }
    failed
}

/// Checks that a warm pass simulated nothing and, when `compare` is set,
/// that every result it served encodes to the committed entry's bytes.
/// Returns failed points.
fn check_replayed(paths: &Paths, pass: &Pass, compare: bool, report: &mut Report) -> u64 {
    let mut failed = 0;
    for p in &pass.points {
        if p.outcome.attempts != 0 {
            failed += 1;
            report.problem(format!(
                "{} point {}: simulated during warm-replay",
                p.figure, p.index
            ));
            continue;
        }
        let Ok(result) = &p.outcome.result else {
            continue; // counted by check_outcomes
        };
        if !compare {
            continue;
        }
        let key = p.outcome.point.cache_key();
        let committed = committed_entry(paths, &key);
        if committed.as_deref().and_then(entry_body) != Some(encode_result(result).as_bytes()) {
            failed += 1;
            report.problem(format!(
                "{} point {}: replayed result differs from results/cache/{key}.mnres",
                p.figure, p.index
            ));
        }
    }
    failed
}

/// Compares a rendered report with its committed golden table.
fn check_golden(paths: &Paths, name: &str, rendered: &str, report: &mut Report) -> bool {
    let golden = fs::read_to_string(paths.results.join(name)).unwrap_or_default();
    if rendered != golden {
        report.problem(format!("rendered {name} differs from results/{name}"));
        return false;
    }
    true
}

fn mnres_count(dir: &Path) -> usize {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".mnres"))
            .count()
    })
}

/// Runs the real report functions once against a finished pass and
/// compares their output with the committed tables. Each report opens its
/// harness exactly as its binary does; the cached reports replay `dir`,
/// which must not gain an entry (every point they submit was in the pass).
/// Returns the number of failed reports.
fn verify_reports(args: &Args, paths: &Paths, pass: &Pass, dir: &Path, report: &mut Report) -> u64 {
    std::env::set_var("MN_CACHE_DIR", dir);
    let before = mnres_count(dir);
    let mut checked = Vec::new();
    match args.workload {
        Workload::ColdPaper | Workload::WarmReplay => {
            checked.push(("fig10.txt", fig10_report(&mut Harness::new())));
        }
        Workload::ColdLoaded => {
            checked.push(("fault_sweep.txt", fault_sweep_report(&mut Harness::new())));
            checked.push((
                "closed_loop.txt",
                closed_loop_report(&mut Harness::uncached()),
            ));
        }
    }
    if args.workload == Workload::WarmReplay {
        let fig05: Vec<_> = pass
            .points
            .iter()
            .filter(|p| p.figure == "fig05")
            .filter_map(|p| p.outcome.result.as_ref().ok().cloned())
            .collect();
        checked.push(("fig05.txt", fig05_table(&fig05)));
    }
    let mut failed = 0;
    for (name, rendered) in &checked {
        if !check_golden(paths, name, rendered, report) {
            failed += 1;
        }
    }
    if mnres_count(dir) != before {
        failed += 1;
        report.problem(format!(
            "the reports stored points the pass did not submit ({} -> {} entries)",
            before,
            mnres_count(dir)
        ));
    }
    report.note(
        "golden_reports",
        Json::Array(checked.iter().map(|(n, _)| Json::str(n)).collect()),
    );
    failed
}

/// Held-out seed check: every unique point the pass resolved must encode
/// to the same bytes as a serial `mn_core::try_simulate` of the point.
/// Returns the number of mismatched points.
pub fn check_serial_determinism(pass: &Pass, report: &mut Report) -> u64 {
    let mut seen = BTreeSet::new();
    let mut failed = 0;
    for p in &pass.points {
        let point = &p.outcome.point;
        if !seen.insert(point.fingerprint()) {
            continue;
        }
        let serial = mn_core::try_simulate(&point.config, point.workload);
        let same = match (&p.outcome.result, &serial) {
            (Ok(a), Ok(b)) => encode_result(a) == encode_result(b),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !same {
            failed += 1;
            report.problem(format!(
                "{} point {}: campaign result differs from serial simulate",
                p.figure, p.index
            ));
        }
    }
    failed
}

/// Copies every committed `.mnres` entry into `dir`.
pub fn copy_committed(paths: &Paths, dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for entry in fs::read_dir(&paths.committed_cache)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".mnres") {
            fs::copy(entry.path(), dir.join(&name))?;
        }
    }
    Ok(())
}

/// Gives every entry in `keys` a new mtime, so the process-wide hot tier
/// kept for `dir` fails revalidation and the next pass reads, verifies and
/// decodes from disk like a fresh figure process.
pub fn age_entries(dir: &Path, keys: &[String], stamp: u64) -> std::io::Result<()> {
    let when = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000 + stamp);
    for key in keys {
        let file = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(format!("{key}.mnres")))?;
        file.set_times(fs::FileTimes::new().set_modified(when))?;
    }
    Ok(())
}

/// `warm-replay`'s scratch: one copy of the committed cache, hard-linked
/// into a directory per figure (every figure process reads the same
/// files, as they all read `results/cache`), and the keys the figures load.
#[derive(Debug, Default)]
pub struct Warm {
    master: PathBuf,
    /// The figures, each replayed from [`warm_dir`].
    pub figures: Vec<&'static str>,
    keys: Vec<String>,
}

/// Builds [`Warm`]: linking rather than copying per figure keeps the
/// preparation from leaving megabytes of dirty pages to be written back
/// while the passes are timed.
pub fn prepare_warm(paths: &Paths, seed: u64) -> std::io::Result<Warm> {
    let master = paths.scratch.join("warm-master");
    copy_committed(paths, &master)?;
    let mut warm = Warm {
        master,
        ..Warm::default()
    };
    for figure in figures::build(Workload::WarmReplay, seed) {
        let dir = warm_dir(paths, figure.name);
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&warm.master)? {
            let entry = entry?;
            fs::hard_link(entry.path(), dir.join(entry.file_name()))?;
        }
        warm.figures.push(figure.name);
        warm.keys
            .extend(figure.batches.iter().flatten().map(|p| p.cache_key()));
    }
    warm.keys.sort();
    warm.keys.dedup();
    Ok(warm)
}

/// A warm figure's scratch cache directory.
pub fn warm_dir(paths: &Paths, figure: &str) -> PathBuf {
    paths.scratch.join("warm").join(figure)
}

/// The cold passes' cache directory, emptied before every pass. One path
/// for every pass keeps the process-wide per-directory hot-tier registry
/// (and so `peak_rss_mb`) from growing with the pass count; the previous
/// pass's resident entries fail revalidation against the emptied
/// directory, which costs a cold miss one extra `stat`.
pub fn cold_dir(paths: &Paths) -> PathBuf {
    paths.scratch.join("cold")
}

/// Runs one pass of `args.workload` as pass number `n`, with the
/// preparation its workload needs and every check. Returns the pass and
/// its failed-point count; a cold pass leaves its entries in
/// [`cold_dir`] for the caller to remove.
pub fn checked_pass(
    args: &Args,
    paths: &Paths,
    warm: &Warm,
    n: usize,
    report: &mut Report,
) -> Result<(Pass, u64), String> {
    let cold = cold_dir(paths);
    let _ = fs::remove_dir_all(&cold);
    let pass = if args.workload == Workload::WarmReplay {
        age_entries(&warm.master, &warm.keys, n as u64)
            .map_err(|e| format!("cannot age warm entries: {e}"))?;
        run_pass(args.workload, args.seed, &|f| warm_dir(paths, f.name))
    } else {
        run_pass(args.workload, args.seed, &|_| cold.clone())
    };
    let mut failed = check_outcomes(&pass, report);
    let paper_seed = args.sim_seed.is_none();
    match args.workload {
        Workload::WarmReplay => {
            failed += check_replayed(paths, &pass, n == 0, report);
            if n == 0 {
                failed += verify_reports(args, paths, &pass, &warm_dir(paths, "fig10"), report);
            }
        }
        Workload::ColdPaper | Workload::ColdLoaded if paper_seed => {
            failed += check_stored(paths, &pass, &cold, report);
            if n == 0 {
                failed += verify_reports(args, paths, &pass, &cold, report);
            }
        }
        Workload::ColdPaper | Workload::ColdLoaded => {
            if n == 0 {
                failed += check_serial_determinism(&pass, report);
            }
        }
    }
    Ok((pass, failed))
}

/// Every point's `PointOutcome::host` in a pass, in microseconds.
pub fn host_us(pass: &Pass) -> Vec<f64> {
    pass.points
        .iter()
        .map(|p| p.outcome.host.as_secs_f64() * 1e6)
        .collect()
}

/// The pass's point-host tail: the highest whole percentile that leaves at
/// least ten of its points beyond it, and its value in microseconds.
pub fn point_tail_us(pass: &Pass) -> (u32, f64) {
    let pct = tail_percentile(pass.points.len());
    (pct, percentile(&host_us(pass), pct))
}

/// Requests each point's result stands for (reads plus writes).
fn requests_of(outcome: &PointOutcome) -> u64 {
    outcome.result.as_ref().map_or(0, |r| r.reads + r.writes)
}

/// Set-ups measured per run at least: the median of these is `setup_s`.
/// A set-up takes well under a millisecond, so many are cheap, and the
/// median of many is steady where a handful is not.
const MIN_SETUPS: usize = 101;

/// The untraced run: passes until `args.seconds` is used, then the
/// end-to-end metrics as medians over passes.
pub fn run(args: &Args, paths: &Paths, report: &mut Report) -> Result<(), String> {
    let warm = if args.workload == Workload::WarmReplay {
        prepare_warm(paths, args.seed)
            .map_err(|e| format!("cannot copy the committed cache: {e}"))?
    } else {
        Warm::default()
    };

    let start = Instant::now();
    let mut pass_walls = Vec::new();
    let mut makespans = Vec::new();
    let mut setups = Vec::new();
    let mut points_per_s = Vec::new();
    let mut req_per_s = Vec::new();
    let mut p50_us = Vec::new();
    let mut per_pass_points;
    let mut host_samples = 0;
    let mut passes = 0;
    loop {
        let pass_start = Instant::now();
        let (pass, failed) = checked_pass(args, paths, &warm, passes, report)?;
        let _ = fs::remove_dir_all(cold_dir(paths));
        passes += 1;
        report.failed += failed;
        report.attempted += pass.points.len() as u64;
        per_pass_points = pass.points.len();
        host_samples += per_pass_points;

        let span = pass.makespan.as_secs_f64();
        makespans.push(span);
        setups.push(pass.setup.as_secs_f64());
        points_per_s.push(pass.points.len() as f64 / span);
        let requests = if args.workload == Workload::WarmReplay {
            pass.points.iter().map(|p| requests_of(&p.outcome)).sum()
        } else {
            pass.fresh_requests
        };
        req_per_s.push(requests as f64 / span);
        // Per-pass order statistics keep memory flat however many passes
        // a run holds (so `peak_rss_mb` does not grow with the pass count).
        p50_us.push(median(&host_us(&pass)));
        pass_walls.push(pass_start.elapsed().as_secs_f64());

        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + median(&pass_walls) > args.seconds {
            break;
        }
    }
    // More set-ups without a submission, so `setup_s` is a median of
    // several even when a run holds only a pass or two.
    let setup_dir = paths.scratch.join("setup");
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        let built = setup(args.workload, args.seed, &|_| setup_dir.clone());
        setups.push(t.elapsed().as_secs_f64());
        drop(built);
    }

    report.metric("makespan_s", median(&makespans), "s");
    report.metric("points_per_s", median(&points_per_s), "1/s");
    report.metric("sim_req_per_s", median(&req_per_s), "1/s");
    report.metric("point_p50_us", median(&p50_us), "us");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.note("passes", Json::Int(passes as u64));
    report.note("points_per_pass", Json::Int(per_pass_points as u64));
    report.note("point_host_samples", Json::Int(host_samples as u64));
    report.note("setups", Json::Int(setups.len() as u64));
    report.note(
        "makespans_s",
        Json::Array(makespans.iter().map(|&m| Json::Num(m)).collect()),
    );
    Ok(())
}
