//! Differential proof of the crash-safety contract (`DESIGN.md`
//! §"Robustness & recovery"): every recovery path — caught panics with
//! retry, cache corruption with quarantine, stale temp litter with the
//! open-time sweep, torn journals with tolerant replay, kill-and-resume —
//! converges to results **byte-identical** to an undisturbed run. Proven
//! differentially: run both sides and compare the rendered sink records
//! byte for byte.
//!
//! Only provenance columns may differ between a disturbed run and a clean
//! one (`cached`, `attempts`, `host_ms` — *how* a result was obtained);
//! every measurement column must not. `stable_render` strips exactly
//! those three and nothing else.

use std::path::PathBuf;

use mn_campaign::sink::{point_record, write_records, OutputFormat, Record};
use mn_campaign::{Campaign, CampaignPoint, ChaosPlan, PointOutcome};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// The provenance columns that legitimately differ between a disturbed
/// run and a clean one. Everything else is a measurement and must match.
const VOLATILE: &[&str] = &["cached", "attempts", "host_ms"];

/// The full sink rendering of a run minus the volatile columns: the byte
/// string two equivalent runs must agree on.
fn stable_render(outcomes: &[PointOutcome]) -> String {
    let records: Vec<Record> = outcomes
        .iter()
        .map(|o| {
            point_record(o)
                .into_iter()
                .filter(|(key, _)| !VOLATILE.contains(key))
                .collect()
        })
        .collect();
    let mut bytes = Vec::new();
    write_records(&mut bytes, OutputFormat::Json, &records).unwrap();
    String::from_utf8(bytes).unwrap()
}

fn point(topology: TopologyKind, workload: Workload, seed: u64) -> CampaignPoint {
    let mut config = SystemConfig::paper_baseline(topology, 1.0).unwrap();
    config.requests_per_port = 150;
    config.seed = seed;
    CampaignPoint::new(config, workload)
}

/// A small mixed grid: four distinct points plus a duplicate of the
/// first (the folded-baseline path must survive chaos too).
fn grid() -> Vec<CampaignPoint> {
    vec![
        point(TopologyKind::Chain, Workload::Nw, 1),
        point(TopologyKind::Tree, Workload::Dct, 2),
        point(TopologyKind::Ring, Workload::Nw, 3),
        point(TopologyKind::Chain, Workload::Dct, 4),
        point(TopologyKind::Chain, Workload::Nw, 1),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mn-chaos-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The core differential: seeded chaos schedules (worker panics, cache
/// damage, litter) × worker counts × cache on/off, every combination
/// byte-identical to the one undisturbed run. The cache-on arm runs
/// twice on one directory so the second pass reads — and chaos damages —
/// entries the first pass stored, driving the quarantine path.
#[test]
fn chaos_schedules_converge_to_clean_bytes() {
    let clean = stable_render(&Campaign::new(1).quiet().run(grid()).outcomes);
    for seed in [1u64, 0xBEEF, 0x5EED42] {
        for rate in [0.3, 1.0] {
            for jobs in [1usize, 8] {
                let plan = ChaosPlan::new(seed, rate);
                let tag = format!("seed {seed:#x} rate {rate} jobs {jobs}");

                let chaotic = Campaign::new(jobs)
                    .quiet()
                    .retries(3)
                    .chaos(plan)
                    .run(grid());
                assert_eq!(chaotic.summary.failed, 0, "{tag} (no cache)");
                assert_eq!(
                    stable_render(&chaotic.outcomes),
                    clean,
                    "{tag} (no cache) diverged from the undisturbed run"
                );

                let dir = scratch(&format!("s{seed:x}-r{}-j{jobs}", (rate * 10.0) as u32));
                for pass in 0..2 {
                    let out = Campaign::new(jobs)
                        .quiet()
                        .retries(3)
                        .cache_dir(&dir)
                        .chaos(plan)
                        .run(grid());
                    assert_eq!(out.summary.failed, 0, "{tag} (cache pass {pass})");
                    assert_eq!(
                        stable_render(&out.outcomes),
                        clean,
                        "{tag} (cache pass {pass}) diverged from the undisturbed run"
                    );
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Kill-and-resume: a run that died partway (journal holds its first
/// points, tail torn mid-append) resumes into the full grid and lands on
/// the clean run's exact bytes; a further resume replays everything.
#[test]
fn kill_and_resume_matches_the_undisturbed_run() {
    let dir = scratch("resume");
    let journal = dir.join("run.journal");
    let clean = stable_render(&Campaign::new(2).quiet().run(grid()).outcomes);

    // The "killed" run: only the first two points completed.
    let partial: Vec<CampaignPoint> = grid().into_iter().take(2).collect();
    let first = Campaign::new(2).quiet().journal(&journal).run(partial);
    assert_eq!(first.summary.fresh, 2);

    // The crash left a half-written append on the journal tail.
    ChaosPlan::new(7, 1.0).tear_journal(&journal);

    // Resume over the full grid: journaled points replay (no cache
    // attached — replay alone must carry them), the rest simulate fresh.
    let resumed = Campaign::new(2).quiet().journal(&journal).run(grid());
    assert_eq!(resumed.summary.resumed, 2);
    assert_eq!(resumed.summary.fresh, 2);
    assert_eq!(resumed.summary.failed, 0);
    assert_eq!(stable_render(&resumed.outcomes), clean);

    // Third run: everything replays, nothing simulates.
    let replayed = Campaign::new(2).quiet().journal(&journal).run(grid());
    assert_eq!(replayed.summary.fresh, 0);
    assert_eq!(replayed.summary.resumed, 4);
    assert_eq!(stable_render(&replayed.outcomes), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full stack at once — journal + cache + chaos at rate 1.0: the
/// second run's schedule tears the journal, litters the cache, and
/// damages every entry it probes, and the run still converges.
#[test]
fn journal_cache_and_chaos_together_still_converge() {
    let dir = scratch("fullstack");
    let journal = dir.join("run.journal");
    let cache = dir.join("cache");
    let clean = stable_render(&Campaign::new(2).quiet().run(grid()).outcomes);
    let plan = ChaosPlan::new(0xD00F, 1.0);

    let run = || {
        Campaign::new(4)
            .quiet()
            .retries(2)
            .cache_dir(&cache)
            .journal(&journal)
            .chaos(plan)
            .run(grid())
    };
    let first = run();
    assert_eq!(first.summary.failed, 0);
    assert_eq!(stable_render(&first.outcomes), clean);

    // Second run: replay serves every point straight through the torn,
    // chaos-damaged state; nothing re-simulates.
    let second = run();
    assert_eq!(second.summary.failed, 0);
    assert_eq!(second.summary.resumed, 4);
    assert_eq!(second.summary.fresh, 0);
    assert_eq!(stable_render(&second.outcomes), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The zero-chaos path is inert and fingerprint-invisible: a rate-0 plan
/// never touches disk, and none of the robustness machinery (retry
/// budgets, watchdog escalation) shifts the pinned golden cache key.
#[test]
fn zero_chaos_leaves_the_pinned_fingerprint_untouched() {
    let dir = scratch("zero");
    let plan = ChaosPlan::new(123, 0.0);
    plan.litter_cache_dir(&dir);
    plan.tear_journal(&dir.join("absent.journal"));
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a rate-0 plan must not touch the filesystem"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The same literal `mn-bench`'s golden suite pins: robustness rode
    // in without moving a single committed cache key.
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    let point = CampaignPoint::new(config.clone(), Workload::Dct);
    assert_eq!(point.cache_key(), "348808c871d2e161");

    // Watchdog escalation is outside the fingerprint: a retried attempt
    // addresses the same cache entry its first attempt would have.
    let mut escalated = config;
    escalated.escalate_watchdog(3);
    assert_eq!(
        CampaignPoint::new(escalated, Workload::Dct).cache_key(),
        "348808c871d2e161"
    );
}

/// The soak behind EXPERIMENTS.md's chaos table: a 500-point grid swept
/// across injection rates, each run byte-compared to the clean one, with
/// the attempt distribution printed for the record.
#[test]
#[ignore = "chaos soak for EXPERIMENTS.md; run with --ignored --nocapture"]
fn chaos_soak_500_points() {
    let topologies = [
        TopologyKind::Chain,
        TopologyKind::Tree,
        TopologyKind::Ring,
        TopologyKind::SkipList,
    ];
    let workloads = [Workload::Nw, Workload::Dct];
    let soak: Vec<CampaignPoint> = (0..125u64)
        .flat_map(|i| {
            topologies
                .into_iter()
                .map(move |t| point(t, workloads[(i % 2) as usize], 1_000 + i))
        })
        .collect();
    assert_eq!(soak.len(), 500);

    let clean = stable_render(&Campaign::new(8).quiet().run(soak.clone()).outcomes);
    println!("rate   diverged  retried  attempts histogram (attempts: points)");
    for rate in [0.0, 0.2, 0.5, 0.8] {
        let out = Campaign::new(8)
            .quiet()
            .retries(3)
            .chaos(ChaosPlan::new(0x50AC, rate))
            .run(soak.clone());
        let render = stable_render(&out.outcomes);
        let mut histogram = std::collections::BTreeMap::new();
        for o in &out.outcomes {
            *histogram.entry(o.attempts).or_insert(0u32) += 1;
        }
        let histogram: Vec<String> = histogram
            .iter()
            .map(|(attempts, n)| format!("{attempts}: {n}"))
            .collect();
        println!(
            "{rate:<6} {:>8} {:>8}  {}",
            u32::from(render != clean),
            out.summary.retried,
            histogram.join(", "),
        );
        assert_eq!(out.summary.failed, 0, "rate {rate}");
        assert_eq!(render, clean, "rate {rate} diverged from the clean run");
    }
}
