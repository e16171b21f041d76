//! Concurrent-submitter determinism, end to end: N threads submitting
//! overlapping grids through one shared [`Engine`] and one cache
//! directory must
//!
//! 1. produce byte-identical results to a serial, cache-less run of the
//!    same grids (scheduling changes wall-clock time, never outcomes),
//! 2. account for every unique point as either simulated or a cache hit,
//!    and
//! 3. leave a directory with no quarantined entry, from which every
//!    distinct point loads: concurrent stores of one key never tear an
//!    entry.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mn_campaign::{codec, Campaign, CampaignOutcome, CampaignPoint, DiskCache, Engine};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// Chain points varying only by seed: cheap, uniform cost, and trivially
/// overlappable by seed range.
fn seeded_grid(seeds: std::ops::Range<u64>) -> Vec<CampaignPoint> {
    seeds
        .map(|seed| {
            let mut config =
                SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).expect("baseline is valid");
            config.requests_per_port = 200;
            config.seed = 0xC0A1_0000 + seed;
            CampaignPoint::new(config, Workload::Nw)
        })
        .collect()
}

/// `RunResult` has no `PartialEq`; the lossless cache codec is an exact,
/// field-complete rendering, so encoded equality is result equality.
fn encode_all(outcomes: &[mn_campaign::PointOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| codec::encode_result(o.result.as_ref().expect("point succeeded")))
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mn-campaign-conc-{tag}-{}", std::process::id()))
}

/// Checks 2 and 3 of the module contract on the runs of one race over
/// `dir`, whose distinct points are `distinct`.
fn assert_accounted_and_intact(runs: &[CampaignOutcome], dir: &Path, distinct: &[CampaignPoint]) {
    for (submitter, run) in runs.iter().enumerate() {
        assert_eq!(
            run.summary.fresh + run.summary.cache_hits,
            run.summary.unique,
            "submitter {submitter}: every unique point is simulated or a cache hit"
        );
    }
    let corrupt: Vec<_> = std::fs::read_dir(dir)
        .expect("the race populated the cache")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".corrupt"))
        .collect();
    assert!(corrupt.is_empty(), "torn entries quarantined: {corrupt:?}");
    let cache = DiskCache::new(dir);
    for point in distinct {
        assert!(
            cache.load_uncached(point).is_some(),
            "seed {:#x} does not load from the raced directory",
            point.config.seed
        );
    }
}

// "Exactly once" is per run: each unique point resolves once, either
// simulated or from the cache (check 2).
#[test]
fn concurrent_overlapping_campaigns_are_serial_identical_and_exactly_once() {
    // Grid A and grid B overlap on seeds 3..6; the union is seeds 0..9.
    let grid_a = seeded_grid(0..6);
    let grid_b = seeded_grid(3..9);

    // The serial reference: each grid alone, no cache, one worker.
    let reference_a = encode_all(
        &Campaign::new(1)
            .quiet()
            .no_cache()
            .run(grid_a.clone())
            .outcomes,
    );
    let reference_b = encode_all(
        &Campaign::new(1)
            .quiet()
            .no_cache()
            .run(grid_b.clone())
            .outcomes,
    );

    // Four submitters (two per grid) on one fresh engine and one cache
    // directory, all racing.
    let dir = scratch_dir("overlap");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(Engine::new(2));

    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|submitter| {
                let grid = if submitter % 2 == 0 { &grid_a } else { &grid_b };
                let engine = Arc::clone(&engine);
                let dir = dir.clone();
                scope.spawn(move || {
                    Campaign::new(2)
                        .quiet()
                        .cache_dir(dir)
                        .on_engine(engine)
                        .run(grid.clone())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect::<Vec<_>>()
    });

    // 1. Byte identity: every concurrent run matches its serial
    //    reference, in submission order, regardless of which campaign
    //    simulated or cache-hit each point.
    for (submitter, run) in runs.iter().enumerate() {
        let reference = if submitter % 2 == 0 {
            &reference_a
        } else {
            &reference_b
        };
        assert_eq!(
            &encode_all(&run.outcomes),
            reference,
            "submitter {submitter} diverged from the serial reference"
        );
    }

    // 2 and 3: accounted for, and nothing torn on disk.
    assert_accounted_and_intact(&runs, &dir, &seeded_grid(0..9));

    let _ = std::fs::remove_dir_all(&dir);
}

// The name predates the removal of in-flight coalescing: the submitters
// now converge on one result per point, byte for byte, not on one
// simulation.
#[test]
fn identical_grids_from_many_threads_coalesce_to_one_simulation() {
    // The degenerate overlap: every submitter asks for the same grid, so
    // every key is stored by whichever campaigns miss it, concurrently.
    let grid = seeded_grid(40..46);

    let dir = scratch_dir("identical");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(Engine::new(2));

    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let grid = grid.clone();
                let engine = Arc::clone(&engine);
                let dir = dir.clone();
                scope.spawn(move || {
                    Campaign::new(2)
                        .quiet()
                        .cache_dir(dir)
                        .on_engine(engine)
                        .run(grid)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect::<Vec<_>>()
    });

    assert_accounted_and_intact(&runs, &dir, &grid);

    // All three submitters returned the same results, bit for bit.
    let encodings: Vec<Vec<String>> = runs.iter().map(|r| encode_all(&r.outcomes)).collect();
    assert_eq!(encodings[0], encodings[1]);
    assert_eq!(encodings[0], encodings[2]);

    let _ = std::fs::remove_dir_all(&dir);
}
