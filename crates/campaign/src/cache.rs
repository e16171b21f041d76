//! The content-addressed on-disk result cache, shared safely by
//! concurrent campaigns.
//!
//! Layout: one file per point under the cache directory (default
//! `results/cache/`, override with `MN_CACHE_DIR`, disable with
//! `MN_CACHE=off`), named by the point's 16-hex-digit
//! [cache key](crate::CampaignPoint::cache_key):
//!
//! ```text
//! results/cache/
//!   1f2e3d4c5b6a7980.mnres
//!   cache.stats        — persisted hit/miss/store counters
//! ```
//!
//! Each entry stores a version header, the full fingerprint, and the
//! exactly-encoded result. Loads re-verify both the header and the
//! fingerprint, so version skew or a hash collision degrades to a cache
//! miss instead of a wrong result. An entry that is actually *corrupt* —
//! bad header or undecodable body — is quarantined: renamed to
//! `<key>.corrupt` (with a once-per-process warning) so it stops
//! masquerading as a miss on every run and stays on disk for diagnosis.
//!
//! # Concurrency protocol
//!
//! *Many writers, many readers, no locks on disk.* Stores write to a
//! uniquely named temporary sibling and `rename` into place — POSIX
//! rename atomicity means concurrent writers (parallel workers, two
//! campaigns in one process, or two figure binaries sharing the chain
//! baseline) never expose a torn file, and readers never need a lock.
//! Two writers of one key write identical bytes, so whichever rename
//! lands last is as good as the first. Nothing on disk is ever removed
//! except quarantined debris, by an explicit `mncube cache gc`.
//!
//! # One tier
//!
//! Every hit is served from disk: read, verify, decode. Nothing decoded
//! is kept in memory between loads, so a hit always returns the bytes
//! on disk at that moment and there is nothing to revalidate. A
//! process-wide memory of decoded results would serve almost no real
//! hits — each figure binary is a fresh process — while every disk hit
//! paid a `stat` and an insert for it (DESIGN.md §11).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mn_core::RunResult;
use mn_telemetry::registry;

use crate::codec::{decode_result, encode_result};
use crate::point::CampaignPoint;

const HEADER: &str = "mncampaign-cache v1";

/// Numbers temporary files process-wide, so no two stores in this
/// process — from any `DiskCache` on any directory — share a temp name.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The default cache directory, honoring `MN_CACHE_DIR`.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var("MN_CACHE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("results/cache"),
    }
}

/// True when `MN_CACHE` asks for caching to be disabled entirely.
pub fn cache_disabled_by_env() -> bool {
    matches!(
        std::env::var("MN_CACHE").as_deref(),
        Ok("0") | Ok("off") | Ok("no") | Ok("false")
    )
}

/// Process-wide per-directory state: the temp sweep, the persist lock,
/// and the live counters. Shared by every `DiskCache` opened on the same
/// path.
///
/// The counters are mn-metrics [`registry::Counter`]s driven through
/// their *always-on* operations — they back `cache.stats` persistence
/// and `mncube cache stats` whether or not `MN_METRICS` is set, exactly
/// as the plain atomics they replaced did — and the registry's cache
/// collector exports the same instances, so the Prometheus snapshot,
/// the stats subcommand, and the persisted file share one source of
/// truth.
#[derive(Default)]
struct DirState {
    /// Set once this process has swept the directory's stale temp files.
    swept: OnceLock<()>,
    /// Held across every read-modify-write of `cache.stats` and every
    /// read of persisted-plus-live totals, so two campaigns persisting
    /// into one directory never overwrite each other's deltas and a
    /// reader never sees deltas that are in neither place.
    persist: Mutex<()>,
    hits: registry::Counter,
    misses: registry::Counter,
    stores: registry::Counter,
}

fn dir_registry() -> &'static Mutex<HashMap<PathBuf, Arc<DirState>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<DirState>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn dir_state(dir: &Path) -> Arc<DirState> {
    // Per-directory lifetime counters (persisted + this process's live
    // deltas) join the Prometheus snapshot, one labeled sample per
    // directory ever opened in this process, in sorted-path order so
    // snapshots are deterministically laid out.
    registry::register_collector("cache", |out| {
        let mut dirs: Vec<(PathBuf, Arc<DirState>)> = dir_registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(path, state)| (path.clone(), Arc::clone(state)))
            .collect();
        dirs.sort_by(|a, b| a.0.cmp(&b.0));
        type Family = (&'static str, &'static str, fn(&CacheStats) -> u64);
        let families: [Family; 3] = [
            ("mn_cache_hits_total", "Cache loads served.", |s| s.hits),
            (
                "mn_cache_misses_total",
                "Cache loads that found no usable entry.",
                |s| s.misses,
            ),
            (
                "mn_cache_stores_total",
                "Results written to the cache.",
                |s| s.stores,
            ),
        ];
        let stats: Vec<(String, CacheStats)> = dirs
            .iter()
            .map(|(path, state)| (path.display().to_string(), state.totals(path)))
            .collect();
        for (name, help, field) in families {
            let samples: Vec<(&str, &str, u64)> = stats
                .iter()
                .map(|(dir, s)| ("dir", dir.as_str(), field(s)))
                .collect();
            registry::render_labeled_counters(out, name, help, &samples);
        }
    });
    let mut map = dir_registry().lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(dir.to_path_buf()).or_default())
}

impl DirState {
    fn persist_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.persist.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The lifetime counters of `dir`: the persisted totals plus this
    /// process's unpersisted deltas, read under the persist lock.
    fn totals(&self, dir: &Path) -> CacheStats {
        let _persist = self.persist_lock();
        let mut stats = read_persisted(dir);
        stats.hits += self.hits.get();
        stats.misses += self.misses.get();
        stats.stores += self.stores.get();
        stats
    }
}

/// A point-in-time view of a cache directory and its lifetime counters
/// (persisted ones from `cache.stats` plus this process's unpersisted
/// activity).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live `.mnres` entries on disk.
    pub entries: u64,
    /// Total bytes of live entries.
    pub bytes: u64,
    /// Quarantined `.corrupt` files awaiting diagnosis or `gc`.
    pub corrupt: u64,
    /// Loads served.
    pub hits: u64,
    /// Hits an earlier in-process tier of decoded results served, as
    /// persisted in `cache.stats` by the versions that had one. That tier
    /// is gone, so this process never adds to it; the field stays because
    /// `perfbench/src/traced.rs` reads it.
    pub hot_hits: u64,
    /// Loads that found no usable entry.
    pub misses: u64,
    /// Results written.
    pub stores: u64,
}

/// What one gc pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live entries after the pass (gc never removes one).
    pub entries: u64,
    /// Bytes of live entries after the pass.
    pub bytes: u64,
    /// Quarantined `.corrupt` files removed by this pass.
    pub corrupt_removed: u64,
}

/// A directory of finished results, keyed by point fingerprint.
pub struct DiskCache {
    dir: PathBuf,
    state: Arc<DirState>,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache").field("dir", &self.dir).finish()
    }
}

impl DiskCache {
    /// Opens (lazily — nothing is created until the first store) a cache
    /// rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        let dir = dir.into();
        let state = dir_state(&dir);
        DiskCache { dir, state }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn key_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.mnres"))
    }

    #[cfg(test)]
    fn entry_path(&self, point: &CampaignPoint) -> PathBuf {
        self.key_path(&point.cache_key())
    }

    /// Removes stale `.*.tmp` files leaked by a killed run (a process
    /// that died between `fs::write` and `fs::rename` in [`store`]).
    /// Runs once per directory per process, before any cache on that
    /// directory in this process loads or stores: concurrent first users
    /// wait for the one sweep to finish. So the sweep never removes a
    /// temp file of this process; another live process's window between
    /// write and rename is nanoseconds wide, and losing a store is just
    /// "uncached".
    ///
    /// [`store`]: DiskCache::store
    fn sweep_stale_tmp(&self) {
        self.state.swept.get_or_init(|| {
            let Ok(entries) = fs::read_dir(&self.dir) else {
                return; // nothing to sweep (directory not created yet)
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with('.') && name.ends_with(".tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        });
    }

    /// Loads the finished result for `point`, or `None` on a miss (absent,
    /// corrupt, version-skewed, or fingerprint-mismatched entry). Corrupt
    /// entries are quarantined to `<key>.corrupt` on the way out.
    pub fn load(&self, point: &CampaignPoint) -> Option<RunResult> {
        self.load_keyed(&point.fingerprint(), &point.cache_key())
    }

    /// [`DiskCache::load`] with the fingerprint and cache key already in
    /// hand. The campaign computes both once per point (the journal needs
    /// them anyway), and rendering the fingerprint is a large share of a
    /// warm hit.
    pub fn load_keyed(&self, fingerprint: &str, key: &str) -> Option<RunResult> {
        self.sweep_stale_tmp();
        let result = self.load_from_disk(fingerprint, &self.key_path(key));
        match result {
            Some(_) => self.state.hits.inc_always(),
            None => self.state.misses.inc_always(),
        }
        result
    }

    /// Read, verify, decode — without the stale-temp sweep or the
    /// counters.
    pub fn load_uncached(&self, point: &CampaignPoint) -> Option<RunResult> {
        self.load_uncached_keyed(&point.fingerprint(), &point.cache_key())
    }

    /// [`DiskCache::load_uncached`] with the fingerprint and cache key
    /// already in hand.
    pub fn load_uncached_keyed(&self, fingerprint: &str, key: &str) -> Option<RunResult> {
        self.load_from_disk(fingerprint, &self.key_path(key))
    }

    fn load_from_disk(&self, expected_fingerprint: &str, path: &Path) -> Option<RunResult> {
        let text = fs::read_to_string(path).ok()?;
        let mut lines = text.splitn(3, '\n');
        if lines.next() != Some(HEADER) {
            self.quarantine(path, "unrecognized header");
            return None;
        }
        let Some(fingerprint) = lines.next().and_then(|l| l.strip_prefix("key=")) else {
            self.quarantine(path, "missing fingerprint line");
            return None;
        };
        if fingerprint != expected_fingerprint {
            // A well-formed entry for a *different* point sharing this
            // FNV key: a hash collision, which is a legitimate miss — the
            // entry is some other point's valid result, not corruption.
            return None;
        }
        match lines.next().and_then(decode_result) {
            Some(result) => Some(result),
            None => {
                self.quarantine(path, "undecodable body");
                None
            }
        }
    }

    /// Renames a corrupt entry to `<key>.corrupt` so the next run misses
    /// cleanly (no re-read, no re-warn) and the bytes survive for
    /// inspection. Warns once per process; repeat corruption is almost
    /// always one underlying cause (disk damage, version-skewed writer).
    fn quarantine(&self, path: &Path, why: &str) {
        static WARNED: AtomicBool = AtomicBool::new(false);
        let dest = path.with_extension("corrupt");
        let renamed = fs::rename(path, &dest);
        if !WARNED.swap(true, Ordering::Relaxed) {
            match renamed {
                Ok(()) => eprintln!(
                    "warning: quarantined corrupt cache entry ({why}): {} -> {}",
                    path.display(),
                    dest.display()
                ),
                Err(err) => eprintln!(
                    "warning: corrupt cache entry ({why}) at {} could not be quarantined: {err}",
                    path.display()
                ),
            }
        }
    }

    /// Stores a finished result atomically (write-to-temp + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers treat a failed store as
    /// "uncached" rather than fatal.
    pub fn store(&self, point: &CampaignPoint, result: &RunResult) -> io::Result<()> {
        self.sweep_stale_tmp();
        fs::create_dir_all(&self.dir)?;
        let key = point.cache_key();
        let fingerprint = point.fingerprint();
        let body = format!("{HEADER}\nkey={fingerprint}\n{}", encode_result(result));
        write_atomic(&self.dir, &format!("{key}.mnres"), body.as_bytes())?;
        self.state.stores.inc_always();
        Ok(())
    }

    /// Scans the directory: live `.mnres` entries as `(key, bytes)`,
    /// plus the quarantined `.corrupt` count.
    fn scan(&self) -> (Vec<(String, u64)>, u64) {
        let mut live = Vec::new();
        let mut corrupt = 0u64;
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (live, corrupt);
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(key) = name.strip_suffix(".mnres") {
                let Ok(meta) = entry.metadata() else { continue };
                live.push((key.to_string(), meta.len()));
            } else if name.ends_with(".corrupt") {
                corrupt += 1;
            }
        }
        (live, corrupt)
    }

    /// A garbage-collection pass: removes quarantined `.corrupt` files
    /// (quarantine preserved them for diagnosis; an explicit gc is the
    /// signal that diagnosis is over) and persists the counters. Live
    /// entries are never removed.
    pub fn gc(&self) -> GcReport {
        let gc_span = registry::span_begin();
        let mut report = GcReport::default();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let is_corrupt = name.to_str().is_some_and(|n| n.ends_with(".corrupt"));
                if is_corrupt && fs::remove_file(entry.path()).is_ok() {
                    report.corrupt_removed += 1;
                }
            }
        }
        let (live, _) = self.scan();
        report.entries = live.len() as u64;
        report.bytes = live.iter().map(|(_, len)| len).sum();
        registry::span_end(gc_span, "cache", "cache.gc");
        registry::metrics().cache_gc_passes.inc();
        self.persist_counters();
        report
    }

    /// The directory's current contents and lifetime counters: the
    /// persisted totals from `cache.stats` plus this process's
    /// not-yet-persisted activity.
    pub fn stats(&self) -> CacheStats {
        let (live, corrupt) = self.scan();
        let mut stats = self.state.totals(&self.dir);
        stats.entries = live.len() as u64;
        stats.bytes = live.iter().map(|(_, len)| len).sum();
        stats.corrupt = corrupt;
        stats
    }

    /// Folds this process's counter deltas into `cache.stats`
    /// (best-effort; the campaign calls this at the end of each run).
    /// The take-read-merge-write sequence runs under the directory's
    /// persist lock, so concurrent persists from several caches on one
    /// directory in this process neither double-count nor lose deltas.
    pub fn persist_counters(&self) {
        let _persist = self.state.persist_lock();
        let deltas = [
            self.state.hits.take(),
            self.state.misses.take(),
            self.state.stores.take(),
        ];
        if deltas.iter().all(|v| *v == 0) {
            return;
        }
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let old = read_persisted(&self.dir);
        let line = format!(
            "{{\"version\":1,\"hits\":{},\"hot_hits\":{},\"misses\":{},\"stores\":{}}}\n",
            old.hits + deltas[0],
            old.hot_hits,
            old.misses + deltas[1],
            old.stores + deltas[2],
        );
        let _ = write_atomic(&self.dir, "cache.stats", line.as_bytes());
    }
}

/// Atomic sibling-file write: a temp name unique per process (pid) and
/// per call (the process-wide [`TMP_COUNTER`]), then `rename` into place.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(name))
}

/// Reads the persisted counter totals from `cache.stats` (zeroes when
/// absent or unparseable — counters are diagnostics, never load-bearing).
fn read_persisted(dir: &Path) -> CacheStats {
    let Ok(text) = fs::read_to_string(dir.join("cache.stats")) else {
        return CacheStats::default();
    };
    let field = |name: &str| -> u64 {
        let needle = format!("\"{name}\":");
        let Some(start) = text.find(&needle) else {
            return 0;
        };
        text[start + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or(0)
    };
    CacheStats {
        hits: field("hits"),
        hot_hits: field("hot_hits"),
        misses: field("misses"),
        stores: field("stores"),
        ..CacheStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_core::SystemConfig;
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mncampaign-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_point() -> CampaignPoint {
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 200;
        CampaignPoint::new(config, Workload::Nw)
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        assert!(cache.load(&point).is_none());

        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();
        let loaded = cache.load(&point).expect("hit");
        assert_eq!(encode_result(&loaded), encode_result(&result));

        // A different seed is a different point: still a miss.
        let mut other = tiny_point();
        other.config.seed ^= 0xDEAD;
        assert!(cache.load(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_rewritten_between_loads_is_served_fresh() {
        let dir = scratch_dir("rewrite");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();
        let before = cache.stats();
        let loaded = cache.load(&point).expect("first hit");
        assert_eq!(encode_result(&loaded), encode_result(&result));

        // Another writer replaces the entry in place: same key and
        // fingerprint, different result bytes.
        let mut other = tiny_point();
        other.config.seed ^= 0xBEEF;
        let replacement = mn_core::simulate(&other.config, other.workload);
        assert_ne!(encode_result(&replacement), encode_result(&result));
        fs::write(
            cache.entry_path(&point),
            format!(
                "{HEADER}\nkey={}\n{}",
                point.fingerprint(),
                encode_result(&replacement)
            ),
        )
        .unwrap();
        let reloaded = cache.load(&point).expect("second hit");
        assert_eq!(encode_result(&reloaded), encode_result(&replacement));

        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.hot_hits, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();

        let path = cache.entry_path(&point);
        fs::write(&path, "mncampaign-cache v0\ngarbage").unwrap();
        assert!(cache.load(&point).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_reread() {
        let dir = scratch_dir("quarantine");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);

        // Truncated body: valid header + fingerprint, undecodable payload.
        cache.store(&point, &result).unwrap();
        let path = cache.entry_path(&point);
        fs::write(
            &path,
            format!("{HEADER}\nkey={}\nnot-a-result", point.fingerprint()),
        )
        .unwrap();
        assert!(cache.load(&point).is_none());
        assert!(!path.exists(), "corrupt entry should have been moved");
        assert!(path.with_extension("corrupt").exists());

        // The quarantined name never collides with a fresh store: the
        // point re-simulates and caches cleanly next to the evidence.
        cache.store(&point, &result).unwrap();
        assert!(cache.load(&point).is_some());
        assert!(path.with_extension("corrupt").exists());

        // gc removes the quarantined debris.
        let report = cache.gc();
        assert_eq!(report.corrupt_removed, 1);
        assert!(!path.with_extension("corrupt").exists());
        assert_eq!(report.entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = scratch_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // Debris from a killed run: write-to-temp happened, rename never
        // did. Plus a live-looking entry and a dotless decoy that must
        // both survive the sweep.
        fs::write(dir.join(".1234abcd.9999.0.tmp"), "torn half-write").unwrap();
        fs::write(dir.join(".deadbeef.42.7.tmp"), "more debris").unwrap();
        fs::write(dir.join("keepme.tmp"), "no leading dot: not ours").unwrap();

        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        assert!(cache.load(&point).is_none()); // first use triggers the sweep
        assert!(!dir.join(".1234abcd.9999.0.tmp").exists());
        assert!(!dir.join(".deadbeef.42.7.tmp").exists());
        assert!(dir.join("keepme.tmp").exists());

        // And the swept cache still works end to end.
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();
        assert!(cache.load(&point).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_fails_store_but_not_the_point() {
        // An unwritable cache directory, simulated portably (mode-bit
        // tricks are bypassed when tests run as root): the directory
        // path is occupied by a regular file, so `create_dir_all` — and
        // therefore every write — fails with a real filesystem error.
        let dir = scratch_dir("unwritable");
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        fs::write(&dir, "a file squatting on the cache dir path").unwrap();

        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        // The store fails with a structured error the campaign reports
        // (warn-once) and otherwise ignores: the point completed, it is
        // just not cached — and the load stays a clean miss.
        assert!(cache.store(&point, &result).is_err());
        assert!(cache.load(&point).is_none());
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn quarantine_racing_a_fresh_store_is_benign() {
        // One thread loads a corrupt entry (quarantining it) while
        // another stores a fresh result under the same key — the exact
        // interleaving a retried point's re-simulation produces. Any
        // interleaving must end with no panic and a loadable-or-missing
        // entry that, when present, is exactly the fresh result.
        let dir = scratch_dir("quarantine-race");
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        for round in 0..16 {
            let cache = DiskCache::new(&dir);
            cache.store(&point, &result).unwrap();
            let path = cache.entry_path(&point);
            fs::write(&path, "mncampaign-cache v0-rotten\ngarbage").unwrap();
            let _ = fs::remove_file(path.with_extension("corrupt"));

            std::thread::scope(|scope| {
                let loader = DiskCache::new(&dir);
                let storer = DiskCache::new(&dir);
                let (p1, r1) = (&point, &result);
                scope.spawn(move || {
                    let _ = loader.load(p1); // may quarantine
                });
                scope.spawn(move || {
                    storer.store(p1, r1).unwrap();
                });
            });

            let cache = DiskCache::new(&dir);
            if let Some(loaded) = cache.load(&point) {
                assert_eq!(
                    encode_result(&loaded),
                    encode_result(&result),
                    "round {round}: surviving entry must be the fresh result"
                );
            }
            // Either way the next store must recover the key.
            cache.store(&point, &result).unwrap();
            assert!(cache.load(&point).is_some(), "round {round}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_collisions_are_plain_misses() {
        let dir = scratch_dir("collision");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();

        // Simulate an FNV collision: a well-formed entry whose fingerprint
        // belongs to a different point. That entry is someone's valid
        // result — it must stay in place, not be quarantined.
        let path = cache.entry_path(&point);
        fs::write(
            &path,
            format!("{HEADER}\nkey=some-other-fingerprint\n{}", {
                crate::codec::encode_result(&result)
            }),
        )
        .unwrap();
        assert!(cache.load(&point).is_none());
        assert!(path.exists(), "collision entry must not be quarantined");
        assert!(!path.with_extension("corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_persist_and_merge_across_instances() {
        let dir = scratch_dir("stats");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);

        assert!(cache.load(&point).is_none()); // miss 1
        cache.store(&point, &result).unwrap(); // store 1
        assert!(cache.load(&point).is_some()); // hit 1
        cache.persist_counters();

        // A fresh instance reads the persisted totals.
        let fresh = DiskCache::new(&dir);
        let stats = fresh.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.hot_hits, 0);

        // Live (unpersisted) activity joins the persisted totals, and a
        // second persist folds — never double-counts — the deltas.
        assert!(fresh.load(&point).is_some());
        assert_eq!(fresh.stats().hits, 2);
        fresh.persist_counters();
        fresh.persist_counters(); // all-zero deltas: no-op
        assert_eq!(DiskCache::new(&dir).stats().hits, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_never_collide() {
        // Campaigns in one process each open their own cache on a shared
        // directory and may store the same key at once. Their temp names
        // must differ, or one writer truncates the file the other is
        // about to rename and the loser's rename finds nothing.
        let dir = scratch_dir("store-race");
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        let expected = encode_result(&result);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = DiskCache::new(&dir);
                let (point, result, start) = (&point, &result, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        cache.store(point, result).unwrap();
                    }
                });
            }
        });
        let loaded = DiskCache::new(&dir).load_uncached(&point).expect("entry");
        assert_eq!(encode_result(&loaded), expected);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp") || name.ends_with(".corrupt"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_persists_never_lose_deltas() {
        // Several caches on one directory persist at once, as campaigns
        // finishing together do. Each persist folds its deltas into
        // `cache.stats` with a read-merge-write; without the directory's
        // persist lock, two of them read the same old totals and the
        // later write drops the earlier one's deltas.
        let dir = scratch_dir("persist-race");
        fs::create_dir_all(&dir).unwrap();
        let (threads, rounds) = (4u64, 100u64);
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = DiskCache::new(&dir);
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..rounds {
                        cache.state.stores.inc_always();
                        cache.persist_counters();
                    }
                });
            }
        });
        assert_eq!(read_persisted(&dir).stores, threads * rounds);
        let _ = fs::remove_dir_all(&dir);
    }
}
