//! The provenance stamp every run record carries: what code, toolchain,
//! machine, and settings produced the numbers.

use std::path::Path;
use std::process::Command;

use mn_campaign::CampaignPoint;
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

use crate::json::Json;
use crate::Args;

/// The cache key of the 100%-C round-robin DCT point at 6000 requests,
/// pinned across the workspace's golden tests.
pub const PINNED_KEY: &str = "348808c871d2e161";

/// The pinned chain-baseline point's cache key as this build computes it.
pub fn chain_baseline_key() -> String {
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0)
        .expect("the all-DRAM chain is always realizable");
    config.requests_per_port = 6_000;
    CampaignPoint::new(config, Workload::Dct).cache_key()
}

/// Cores available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every file under `crates/` plus the workspace manifests, in
/// sorted path order: identifies the simulator source even in a checkout
/// that is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").into(),
        Path::new("Cargo.lock").into(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The provenance record for this run.
pub fn record(args: &Args, cleared_env: &[String]) -> Json {
    Json::object([
        ("workload", Json::str(args.workload.name())),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Int(args.seed)),
        (
            "sim_seed",
            args.sim_seed
                .map_or(Json::str("paper"), |s| Json::str(s.to_string())),
        ),
        ("seconds", Json::Num(args.seconds)),
        (
            "commit",
            // Only ask git inside a git checkout of its own: a plain source
            // tree nested in another repository must not report that
            // repository's commit.
            Json::str(if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            }),
        ),
        ("source_digest", Json::str(source_digest())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("available_cores", Json::Int(available_cores() as u64)),
        ("workers", Json::Int(crate::workers() as u64)),
        (
            "sim_version",
            Json::Int(u64::from(mn_campaign::SIM_VERSION)),
        ),
        ("pinned_key", Json::str(chain_baseline_key())),
        (
            "env_cleared",
            Json::Array(cleared_env.iter().map(Json::str).collect()),
        ),
    ])
}
