//! The figure grids each workload submits, rebuilt from `mn-bench`'s public
//! helpers exactly as the figure binaries build them.

use mn_bench::{
    baseline_config, closed_loop_config, closed_loop_policies, config_for, fault_scenarios,
    fig05_points, mix_topology_grid, twelve_config_grid, CLOSED_LOOP_SLOTS,
};
use mn_campaign::CampaignPoint;
use mn_core::{mix_grid, SystemConfig};
use mn_noc::ArbiterKind;
use mn_sim::SimDuration;
use mn_topo::{NvmPlacement, TopologyKind};
use mn_workloads::Workload;

use crate::Workload as BenchWorkload;

/// One figure: the campaign submissions its binary makes, in order, on one
/// `Campaign` (one binary = one harness = one campaign).
#[derive(Debug, Clone)]
pub struct Figure {
    /// The figure binary's name.
    pub name: &'static str,
    /// Whether the binary attaches the result cache (`closed_loop_sweep`
    /// runs uncached: cache hits carry no telemetry).
    pub cached: bool,
    /// Each `Campaign::run` submission, in order.
    pub batches: Vec<Vec<CampaignPoint>>,
}

impl Figure {
    fn new(name: &'static str, batches: Vec<Vec<CampaignPoint>>) -> Figure {
        Figure {
            name,
            cached: true,
            batches,
        }
    }
}

/// The points `Harness::speedup_table` submits: the shared `100%-C`
/// baseline per workload, then every (workload, config) pair with the
/// optional arbitration override.
fn speedup_points(
    configs: &[SystemConfig],
    workloads: &[Workload],
    arbiter: Option<ArbiterKind>,
) -> Vec<CampaignPoint> {
    let base = baseline_config(&configs[0]);
    let mut points: Vec<CampaignPoint> = workloads
        .iter()
        .map(|&wl| CampaignPoint::new(base.clone(), wl))
        .collect();
    for &wl in workloads {
        for config in configs {
            let mut config = config.clone();
            if let Some(arb) = arbiter {
                config.noc.arbiter = arb;
            }
            points.push(CampaignPoint::new(config, wl));
        }
    }
    points
}

fn all_dram(topology: TopologyKind) -> SystemConfig {
    config_for(topology, 1.0, NvmPlacement::Last)
}

fn fig04() -> Figure {
    let configs = [all_dram(TopologyKind::Ring), all_dram(TopologyKind::Tree)];
    Figure::new(
        "fig04",
        vec![speedup_points(&configs, &Workload::ALL, None)],
    )
}

fn fig05() -> Figure {
    Figure::new("fig05", vec![fig05_points()])
}

fn fig07() -> Figure {
    let configs: Vec<_> = mix_grid()
        .into_iter()
        .map(|mix| config_for(TopologyKind::Tree, mix.dram_fraction, mix.placement))
        .collect();
    Figure::new(
        "fig07",
        vec![speedup_points(&configs, &Workload::ALL, None)],
    )
}

/// Fig. 10: distance arbitration, then round robin, on the twelve
/// chain/ring/tree configurations (`fig10_report`'s two submissions).
pub fn fig10() -> Figure {
    let grid = twelve_config_grid([TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree]);
    Figure::new(
        "fig10",
        vec![
            speedup_points(&grid, &Workload::ALL, Some(ArbiterKind::Distance)),
            speedup_points(&grid, &Workload::ALL, Some(ArbiterKind::RoundRobin)),
        ],
    )
}

fn fig11() -> Figure {
    let grid = twelve_config_grid([
        TopologyKind::Tree,
        TopologyKind::SkipList,
        TopologyKind::MetaCube,
    ]);
    Figure::new("fig11", vec![speedup_points(&grid, &Workload::ALL, None)])
}

fn fig12() -> Figure {
    let mut grid = twelve_config_grid([
        TopologyKind::Tree,
        TopologyKind::SkipList,
        TopologyKind::MetaCube,
    ]);
    for config in &mut grid {
        config.write_burst_routing = true;
    }
    Figure::new(
        "fig12",
        vec![speedup_points(
            &grid,
            &Workload::ALL,
            Some(ArbiterKind::AdaptiveDistance),
        )],
    )
}

fn fig13() -> Figure {
    let mut points = Vec::new();
    for wl in Workload::ALL {
        for (mix, topo) in mix_topology_grid() {
            let eight = config_for(topo, mix.dram_fraction, mix.placement);
            let mut four = eight.clone();
            four.ports = 4;
            four.requests_per_port = eight.requests_per_port * 2;
            points.push(CampaignPoint::new(eight, wl));
            points.push(CampaignPoint::new(four, wl));
        }
    }
    Figure::new("fig13", vec![points])
}

/// Fig. 14: every mix x topology at 2 TB and at 1 TB.
pub fn fig14() -> Figure {
    let mut points = Vec::new();
    for (mix, topo) in mix_topology_grid() {
        let two_tb = config_for(topo, mix.dram_fraction, mix.placement);
        let mut one_tb = two_tb.clone();
        one_tb.total_capacity_gb = 1024;
        for wl in Workload::ALL {
            points.push(CampaignPoint::new(two_tb.clone(), wl));
            points.push(CampaignPoint::new(one_tb.clone(), wl));
        }
    }
    Figure::new("fig14", vec![points])
}

fn fig15() -> Figure {
    let mut points = Vec::new();
    for (mix, topo) in mix_topology_grid() {
        let config = config_for(topo, mix.dram_fraction, mix.placement);
        for wl in Workload::ALL {
            points.push(CampaignPoint::new(config.clone(), wl));
        }
    }
    Figure::new("fig15", vec![points])
}

fn sweep_interleave() -> Figure {
    let mut points = Vec::new();
    for wl in [Workload::Dct, Workload::Matrixmul, Workload::Backprop] {
        for bytes in [64, 256, 1024] {
            let mut config = all_dram(TopologyKind::Tree);
            config.interleave_bytes = bytes;
            points.push(CampaignPoint::new(config, wl));
        }
    }
    Figure::new("sweep_interleave", vec![points])
}

fn sweep_serdes() -> Figure {
    let mut points = Vec::new();
    for wl in [Workload::Dct, Workload::Kmeans] {
        for ns in [0, 2, 10] {
            let mut config = all_dram(TopologyKind::Chain);
            config.noc.external_link.fixed_latency = SimDuration::from_ns(ns);
            points.push(CampaignPoint::new(config, wl));
        }
    }
    Figure::new("sweep_serdes", vec![points])
}

fn ext_oracle_mesh() -> Figure {
    let grid = [
        all_dram(TopologyKind::Chain),
        all_dram(TopologyKind::Ring),
        all_dram(TopologyKind::Tree),
    ];
    let workloads = [Workload::Backprop, Workload::Dct, Workload::Kmeans];
    let mesh = [all_dram(TopologyKind::Mesh), all_dram(TopologyKind::Tree)];
    Figure::new(
        "ext_oracle_mesh",
        vec![
            speedup_points(&grid, &workloads, Some(ArbiterKind::Distance)),
            speedup_points(&grid, &workloads, Some(ArbiterKind::OracleAge)),
            speedup_points(&mesh, &workloads, None),
        ],
    )
}

/// The closed-loop sweep: chain/tree/skip-list x window policy x slots,
/// all-DRAM, NW — submitted uncached, as `closed_loop_sweep` does.
pub fn closed_loop() -> Figure {
    let mut points = Vec::new();
    for topo in [
        TopologyKind::Chain,
        TopologyKind::Tree,
        TopologyKind::SkipList,
    ] {
        for policy in closed_loop_policies() {
            for slots in CLOSED_LOOP_SLOTS {
                points.push(CampaignPoint::new(
                    closed_loop_config(topo, policy, slots),
                    Workload::Nw,
                ));
            }
        }
    }
    Figure {
        name: "closed_loop_sweep",
        cached: false,
        batches: vec![points],
    }
}

/// The fault sweep: every topology x fault scenario, all-DRAM, NW.
pub fn fault_sweep() -> Figure {
    let mut points = Vec::new();
    for topo in TopologyKind::ALL {
        for (_, fault) in fault_scenarios() {
            let mut config = all_dram(topo);
            config.noc.fault = fault;
            points.push(CampaignPoint::new(config, Workload::Nw));
        }
    }
    Figure::new("fault_sweep", vec![points])
}

/// Indices into [`fault_sweep`]'s points that partition by design: the
/// `kill=8%` scenario severs the chain, the tree, and the MetaCube
/// (`results/fault_sweep.txt` records them as ERROR rows).
pub const DESIGNED_PARTITIONS: [usize; 3] = [5, 17, 29];

/// The figures of a workload, in submission order. `warm-replay`'s order
/// is rotated by `seed`; the cold workloads' order is fixed.
pub fn build(workload: BenchWorkload, seed: u64) -> Vec<Figure> {
    match workload {
        BenchWorkload::ColdPaper => vec![fig10(), fig14()],
        BenchWorkload::ColdLoaded => vec![closed_loop(), fault_sweep()],
        BenchWorkload::WarmReplay => {
            let mut figures = vec![
                fig04(),
                fig05(),
                fig07(),
                fig10(),
                fig11(),
                fig12(),
                fig13(),
                fig14(),
                fig15(),
                sweep_interleave(),
                sweep_serdes(),
                ext_oracle_mesh(),
            ];
            let n = figures.len();
            figures.rotate_left((seed % n as u64) as usize);
            figures
        }
    }
}
