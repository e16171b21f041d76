//! Micro-benchmarks for the simulator's hot paths: the event queue,
//! routing-table construction, router arbitration, and a small end-to-end
//! network run. Self-contained timing harness (no external crates): each
//! case warms up, then reports mean wall time per iteration.

use std::hint::black_box;
use std::time::Instant;

use mn_noc::{ArbiterKind, Candidate, Network, NocConfig, Packet, PacketKind};
use mn_sim::{EventQueue, SimTime};
use mn_topo::{CubeTech, Placement, Topology, TopologyKind};

fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    for _ in 0..iters.div_ceil(10) {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<40} {:>12.3} us/iter", per_iter * 1e6);
}

fn event_times(n: usize) -> Vec<SimTime> {
    // Pseudo-random but deterministic times.
    let mut times = Vec::with_capacity(n);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        times.push(SimTime::from_ps(x % 1_000_000));
    }
    times
}

/// Pushes every time in `times`, then pops the queue empty: the worst case
/// for a per-instant queue, where nearly every push opens its own instant.
fn push_pop_all(times: &[SimTime]) -> usize {
    let mut q = EventQueue::with_capacity(times.len());
    for (i, &t) in times.iter().enumerate() {
        q.push(t, i);
    }
    let mut sum = 0usize;
    while let Some((_, e)) = q.pop() {
        sum += e;
    }
    sum
}

fn main() {
    let times = event_times(10_000);
    bench("event_queue_push_pop_10k", 100, || push_pop_all(&times));
    let times = event_times(100_000);
    bench("event_queue_push_pop_100k", 10, || push_pop_all(&times));

    for kind in TopologyKind::ALL {
        let topo = Topology::build(kind, &Placement::homogeneous(16, CubeTech::Dram)).unwrap();
        bench(&format!("routing_table_{kind}"), 200, || topo.routing());
    }

    let candidates: Vec<Candidate> = (0..6)
        .map(|p| Candidate {
            input_port: p,
            weight: 1 + p as u64,
        })
        .collect();
    for kind in [
        ArbiterKind::RoundRobin,
        ArbiterKind::Distance,
        ArbiterKind::AdaptiveDistance,
    ] {
        let mut arb = kind.instantiate(6);
        bench(&format!("arbitration_{kind:?}"), 10_000, || {
            arb.pick(&candidates)
        });
    }

    let topo = Topology::build(
        TopologyKind::Chain,
        &Placement::homogeneous(16, CubeTech::Dram),
    )
    .unwrap();
    bench("network_1k_packets_chain16", 20, || {
        let mut net = Network::new(&topo, NocConfig::default());
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let mut done = 0u64;
        let mut ready = Vec::new();
        while done < 1_000 {
            while sent < 1_000 {
                let dst = topo.cube_at_position((sent % 16 + 1) as u32).unwrap();
                let pkt = Packet::request(sent, PacketKind::ReadRequest, topo.host(), dst);
                if net.inject(topo.host(), 0, pkt, now).is_err() {
                    break;
                }
                sent += 1;
            }
            net.advance(now, &mut ready);
            for &node in &ready {
                while net.take_delivery(node, now).is_some() {
                    done += 1;
                }
            }
            if let Some(t) = net.next_event_time() {
                now = t;
            }
        }
        done
    });
}
