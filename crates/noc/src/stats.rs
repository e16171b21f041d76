//! Network-level measurement: link utilization, traffic counters, and
//! transport energy.

use mn_sim::{Counter, SimDuration, SimTime};

/// Statistics collected by a [`crate::Network`] while it runs.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Packets injected at any node.
    pub injected: Counter,
    /// Packets delivered to their destination.
    pub delivered: Counter,
    /// Total link traversals (hops) by any packet.
    pub hops: Counter,
    /// Total bit-hops: sum over traversals of packet size in bits. Multiply
    /// by the pJ/bit/hop figure for transport energy (§5's energy model).
    pub bit_hops: u64,
    /// Packets that received an ECN congestion mark on any link (counted
    /// once per marking event, not per marked packet delivered). Always 0
    /// when `NocConfig::ecn_threshold` is 0.
    pub marked: Counter,
    /// Per-link, per-direction busy time, indexed `link * 2 + dir`.
    pub(crate) link_busy: Vec<SimDuration>,
    /// Arbitration rounds run.
    pub arbitration_rounds: Counter,
}

impl NetStats {
    pub(crate) fn new(links: usize) -> NetStats {
        NetStats {
            injected: Counter::new(),
            delivered: Counter::new(),
            hops: Counter::new(),
            bit_hops: 0,
            marked: Counter::new(),
            link_busy: vec![SimDuration::ZERO; links * 2],
            arbitration_rounds: Counter::new(),
        }
    }

    /// Transport energy in picojoules given a pJ/bit/hop figure.
    pub fn transport_energy_pj(&self, pj_per_bit_hop: f64) -> f64 {
        self.bit_hops as f64 * pj_per_bit_hop
    }

    /// Busy time of one link direction (`dir` 0 = a→b, 1 = b→a).
    ///
    /// # Panics
    ///
    /// Panics if the link index or direction is out of range.
    pub fn link_busy_time(&self, link: usize, dir: usize) -> SimDuration {
        assert!(dir < 2, "direction must be 0 or 1");
        self.link_busy[link * 2 + dir]
    }

    /// Utilization of a link direction over the interval `[0, now]`,
    /// in `[0, 1]`.
    pub fn link_utilization(&self, link: usize, dir: usize, now: SimTime) -> f64 {
        let total = now.as_ps();
        if total == 0 {
            return 0.0;
        }
        self.link_busy_time(link, dir).as_ps() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_bits_times_rate() {
        let mut s = NetStats::new(2);
        s.bit_hops = 1000;
        assert!((s.transport_energy_pj(5.0) - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_bounds() {
        let mut s = NetStats::new(1);
        s.link_busy[0] = SimDuration::from_ns(50);
        assert!((s.link_utilization(0, 0, SimTime::from_ns(100)) - 0.5).abs() < 1e-12);
        assert_eq!(s.link_utilization(0, 1, SimTime::from_ns(100)), 0.0);
        assert_eq!(s.link_utilization(0, 0, SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "direction must be 0 or 1")]
    fn bad_direction_panics() {
        NetStats::new(1).link_busy_time(0, 2);
    }
}
