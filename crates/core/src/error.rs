//! Structured simulation failures.
//!
//! A simulation that cannot complete must say *why* — a worker pool that
//! sees a panic (or worse, a hang) has nothing to report against the grid
//! point that caused it. [`SimError`] is the diagnosis: construction-time
//! partitions (fault injection severed the topology) and runtime stalls
//! (the driver stopped making progress, caught either by event-queue
//! exhaustion or by the livelock watchdog) both surface as values that
//! travel through channels, format into campaign records, and compare in
//! tests.

use std::error::Error;
use std::fmt;

use mn_noc::NetworkError;
use mn_sim::SimTime;
use mn_topo::NodeId;

/// Why a port simulation could not produce an observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Hard link faults partitioned the memory network at construction:
    /// the listed cubes have no route to the host on some path class, so
    /// the configured traffic can never complete.
    Partitioned {
        /// Cubes unreachable from the host (ascending id order).
        unreachable: Vec<NodeId>,
    },
    /// The simulation stopped making progress with requests outstanding —
    /// either no component had a next event (deadlock) or the completion
    /// count stayed flat past the watchdog limit (livelock). The snapshot
    /// captures the wedged state for diagnosis.
    Stalled {
        /// Simulated time at which progress stopped.
        at: SimTime,
        /// Requests completed before the stall.
        completed: u64,
        /// Requests the run was configured to complete.
        total: u64,
        /// Requests in flight (injected, no response) at the stall.
        outstanding: usize,
        /// Requests still queued at the host at the stall.
        queued: usize,
        /// Packets resident in the network (injected, not delivered) at
        /// the stall. This includes arena-resident packets with **no
        /// pending kernel event** — packets parked on backpressured
        /// buffers waiting for credits — which the host-side counts
        /// above cannot see, and which are exactly what a credit
        /// deadlock strands.
        in_network: u64,
        /// The last kernel events before the stall, oldest first, from
        /// the network's flight recorder. Empty unless the run traced
        /// with [`mn_noc::TraceConfig::Full`].
        flight: Vec<String>,
    },
}

impl SimError {
    /// Whether a retry of the same point could plausibly succeed.
    ///
    /// A [`SimError::Stalled`] run is retryable: livelock trips depend on
    /// the watchdog budget, which a retrying scheduler escalates (see
    /// [`crate::SystemConfig::escalate_watchdog`]). A
    /// [`SimError::Partitioned`] network is deterministic in the fault
    /// schedule — the same configuration partitions on every attempt — so
    /// retrying it only burns cycles.
    pub fn is_retryable(&self) -> bool {
        match self {
            SimError::Partitioned { .. } => false,
            SimError::Stalled { .. } => true,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Partitioned { unreachable } => {
                write!(
                    f,
                    "network partitioned: {} cube(s) unreachable from the host (",
                    unreachable.len()
                )?;
                for (i, node) in unreachable.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{node}")?;
                }
                write!(f, ")")
            }
            SimError::Stalled {
                at,
                completed,
                total,
                outstanding,
                queued,
                in_network,
                flight,
            } => {
                write!(
                    f,
                    "simulation stalled at {at}: {completed} of {total} requests \
                     complete, {outstanding} outstanding, {queued} queued, \
                     {in_network} in network"
                )?;
                if !flight.is_empty() {
                    write!(f, "\nlast kernel events:")?;
                    for line in flight {
                        write!(f, "\n  {line}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        match e {
            NetworkError::Partitioned { unreachable } => SimError::Partitioned { unreachable },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_display_lists_cubes() {
        let e = SimError::Partitioned {
            unreachable: vec![NodeId(3), NodeId(4)],
        };
        let msg = e.to_string();
        assert!(msg.contains("2 cube(s)"), "{msg}");
    }

    fn stalled() -> SimError {
        SimError::Stalled {
            at: SimTime::from_ns(5),
            completed: 10,
            total: 100,
            outstanding: 2,
            queued: 7,
            in_network: 3,
            flight: Vec::new(),
        }
    }

    #[test]
    fn stalled_display_has_snapshot() {
        let msg = stalled().to_string();
        assert!(msg.contains("10 of 100"), "{msg}");
        assert!(msg.contains("2 outstanding"), "{msg}");
        assert!(msg.contains("7 queued"), "{msg}");
        assert!(msg.contains("3 in network"), "{msg}");
        assert!(!msg.contains("last kernel events"), "{msg}");
    }

    #[test]
    fn stalled_display_appends_flight_recorder() {
        let e = SimError::Stalled {
            at: SimTime::from_ns(5),
            completed: 0,
            total: 1,
            outstanding: 1,
            queued: 0,
            in_network: 1,
            flight: vec!["2ns arrive p0 at n1 port 0".into(), "2ns try-arb n1".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("last kernel events:"), "{msg}");
        assert!(msg.contains("\n  2ns try-arb n1"), "{msg}");
    }

    #[test]
    fn retry_classification() {
        // A stall depends on the watchdog budget; a partition is baked
        // into the fault schedule. Only the former earns a retry.
        assert!(stalled().is_retryable());
        let partitioned = SimError::Partitioned {
            unreachable: vec![NodeId(1)],
        };
        assert!(!partitioned.is_retryable());
    }

    #[test]
    fn network_error_converts() {
        let net = NetworkError::Partitioned {
            unreachable: vec![NodeId(1)],
        };
        let sim: SimError = net.into();
        assert_eq!(
            sim,
            SimError::Partitioned {
                unreachable: vec![NodeId(1)]
            }
        );
    }
}
