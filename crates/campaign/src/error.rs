//! Campaign-level failures: one grid point failing must be a diagnosable
//! record, not a dead worker pool.

use std::error::Error;
use std::fmt;

use mn_core::SimError;

/// Why one campaign point has no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A port simulation of the point failed (partitioned network,
    /// stalled driver). The other points of the grid are unaffected.
    Sim {
        /// Which port failed first.
        port: u32,
        /// The structured simulation failure.
        error: SimError,
    },
    /// A worker disappeared before every port observation landed — the
    /// channel closed with the point incomplete. This is a scheduler or
    /// environment defect (a killed thread, not a simulation outcome),
    /// reported per point so the rest of the grid still completes.
    LostWorker {
        /// Port observations that did arrive.
        landed: usize,
        /// Port observations the point needed.
        expected: usize,
    },
    /// The point's simulation panicked. The panic was caught at the
    /// worker loop (`catch_unwind`), so the worker thread survives and
    /// the rest of the grid completes; the payload is preserved for
    /// diagnosis. Distinct from [`CampaignError::LostWorker`], which now
    /// covers only genuinely-dead threads.
    PointPanicked {
        /// The panicking point's configuration label.
        label: String,
        /// The panic payload, rendered as a string (`"<non-string
        /// panic payload>"` when the payload was not a string).
        payload: String,
    },
}

impl CampaignError {
    /// Whether re-dispatching the same point could plausibly succeed.
    ///
    /// Retryable: a stalled simulation (the retry escalates the watchdog
    /// budget), a lost worker, and a caught panic (environmental causes —
    /// e.g. allocation failure — deserve one more try; a deterministic
    /// panic simply fails again and exhausts the budget). Fatal: a
    /// partitioned network, which is baked into the fault schedule.
    pub fn is_retryable(&self) -> bool {
        match self {
            CampaignError::Sim { error, .. } => error.is_retryable(),
            CampaignError::LostWorker { .. } | CampaignError::PointPanicked { .. } => true,
        }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim { port, error } => write!(f, "port {port}: {error}"),
            CampaignError::LostWorker { landed, expected } => write!(
                f,
                "worker lost: {landed} of {expected} port observations landed"
            ),
            CampaignError::PointPanicked { label, payload } => {
                write!(f, "point {label} panicked: {payload}")
            }
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Sim { error, .. } => Some(error),
            CampaignError::LostWorker { .. } | CampaignError::PointPanicked { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topo::NodeId;

    #[test]
    fn sim_error_display_names_the_port() {
        let e = CampaignError::Sim {
            port: 3,
            error: SimError::Partitioned {
                unreachable: vec![NodeId(2)],
            },
        };
        let msg = e.to_string();
        assert!(msg.starts_with("port 3:"), "{msg}");
        assert!(msg.contains("partitioned"), "{msg}");
    }

    #[test]
    fn lost_worker_display_counts() {
        let e = CampaignError::LostWorker {
            landed: 2,
            expected: 8,
        };
        assert_eq!(
            e.to_string(),
            "worker lost: 2 of 8 port observations landed"
        );
    }

    #[test]
    fn point_panicked_display_names_label_and_payload() {
        let e = CampaignError::PointPanicked {
            label: "100%-C".into(),
            payload: "index out of bounds".into(),
        };
        assert_eq!(e.to_string(), "point 100%-C panicked: index out of bounds");
    }

    #[test]
    fn retry_classification() {
        use mn_sim::SimTime;
        // Partitioned is deterministic in the fault schedule: fatal.
        assert!(!CampaignError::Sim {
            port: 0,
            error: SimError::Partitioned {
                unreachable: vec![NodeId(2)],
            },
        }
        .is_retryable());
        // Stalls, lost workers, and caught panics earn a re-dispatch.
        assert!(CampaignError::Sim {
            port: 1,
            error: SimError::Stalled {
                at: SimTime::from_ns(5),
                completed: 1,
                total: 2,
                outstanding: 1,
                queued: 0,
                in_network: 1,
                flight: Vec::new(),
            },
        }
        .is_retryable());
        assert!(CampaignError::LostWorker {
            landed: 0,
            expected: 1,
        }
        .is_retryable());
        assert!(CampaignError::PointPanicked {
            label: "100%-C".into(),
            payload: "boom".into(),
        }
        .is_retryable());
    }
}
