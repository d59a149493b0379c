//! Analytic network cost model (alpha–beta).
//!
//! The container running this reproduction has one core and no real
//! network, so measured communication time says nothing about multi-node
//! behaviour. This model turns the *exact* per-task byte/message counters
//! of [`crate::CommStats`] into modeled wall time under the standard
//! alpha–beta model: `time = alpha * messages + bytes / beta`. With
//! Edison's parameters (the paper reports 8 GB/s point-to-point links) the
//! scaling harnesses can report modeled communication columns next to the
//! hardware-independent byte counts.

use crate::stats::CommStats;
use std::time::Duration;

/// Alpha–beta link model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency (alpha), seconds.
    pub latency_s: f64,
    /// Link bandwidth (beta), bytes per second.
    pub bandwidth_bps: f64,
}

impl NetworkModel {
    /// The paper's NERSC Edison Cray XC30: 8 GB/s point-to-point links
    /// (paper §4), ~1 µs MPI latency class.
    pub fn edison() -> Self {
        Self {
            latency_s: 1e-6,
            bandwidth_bps: 8e9,
        }
    }

    /// Modeled time to send `stats`'s traffic serially over one link.
    pub fn time_for(&self, stats: &CommStats) -> Duration {
        let secs = self.latency_s * stats.messages_sent as f64
            + stats.bytes_sent as f64 / self.bandwidth_bps;
        Duration::from_secs_f64(secs)
    }

    /// Modeled communication critical path of a run: the slowest task's
    /// traffic (tasks inject in parallel; the bottleneck link is the
    /// busiest sender).
    pub fn critical_path(&self, per_task: &[CommStats]) -> Duration {
        per_task
            .iter()
            .map(|s| self.time_for(s))
            .max()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_traffic_zero_time() {
        let m = NetworkModel::edison();
        assert_eq!(m.time_for(&CommStats::default()), Duration::ZERO);
    }

    #[test]
    fn bandwidth_term_dominates_large_messages() {
        let m = NetworkModel::edison();
        let t = m.time_for(&CommStats {
            bytes_sent: 8_000_000_000, // 1 s at 8 GB/s
            messages_sent: 1,
            ..CommStats::default()
        });
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn latency_term_dominates_many_small_messages() {
        let m = NetworkModel {
            latency_s: 30e-6,
            bandwidth_bps: 1.25e9,
        };
        let t = m.time_for(&CommStats {
            bytes_sent: 1000,
            messages_sent: 100_000, // 3 s at 30 us each
            ..CommStats::default()
        });
        assert!((t.as_secs_f64() - 3.0).abs() < 0.01);
    }

    #[test]
    fn critical_path_takes_the_max() {
        let m = NetworkModel::edison();
        let stats = vec![
            CommStats {
                bytes_sent: 100,
                messages_sent: 1,
                ..CommStats::default()
            },
            CommStats {
                bytes_sent: 8_000_000,
                messages_sent: 10,
                ..CommStats::default()
            },
        ];
        assert_eq!(m.critical_path(&stats), m.time_for(&stats[1]));
    }
}
