//! The rebalance controller: decides *when* to migrate.
//!
//! The controller watches per-node windowed telemetry — keys served and
//! burst-latency histograms, differenced against the previous check via
//! [`oe_telemetry::HistogramSnapshot::delta_since`] — and flags a node
//! as overloaded when its share of the window's load or its p99 burst
//! latency runs away from its peers. Detection is relative (ratios, not
//! absolute thresholds) so the same config works across cache sizes and
//! batch shapes, and it is guarded by a minimum window volume so a
//! near-idle cluster never migrates on noise.

use crate::placer::PlacerConfig;
use oe_core::{BatchCadence, BatchId};

/// One node's telemetry over the last check window.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeWindow {
    /// Unique keys served (pull-side) in the window.
    pub keys: u64,
    /// p99 burst latency over the window, in simulated ns.
    pub p99_ns: u64,
    /// Mean burst latency over the window, in simulated ns.
    pub mean_ns: u64,
}

/// A node is load-overloaded when its window key share reaches this
/// multiple of the per-node mean.
const LOAD_RATIO: f64 = 1.5;
/// A node is latency-overloaded when its window p99 reaches this multiple
/// of the median peer p99.
const P99_RATIO: f64 = 2.0;

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Batches between overload checks.
    pub check_every_batches: u64,
    /// Double-write window length for migrations the controller starts.
    pub double_write_batches: u64,
    /// Minimum total keys in a window before any verdict is reached.
    pub min_window_keys: u64,
    /// Placer knobs for migrations the controller plans.
    pub placer: PlacerConfig,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            check_every_batches: 8,
            double_write_batches: 2,
            min_window_keys: 256,
            placer: PlacerConfig::default(),
        }
    }
}

/// Watches windows and fires overload verdicts on a batch cadence.
#[derive(Debug)]
pub struct RebalanceController {
    cfg: RebalanceConfig,
    cadence: BatchCadence,
}

impl RebalanceController {
    /// A controller with the given config, armed from batch 0.
    pub fn new(cfg: RebalanceConfig) -> Self {
        let cadence = BatchCadence::every(cfg.check_every_batches.max(1));
        Self { cfg, cadence }
    }

    /// The config.
    pub fn config(&self) -> &RebalanceConfig {
        &self.cfg
    }

    /// True when `completed` batches warrant an overload check.
    pub fn due(&mut self, completed: BatchId) -> bool {
        self.cadence.due(completed)
    }

    /// The overloaded node, if any: the busiest node when its load or
    /// p99 runs away from its peers (`LOAD_RATIO`, `P99_RATIO`). `None`
    /// when the window is too quiet, the cluster has a single node, or
    /// everything is balanced.
    pub fn overloaded(&self, windows: &[NodeWindow]) -> Option<usize> {
        let n = windows.len();
        if n < 2 {
            return None;
        }
        let total: u64 = windows.iter().map(|w| w.keys).sum();
        if total < self.cfg.min_window_keys {
            return None;
        }
        // Busiest node by keys, then by p99 for ties.
        let i = (0..n).max_by_key(|&i| (windows[i].keys, windows[i].p99_ns))?;
        let mean_keys = total as f64 / n as f64;
        let load_hot = windows[i].keys as f64 >= LOAD_RATIO * mean_keys;

        let mut peer_p99: Vec<u64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| windows[j].p99_ns)
            .collect();
        peer_p99.sort_unstable();
        let median_peer = peer_p99[peer_p99.len() / 2];
        let p99_hot =
            windows[i].p99_ns > 0 && windows[i].p99_ns as f64 >= P99_RATIO * median_peer as f64;

        (load_hot || p99_hot).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(keys: u64, p99: u64) -> NodeWindow {
        NodeWindow {
            keys,
            p99_ns: p99,
            mean_ns: p99 / 2,
        }
    }

    #[test]
    fn balanced_cluster_is_left_alone() {
        let c = RebalanceController::new(RebalanceConfig::default());
        let windows = [w(1000, 500), w(1100, 520), w(980, 480), w(1050, 510)];
        assert_eq!(c.overloaded(&windows), None);
    }

    #[test]
    fn load_runaway_flags_the_busiest_node() {
        let c = RebalanceController::new(RebalanceConfig::default());
        let windows = [w(300, 500), w(2400, 700), w(310, 480), w(290, 510)];
        assert_eq!(c.overloaded(&windows), Some(1));
    }

    #[test]
    fn p99_runaway_flags_even_when_load_is_even() {
        let c = RebalanceController::new(RebalanceConfig::default());
        // The busiest node's load is at the mean: only its p99 trips.
        let windows = [w(1000, 500), w(1001, 5000), w(999, 480), w(1000, 520)];
        assert_eq!(c.overloaded(&windows), Some(1));
    }

    #[test]
    fn quiet_windows_never_trigger() {
        let c = RebalanceController::new(RebalanceConfig::default());
        let windows = [w(3, 50), w(100, 9000), w(2, 40)];
        assert_eq!(c.overloaded(&windows), None, "below min_window_keys");
    }

    #[test]
    fn single_node_never_triggers() {
        let c = RebalanceController::new(RebalanceConfig::default());
        assert_eq!(c.overloaded(&[w(100_000, 9000)]), None);
    }

    #[test]
    fn cadence_gates_checks() {
        let mut c = RebalanceController::new(RebalanceConfig {
            check_every_batches: 4,
            ..RebalanceConfig::default()
        });
        let fired: Vec<BatchId> = (1..=12).filter(|&b| c.due(b)).collect();
        assert_eq!(fired, vec![4, 8, 12]);
    }
}
