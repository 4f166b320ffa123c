//! Periodic checkpoint scheduling (the paper's "checkpoint thread").
//!
//! The paper sets the interval with Young's formula and Facebook's
//! reported MTTF, defaulting to 20 minutes (§VI-A). In the simulator the
//! scheduler is driven by virtual time: the trainer calls
//! [`CheckpointScheduler::due`] at every batch boundary.

use crate::BatchId;
use oe_simdevice::clock::{minutes, Nanos};

/// Decides when a periodic checkpoint is due.
#[derive(Debug, Clone)]
pub struct CheckpointScheduler {
    interval_ns: Nanos,
    last_ns: Nanos,
    enabled: bool,
}

impl CheckpointScheduler {
    /// Checkpoint every `interval_ns` of (virtual) time.
    pub fn every(interval_ns: Nanos) -> Self {
        Self {
            interval_ns,
            last_ns: 0,
            enabled: true,
        }
    }

    /// The paper's default: every 20 minutes.
    pub fn paper_default() -> Self {
        Self::every(minutes(20.0))
    }

    /// A disabled scheduler (the "No Checkpoint" configuration).
    pub fn disabled() -> Self {
        Self {
            interval_ns: u64::MAX,
            last_ns: 0,
            enabled: false,
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> Nanos {
        self.interval_ns
    }

    /// Called at a batch boundary with the current virtual time and the
    /// just-completed batch. Returns the batch id to checkpoint if the
    /// interval has elapsed.
    pub fn due(&mut self, now_ns: Nanos, completed: BatchId) -> Option<BatchId> {
        if !self.enabled {
            return None;
        }
        let elapsed = now_ns.saturating_sub(self.last_ns);
        if elapsed >= self.interval_ns {
            // Re-arm on the interval grid, not at the fire time: batch
            // boundaries rarely land exactly on a deadline, and carrying
            // each overshoot into the next deadline compounds into a
            // long-run checkpoint rate below the Young's-formula target
            // (see `no_cadence_drift_on_overshoot`). Advancing by whole
            // interval multiples keeps the grid fixed while still firing
            // at most once per call (a long stall yields one checkpoint,
            // not a catch-up burst).
            self.last_ns += (elapsed / self.interval_ns) * self.interval_ns;
            Some(completed)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_simdevice::clock::secs;

    #[test]
    fn fires_on_interval() {
        let mut s = CheckpointScheduler::every(secs(60.0));
        assert_eq!(s.due(secs(10.0), 5), None);
        assert_eq!(s.due(secs(61.0), 12), Some(12));
        // Re-arms on the interval grid (deadline 120 s, not 121 s).
        assert_eq!(s.due(secs(100.0), 20), None);
        assert_eq!(s.due(secs(121.0), 25), Some(25));
    }

    #[test]
    fn no_cadence_drift_on_overshoot() {
        // Regression: `due` used to re-arm from the fire time
        // (`last_ns = now_ns`), so with batch boundaries every 25 s and
        // a 60 s interval each fire pushed the next deadline to
        // fire + 60, yielding one checkpoint per 75 s (4 in 300 s)
        // instead of the grid rate of one per 60 s (5 in 300 s). The
        // long-run rate fell permanently below the Young's-formula
        // target. Schedule exposing it: boundaries at k·25 s.
        let mut s = CheckpointScheduler::every(secs(60.0));
        let mut fires = 0u64;
        for b in 1..=12u64 {
            if s.due(b * secs(25.0), b).is_some() {
                fires += 1;
            }
        }
        assert_eq!(fires, 5, "300 s at a 60 s interval → 5 checkpoints");
        // Long run: the rate stays pinned to the grid.
        let mut s = CheckpointScheduler::every(secs(60.0));
        let mut fires = 0u64;
        for b in 1..=1200u64 {
            if s.due(b * secs(25.0), b).is_some() {
                fires += 1;
            }
        }
        assert_eq!(fires, 500, "30000 s at a 60 s interval → 500 fires");
    }

    #[test]
    fn long_stall_fires_once_without_burst() {
        // A stall spanning many intervals yields a single checkpoint and
        // re-arms on the grid — no catch-up burst, no residual offset.
        let mut s = CheckpointScheduler::every(secs(60.0));
        assert_eq!(s.due(secs(601.0), 9), Some(9)); // 10 intervals late
        assert_eq!(s.due(secs(610.0), 10), None, "no burst");
        assert_eq!(s.due(secs(660.0), 11), Some(11), "grid deadline 660 s");
    }

    #[test]
    fn disabled_never_fires() {
        let mut s = CheckpointScheduler::disabled();
        assert_eq!(s.due(u64::MAX - 1, 1), None);
    }
}
