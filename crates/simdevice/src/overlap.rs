//! Stage-level overlap accounting for pipelined training windows.
//!
//! [`crate::Cost::merge_parallel`] answers the *device-level* question:
//! given per-lane costs of one burst, what is the burst's critical
//! path? This module answers the same question one level up, for whole
//! pipeline *stages*: when a window of training overlaps GPU compute,
//! deferred cache maintenance, and out-of-band parameter-server work
//! (prefetch pulls for the next batch, bounded-staleness push applies),
//! the window's duration is the **max over the overlapping lanes**, not
//! their sum — each lane runs on its own resource (GPU, maintainer
//! threads, PS service threads).
//!
//! Serial segments (the exposed pull residue at window start, a
//! checkpoint drain at window end) do not overlap anything and are
//! added outside the max. [`PipelineWindow`] keeps the lane ledger for
//! one window and reports both the critical path and how much work the
//! overlap *hid* — the quantity the pipelined-training frontier plots.

use crate::clock::Nanos;

/// Named lanes of one pipelined training window.
///
/// A lane accumulates virtual nanoseconds of work that runs
/// concurrently with every other lane; `critical_ns` is the window's
/// overlapped duration (max over lanes, the stage-level analogue of the
/// `merge_parallel` lane rule). Lanes are keyed by `&'static str` so
/// call sites read like the stage diagram ("gpu", "maintain", "ps").
#[derive(Debug, Default, Clone)]
pub struct PipelineWindow {
    lanes: Vec<(&'static str, Nanos)>,
}

impl PipelineWindow {
    /// An empty window (no lanes, zero duration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `ns` of work to `name`'s lane, creating the lane on first
    /// use. Repeated charges to the same lane accumulate (they run
    /// serially on that lane's resource).
    pub fn charge(&mut self, name: &'static str, ns: Nanos) {
        match self.lanes.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => self.lanes.push((name, ns)),
        }
    }

    /// The window's overlapped duration: max over lanes. Zero lanes is
    /// a zero-length window.
    pub fn critical_ns(&self) -> Nanos {
        self.lanes.iter().map(|&(_, ns)| ns).max().unwrap_or(0)
    }

    /// Total work across lanes — what a fully serial schedule would
    /// pay for the same window.
    pub fn serial_ns(&self) -> Nanos {
        self.lanes.iter().map(|&(_, ns)| ns).sum()
    }

    /// Virtual time the overlap hid: serial cost minus critical path.
    pub fn hidden_ns(&self) -> Nanos {
        self.serial_ns() - self.critical_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_is_max_over_lanes() {
        let mut w = PipelineWindow::new();
        w.charge("gpu", 100);
        w.charge("maintain", 40);
        w.charge("ps", 70);
        assert_eq!(w.critical_ns(), 100);
        assert_eq!(w.serial_ns(), 210);
        assert_eq!(w.hidden_ns(), 110);
    }

    #[test]
    fn charges_accumulate_per_lane() {
        let mut w = PipelineWindow::new();
        w.charge("ps", 30);
        w.charge("ps", 50);
        w.charge("gpu", 60);
        assert_eq!(w.critical_ns(), 80, "ps lane overtakes gpu");
    }

    #[test]
    fn degenerate_single_lane_matches_serial() {
        let mut w = PipelineWindow::new();
        w.charge("gpu", 42);
        assert_eq!(w.critical_ns(), 42);
        assert_eq!(w.hidden_ns(), 0);
        assert_eq!(PipelineWindow::new().critical_ns(), 0);
    }

    #[test]
    fn matches_sync_trainer_spill_rule() {
        // The sync batch anatomy is the two-lane special case:
        // compute + spill == max(compute, maintain).
        for (compute, maintain) in [(50u64, 80u64), (80, 50), (60, 60)] {
            let mut w = PipelineWindow::new();
            w.charge("gpu", compute);
            w.charge("maintain", maintain);
            let spill = maintain.saturating_sub(compute);
            assert_eq!(w.critical_ns(), compute + spill);
        }
    }
}
