//! Phase-scoped span timers.
//!
//! The training loop decomposes into the paper's phases (pull burst →
//! [maintenance ∥ compute] → push burst → checkpoint), and the server
//! adds its own (decode → execute). [`PhaseTimes`] owns one histogram
//! per phase; call sites either open an RAII [`SpanGuard`] (wall-clock
//! `Instant` time, for real servers) or call
//! [`PhaseTimes::record_ns`] with a virtual-time delta (for the
//! discrete-event simulator, where elapsed `Cost` is the clock).

use crate::registry::{HistogramHandle, Registry};
use std::time::Instant;

/// A named phase of the PS stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Embedding lookup burst.
    Pull,
    /// Deferred maintenance (cache admission, flush scheduling).
    Maintain,
    /// Entry write-back to PMem.
    Flush,
    /// Checkpoint commit (CBI advance).
    CkptCommit,
    /// Gradient application burst.
    Push,
    /// Server-side request frame decode.
    RpcDecode,
    /// Server-side request execution.
    RpcExecute,
    /// Inference-side single-key lookup.
    ServeLookup,
    /// Inference-side top-k scan.
    ServeTopk,
    /// Shard-plan construction: bucketing a request's keys by shard.
    Plan,
    /// Shard-plan duplicate-key coalescing within each shard group.
    Dedup,
    /// Shard-plan parallel lane execution (locked per-shard work).
    Execute,
    /// Shard-plan result merge: fan-out of deduped payloads to the
    /// response buffer in original key order.
    Merge,
    /// Client-side retry backoff wait (virtual time charged between
    /// RPC attempts).
    RetryBackoff,
    /// Failover promotion: checkpoint scan + index rebuild on the
    /// replica (virtual recovery time).
    FailoverRecovery,
    /// Serving-plane snapshot flip: publishing a freshly built
    /// immutable snapshot into the reader handle.
    SnapshotFlip,
    /// Per-snapshot ANN index construction (LSH signatures + buckets).
    AnnBuild,
    /// Serving-plane snapshot build: image scan + row decode + key
    /// index, and the ANN index when one is requested.
    SnapshotBuild,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 18] = [
        Phase::Pull,
        Phase::Maintain,
        Phase::Flush,
        Phase::CkptCommit,
        Phase::Push,
        Phase::RpcDecode,
        Phase::RpcExecute,
        Phase::ServeLookup,
        Phase::ServeTopk,
        Phase::Plan,
        Phase::Dedup,
        Phase::Execute,
        Phase::Merge,
        Phase::RetryBackoff,
        Phase::FailoverRecovery,
        Phase::SnapshotFlip,
        Phase::AnnBuild,
        Phase::SnapshotBuild,
    ];

    /// Stable metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pull => "pull",
            Phase::Maintain => "maintain",
            Phase::Flush => "flush",
            Phase::CkptCommit => "ckpt_commit",
            Phase::Push => "push",
            Phase::RpcDecode => "rpc_decode",
            Phase::RpcExecute => "rpc_execute",
            Phase::ServeLookup => "serve_lookup",
            Phase::ServeTopk => "serve_topk",
            Phase::Plan => "plan",
            Phase::Dedup => "dedup",
            Phase::Execute => "execute",
            Phase::Merge => "merge",
            Phase::RetryBackoff => "retry_backoff",
            Phase::FailoverRecovery => "failover_recovery",
            Phase::SnapshotFlip => "snapshot_flip",
            Phase::AnnBuild => "ann_build",
            Phase::SnapshotBuild => "snapshot_build",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One latency histogram per registered phase.
///
/// Phases are opt-in per component: a PS node registers the training
/// phases, a server the RPC phases, a serving node the lookup phases —
/// so each component's exposition shows only histograms it can fill.
#[derive(Debug)]
pub struct PhaseTimes {
    hists: [Option<HistogramHandle>; 18],
}

impl PhaseTimes {
    /// Register `phases` in `registry` as
    /// `{prefix}_{phase}_latency_ns` histograms (an empty prefix
    /// registers `{phase}_latency_ns` — for phases whose names already
    /// carry their component, like `serve_lookup`).
    pub fn new(registry: &Registry, prefix: &str, phases: &[Phase]) -> Self {
        let mut hists: [Option<HistogramHandle>; 18] = Default::default();
        for &p in phases {
            let name = if prefix.is_empty() {
                format!("{}_latency_ns", p.name())
            } else {
                format!("{prefix}_{}_latency_ns", p.name())
            };
            hists[p.index()] = Some(registry.histogram(&name));
        }
        Self { hists }
    }

    fn hist(&self, phase: Phase) -> &HistogramHandle {
        self.hists[phase.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("phase `{}` not registered in this PhaseTimes", phase.name()))
    }

    /// Record a virtual-time duration for `phase` (discrete-event path).
    #[inline]
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        self.hist(phase).record(ns);
    }

    /// Open a wall-clock span for `phase`; its drop records the
    /// elapsed time.
    pub fn span(&self, phase: Phase) -> SpanGuard {
        SpanGuard {
            hist: self.hist(phase).clone(),
            start: Instant::now(),
        }
    }
}

/// RAII wall-clock timer; records elapsed ns into its histogram on drop.
#[derive(Debug)]
pub struct SpanGuard {
    hist: HistogramHandle,
    start: Instant,
}

impl SpanGuard {
    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let reg = Registry::new();
        let phases = PhaseTimes::new(&reg, "test", &[Phase::Pull]);
        {
            let _s = phases.span(Phase::Pull);
            std::hint::black_box(0u64);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("test_pull_latency_ns").unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn virtual_time_recording() {
        let reg = Registry::new();
        let phases = PhaseTimes::new(&reg, "oe", &[Phase::Maintain, Phase::CkptCommit]);
        phases.record_ns(Phase::Maintain, 5_000);
        phases.record_ns(Phase::Maintain, 7_000);
        phases.record_ns(Phase::CkptCommit, 1_000_000);
        let snap = reg.snapshot();
        let m = snap.histogram("oe_maintain_latency_ns").unwrap();
        assert_eq!(m.count(), 2);
        assert_eq!(m.max(), 7_000);
        assert_eq!(
            snap.histogram("oe_ckpt_commit_latency_ns").unwrap().max(),
            1_000_000
        );
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_phase_panics() {
        let reg = Registry::new();
        let phases = PhaseTimes::new(&reg, "x", &[Phase::Pull]);
        phases.record_ns(Phase::Push, 1);
    }

    #[test]
    fn all_phases_have_distinct_names() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }
}
