//! Training run reports.

use crate::phases::PhaseBreakdown;
use oe_core::stats::StatsSnapshot;
use oe_core::BatchId;
use oe_simdevice::Nanos;
use oe_telemetry::HistogramSnapshot;
use oe_workload::trace::MsBucket;

/// Outcome of a training run (see [`crate::PipelineReport::train`]).
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Engine name ("PMem-OE", "DRAM-PS", …).
    pub engine: String,
    /// GPU workers used.
    pub workers: u32,
    /// Batches executed.
    pub batches: u64,
    /// Total virtual time.
    pub total_ns: Nanos,
    /// Accumulated phase breakdown.
    pub phases: PhaseBreakdown,
    /// Engine counter deltas over the run.
    pub stats: StatsSnapshot,
    /// Mean logloss (DeepFM mode only).
    pub avg_loss: Option<f64>,
    /// Checkpoints requested during the run.
    pub checkpoints_taken: u64,
    /// Committed checkpoint at the end of the run.
    pub committed_checkpoint: BatchId,
    /// Completed failovers (primary died, a checkpoint replica was
    /// promoted) absorbed during the run.
    pub failovers: u64,
    /// Batches that had completed but were discarded and replayed
    /// because a failover rolled state back to the committed checkpoint.
    pub rewound_batches: u64,
    /// Fig. 2-style per-millisecond trace, when recorded.
    pub trace_per_ms: Option<Vec<MsBucket>>,
    /// Distribution of pull-burst durations across batches.
    pub pull_hist: HistogramSnapshot,
    /// Distribution of deferred-maintenance durations across batches.
    pub maintain_hist: HistogramSnapshot,
    /// Distribution of push-burst durations across batches.
    pub push_hist: HistogramSnapshot,
    /// Distribution of total batch durations.
    pub batch_hist: HistogramSnapshot,
}

impl TrainReport {
    /// Total virtual seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean virtual time per batch (ns).
    pub fn ns_per_batch(&self) -> f64 {
        self.total_ns as f64 / self.batches.max(1) as f64
    }

    /// Cache miss rate observed over the run.
    pub fn miss_rate(&self) -> f64 {
        self.stats.miss_rate()
    }

    /// Tail-latency lines for every batch phase and the whole batch.
    pub fn latency_summary(&self) -> String {
        format!(
            "pull     {}\nmaintain {}\npush     {}\nbatch    {}",
            self.pull_hist.summary_ms(),
            self.maintain_hist.summary_ms(),
            self.push_hist.summary_ms(),
            self.batch_hist.summary_ms()
        )
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} workers={:<2} batches={:<5} time={:>10.3}ms/batch miss={:>6.2}% spill={:>6.2}% ckpt_pause={:>6.2}%",
            self.engine,
            self.workers,
            self.batches,
            self.ns_per_batch() / 1e6,
            self.miss_rate() * 100.0,
            self.phases.spill_ns as f64 / self.total_ns.max(1) as f64 * 100.0,
            self.phases.ckpt_pause_ns as f64 / self.total_ns.max(1) as f64 * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total_ns: Nanos) -> TrainReport {
        TrainReport {
            engine: "X".into(),
            workers: 4,
            batches: 10,
            total_ns,
            phases: PhaseBreakdown::default(),
            stats: StatsSnapshot::default(),
            avg_loss: None,
            checkpoints_taken: 0,
            committed_checkpoint: 0,
            failovers: 0,
            rewound_batches: 0,
            trace_per_ms: None,
            pull_hist: HistogramSnapshot::default(),
            maintain_hist: HistogramSnapshot::default(),
            push_hist: HistogramSnapshot::default(),
            batch_hist: HistogramSnapshot::default(),
        }
    }

    #[test]
    fn per_batch_and_secs() {
        let r = report(5_000_000_000);
        assert!((r.total_secs() - 5.0).abs() < 1e-9);
        assert!((r.ns_per_batch() - 5e8).abs() < 1e-3);
        assert!(r.summary().contains("X"));
    }
}
