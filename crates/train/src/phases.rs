//! Per-batch phase timing breakdown.

use oe_simdevice::Nanos;

/// Virtual-time breakdown of one synchronous training batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Pull burst on the critical path (PS service + network).
    pub pull_ns: Nanos,
    /// Deferred maintenance work (overlappable with compute).
    pub maintain_ns: Nanos,
    /// Maintenance time that exceeded compute and spilled onto the
    /// critical path.
    pub spill_ns: Nanos,
    /// GPU compute (max across workers).
    pub compute_ns: Nanos,
    /// Push burst on the critical path.
    pub push_ns: Nanos,
    /// Synchronous checkpoint pause (zero for batch-aware checkpointing).
    pub ckpt_pause_ns: Nanos,
}

impl PhaseBreakdown {
    /// Critical-path duration of the batch.
    pub fn total_ns(&self) -> Nanos {
        self.pull_ns + self.compute_ns.max(1) + self.spill_ns + self.push_ns + self.ckpt_pause_ns
    }

    /// Accumulate another batch's breakdown.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        self.pull_ns += other.pull_ns;
        self.maintain_ns += other.maintain_ns;
        self.spill_ns += other.spill_ns;
        self.compute_ns += other.compute_ns;
        self.push_ns += other.push_ns;
        self.ckpt_pause_ns += other.ckpt_pause_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_critical_path_only() {
        let p = PhaseBreakdown {
            pull_ns: 10,
            maintain_ns: 100, // hidden: not on the critical path
            spill_ns: 5,
            compute_ns: 50,
            push_ns: 20,
            ckpt_pause_ns: 0,
        };
        assert_eq!(p.total_ns(), 10 + 50 + 5 + 20);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = PhaseBreakdown::default();
        let b = PhaseBreakdown {
            pull_ns: 1,
            maintain_ns: 2,
            spill_ns: 3,
            compute_ns: 4,
            push_ns: 5,
            ckpt_pause_ns: 6,
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.pull_ns, 2);
        assert_eq!(a.ckpt_pause_ns, 12);
    }
}
