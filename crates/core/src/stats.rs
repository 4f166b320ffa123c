//! Engine statistics: lock-free counters sampled by the trainer and the
//! figure harness (miss rates for Fig. 11, flush/commit counts for the
//! checkpoint experiments).
//!
//! Since the telemetry subsystem (S25) landed, the counters are
//! [`oe_telemetry::Counter`] handles. A default `EngineStats` is
//! detached (standalone atomics, exactly the old behaviour); an engine
//! that owns a [`Registry`] constructs them with
//! [`EngineStats::registered`] so the same counts show up in the
//! Prometheus-style exposition without double bookkeeping.
//! [`StatsSnapshot`] stays the stable point-in-time view.

use oe_telemetry::{Counter, Registry};

/// Lock-free counters updated by the hot paths.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Keys served by pulls.
    pub pulls: Counter,
    /// Pulls served from the DRAM cache.
    pub hits: Counter,
    /// Pulls served from PMem.
    pub misses: Counter,
    /// Brand-new entries initialized.
    pub new_entries: Counter,
    /// Keys updated by pushes.
    pub pushes: Counter,
    /// Cache evictions performed.
    pub evictions: Counter,
    /// Entry flushes to PMem (write-backs, incl. checkpoint-motivated).
    pub flushes: Counter,
    /// Entry loads from PMem into the cache.
    pub loads: Counter,
    /// Checkpoints committed (CBI advanced).
    pub ckpt_commits: Counter,
    /// Entries written by explicit checkpoint dumps (incremental baseline).
    pub ckpt_entries_written: Counter,
    /// PMem slots recycled by version-chain pruning.
    pub slots_recycled: Counter,
}

/// Point-in-time copy of [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Keys served by pulls.
    pub pulls: u64,
    /// Pulls served from the DRAM cache.
    pub hits: u64,
    /// Pulls served from PMem.
    pub misses: u64,
    /// Brand-new entries initialized.
    pub new_entries: u64,
    /// Keys updated by pushes.
    pub pushes: u64,
    /// Cache evictions performed.
    pub evictions: u64,
    /// Entry flushes to PMem.
    pub flushes: u64,
    /// Entry loads from PMem into the cache.
    pub loads: u64,
    /// Checkpoints committed.
    pub ckpt_commits: u64,
    /// Entries written by explicit checkpoint dumps.
    pub ckpt_entries_written: u64,
    /// PMem slots recycled by pruning.
    pub slots_recycled: u64,
}

impl EngineStats {
    /// Counters registered in `registry` under stable
    /// `oe_*_total` names, so engine stats and text exposition share
    /// one set of atomics.
    pub fn registered(registry: &Registry) -> Self {
        Self {
            pulls: registry.counter("oe_pulls_total"),
            hits: registry.counter("oe_cache_hits_total"),
            misses: registry.counter("oe_cache_misses_total"),
            new_entries: registry.counter("oe_new_entries_total"),
            pushes: registry.counter("oe_pushes_total"),
            evictions: registry.counter("oe_evictions_total"),
            flushes: registry.counter("oe_flushes_total"),
            loads: registry.counter("oe_loads_total"),
            ckpt_commits: registry.counter("oe_ckpt_commits_total"),
            ckpt_entries_written: registry.counter("oe_ckpt_entries_written_total"),
            slots_recycled: registry.counter("oe_slots_recycled_total"),
        }
    }

    /// Bump a counter.
    #[inline]
    pub fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            pulls: self.pulls.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            new_entries: self.new_entries.get(),
            pushes: self.pushes.get(),
            evictions: self.evictions.get(),
            flushes: self.flushes.get(),
            loads: self.loads.get(),
            ckpt_commits: self.ckpt_commits.get(),
            ckpt_entries_written: self.ckpt_entries_written.get(),
            slots_recycled: self.slots_recycled.get(),
        }
    }
}

impl StatsSnapshot {
    /// Cache miss rate over pulls of *known* entries (new-entry
    /// initializations are not misses — nothing could have been cached).
    pub fn miss_rate(&self) -> f64 {
        let known = self.hits + self.misses;
        if known == 0 {
            0.0
        } else {
            self.misses as f64 / known as f64
        }
    }

    /// Difference of two snapshots (for per-phase deltas). Saturating:
    /// `Relaxed` counters loaded while hot paths run can be observed
    /// out of order across fields, so a later snapshot may appear to
    /// lag an earlier one — clamp to zero instead of panicking on
    /// underflow in debug builds.
    pub fn delta_since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            pulls: self.pulls.saturating_sub(base.pulls),
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            new_entries: self.new_entries.saturating_sub(base.new_entries),
            pushes: self.pushes.saturating_sub(base.pushes),
            evictions: self.evictions.saturating_sub(base.evictions),
            flushes: self.flushes.saturating_sub(base.flushes),
            loads: self.loads.saturating_sub(base.loads),
            ckpt_commits: self.ckpt_commits.saturating_sub(base.ckpt_commits),
            ckpt_entries_written: self
                .ckpt_entries_written
                .saturating_sub(base.ckpt_entries_written),
            slots_recycled: self.slots_recycled.saturating_sub(base.slots_recycled),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_miss_rate() {
        let s = EngineStats::default();
        EngineStats::add(&s.hits, 90);
        EngineStats::add(&s.misses, 10);
        EngineStats::add(&s.pulls, 100);
        let snap = s.snapshot();
        assert!((snap.miss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_miss_rate_is_zero() {
        assert_eq!(StatsSnapshot::default().miss_rate(), 0.0);
    }

    #[test]
    fn delta() {
        let s = EngineStats::default();
        EngineStats::add(&s.flushes, 5);
        let base = s.snapshot();
        EngineStats::add(&s.flushes, 3);
        let d = s.snapshot().delta_since(&base);
        assert_eq!(d.flushes, 3);
    }

    #[test]
    fn delta_saturates_instead_of_panicking() {
        let newer = StatsSnapshot {
            pulls: 5,
            ..Default::default()
        };
        let older = StatsSnapshot {
            pulls: 9,
            hits: 1,
            ..Default::default()
        };
        let d = newer.delta_since(&older);
        assert_eq!(d.pulls, 0);
        assert_eq!(d.hits, 0);
    }

    #[test]
    fn registered_counters_feed_the_exposition() {
        let reg = Registry::new();
        let s = EngineStats::registered(&reg);
        EngineStats::add(&s.pulls, 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("oe_pulls_total"), Some(7));
        assert_eq!(s.snapshot().pulls, 7);
    }
}
