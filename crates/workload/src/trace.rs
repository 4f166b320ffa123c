//! Access-trace recording for the Fig. 2 analysis: requests per
//! millisecond at the parameter server, split into pull and update, over
//! a window of batches. Shows (a) pull/update arriving in equal pairs
//! and (b) the I/O bursts at batch boundaries with an idle compute gap
//! between them.

use oe_simdevice::Nanos;

/// Request category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Embedding lookup at batch start.
    Pull,
    /// Gradient write-back at batch end.
    Update,
}

/// One recorded event: `count` requests of `kind` at virtual time `at`.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub at: Nanos,
    /// Pull or update.
    pub kind: TraceKind,
    /// Number of requests (a burst is recorded as one event).
    pub count: u64,
}

/// Collects events and bins them per millisecond.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

/// One row of the Fig. 2 histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsBucket {
    /// Millisecond index from trace start.
    pub ms: u64,
    /// Pull requests in this millisecond.
    pub pulls: u64,
    /// Update requests in this millisecond.
    pub updates: u64,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `count` requests of `kind` at time `at`.
    pub fn record(&mut self, at: Nanos, kind: TraceKind, count: u64) {
        self.events.push(TraceEvent { at, kind, count });
    }

    /// Raw events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total pulls and updates (Fig. 2's "the total amount is
    /// consistent" check).
    pub fn totals(&self) -> (u64, u64) {
        let mut p = 0;
        let mut u = 0;
        for e in &self.events {
            match e.kind {
                TraceKind::Pull => p += e.count,
                TraceKind::Update => u += e.count,
            }
        }
        (p, u)
    }

    /// Bin events into per-millisecond buckets relative to the first
    /// event.
    pub fn per_ms(&self) -> Vec<MsBucket> {
        if self.events.is_empty() {
            return Vec::new();
        }
        let t0 = self.events.iter().map(|e| e.at).min().unwrap();
        let t1 = self.events.iter().map(|e| e.at).max().unwrap();
        let n_ms = ((t1 - t0) / 1_000_000 + 1) as usize;
        let mut buckets: Vec<MsBucket> = (0..n_ms as u64)
            .map(|ms| MsBucket {
                ms,
                pulls: 0,
                updates: 0,
            })
            .collect();
        for e in &self.events {
            let ms = ((e.at - t0) / 1_000_000) as usize;
            match e.kind {
                TraceKind::Pull => buckets[ms].pulls += e.count,
                TraceKind::Update => buckets[ms].updates += e.count,
            }
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_consistent() {
        let mut t = TraceRecorder::new();
        t.record(0, TraceKind::Pull, 100);
        t.record(5_000_000, TraceKind::Update, 100);
        let (p, u) = t.totals();
        assert_eq!(p, u);
    }

    #[test]
    fn per_ms_binning() {
        let mut t = TraceRecorder::new();
        t.record(0, TraceKind::Pull, 10);
        t.record(500_000, TraceKind::Pull, 5); // same ms
        t.record(2_000_000, TraceKind::Update, 15); // ms 2
        let b = t.per_ms();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].pulls, 15);
        assert_eq!(b[1].pulls + b[1].updates, 0);
        assert_eq!(b[2].updates, 15);
    }

    #[test]
    fn empty_trace() {
        let t = TraceRecorder::new();
        assert_eq!(t.per_ms().len(), 0);
        assert_eq!(t.totals(), (0, 0));
    }
}
