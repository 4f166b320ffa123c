//! Span recorder for the traced run, plus the two pieces of arithmetic
//! every reported number goes through: the percentile rule and
//! self-time subtraction.
//!
//! One request is in flight at a time (closed loop, one synchronous
//! client), so the innermost open span is a single shared id: the
//! client thread opens a transport span and blocks, the server thread
//! opens the engine span under it, and the channel hand-off orders the
//! two. Per-key leaf calls (`read_slot`, `write_slot`, …) never become
//! spans; they add to per-op accumulators that are folded into one
//! child record when the enclosing span closes.

use crate::json;
use oe_simdevice::{Cost, CostKind};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Per-key storage operations, aggregated per parent span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeafOp {
    ReadSlot = 0,
    WriteSlot = 1,
    Alloc = 2,
    Free = 3,
    SetCheckpointId = 4,
}

impl LeafOp {
    const ALL: [LeafOp; 5] = [
        LeafOp::ReadSlot,
        LeafOp::WriteSlot,
        LeafOp::Alloc,
        LeafOp::Free,
        LeafOp::SetCheckpointId,
    ];

    pub fn span_name(self) -> &'static str {
        match self {
            LeafOp::ReadSlot => "storage.read_slot",
            LeafOp::WriteSlot => "storage.write_slot",
            LeafOp::Alloc => "storage.alloc",
            LeafOp::Free => "storage.free",
            LeafOp::SetCheckpointId => "storage.set_checkpoint_id",
        }
    }
}

#[derive(Default)]
struct LeafAcc {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    bytes: AtomicU64,
}

/// One finished span, or one aggregate of leaf calls under a parent.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent (a stage root).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the span: `end − start` for a real span, the summed
    /// call durations for a leaf aggregate.
    pub busy_ns: u64,
    /// Calls covered (1 for a real span).
    pub calls: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// Layer-specific size: keys for node spans, bytes out for
    /// transport and storage spans.
    pub units: u64,
    /// Second size: bytes in for transport spans.
    pub units_in: u64,
}

/// An open span; close it with [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    /// Innermost open span (see module docs for why one id suffices).
    current: AtomicU32,
    request: AtomicU64,
    spans: Mutex<Vec<Span>>,
    leaves: [LeafAcc; 5],
    /// Virtual ns by `CostKind` of every `Cost` booked at the client
    /// seam, and the sum of their `total_ns()` for the conservation
    /// check.
    cost_ns: [AtomicU64; 8],
    cost_total_ns: AtomicU64,
    failed: AtomicU64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, disabled until
    /// [`Tracer::set_enabled`]: set-up and warm-up traffic passes the
    /// decorators unrecorded.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            request: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            leaves: Default::default(),
            cost_ns: Default::default(),
            cost_total_ns: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new request: every span opened until the next call
    /// carries this id, whichever thread opens it.
    pub fn next_request(&self) {
        self.request.fetch_add(1, Ordering::SeqCst);
    }

    pub fn enter(&self, name: &'static str) -> Option<Open> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // SeqCst: the parent link crosses threads (client → server).
        let parent = self.current.swap(id, Ordering::SeqCst);
        Some(Open {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        })
    }

    pub fn exit(&self, open: Option<Open>, units: u64, units_in: u64) {
        let Some(open) = open else { return };
        let end_ns = self.now_ns();
        let req = self.request.load(Ordering::SeqCst);
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        for op in LeafOp::ALL {
            let acc = &self.leaves[op as usize];
            let calls = acc.calls.swap(0, Ordering::Relaxed);
            if calls == 0 {
                continue;
            }
            spans.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: open.id,
                name: op.span_name(),
                start_ns: open.start_ns,
                end_ns: open.start_ns,
                busy_ns: acc.busy_ns.swap(0, Ordering::Relaxed),
                calls,
                req,
                units: acc.bytes.swap(0, Ordering::Relaxed),
                units_in: 0,
            });
        }
        spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            busy_ns: end_ns - open.start_ns,
            calls: 1,
            req,
            units,
            units_in,
        });
        drop(spans);
        self.current.store(open.parent, Ordering::SeqCst);
    }

    /// Time one leaf call and add it to the aggregate of the enclosing
    /// span. Safe from the node's parallel lanes (relaxed adds; the
    /// enclosing span's exit happens after the lanes join).
    pub fn leaf<T>(&self, op: LeafOp, bytes: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let acc = &self.leaves[op as usize];
        acc.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        acc.calls.fetch_add(1, Ordering::Relaxed);
        acc.bytes.fetch_add(bytes, Ordering::Relaxed);
        out
    }

    /// Record a block of `calls` identical calls timed as one interval.
    pub fn block(&self, name: &'static str, start: Instant, calls: u64, units: u64) {
        if !self.enabled() {
            return;
        }
        let end_ns = self.now_ns();
        let busy_ns = start.elapsed().as_nanos() as u64;
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::SeqCst),
            name,
            start_ns: end_ns.saturating_sub(busy_ns),
            end_ns,
            busy_ns,
            calls,
            req: self.request.load(Ordering::SeqCst),
            units,
            units_in: 0,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Book a virtual cost that crossed the client seam.
    pub fn book_cost(&self, cost: &Cost) {
        for kind in CostKind::ALL {
            self.cost_ns[kind as usize].fetch_add(cost.ns(kind), Ordering::Relaxed);
        }
        self.cost_total_ns
            .fetch_add(cost.total_ns(), Ordering::Relaxed);
    }

    /// `(ns by kind in CostKind::ALL order, sum of total_ns)`.
    pub fn booked_cost(&self) -> ([u64; 8], u64) {
        let mut by_kind = [0u64; 8];
        for (slot, acc) in by_kind.iter_mut().zip(&self.cost_ns) {
            *slot = acc.load(Ordering::Relaxed);
        }
        (by_kind, self.cost_total_ns.load(Ordering::Relaxed))
    }

    pub fn count_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub units: u64,
    pub units_in: u64,
}

/// Self time of every span: its busy time minus the part its children
/// cover. Children of a real span are clipped to the parent's interval
/// and merged where they overlap (a child may run on another thread);
/// a leaf aggregate has no interval and covers at most what is left.
/// Returns `(span index → self_ns)`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut by_id = std::collections::HashMap::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = by_id.get(&s.parent) {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            let mut leaf_busy = 0u64;
            for &c in &children[i] {
                let ch = &spans[c];
                if ch.end_ns > ch.start_ns {
                    let lo = ch.start_ns.max(s.start_ns);
                    let hi = ch.end_ns.min(s.end_ns);
                    if hi > lo {
                        intervals.push((lo, hi));
                    }
                } else {
                    leaf_busy += ch.busy_ns;
                }
            }
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.busy_ns.saturating_sub(covered).saturating_sub(leaf_busy)
        })
        .collect()
}

/// Sum spans by name.
pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: std::collections::BTreeMap<&'static str, NameTotals> = Default::default();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += s.calls;
        t.busy_ns += s.busy_ns;
        t.self_ns += self_ns;
        t.units += s.units;
        t.units_in += s.units_in;
    }
    out
}

/// A percentile that the sample supports: the highest one not above
/// `want` that still has at least ten samples beyond it (the median
/// when the sample is too small for even that).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: u64,
    /// The percentile actually reported, in [0, 1].
    pub used: f64,
    pub samples: usize,
}

pub fn percentile(sorted: &[u64], want: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct {
            value: 0,
            used: 0.0,
            samples: 0,
        };
    }
    let wanted_idx = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let median_idx = (n - 1) / 2;
    let supported_idx = n.saturating_sub(11).max(median_idx);
    let idx = wanted_idx.min(supported_idx);
    Pct {
        value: sorted[idx],
        used: (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Median of unsorted f64 samples (mean of the middle two when even).
pub fn median_f64(vals: &mut [f64]) -> f64 {
    assert!(!vals.is_empty(), "median of nothing");
    vals.sort_by(|a, b| a.total_cmp(b));
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        (vals[n / 2 - 1] + vals[n / 2]) / 2.0
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut o = json::Obj::new();
        o.num("id", s.id as f64)?
            .num("parent", s.parent as f64)?
            .str("name", s.name)
            .num("start_ns", s.start_ns as f64)?
            .num("end_ns", s.end_ns as f64)?
            .num("busy_ns", s.busy_ns as f64)?
            .num("calls", s.calls as f64)?
            .num("req", s.req as f64)?
            .num("units", s.units as f64)?
            .num("units_in", s.units_in as f64)?;
        writeln!(w, "{}", o.finish())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
            req: 0,
            units: 0,
            units_in: 0,
        }
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        let p = percentile(&v, 0.99);
        assert_eq!(p.value, 990, "p99 of 1000 has exactly ten beyond it");
        assert_eq!(p.samples, 1000);
        // p999 of 1000 would leave one sample beyond: capped to p99.
        assert_eq!(percentile(&v, 0.999).value, 990);
        // 100 samples: p99 is capped at the 89th (ten beyond).
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.99).value, 90);
        assert_eq!(percentile(&v, 0.5).value, 50);
        // Too small for any tail: the median.
        let v: Vec<u64> = (1..=9).collect();
        assert_eq!(percentile(&v, 0.99).value, 5);
        assert_eq!(percentile(&[], 0.5).samples, 0);
    }

    #[test]
    fn self_time_subtracts_children_across_threads() {
        // Parent 0..100 on the client thread; the server-thread child
        // starts a little before the parent's clock read and two
        // children overlap (parallel lanes): coverage is the clipped
        // union, not the sum.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),
            span(4, 2, 20, 30),
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 100 - 70, "union of 10..60 and 40..80");
        assert_eq!(s[1], 50 - 10);
        assert_eq!(s[2], 40);
        assert_eq!(s[3], 10);
        // A child reaching outside its parent is clipped.
        let spans = vec![span(1, 0, 50, 100), span(2, 1, 0, 70)];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn leaf_aggregates_cover_at_most_what_is_left() {
        let mut leaf = span(3, 1, 0, 0);
        leaf.busy_ns = 500; // parallel lanes summed past the parent
        leaf.calls = 64;
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 0, 40), leaf];
        assert_eq!(self_times(&spans)[0], 0);
        let t = totals_by_name(&spans);
        assert_eq!(t["t"].calls, 66);
    }

    #[test]
    fn tracer_links_spans_and_folds_leaves() {
        let t = Tracer::new(16);
        assert!(t.enter("off").is_none(), "disabled until switched on");
        t.set_enabled(true);
        t.next_request();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.leaf(LeafOp::ReadSlot, 64, || ());
        t.leaf(LeafOp::ReadSlot, 64, || ());
        t.exit(inner, 7, 0);
        t.exit(outer, 0, 0);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 3);
        let leaf = &spans[0];
        assert_eq!(
            (leaf.name, leaf.calls, leaf.units),
            ("storage.read_slot", 2, 128)
        );
        let inner = &spans[1];
        let outer = &spans[2];
        assert_eq!(leaf.parent, inner.id);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.units, 7);
        assert!(spans.iter().all(|s| s.req == 1));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
