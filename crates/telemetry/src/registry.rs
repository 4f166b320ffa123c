//! A registry of named metrics with cheap cloned handles.
//!
//! Hot paths hold a [`Counter`] / [`Gauge`] / [`HistogramHandle`]
//! (each an `Arc` around atomics) and record with a few `Relaxed`
//! RMWs — the registry's lock is touched only at registration and
//! snapshot time, never per sample. Names are stable identifiers in
//! Prometheus style (`oe_pulls_total`, `rpc_execute_latency_ns`);
//! [`Registry::snapshot`] yields a consistent, queryable copy and
//! [`Registry::render_text`] the text exposition.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::text;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not (yet) attached to any registry.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, CBI, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A cloneable handle to a registered [`Histogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    h: Arc<Histogram>,
}

impl HistogramHandle {
    /// A histogram not (yet) attached to any registry.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Record one nanosecond value.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.h.record(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.h.count()
    }

    /// Point-in-time copy for quantile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.h.snapshot()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Named metrics, get-or-registered on first use.
///
/// Registration takes a write lock; recording through the returned
/// handles is lock-free. One registry per node/server/serving instance
/// keeps exposition self-contained.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        wrap: impl FnOnce() -> (Metric, T),
        unwrap: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        // Fast path: already registered.
        if let Some(m) = self.metrics.read().expect("registry poisoned").get(name) {
            return unwrap(m)
                .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()));
        }
        let mut map = self.metrics.write().expect("registry poisoned");
        // Re-check under the write lock (another thread may have won).
        if let Some(m) = map.get(name) {
            return unwrap(m)
                .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()));
        }
        let (metric, handle) = wrap();
        map.insert(name.to_string(), metric);
        handle
    }

    /// Get or register a counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            || {
                let c = Counter::detached();
                (Metric::Counter(c.clone()), c)
            },
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            || {
                let g = Gauge::default();
                (Metric::Gauge(g.clone()), g)
            },
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.get_or_insert(
            name,
            || {
                let h = HistogramHandle::detached();
                (Metric::Histogram(h.clone()), h)
            },
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Consistent point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.metrics.read().expect("registry poisoned");
        let entries = map
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        RegistrySnapshot { entries }
    }

    /// Prometheus-style text exposition of the current state.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// Value of one metric inside a [`RegistrySnapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Metric name → value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// Counter value, if `name` is a registered counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `name` is a registered gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.entries.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram summary, if `name` is a registered histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus-style text exposition.
    pub fn render_text(&self) -> String {
        text::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("ops_total");
        let b = reg.counter("ops_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("ops_total"), Some(4));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("queue_depth");
        g.set(10);
        g.set(3);
        assert_eq!(reg.snapshot().gauge("queue_depth"), Some(3));
    }

    #[test]
    fn histogram_registers_and_snapshots() {
        let reg = Registry::new();
        let h = reg.histogram("latency_ns");
        h.record(1_000);
        h.record(2_000);
        let snap = reg.snapshot();
        let hs = snap.histogram("latency_ns").unwrap();
        assert_eq!(hs.count(), 2);
        assert_eq!(hs.max(), 2_000);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("b_total").inc();
        reg.counter("a_total").add(2);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.keys().cloned().collect();
        assert_eq!(names, vec!["a_total", "b_total"]);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn concurrent_registration_yields_one_metric() {
        let reg = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        reg.counter("contended_total").inc();
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("contended_total"), Some(8_000));
    }
}
