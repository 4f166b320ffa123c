//! Read-only serving node.
//!
//! [`ServingNode`] is a thin wrapper over an immutable
//! [`Snapshot`](crate::snapshot_handle::Snapshot) — the image is
//! decoded once into a DRAM row arena at open time; reads are then
//! borrow-returning `(value, Cost)` pairs ([`ServingNode::get`],
//! [`ServingNode::retrieve`]). Use
//! [`crate::snapshot_handle::SnapshotHandle`] for concurrent,
//! flip-on-checkpoint serving.

use crate::ann::Retriever;
use crate::snapshot_handle::Snapshot;
use oe_core::BatchId;
use oe_simdevice::{Cost, CrashImage};
use oe_telemetry::{Counter, Phase, PhaseTimes, Registry};
use std::sync::Arc;

pub use crate::ann::TopK;

/// Read-only embedding server over a decoded snapshot.
pub struct ServingNode {
    snapshot: Arc<Snapshot>,
    registry: Arc<Registry>,
    phases: PhaseTimes,
    hits: Counter,
    unknown: Counter,
}

impl ServingNode {
    /// Open an image at its committed checkpoint. `dim` must match the
    /// training configuration. The whole image is decoded into a DRAM
    /// row arena up front (cost charged to `cost` once); reads are
    /// then pure borrows. Returns `None` if the image holds no
    /// initialized pool.
    pub fn open(image: CrashImage, dim: usize, cost: &mut Cost) -> Option<Self> {
        let snapshot = Arc::new(Snapshot::build(image, dim, None)?);
        cost.merge(snapshot.build_cost());
        Some(Self::from_snapshot(snapshot))
    }

    /// Serve an already-built snapshot (shares it with any
    /// [`crate::snapshot_handle::SnapshotHandle`] holding the same Arc).
    pub fn from_snapshot(snapshot: Arc<Snapshot>) -> Self {
        let registry = Arc::new(Registry::new());
        let phases = PhaseTimes::new(&registry, "", &[Phase::ServeLookup, Phase::ServeTopk]);
        let hits = registry.counter("serve_hits_total");
        let unknown = registry.counter("serve_unknown_keys_total");
        Self {
            snapshot,
            registry,
            phases,
            hits,
            unknown,
        }
    }

    /// The underlying immutable snapshot — the borrow-returning read
    /// surface.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The serving node's telemetry registry (lookup/top-k latency
    /// histograms, hit/unknown counters).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Prometheus-style text exposition (what `oectl metrics` prints
    /// for a serving node).
    pub fn metrics_text(&self) -> String {
        self.registry.render_text()
    }

    /// Batch id the served model corresponds to.
    pub fn checkpoint(&self) -> BatchId {
        self.snapshot.checkpoint()
    }

    /// Embedding dimension served.
    pub fn dim(&self) -> usize {
        self.snapshot.dim()
    }

    /// Distinct keys available.
    pub fn num_keys(&self) -> usize {
        self.snapshot.num_keys()
    }

    /// Look up one embedding: a borrow into the snapshot arena plus
    /// the read's virtual cost, with serve telemetry recorded.
    pub fn get(&self, key: u64) -> (Option<&[f32]>, Cost) {
        let _span = self.phases.span(Phase::ServeLookup);
        let (value, cost) = self.snapshot.lookup(key);
        match value {
            Some(_) => self.hits.inc(),
            None => self.unknown.inc(),
        }
        (value, cost)
    }

    /// Top-`k` retrieval with an explicit [`Retriever`] arm, recorded
    /// under `serve_topk_latency_ns`.
    pub fn retrieve(
        &self,
        query: &[f32],
        k: usize,
        retriever: &dyn Retriever,
    ) -> (Vec<TopK>, Cost) {
        let _span = self.phases.span(Phase::ServeTopk);
        retriever.top_k(&self.snapshot, query, k)
    }

    /// Iterate all served keys (ascending).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.snapshot.keys().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::ExactScan;
    use oe_core::engine::PsEngine;
    use oe_core::{NodeConfig, OptimizerKind, PsNode};

    const DIM: usize = 4;

    fn trained_image() -> (CrashImage, Vec<Vec<f32>>) {
        let mut cfg = NodeConfig::small(DIM);
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.5 };
        let node = PsNode::new(cfg);
        let keys: Vec<u64> = (0..50).collect();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        for b in 1..=3 {
            out.clear();
            node.pull(&keys, b, &mut out, &mut cost);
            node.end_pull_phase(b);
            // Per-key distinct gradients so embeddings diverge (top-k
            // scoring needs a non-degenerate geometry).
            let grads: Vec<f32> = keys
                .iter()
                .flat_map(|&k| (0..DIM).map(move |d| ((k * 31 + d as u64 * 17) as f32).sin() * 0.3))
                .collect();
            node.push(&keys, &grads, b, &mut cost);
        }
        node.request_checkpoint(3);
        out.clear();
        node.pull(&keys, 4, &mut out, &mut cost);
        node.end_pull_phase(4);
        let weights = keys
            .iter()
            .map(|&k| node.read_weights(k).unwrap())
            .collect();
        (node.pool().media().crash(13), weights)
    }

    #[test]
    fn serves_checkpointed_weights() {
        let (image, expected) = trained_image();
        let mut cost = Cost::new();
        let node = ServingNode::open(image, DIM, &mut cost).expect("open");
        assert!(cost.total_ns() > 0, "open charges the decode scan");
        assert_eq!(node.checkpoint(), 3);
        assert_eq!(node.num_keys(), 50);
        for (k, w) in expected.iter().enumerate() {
            let (row, read_cost) = node.get(k as u64);
            assert_eq!(row.unwrap(), w.as_slice(), "key {k}");
            assert!(read_cost.total_ns() > 0, "reads report their cost");
            // Repeated reads borrow the same arena row.
            assert_eq!(node.get(k as u64).0.unwrap(), w.as_slice());
        }
    }

    #[test]
    fn unknown_keys_are_none_not_zeros() {
        let (image, _) = trained_image();
        let mut cost = Cost::new();
        let node = ServingNode::open(image, DIM, &mut cost).unwrap();
        let (missing, miss_cost) = node.get(999_999);
        assert!(missing.is_none());
        assert!(miss_cost.total_ns() > 0, "probes still cost");
        // The caller picks its missing-feature convention; the snapshot
        // no longer zero-fills for it.
        let (present, _) = node.get(1);
        assert!(present.is_some());
    }

    #[test]
    fn retrieve_ranks_by_dot_product() {
        let (image, expected) = trained_image();
        let mut cost = Cost::new();
        let node = ServingNode::open(image, DIM, &mut cost).unwrap();
        // Query = the embedding of key 7: its own score must rank top
        // among all candidates.
        let query = expected[7].clone();
        let (top, retrieve_cost) = node.retrieve(&query, 5, &ExactScan);
        assert_eq!(top.len(), 5);
        let self_score: f32 = query.iter().map(|v| v * v).sum();
        assert!(
            top.iter()
                .any(|t| t.key == 7 && (t.score - self_score).abs() < 1e-5),
            "key 7 in its own top-5: {top:?}"
        );
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(retrieve_cost.total_ns() > 0);
    }

    #[test]
    fn telemetry_counts_hits_and_unknowns() {
        let (image, _) = trained_image();
        let mut cost = Cost::new();
        let node = ServingNode::open(image, DIM, &mut cost).unwrap();
        node.get(1);
        node.get(1);
        node.get(2);
        node.get(999_999); // unknown
        let snap = node.registry().snapshot();
        assert_eq!(snap.counter("serve_hits_total"), Some(3));
        assert_eq!(snap.counter("serve_unknown_keys_total"), Some(1));
        let lookups = snap.histogram("serve_lookup_latency_ns").expect("hist");
        assert_eq!(lookups.count(), 4, "every lookup path records a span");
        let _ = node.retrieve(&[1.0; DIM], 2, &ExactScan);
        let snap = node.registry().snapshot();
        assert_eq!(snap.histogram("serve_topk_latency_ns").unwrap().count(), 1);
        let text = node.metrics_text();
        assert!(text.contains("serve_hits_total"), "text:\n{text}");
        assert!(
            text.contains("serve_lookup_latency_ns{quantile=\"0.99\"}"),
            "text:\n{text}"
        );
    }

    #[test]
    fn keys_iterate_ascending() {
        let (image, _) = trained_image();
        let mut cost = Cost::new();
        let node = ServingNode::open(image, DIM, &mut cost).unwrap();
        let keys: Vec<u64> = node.keys().collect();
        assert_eq!(keys.len(), 50);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
