//! The five public seams the benchmark is assembled through, and the
//! decorators the traced run puts on them.
//!
//! [`Plain`] hands every component back untouched — the untraced run
//! carries no instrumentation. [`Traced`] wraps `PsClient`,
//! `Transport`, `PsEngine`, `StorageBackend` and `Retriever`. Every
//! decorator forwards every trait method explicitly, defaulted ones
//! included, so wrapping never reroutes a path the inner type
//! overrides (`RemotePs::pull_issue`, `RemotePool::write_slot`, …).

use crate::trace::{LeafOp, Tracer};
use bytes::Bytes;
use oe_core::engine::MaintenanceReport;
use oe_core::stats::StatsSnapshot;
use oe_core::{BatchId, Key, PsEngine, PsNode, StorageBackend};
use oe_net::{ClientTransport, Error, FailoverEvent, PsClient, PullTicket, Transport};
use oe_pmem::{PmemPool, SlotHeader, SlotId};
use oe_serve::{LshRetriever, Retriever, Snapshot, TopK};
use oe_simdevice::Cost;
use std::sync::Arc;
use std::time::Duration;

/// Reach the `PsNode` behind whatever engine type a run uses.
pub trait AsNode {
    fn as_node(&self) -> &PsNode;
}

impl AsNode for PsNode {
    fn as_node(&self) -> &PsNode {
        self
    }
}

/// How a run obtains each component at a seam.
pub trait Seams: Sync {
    /// The engine handed to `PsServer::spawn`, `PlacedCluster` or
    /// `EngineClient`.
    type Engine: PsEngine + AsNode + 'static;

    fn storage(&self, inner: Arc<dyn StorageBackend>) -> Arc<dyn StorageBackend>;
    fn engine(&self, node: PsNode) -> Self::Engine;
    fn transport(&self, inner: ClientTransport) -> Arc<dyn Transport>;
    /// `wire`: the client talks to a server over a transport (its spans
    /// are `net.client.*`) rather than to an in-process engine
    /// (`local.client.*`).
    fn client(&self, inner: Box<dyn PsClient>, wire: bool) -> Box<dyn PsClient>;
    fn retriever(&self) -> Box<dyn Retriever>;
    fn tracer(&self) -> Option<&Arc<Tracer>>;
}

/// The untraced run: every seam is the identity.
pub struct Plain;

impl Seams for Plain {
    type Engine = PsNode;

    fn storage(&self, inner: Arc<dyn StorageBackend>) -> Arc<dyn StorageBackend> {
        inner
    }

    fn engine(&self, node: PsNode) -> PsNode {
        node
    }

    fn transport(&self, inner: ClientTransport) -> Arc<dyn Transport> {
        Arc::new(inner)
    }

    fn client(&self, inner: Box<dyn PsClient>, _wire: bool) -> Box<dyn PsClient> {
        inner
    }

    fn retriever(&self) -> Box<dyn Retriever> {
        Box::new(LshRetriever)
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        None
    }
}

/// The traced run: a decorator at every seam, all recording into one
/// [`Tracer`].
pub struct Traced(pub Arc<Tracer>);

impl Seams for Traced {
    type Engine = TracedEngine<PsNode>;

    fn storage(&self, inner: Arc<dyn StorageBackend>) -> Arc<dyn StorageBackend> {
        Arc::new(TracedStorage {
            inner,
            tracer: self.0.clone(),
        })
    }

    fn engine(&self, node: PsNode) -> TracedEngine<PsNode> {
        TracedEngine {
            inner: node,
            tracer: self.0.clone(),
        }
    }

    fn transport(&self, inner: ClientTransport) -> Arc<dyn Transport> {
        Arc::new(TracedTransport {
            inner,
            tracer: self.0.clone(),
        })
    }

    fn client(&self, inner: Box<dyn PsClient>, wire: bool) -> Box<dyn PsClient> {
        Box::new(TracedClient {
            inner,
            tracer: self.0.clone(),
            names: if wire {
                &ClientNames::WIRE
            } else {
                &ClientNames::LOCAL
            },
        })
    }

    fn retriever(&self) -> Box<dyn Retriever> {
        Box::new(TracedRetriever {
            inner: LshRetriever,
            tracer: self.0.clone(),
        })
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        Some(&self.0)
    }
}

struct ClientNames {
    pull: &'static str,
    push: &'static str,
    flush: &'static str,
    checkpoint: &'static str,
}

impl ClientNames {
    const WIRE: ClientNames = ClientNames {
        pull: "net.client.pull",
        push: "net.client.push",
        flush: "net.client.flush",
        checkpoint: "net.client.checkpoint",
    };
    const LOCAL: ClientNames = ClientNames {
        pull: "local.client.pull",
        push: "local.client.push",
        flush: "local.client.flush",
        checkpoint: "local.client.checkpoint",
    };
}

/// `PsClient` seam: trainer → `RemotePs` / in-process engine. Opens one
/// request per call and books every `Cost` that crosses the seam.
pub struct TracedClient {
    inner: Box<dyn PsClient>,
    tracer: Arc<Tracer>,
    names: &'static ClientNames,
}

impl TracedClient {
    /// Run `f` inside a span; `cost` is the caller's accumulating sink,
    /// so what this call charged is the difference around it.
    fn costed<T>(
        &self,
        name: &'static str,
        keys: usize,
        cost: &mut Cost,
        f: impl FnOnce(&mut Cost) -> Result<T, Error>,
    ) -> Result<T, Error> {
        self.tracer.next_request();
        let before = self.tracer.enabled().then(|| cost.clone());
        let span = self.tracer.enter(name);
        let out = f(cost);
        self.tracer.exit(span, keys as u64, 0);
        if let Some(before) = before {
            self.tracer.book_cost(&cost.delta_since(&before));
        }
        if out.is_err() {
            self.tracer.count_failed();
        }
        out
    }
}

impl PsClient for TracedClient {
    fn backend_name(&self) -> String {
        self.inner.backend_name()
    }

    fn embed_dim(&self) -> usize {
        self.inner.embed_dim()
    }

    fn pull_batch(
        &self,
        keys: &[Key],
        batch: BatchId,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.costed(self.names.pull, keys.len(), cost, |c| {
            self.inner.pull_batch(keys, batch, out, c)
        })
    }

    fn pull_issue(&self, keys: &[Key], batch: BatchId) -> Result<PullTicket, Error> {
        self.inner.pull_issue(keys, batch)
    }

    fn pull_complete(
        &self,
        ticket: PullTicket,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        let keys = ticket.keys().len();
        self.costed(self.names.pull, keys, cost, |c| {
            self.inner.pull_complete(ticket, out, c)
        })
    }

    fn flush_batch(&self, batch: BatchId) -> Result<MaintenanceReport, Error> {
        let mut booked = Cost::new();
        self.costed(self.names.flush, 0, &mut booked, |c| {
            let report = self.inner.flush_batch(batch)?;
            c.merge(&report.cost);
            Ok(report)
        })
    }

    fn push_batch(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.costed(self.names.push, keys.len(), cost, |c| {
            self.inner.push_batch(keys, grads, batch, c)
        })
    }

    fn checkpoint(&self, batch: BatchId) -> Result<Cost, Error> {
        let mut booked = Cost::new();
        self.costed(self.names.checkpoint, 0, &mut booked, |c| {
            let inline = self.inner.checkpoint(batch)?;
            c.merge(&inline);
            Ok(inline)
        })
    }

    fn committed(&self) -> Result<BatchId, Error> {
        self.inner.committed()
    }

    fn snapshot_stats(&self) -> Result<StatsSnapshot, Error> {
        self.inner.snapshot_stats()
    }

    fn weights_of(&self, key: Key) -> Result<Option<Vec<f32>>, Error> {
        self.inner.weights_of(key)
    }

    fn key_count(&self) -> Result<usize, Error> {
        self.inner.key_count()
    }

    fn metrics(&self) -> Result<String, Error> {
        self.inner.metrics()
    }

    fn failover_resume(&self) -> Option<FailoverEvent> {
        self.inner.failover_resume()
    }
}

/// `Transport` seam: client → wire. Counts frame bytes both ways.
pub struct TracedTransport {
    inner: ClientTransport,
    tracer: Arc<Tracer>,
}

impl Transport for TracedTransport {
    fn call(&self, request: Bytes, deadline: Option<Duration>) -> Result<Bytes, Error> {
        let out_len = request.len() as u64;
        let span = self.tracer.enter("net.transport.call");
        let resp = self.inner.call(request, deadline);
        let in_len = resp.as_ref().map_or(0, |r| r.len() as u64);
        self.tracer.exit(span, out_len, in_len);
        resp
    }
}

/// `PsEngine` seam: server / cluster / adapter → node.
pub struct TracedEngine<E> {
    inner: E,
    tracer: Arc<Tracer>,
}

impl AsNode for TracedEngine<PsNode> {
    fn as_node(&self) -> &PsNode {
        &self.inner
    }
}

impl<E: PsEngine> PsEngine for TracedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let span = self.tracer.enter("core.node.pull");
        self.inner.pull(keys, batch, out, cost);
        self.tracer.exit(span, keys.len() as u64, 0);
    }

    fn end_pull_phase(&self, batch: BatchId) -> MaintenanceReport {
        let span = self.tracer.enter("core.node.maintain");
        let report = self.inner.end_pull_phase(batch);
        self.tracer.exit(span, report.entries_processed, 0);
        report
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        let span = self.tracer.enter("core.node.push");
        self.inner.push(keys, grads, batch, cost);
        self.tracer.exit(span, keys.len() as u64, 0);
    }

    fn push_async(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        let span = self.tracer.enter("core.node.push");
        self.inner.push_async(keys, grads, batch, cost);
        self.tracer.exit(span, keys.len() as u64, 0);
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        let span = self.tracer.enter("core.node.checkpoint");
        let cost = self.inner.request_checkpoint(batch);
        self.tracer.exit(span, 0, 0);
        cost
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.inner.committed_checkpoint()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        self.inner.read_weights(key)
    }

    fn num_keys(&self) -> usize {
        self.inner.num_keys()
    }

    fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }

    fn export_entry(&self, key: Key, cost: &mut Cost) -> Option<(BatchId, Vec<f32>)> {
        self.inner.export_entry(key, cost)
    }

    fn import_entry(&self, key: Key, version: BatchId, payload: &[f32], cost: &mut Cost) -> bool {
        self.inner.import_entry(key, version, payload, cost)
    }

    fn discard_entry(&self, key: Key, cost: &mut Cost) -> bool {
        self.inner.discard_entry(key, cost)
    }
}

/// `StorageBackend` seam: node → `LocalPmem` / `RemotePool`. Per-key
/// calls aggregate under the engine span that caused them.
pub struct TracedStorage {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl StorageBackend for TracedStorage {
    fn pool(&self) -> &PmemPool {
        self.inner.pool()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn alloc(&self, cost: &mut Cost) -> SlotId {
        self.tracer
            .leaf(LeafOp::Alloc, 0, || self.inner.alloc(cost))
    }

    fn free(&self, id: SlotId, cost: &mut Cost) {
        self.tracer
            .leaf(LeafOp::Free, 0, || self.inner.free(id, cost))
    }

    fn write_slot(&self, id: SlotId, key: u64, version: u64, payload: &[f32], cost: &mut Cost) {
        let bytes = self.inner.pool().slot_bytes();
        self.tracer.leaf(LeafOp::WriteSlot, bytes, || {
            self.inner.write_slot(id, key, version, payload, cost)
        })
    }

    fn read_slot(&self, id: SlotId, out: &mut [f32], cost: &mut Cost) -> Option<SlotHeader> {
        let bytes = self.inner.pool().slot_bytes();
        self.tracer.leaf(LeafOp::ReadSlot, bytes, || {
            self.inner.read_slot(id, out, cost)
        })
    }

    fn set_checkpoint_id(&self, id: u64, cost: &mut Cost) {
        self.tracer.leaf(LeafOp::SetCheckpointId, 0, || {
            self.inner.set_checkpoint_id(id, cost)
        })
    }
}

/// `Retriever` seam: reader → LSH index.
pub struct TracedRetriever {
    inner: LshRetriever,
    tracer: Arc<Tracer>,
}

impl Retriever for TracedRetriever {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn top_k(&self, snap: &Snapshot, query: &[f32], k: usize) -> (Vec<TopK>, Cost) {
        let span = self.tracer.enter("serve.ann.topk");
        let out = self.inner.top_k(snap, query, k);
        self.tracer.exit(span, out.0.len() as u64, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::{LocalPmem, NodeConfig};
    use oe_net::loopback;
    use oe_pmem::PoolConfig;

    /// The untraced run constructs no decorator: every seam hands back
    /// the very object (or the bare library type) it was given.
    #[test]
    fn plain_seams_are_the_identity() {
        let cfg = NodeConfig::small(4);
        let pool = PoolConfig {
            payload_bytes: cfg.payload_bytes(),
            capacity: 1 << 16,
        };
        let store: Arc<dyn StorageBackend> = Arc::new(LocalPmem::create(pool, &mut Cost::new()));
        let same = Plain.storage(store.clone());
        assert!(Arc::ptr_eq(&store, &same));

        assert_eq!(
            std::any::type_name::<<Plain as Seams>::Engine>(),
            std::any::type_name::<PsNode>()
        );

        let node: Box<dyn PsClient> = Box::new(PsNode::new(cfg));
        let addr = &*node as *const dyn PsClient as *const ();
        let back = Plain.client(node, false);
        assert_eq!(&*back as *const dyn PsClient as *const (), addr);

        let (client_t, _server_t) = loopback(1);
        // `transport` only erases the type; a call reaches the loopback
        // (and fails as disconnected once the server half is gone).
        let t = Plain.transport(client_t);
        drop(_server_t);
        assert!(t.call(Bytes::from_static(b"x"), None).is_err());

        assert_eq!(Plain.retriever().name(), LshRetriever.name());
        assert!(Plain.tracer().is_none());
    }

    #[test]
    fn traced_storage_forwards_and_aggregates() {
        let tracer = Arc::new(Tracer::new(64));
        tracer.set_enabled(true);
        let seams = Traced(tracer.clone());
        let cfg = NodeConfig::small(4);
        let pool = PoolConfig {
            payload_bytes: cfg.payload_bytes(),
            capacity: 1 << 16,
        };
        let store = seams.storage(Arc::new(LocalPmem::create(pool, &mut Cost::new())));
        let node = seams.engine(PsNode::with_storage(cfg, store));
        let mut out = Vec::new();
        let mut cost = Cost::new();
        node.pull(&[1, 2, 3], 1, &mut out, &mut cost);
        node.end_pull_phase(1);
        node.push(&[1, 2, 3], &[0.5; 12], 1, &mut cost);
        node.request_checkpoint(1);
        node.end_pull_phase(2);
        let spans = tracer.take_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"core.node.pull"));
        assert!(names.contains(&"core.node.push"));
        assert!(names.contains(&"core.node.checkpoint"));
        // The checkpoint drain wrote the three dirty rows to storage,
        // as one aggregate under the maintenance span.
        let w = spans
            .iter()
            .find(|s| s.name == "storage.write_slot")
            .expect("flush recorded");
        assert_eq!(w.calls, 3);
        let parent = spans.iter().find(|s| s.id == w.parent).unwrap();
        assert_eq!(parent.name, "core.node.maintain");
        assert_eq!(node.as_node().committed_checkpoint(), 1);
    }
}
