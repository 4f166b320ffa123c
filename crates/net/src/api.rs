//! The backend-agnostic PS client interface.
//!
//! [`PsClient`] is what `train` and `serve` program against: the same
//! pull/push/flush/metrics surface whether the parameter server is an
//! in-process [`PsEngine`] (every engine is a client through one blanket
//! impl), a type-erased engine behind [`EngineClient`], or a
//! [`crate::RemotePs`] on the far side of a (possibly fault-injected)
//! wire. Every operation returns a structured [`Error`] instead of
//! panicking, so the fault-injection suite can run the identical driver
//! against either backend and failures surface as values.
//!
//! Method names are deliberately distinct from [`PsEngine`]'s
//! (`pull_batch` vs `pull`, …): every engine implements both traits,
//! and identical names would make every call ambiguous at use sites
//! that import both.

use crate::error::Error;
use crate::failover::FailoverEvent;
use bytes::Bytes;
use oe_core::engine::{MaintenanceReport, PsEngine};
use oe_core::stats::StatsSnapshot;
use oe_core::{BatchId, Key};
use oe_simdevice::Cost;
use std::sync::Arc;

/// An issued-but-not-completed pull: the pipelined trainer splits a
/// pull into *issue* (during batch t's GPU compute) and *complete*
/// (before batch t+1 consumes the weights). In-process backends defer
/// everything to completion; `RemotePs` does the real issue-side work —
/// minting the idempotence token and borrow-encoding the wire frame —
/// at issue time, so retries of a pipelined pull resend byte-identical
/// frames exactly like the synchronous path.
#[derive(Debug)]
pub struct PullTicket {
    keys: Vec<Key>,
    batch: BatchId,
    /// Pre-encoded `(seq, frame)` for wire backends; `None` defers the
    /// whole pull to completion.
    wire: Option<(u64, Bytes)>,
}

impl PullTicket {
    /// A ticket that defers all work to completion (in-process path).
    pub fn deferred(keys: Vec<Key>, batch: BatchId) -> Self {
        Self {
            keys,
            batch,
            wire: None,
        }
    }

    /// A ticket whose request frame (and idempotence token `seq`) was
    /// already encoded at issue time (wire path).
    pub fn encoded(keys: Vec<Key>, batch: BatchId, seq: u64, frame: Bytes) -> Self {
        Self {
            keys,
            batch,
            wire: Some((seq, frame)),
        }
    }

    /// Keys this pull covers, in request order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Batch the pulled weights are destined for.
    pub fn batch(&self) -> BatchId {
        self.batch
    }

    /// The pre-encoded wire state, if the issue side produced one.
    pub fn wire(&self) -> Option<(u64, &Bytes)> {
        self.wire.as_ref().map(|(seq, frame)| (*seq, frame))
    }
}

/// A fallible, backend-agnostic parameter-server client.
pub trait PsClient: Send + Sync {
    /// Engine identity ("PMem-OE", "DRAM-PS", …).
    fn backend_name(&self) -> String;

    /// Embedding dimension served.
    fn embed_dim(&self) -> usize;

    /// Fetch weights for `keys` into `out` (appended, request order).
    fn pull_batch(
        &self,
        keys: &[Key],
        batch: BatchId,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error>;

    /// Issue a pull without waiting for its result: the pipelined
    /// trainer calls this while a *previous* batch's GPU compute is
    /// still in flight. The default defers everything to
    /// [`PsClient::pull_complete`], which is always correct; wire
    /// backends override to do the retry-sensitive issue-side work
    /// (idempotence token, frame encoding) eagerly.
    fn pull_issue(&self, keys: &[Key], batch: BatchId) -> Result<PullTicket, Error> {
        Ok(PullTicket::deferred(keys.to_vec(), batch))
    }

    /// Complete a pull issued by [`PsClient::pull_issue`], appending the
    /// weights to `out` in ticket key order. `issue` + `complete` must
    /// produce byte-identical weights and cost to a single
    /// [`PsClient::pull_batch`] call over the same keys.
    fn pull_complete(
        &self,
        ticket: PullTicket,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.pull_batch(ticket.keys(), ticket.batch(), out, cost)
    }

    /// All pulls for `batch` done: run deferred maintenance.
    fn flush_batch(&self, batch: BatchId) -> Result<MaintenanceReport, Error>;

    /// Apply pre-aggregated gradients.
    fn push_batch(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error>;

    /// [`PsClient::push_batch`] for a burst the pipelined trainer took
    /// off the critical path. Same state transition; in-process engines
    /// forward it to [`PsEngine::push_async`] so they can account it
    /// separately, everything else inherits the plain push.
    fn push_batch_async(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.push_batch(keys, grads, batch, cost)
    }

    /// Request a checkpoint up to `batch`; returns the inline cost.
    fn checkpoint(&self, batch: BatchId) -> Result<Cost, Error>;

    /// The committed checkpoint id.
    fn committed(&self) -> Result<BatchId, Error>;

    /// Engine counters.
    fn snapshot_stats(&self) -> Result<StatsSnapshot, Error>;

    /// One key's weights, if known (diagnostics).
    fn weights_of(&self, key: Key) -> Result<Option<Vec<f32>>, Error>;

    /// Number of known keys.
    fn key_count(&self) -> Result<usize, Error>;

    /// Telemetry exposition text.
    fn metrics(&self) -> Result<String, Error>;

    /// Collect (and clear) the pending failover event, if the last
    /// error was a completed failover. Backends that cannot fail over
    /// never return one.
    fn failover_resume(&self) -> Option<FailoverEvent> {
        None
    }
}

/// Every in-process [`PsEngine`] is a [`PsClient`]: there is no wire to
/// fail on, so every operation simply succeeds.
impl<E: PsEngine + ?Sized> PsClient for E {
    fn backend_name(&self) -> String {
        self.name().to_string()
    }

    fn embed_dim(&self) -> usize {
        self.dim()
    }

    fn pull_batch(
        &self,
        keys: &[Key],
        batch: BatchId,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.pull(keys, batch, out, cost);
        Ok(())
    }

    fn flush_batch(&self, batch: BatchId) -> Result<MaintenanceReport, Error> {
        Ok(self.end_pull_phase(batch))
    }

    fn push_batch(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.push(keys, grads, batch, cost);
        Ok(())
    }

    fn push_batch_async(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.push_async(keys, grads, batch, cost);
        Ok(())
    }

    fn checkpoint(&self, batch: BatchId) -> Result<Cost, Error> {
        Ok(self.request_checkpoint(batch))
    }

    fn committed(&self) -> Result<BatchId, Error> {
        Ok(self.committed_checkpoint())
    }

    fn snapshot_stats(&self) -> Result<StatsSnapshot, Error> {
        Ok(self.stats())
    }

    fn weights_of(&self, key: Key) -> Result<Option<Vec<f32>>, Error> {
        Ok(self.read_weights(key))
    }

    fn key_count(&self) -> Result<usize, Error> {
        Ok(self.num_keys())
    }

    fn metrics(&self) -> Result<String, Error> {
        Ok(self.metrics_text())
    }
}

/// Adapter: a type-erased `Arc<dyn PsEngine>` as a [`PsClient`], for
/// callers that pick the engine at run time. Delegates to the blanket
/// impl above, except that its async pushes stay plain pushes (a
/// wrapped client, like a wire client, has no out-of-band lane).
pub struct EngineClient {
    engine: Arc<dyn PsEngine>,
}

impl EngineClient {
    /// Wrap an engine.
    pub fn new(engine: Arc<dyn PsEngine>) -> Self {
        Self { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<dyn PsEngine> {
        &self.engine
    }
}

impl PsClient for EngineClient {
    fn backend_name(&self) -> String {
        self.engine.backend_name()
    }

    fn embed_dim(&self) -> usize {
        self.engine.embed_dim()
    }

    fn pull_batch(
        &self,
        keys: &[Key],
        batch: BatchId,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.engine.pull_batch(keys, batch, out, cost)
    }

    fn flush_batch(&self, batch: BatchId) -> Result<MaintenanceReport, Error> {
        self.engine.flush_batch(batch)
    }

    fn push_batch(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        self.engine.push_batch(keys, grads, batch, cost)
    }

    fn checkpoint(&self, batch: BatchId) -> Result<Cost, Error> {
        self.engine.checkpoint(batch)
    }

    fn committed(&self) -> Result<BatchId, Error> {
        self.engine.committed()
    }

    fn snapshot_stats(&self) -> Result<StatsSnapshot, Error> {
        self.engine.snapshot_stats()
    }

    fn weights_of(&self, key: Key) -> Result<Option<Vec<f32>>, Error> {
        self.engine.weights_of(key)
    }

    fn key_count(&self) -> Result<usize, Error> {
        self.engine.key_count()
    }

    fn metrics(&self) -> Result<String, Error> {
        self.engine.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::{NodeConfig, OptimizerKind, PsNode};

    fn node() -> PsNode {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        PsNode::new(cfg)
    }

    fn drive(client: &dyn PsClient) -> Vec<f32> {
        let keys = [1u64, 2, 3];
        let mut cost = Cost::new();
        let mut out = Vec::new();
        client.pull_batch(&keys, 1, &mut out, &mut cost).unwrap();
        client.flush_batch(1).unwrap();
        client.push_batch(&keys, &[0.25; 12], 1, &mut cost).unwrap();
        client.weights_of(2).unwrap().expect("key known")
    }

    #[test]
    fn node_and_adapter_agree() {
        let direct = node();
        let adapted = EngineClient::new(Arc::new(node()));
        assert_eq!(drive(&direct), drive(&adapted));
        assert_eq!(direct.backend_name(), adapted.backend_name());
        assert_eq!(direct.embed_dim(), 4);
        assert_eq!(direct.key_count().unwrap(), 3);
        assert!(direct.failover_resume().is_none());
        assert!(direct.metrics().unwrap().contains("oe_pulls_total"));
    }

    #[test]
    fn only_a_bare_engine_sees_async_pushes() {
        let async_keys = |c: &dyn PsClient| {
            let mut cost = Cost::new();
            c.pull_batch(&[1, 2], 1, &mut Vec::new(), &mut cost)
                .unwrap();
            c.push_batch_async(&[1, 2], &[0.5; 8], 1, &mut cost)
                .unwrap();
            assert_eq!(c.snapshot_stats().unwrap().pushes, 2, "applied either way");
            c.metrics()
                .unwrap()
                .contains("oe_async_applied_keys_total 2")
        };
        assert!(async_keys(&node()), "PsEngine::push_async reached");
        let wrapped = EngineClient::new(Arc::new(node()));
        assert!(!async_keys(&wrapped), "a wrapped client pushes plainly");
    }

    #[test]
    fn issue_complete_matches_pull_batch() {
        let a = node();
        let b = node();
        let keys = [7u64, 3, 11];
        let mut out_sync = Vec::new();
        let mut cost_sync = Cost::new();
        a.pull_batch(&keys, 1, &mut out_sync, &mut cost_sync)
            .unwrap();

        let mut out_split = Vec::new();
        let mut cost_split = Cost::new();
        let ticket = b.pull_issue(&keys, 1).unwrap();
        assert_eq!(ticket.keys(), &keys);
        assert_eq!(ticket.batch(), 1);
        assert!(ticket.wire().is_none(), "in-process path defers encoding");
        b.pull_complete(ticket, &mut out_split, &mut cost_split)
            .unwrap();

        assert_eq!(out_sync, out_split);
        assert_eq!(cost_sync.total_ns(), cost_split.total_ns());
    }

    #[test]
    fn client_is_object_safe() {
        let boxed: Box<dyn PsClient> = Box::new(node());
        assert_eq!(boxed.embed_dim(), 4);
        let arc: Arc<dyn PsClient> = Arc::new(EngineClient::new(Arc::new(node())));
        assert_eq!(arc.committed().unwrap(), 0);
    }
}
