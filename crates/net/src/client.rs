//! The remote PS client: [`RemotePs`] implements the backend-agnostic
//! [`crate::api::PsClient`] over a [`Transport`], so a trainer (or
//! example, or test) can swap a local node for a server on the other
//! side of a wire without any code change — the reproduction of the
//! paper's TensorFlow operators (`PullWeights`, `PushGradients`, …)
//! talking RPC to the backend PS (§V-C). Every failure is a value: no
//! method of `RemotePs` panics on an RPC error, callers decide what an
//! `Err` means.
//!
//! Fault tolerance lives here:
//!
//! - every request carries a fresh `(client, seq)` idempotence token;
//!   **retries reuse the token** (the frame is byte-identical), so the
//!   server's replay cache applies each logical request exactly once;
//! - retryable failures (timeout, corrupt, busy) are retried under the
//!   [`crate::RetryPolicy`] with exponential backoff + seeded jitter,
//!   charged to the caller's virtual-time sink;
//! - a dead primary (`Disconnected`) triggers failover: the next
//!   [`Standby`] in the ordered endpoint list is promoted through
//!   `core::recovery`, and the failing call returns a structured
//!   `Busy` error carrying the rewind point — see
//!   [`crate::failover`] for why failover is not transparent;
//! - a failover *fences* the dead primary's tokens: the swap bumps a
//!   transport generation, so a concurrent call whose token was minted
//!   against the old primary returns `Busy` instead of retrying it
//!   against the rewound standby, and a [`Request::SeqFence`] teaches
//!   the promoted server to reject any straggler outright — a push the
//!   dead primary applied but never acknowledged cannot apply a second
//!   time after the trainer's replay;
//! - retries, timeouts, corrupt frames, failovers, backoff waits, and
//!   recovery latency all land in the client's telemetry registry,
//!   prepended to the [`PsClient::metrics`] exposition.
//!
//! Virtual-time accounting stays exact: server-side storage charges ride
//! back inside each response and are merged into the caller's sink, and
//! the client additionally charges `Net` time per frame byte using the
//! paper's 30 Gb intranet model.

use crate::api::{PsClient, PullTicket};
use crate::codec::{validate_frame, Frame, FrameMeta, Packet, Request, Response, ResponseView};
use crate::config::NetConfig;
use crate::error::{Error, ErrorKind};
use crate::failover::{FailoverEvent, Standby};
use crate::transport::Transport;
use bytes::Bytes;
use oe_core::engine::MaintenanceReport;
use oe_core::stats::StatsSnapshot;
use oe_core::{BatchId, Key};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind};
use oe_telemetry::{Counter, Phase, PhaseTimes, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global client id allocator: distinct `RemotePs` instances
/// never collide in a server's replay cache.
static NEXT_CLIENT_ID: AtomicU32 = AtomicU32::new(1);

/// A PS engine on the far side of a transport.
pub struct RemotePs {
    transport: Mutex<Arc<dyn Transport>>,
    /// Bumped (under the transport lock) every time a failover swaps
    /// the transport. A call records the generation when it mints its
    /// idempotence token; if the generation moved before any attempt,
    /// the token belongs to the dead primary's timeline and must not be
    /// (re)sent — the promoted node was rolled back, the trainer will
    /// replay, and a straggling retry would double-apply.
    transport_gen: AtomicU64,
    standbys: Mutex<VecDeque<Arc<dyn Standby>>>,
    cfg: NetConfig,
    client_id: u32,
    seq: AtomicU64,
    /// Placement epoch this client routes under; stamped on every
    /// pull/push so the server can fence bursts routed by a
    /// pre-migration table. Ratchets up via
    /// [`RemotePs::set_placement_epoch`].
    placement_epoch: AtomicU64,
    dim: usize,
    name: &'static str,
    pending_failover: Mutex<Option<FailoverEvent>>,
    registry: Arc<Registry>,
    retries: Counter,
    timeouts: Counter,
    corrupt: Counter,
    failovers: Counter,
    phases: PhaseTimes,
}

impl std::fmt::Debug for RemotePs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePs")
            .field("name", &self.name)
            .field("client_id", &self.client_id)
            .field("dim", &self.dim)
            .field("standbys", &self.standbys.lock().len())
            .finish_non_exhaustive()
    }
}

impl RemotePs {
    /// Connect: performs the `Hello` handshake to learn the engine's
    /// dimension and identity. An unreachable server or a different
    /// protocol version is an `Err`.
    pub fn try_connect(transport: Arc<dyn Transport>, cfg: NetConfig) -> Result<Self, Error> {
        let registry = Arc::new(Registry::new());
        let retries = registry.counter("client_rpc_retries_total");
        let timeouts = registry.counter("client_rpc_timeouts_total");
        let corrupt = registry.counter("client_rpc_corrupt_total");
        let failovers = registry.counter("client_rpc_failovers_total");
        let phases = PhaseTimes::new(
            &registry,
            "client",
            &[Phase::RetryBackoff, Phase::FailoverRecovery],
        );
        let this = Self {
            transport: Mutex::new(transport),
            transport_gen: AtomicU64::new(0),
            standbys: Mutex::new(VecDeque::new()),
            cfg,
            client_id: NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(1),
            placement_epoch: AtomicU64::new(0),
            dim: 0,
            name: "",
            pending_failover: Mutex::new(None),
            registry,
            retries,
            timeouts,
            corrupt,
            failovers,
            phases,
        };
        let mut scratch = Cost::new();
        let resp = this.call_result(Request::Hello, &mut scratch)?;
        let Response::HelloOk { dim, name } = resp else {
            return Err(Error::rejected(format!(
                "handshake failed: unexpected response {resp:?}"
            )));
        };
        // Engine names are a small closed set; leak once for &'static.
        let name: &'static str = Box::leak(name.into_boxed_str());
        Ok(Self {
            dim: dim as usize,
            name,
            ..this
        })
    }

    /// Append a standby to the ordered failover endpoint list.
    pub fn with_standby(self, standby: Arc<dyn Standby>) -> Self {
        self.standbys.lock().push_back(standby);
        self
    }

    /// The client-side telemetry registry (retry/timeout/corrupt/
    /// failover counters, backoff + recovery histograms).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// This client's id in request idempotence tokens.
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// The placement epoch stamped on this client's pull/push bursts.
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch.load(Ordering::Relaxed)
    }

    /// Announce a placement cutover: ratchet the local epoch and push a
    /// [`Request::PlacementUpdate`] to the server so it starts fencing
    /// bursts still routed under the pre-migration table. Both sides
    /// ratchet upward (`fetch_max`), so a delayed or replayed update for
    /// an older epoch can never roll the fence back. The rebalancer
    /// calls this once per client after the cutover batch completes.
    pub fn set_placement_epoch(&self, epoch: u64) -> Result<(), Error> {
        self.placement_epoch.fetch_max(epoch, Ordering::Relaxed);
        let mut scratch = Cost::new();
        match self.call_result(Request::PlacementUpdate { epoch }, &mut scratch)? {
            Response::Ack { .. } => Ok(()),
            other => Err(Error::rejected(format!(
                "placement update: unexpected response {other:?}"
            ))),
        }
    }

    /// Promote the next standby. On success the current transport is
    /// swapped and a [`FailoverEvent`] is left for the trainer to
    /// collect via [`PsClient::failover_resume`].
    fn failover(&self) -> Result<FailoverEvent, Error> {
        loop {
            let standby = self
                .standbys
                .lock()
                .pop_front()
                .ok_or_else(|| Error::disconnected("primary dead and no standby left"))?;
            match standby.promote() {
                Ok(promo) => {
                    // Fence this client's entire pre-failover sequence
                    // space on the promoted server before exposing the
                    // transport: a token minted against the dead primary
                    // (possibly applied there, and unknown to the fresh
                    // replay cache) must never execute on the rewound
                    // node. Defense in depth alongside the generation
                    // check in `call_result` — it also covers frames
                    // already past that check and sitting in a queue.
                    let floor = self.seq.load(Ordering::Relaxed).saturating_sub(1);
                    let fence_seq = self.seq.fetch_add(1, Ordering::Relaxed);
                    let fence =
                        Packet::request(self.client_id, fence_seq, Request::SeqFence { floor })
                            .encode();
                    let _ = promo.transport.call(fence, self.cfg.deadline);
                    {
                        let mut guard = self.transport.lock();
                        *guard = Arc::clone(&promo.transport);
                        self.transport_gen.fetch_add(1, Ordering::Release);
                    }
                    self.failovers.inc();
                    self.phases
                        .record_ns(Phase::FailoverRecovery, promo.recovery_ns);
                    let event = FailoverEvent {
                        resume_batch: promo.resume_batch,
                        recovery_ns: promo.recovery_ns,
                        recovered_keys: promo.recovered_keys,
                    };
                    *self.pending_failover.lock() = Some(event);
                    return Ok(event);
                }
                // A standby that cannot promote (e.g. media never
                // initialized) is skipped; try the next one.
                Err(_) => continue,
            }
        }
    }

    /// One logical RPC: fresh idempotence token, deadline per attempt,
    /// retry with backoff on retryable failures (same token each time),
    /// failover on a dead primary. The control path: every request
    /// outside the pull/push bursts; a burst-typed reply to one of these
    /// is `Corrupt` ([`Packet::decode`] has no owned form for it).
    fn call_result(&self, req: Request, cost: &mut Cost) -> Result<Response, Error> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let frame = Packet::request(self.client_id, seq, req).encode();
        let (_, reply) = self.call_raw(seq, frame, cost)?;
        match Packet::decode(reply)?.frame {
            Frame::Response(r) => Ok(r),
            // Unreachable: `call_raw` already rejected request-typed
            // replies; kept so the match stays total.
            Frame::Request(_) => Err(Error::corrupt("server sent a request")),
        }
    }

    /// The retry loop shared by owned and zero-copy RPCs: send `frame`
    /// (its token already minted as `seq`), validate each reply frame,
    /// surface structured error replies, and hand the validated bytes
    /// back for the caller to decode — owned or borrowed. Retries
    /// resend the identical bytes, so the server's replay cache sees a
    /// byte-identical token on every attempt.
    fn call_raw(
        &self,
        seq: u64,
        frame: Bytes,
        cost: &mut Cost,
    ) -> Result<(FrameMeta, Bytes), Error> {
        let birth_gen = self.transport_gen.load(Ordering::Acquire);
        let mut attempt = 0u32;
        loop {
            // Read the transport and its generation as one consistent
            // pair (the failover swap bumps the generation under the
            // same lock).
            let (transport, gen) = {
                let guard = self.transport.lock();
                (
                    Arc::clone(&*guard),
                    self.transport_gen.load(Ordering::Acquire),
                )
            };
            if gen != birth_gen {
                // Another thread failed over while this token was alive.
                // Its timeline died with the primary: the promoted node
                // is rolled back to the committed checkpoint and the
                // trainer replays the lost batches with fresh tokens, so
                // retrying this token (which the dead primary may
                // already have applied) would double-apply the update.
                return Err(self.stale_after_failover(seq));
            }
            let outcome = match transport.call(frame.clone(), self.cfg.deadline) {
                Ok(reply) => {
                    self.cfg.charge.charge(frame.len() + reply.len(), cost);
                    match validate_frame(&reply) {
                        // A structured error reply is ours even when
                        // the token is (0,0): the server could not
                        // attribute a corrupted request, but the
                        // per-call reply channel ties it to us.
                        Ok(meta) if meta.msg_type == 0x8F => {
                            match ResponseView::decode(meta, &reply) {
                                Ok(ResponseView::Other(Response::Error { kind, message })) => {
                                    Err(Error::new(kind, message))
                                }
                                Ok(_) => Err(Error::corrupt("malformed error frame")),
                                Err(e) => Err(e),
                            }
                        }
                        Ok(meta) if meta.msg_type < 0x80 => {
                            Err(Error::corrupt("server sent a request"))
                        }
                        Ok(meta) if meta.client == self.client_id && meta.seq == seq => {
                            Ok((meta, reply))
                        }
                        Ok(meta) => Err(Error::corrupt(format!(
                            "response token ({}, {}) does not match request ({}, {seq})",
                            meta.client, meta.seq, self.client_id
                        ))),
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e),
            };
            let err = match outcome {
                Ok(reply) => return Ok(reply),
                Err(err) => err,
            };
            match err.kind() {
                ErrorKind::Timeout => self.timeouts.inc(),
                ErrorKind::Corrupt => self.corrupt.inc(),
                _ => {}
            }
            if err.kind() == ErrorKind::Disconnected {
                // The primary is gone: promote a standby. The promoted
                // node is rolled back to the committed checkpoint, so
                // this call must NOT be retried against it — surface a
                // Busy error carrying the rewind point instead.
                //
                // Unless another thread got there first: then the swap
                // already happened and burning a second standby for the
                // same dead primary would be wrong.
                if self.transport_gen.load(Ordering::Acquire) != birth_gen {
                    return Err(self.stale_after_failover(seq).with_source(err));
                }
                let event = self.failover().map_err(|fe| fe.with_source(err.clone()))?;
                return Err(Error::busy(format!(
                    "failed over to standby; state rolled back to committed checkpoint, \
                     resume from batch {}",
                    event.resume_batch
                ))
                .with_source(err));
            }
            if !err.is_retryable() || attempt >= self.cfg.retry.max_retries {
                return Err(if attempt > 0 {
                    Error::new(
                        err.kind(),
                        format!("retry budget ({attempt} retries) exhausted"),
                    )
                    .with_source(err)
                } else {
                    err
                });
            }
            let backoff = self.cfg.retry.backoff_ns(attempt, seq);
            cost.charge(CostKind::Net, backoff);
            self.phases.record_ns(Phase::RetryBackoff, backoff);
            self.retries.inc();
            attempt += 1;
        }
    }

    /// The structured verdict for a token orphaned by a failover that
    /// happened underneath it: `Busy` (the trainer treats it exactly
    /// like the error the failing-over thread itself received —
    /// collect [`PsClient::failover_resume`], rewind, replay).
    fn stale_after_failover(&self, seq: u64) -> Error {
        match (*self.pending_failover.lock()).map(|e| e.resume_batch) {
            Some(b) => Error::busy(format!(
                "failed over while seq {seq} was in flight; state rolled back to the \
                 committed checkpoint, resume from batch {b}"
            )),
            None => Error::busy(format!(
                "failed over while seq {seq} was in flight; state rolled back to the \
                 committed checkpoint"
            )),
        }
    }

    /// Issue half of a zero-copy pull: mint the idempotence token and
    /// borrow-encode the key burst straight from the caller's slice (no
    /// owned `Request` materialized).
    fn encode_pull(&self, keys: &[Key], batch: BatchId) -> (u64, Bytes) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let epoch = self.placement_epoch.load(Ordering::Relaxed);
        let frame = Packet::encode_pull(self.client_id, seq, epoch, batch, keys);
        (seq, frame)
    }

    /// Completion half: send the frame, view-decode the weights reply
    /// and append the weights directly into `out`.
    fn pull_encoded(
        &self,
        seq: u64,
        frame: Bytes,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        let (meta, reply) = self.call_raw(seq, frame, cost)?;
        match ResponseView::decode(meta, &reply)? {
            ResponseView::Weights { weights, cost: c } => {
                cost.merge(&c);
                weights.extend_into(out);
                Ok(())
            }
            ResponseView::Other(other) => {
                Err(Error::rejected(format!("pull: unexpected {other:?}")))
            }
        }
    }

    /// Entry export (migration plane), see
    /// [`oe_core::PsEngine::export_entry`]. A timeout, corrupt frame, or
    /// failover comes back as an [`Error`] with its [`ErrorKind`] intact.
    pub fn try_export_entry(
        &self,
        key: Key,
        cost: &mut Cost,
    ) -> Result<Option<(BatchId, Vec<f32>)>, Error> {
        match self.call_result(Request::ExportEntry { key }, cost)? {
            Response::Entry(e) => Ok(e),
            other => Err(Error::rejected(format!(
                "export_entry: unexpected {other:?}"
            ))),
        }
    }

    /// Entry import (migration plane), see
    /// [`oe_core::PsEngine::import_entry`].
    pub fn try_import_entry(
        &self,
        key: Key,
        version: BatchId,
        payload: &[f32],
        cost: &mut Cost,
    ) -> Result<bool, Error> {
        let req = Request::ImportEntry {
            key,
            version,
            payload: payload.to_vec(),
        };
        match self.call_result(req, cost)? {
            Response::Ack { cost: c } => {
                cost.merge(&c);
                Ok(true)
            }
            other => Err(Error::rejected(format!(
                "import_entry: unexpected {other:?}"
            ))),
        }
    }

    /// Entry discard (migration plane), see
    /// [`oe_core::PsEngine::discard_entry`].
    pub fn try_discard_entry(&self, key: Key, cost: &mut Cost) -> Result<bool, Error> {
        match self.call_result(Request::DiscardEntry { key }, cost)? {
            Response::Ack { cost: c } => {
                cost.merge(&c);
                Ok(true)
            }
            other => Err(Error::rejected(format!(
                "discard_entry: unexpected {other:?}"
            ))),
        }
    }
}

impl PsClient for RemotePs {
    fn backend_name(&self) -> String {
        self.name.to_string()
    }

    fn embed_dim(&self) -> usize {
        self.dim
    }

    fn pull_batch(
        &self,
        keys: &[Key],
        batch: BatchId,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        let (seq, frame) = self.encode_pull(keys, batch);
        self.pull_encoded(seq, frame, out, cost)
    }

    fn pull_issue(&self, keys: &[Key], batch: BatchId) -> Result<PullTicket, Error> {
        // Token and frame exist *now*, so a retry of the completion
        // resends the byte-identical frame `pull_batch` would have sent.
        let (seq, frame) = self.encode_pull(keys, batch);
        Ok(PullTicket::encoded(keys.to_vec(), batch, seq, frame))
    }

    fn pull_complete(
        &self,
        ticket: PullTicket,
        out: &mut Vec<f32>,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        match ticket.wire() {
            Some((seq, frame)) => self.pull_encoded(seq, frame.clone(), out, cost),
            None => self.pull_batch(ticket.keys(), ticket.batch(), out, cost),
        }
    }

    fn flush_batch(&self, batch: BatchId) -> Result<MaintenanceReport, Error> {
        let mut net_cost = Cost::new();
        match self.call_result(Request::EndPullPhase { batch }, &mut net_cost)? {
            Response::Maintenance {
                entries,
                commits,
                cost: mut c,
            } => {
                c.merge(&net_cost);
                Ok(MaintenanceReport {
                    cost: c,
                    entries_processed: entries,
                    ckpt_commits: commits,
                })
            }
            other => Err(Error::rejected(format!(
                "end_pull_phase: unexpected {other:?}"
            ))),
        }
    }

    fn push_batch(
        &self,
        keys: &[Key],
        grads: &[f32],
        batch: BatchId,
        cost: &mut Cost,
    ) -> Result<(), Error> {
        // Zero-copy: borrow-encode the burst from the caller's slices.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let epoch = self.placement_epoch.load(Ordering::Relaxed);
        let frame = Packet::encode_push(self.client_id, seq, epoch, batch, keys, grads);
        let (meta, reply) = self.call_raw(seq, frame, cost)?;
        match ResponseView::decode(meta, &reply)? {
            ResponseView::Other(Response::Ack { cost: c }) => {
                cost.merge(&c);
                Ok(())
            }
            other => Err(Error::rejected(format!("push: unexpected {other:?}"))),
        }
    }

    fn checkpoint(&self, batch: BatchId) -> Result<Cost, Error> {
        let mut cost = Cost::new();
        match self.call_result(Request::Checkpoint { batch }, &mut cost)? {
            Response::Ack { cost: c } => {
                cost.merge(&c);
                Ok(cost)
            }
            other => Err(Error::rejected(format!("checkpoint: unexpected {other:?}"))),
        }
    }

    fn committed(&self) -> Result<BatchId, Error> {
        let mut scratch = Cost::new();
        match self.call_result(Request::Committed, &mut scratch)? {
            Response::Committed { batch } => Ok(batch),
            other => Err(Error::rejected(format!("committed: unexpected {other:?}"))),
        }
    }

    fn snapshot_stats(&self) -> Result<StatsSnapshot, Error> {
        let mut scratch = Cost::new();
        match self.call_result(Request::Stats, &mut scratch)? {
            Response::Stats(s) => Ok(s),
            other => Err(Error::rejected(format!("stats: unexpected {other:?}"))),
        }
    }

    fn weights_of(&self, key: Key) -> Result<Option<Vec<f32>>, Error> {
        let mut scratch = Cost::new();
        match self.call_result(Request::ReadWeights { key }, &mut scratch)? {
            Response::MaybeWeights(w) => Ok(w),
            other => Err(Error::rejected(format!(
                "read_weights: unexpected {other:?}"
            ))),
        }
    }

    fn key_count(&self) -> Result<usize, Error> {
        let mut scratch = Cost::new();
        match self.call_result(Request::NumKeys, &mut scratch)? {
            Response::Count(n) => Ok(n as usize),
            other => Err(Error::rejected(format!("num_keys: unexpected {other:?}"))),
        }
    }

    fn metrics(&self) -> Result<String, Error> {
        let mut scratch = Cost::new();
        match self.call_result(Request::Metrics, &mut scratch)? {
            Response::Metrics(text) => Ok(format!("{}{}", self.registry.render_text(), text)),
            other => Err(Error::rejected(format!("metrics: unexpected {other:?}"))),
        }
    }

    fn failover_resume(&self) -> Option<FailoverEvent> {
        self.pending_failover.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::RequestView;
    use crate::config::RetryPolicy;
    use crate::fault::{FaultInjector, FaultSpec};
    use crate::server::PsServer;
    use crate::transport::loopback;
    use oe_core::{NodeConfig, OptimizerKind, PsEngine, PsNode};

    fn remote_node() -> (RemotePs, crate::server::ServerHandle) {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
        let (client_t, server_t) = loopback(32);
        let handle = PsServer::spawn(engine, server_t, 4);
        let remote = RemotePs::try_connect(Arc::new(client_t), NetConfig::paper_default()).unwrap();
        (remote, handle)
    }

    #[test]
    fn handshake_learns_identity() {
        let (remote, _h) = remote_node();
        assert_eq!(remote.embed_dim(), 4);
        assert_eq!(remote.backend_name(), "PMem-OE");
        assert!(remote.client_id() > 0);
    }

    #[test]
    fn remote_issue_complete_matches_pull_batch() {
        let (a, _ha) = remote_node();
        let (b, _hb) = remote_node();
        let keys = [9u64, 2, 40];

        let mut out_sync = Vec::new();
        let mut cost_sync = Cost::new();
        a.pull_batch(&keys, 1, &mut out_sync, &mut cost_sync)
            .unwrap();

        let ticket = b.pull_issue(&keys, 1).unwrap();
        let (seq, _frame) = ticket.wire().expect("wire path encodes at issue time");
        let mut out_split = Vec::new();
        let mut cost_split = Cost::new();
        b.pull_complete(ticket, &mut out_split, &mut cost_split)
            .unwrap();

        assert_eq!(out_sync, out_split, "same weights either way");
        assert_eq!(
            cost_sync.total_ns(),
            cost_split.total_ns(),
            "same virtual cost either way"
        );
        // The issue side consumed a seq: the next issue mints a fresh one.
        let next = b.pull_issue(&keys, 2).unwrap();
        assert!(next.wire().unwrap().0 > seq);
    }

    #[test]
    fn remote_training_step_matches_local() {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let local = PsNode::new(cfg);
        let (remote, _h) = remote_node();

        let keys = [1u64, 2, 3];
        let mut lw = Vec::new();
        let mut rw = Vec::new();
        let mut lc = Cost::new();
        let mut rc = Cost::new();
        local.pull(&keys, 1, &mut lw, &mut lc);
        remote.pull_batch(&keys, 1, &mut rw, &mut rc).unwrap();
        assert_eq!(lw, rw, "identical init over the wire");
        assert!(rc.ns(CostKind::Net) > 0, "network time charged");
        assert!(
            rc.ns(CostKind::DramTransfer) >= lc.ns(CostKind::DramTransfer),
            "server-side charges merged back"
        );

        local.end_pull_phase(1);
        remote.flush_batch(1).unwrap();
        let grads = vec![0.5f32; 12];
        local.push(&keys, &grads, 1, &mut lc);
        remote.push_batch(&keys, &grads, 1, &mut rc).unwrap();
        for &k in &keys {
            assert_eq!(local.read_weights(k), remote.weights_of(k).unwrap());
        }
    }

    #[test]
    fn remote_checkpoint_commits() {
        let (remote, _h) = remote_node();
        let keys = [7u64];
        let mut out = Vec::new();
        let mut cost = Cost::new();
        remote.pull_batch(&keys, 1, &mut out, &mut cost).unwrap();
        remote.flush_batch(1).unwrap();
        remote.push_batch(&keys, &[0.1; 4], 1, &mut cost).unwrap();
        remote.checkpoint(1).unwrap();
        remote.pull_batch(&keys, 2, &mut out, &mut cost).unwrap();
        remote.flush_batch(2).unwrap();
        assert_eq!(remote.committed().unwrap(), 1);
        assert_eq!(remote.key_count().unwrap(), 1);
        assert!(remote.snapshot_stats().unwrap().pulls >= 2);
    }

    #[test]
    fn stale_placement_epoch_fences_bursts_until_the_client_catches_up() {
        let (remote, _h) = remote_node();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        remote.pull_batch(&[1], 1, &mut out, &mut cost).unwrap();
        remote.flush_batch(1).unwrap();
        remote.push_batch(&[1], &[0.1; 4], 1, &mut cost).unwrap();

        // The server learns of a cutover this client has not seen yet:
        // its epoch-0 bursts must bounce instead of mutating shards the
        // placement table no longer routes to it.
        let mut scratch = Cost::new();
        remote
            .call_result(Request::PlacementUpdate { epoch: 3 }, &mut scratch)
            .unwrap();
        let err = remote.pull_batch(&[1], 2, &mut out, &mut cost).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Rejected);
        assert!(err.to_string().contains("placement epoch"), "{err}");

        // set_placement_epoch ratchets both sides and bursts flow again.
        remote.set_placement_epoch(3).unwrap();
        assert_eq!(remote.placement_epoch(), 3);
        out.clear();
        remote.pull_batch(&[1], 2, &mut out, &mut cost).unwrap();
        remote.flush_batch(2).unwrap();

        // A delayed update for an older epoch never rolls the fence back.
        remote.set_placement_epoch(1).unwrap();
        assert_eq!(remote.placement_epoch(), 3);
        out.clear();
        remote.pull_batch(&[1], 3, &mut out, &mut cost).unwrap();
    }

    #[test]
    fn migration_rpcs_round_trip() {
        let (remote, _h) = remote_node();
        let keys = [42u64];
        let mut out = Vec::new();
        let mut cost = Cost::new();
        remote.pull_batch(&keys, 1, &mut out, &mut cost).unwrap();
        remote.flush_batch(1).unwrap();
        remote.push_batch(&keys, &[0.25; 4], 1, &mut cost).unwrap();

        let (version, payload) = remote
            .try_export_entry(42, &mut cost)
            .unwrap()
            .expect("materialized entry exports");
        assert!(payload.len() >= 4, "weights plus optimizer state");
        assert_eq!(remote.try_export_entry(999, &mut cost).unwrap(), None);

        assert!(remote.try_discard_entry(42, &mut cost).unwrap());
        assert_eq!(remote.weights_of(42).unwrap(), None, "source forgot it");

        assert!(remote
            .try_import_entry(42, version, &payload, &mut cost)
            .unwrap());
        assert_eq!(
            remote.weights_of(42).unwrap().expect("entry restored")[..],
            payload[..4]
        );
    }

    #[test]
    fn metrics_text_travels_over_the_wire() {
        let (remote, _h) = remote_node();
        let mut out = Vec::new();
        let mut cost = Cost::new();
        remote.pull_batch(&[1, 2], 1, &mut out, &mut cost).unwrap();
        let text = remote.metrics().unwrap();
        assert!(text.contains("rpc_requests_total"), "server side:\n{text}");
        assert!(text.contains("oe_pulls_total 2"), "engine side:\n{text}");
        // Client-side fault-tolerance counters lead the exposition.
        assert!(
            text.contains("client_rpc_retries_total"),
            "client side:\n{text}"
        );
        assert!(text.contains("client_rpc_failovers_total"));
    }

    #[test]
    fn retries_survive_a_lossy_wire() {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
        let (client_t, server_t) = loopback(32);
        let _handle = PsServer::spawn(engine, server_t, 2);
        let faulty = Arc::new(FaultInjector::new(
            Arc::new(client_t),
            FaultSpec::lossy(21, 0.20, 0.05),
        ));
        let remote = RemotePs::try_connect(faulty, NetConfig::paper_default()).unwrap();
        let keys: Vec<u64> = (0..8).collect();
        let mut cost = Cost::new();
        for b in 1..=20 {
            let mut out = Vec::new();
            remote
                .pull_batch(&keys, b, &mut out, &mut cost)
                .expect("pull survives retries");
            assert_eq!(out.len(), 32);
            remote.flush_batch(b).expect("flush survives");
            remote
                .push_batch(&keys, &[0.1; 32], b, &mut cost)
                .expect("push survives");
        }
        let snap = remote.registry().snapshot();
        let retried = snap.counter("client_rpc_retries_total").unwrap_or(0);
        assert!(retried > 0, "a 20% drop schedule must force retries");
        assert!(
            cost.ns(CostKind::Net) > 0,
            "backoff waits charged to virtual time"
        );
        // Exactly-once despite the storm: every batch's push applied
        // exactly once (SGD lr=1, grad 0.1 × 20 batches).
        let w = remote.weights_of(0).unwrap().expect("key exists");
        let expect = oe_core::init::init_weight(42, 0, 0, 0.01) - 0.1 * 20.0;
        assert!(
            (w[0] - expect).abs() < 1e-5,
            "{} vs {expect} — retries must not double-apply",
            w[0]
        );
    }

    #[test]
    fn kill_between_send_and_ack_never_double_applies() {
        use crate::failover::CheckpointReplica;
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        use std::time::Duration;

        // A wire that delivers one doomed push to the primary but loses
        // the ack with the dying machine, then reports the primary dead.
        struct AckEater {
            inner: Arc<dyn Transport>,
            doomed: AtomicBool,
            applied: Mutex<mpsc::Sender<()>>,
            release: Mutex<mpsc::Receiver<()>>,
        }
        impl Transport for AckEater {
            fn call(&self, frame: Bytes, deadline: Option<Duration>) -> Result<Bytes, Error> {
                let view = validate_frame(&frame).and_then(|m| RequestView::decode(m, &frame));
                match view {
                    Ok(RequestView::Push { batch: 2, .. })
                        if self.doomed.swap(false, Ordering::SeqCst) =>
                    {
                        // The primary applies the push…
                        let _ = self.inner.call(frame.clone(), deadline);
                        // …then dies before the ack gets out. Hold
                        // the caller until the failover elsewhere
                        // completes, then report the lost ack.
                        self.applied.lock().send(()).unwrap();
                        self.release.lock().recv().unwrap();
                        return Err(Error::timeout("ack lost in the crash"));
                    }
                    Ok(RequestView::Other(Request::Committed)) => {
                        return Err(Error::disconnected("primary dead"));
                    }
                    _ => {}
                }
                self.inner.call(frame, deadline)
            }
        }

        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let node = PsNode::new(cfg.clone());
        let media = Arc::clone(node.pool().media());
        let engine: Arc<dyn PsEngine> = Arc::new(node);
        let (client_t, server_t) = loopback(32);
        let _primary = PsServer::spawn(engine, server_t, 2);
        let (applied_tx, applied_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let eater = Arc::new(AckEater {
            inner: Arc::new(client_t),
            doomed: AtomicBool::new(true),
            applied: Mutex::new(applied_tx),
            release: Mutex::new(release_rx),
        });
        let replica = Arc::new(CheckpointReplica::new(media, cfg, 2, 4, 5));
        let remote = RemotePs::try_connect(eater, NetConfig::paper_default())
            .unwrap()
            .with_standby(replica);

        // Batch 1 trains and checkpoints; batch 2's maintenance commits.
        let keys = [5u64];
        let mut cost = Cost::new();
        let mut out = Vec::new();
        remote.pull_batch(&keys, 1, &mut out, &mut cost).unwrap();
        remote.flush_batch(1).unwrap();
        remote.push_batch(&keys, &[1.0; 4], 1, &mut cost).unwrap();
        remote.checkpoint(1).unwrap();
        out.clear();
        remote.pull_batch(&keys, 2, &mut out, &mut cost).unwrap();
        remote.flush_batch(2).unwrap();
        let w_committed = remote.weights_of(5).unwrap().unwrap();

        // The doomed push: applied by the primary, ack never arrives,
        // primary found dead by a concurrent call, standby promoted.
        std::thread::scope(|s| {
            let doomed = s.spawn(|| {
                let mut cost = Cost::new();
                remote.push_batch(&keys, &[1.0; 4], 2, &mut cost)
            });
            applied_rx.recv().unwrap();
            let err = remote.committed().unwrap_err();
            assert_eq!(
                err.kind(),
                ErrorKind::Busy,
                "failover surfaces rewind: {err}"
            );
            release_tx.send(()).unwrap();
            let err = doomed.join().unwrap().unwrap_err();
            // The regression: this retry used to go out with its old
            // token against the promoted server's empty replay cache
            // and re-execute the already-applied push.
            assert_eq!(
                err.kind(),
                ErrorKind::Busy,
                "stale token must be orphaned, not retried: {err}"
            );
        });
        let event = remote.failover_resume().expect("failover recorded");
        assert_eq!(event.resume_batch, 1);

        // The promoted node holds exactly the committed checkpoint —
        // the doomed push died with the primary.
        assert_eq!(remote.weights_of(5).unwrap().unwrap(), w_committed);

        // The trainer's replay of batch 2 (fresh tokens, past the
        // fence) lands the push exactly once.
        out.clear();
        remote.pull_batch(&keys, 2, &mut out, &mut cost).unwrap();
        remote.flush_batch(2).unwrap();
        remote.push_batch(&keys, &[1.0; 4], 2, &mut cost).unwrap();
        let w = remote.weights_of(5).unwrap().unwrap();
        for d in 0..4 {
            assert!(
                (w[d] - (w_committed[d] - 1.0)).abs() < 1e-6,
                "dim {d}: {} vs {} — the replayed push must apply exactly once",
                w[d],
                w_committed[d] - 1.0
            );
        }
    }

    #[test]
    fn a_weights_burst_in_reply_to_a_control_rpc_is_corrupt() {
        // A confused peer answers `Committed` (type 0x05) with a sealed,
        // correctly tokened weights burst: a structured error, no panic.
        use std::time::Duration;
        struct Confused(Arc<dyn Transport>);
        impl Transport for Confused {
            fn call(&self, frame: Bytes, deadline: Option<Duration>) -> Result<Bytes, Error> {
                let meta = validate_frame(&frame)?;
                if meta.msg_type == 0x05 {
                    let cost = Cost::new();
                    return Ok(Packet::encode_weights_response(
                        meta.client,
                        meta.seq,
                        &[1.0; 4],
                        &cost,
                    ));
                }
                self.0.call(frame, deadline)
            }
        }
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
        let (client_t, server_t) = loopback(32);
        let _handle = PsServer::spawn(engine, server_t, 2);
        let remote = RemotePs::try_connect(
            Arc::new(Confused(Arc::new(client_t))),
            NetConfig::paper_default(),
        )
        .unwrap();
        let err = remote.committed().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Corrupt, "{err}");
        assert!(err.to_string().contains("burst message type"), "{err}");
        // Bursts and other control RPCs are unaffected.
        let mut out = Vec::new();
        remote
            .pull_batch(&[1], 1, &mut out, &mut Cost::new())
            .unwrap();
        assert_eq!(remote.key_count().unwrap(), 1);
    }

    #[test]
    fn migration_rpcs_return_structured_errors() {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
        let (client_t, server_t) = loopback(32);
        let _handle = PsServer::spawn(engine, server_t, 2);
        let inj = Arc::new(FaultInjector::new(Arc::new(client_t), FaultSpec::none(11)));
        let remote = RemotePs::try_connect(
            Arc::clone(&inj) as Arc<dyn Transport>,
            NetConfig::paper_default(),
        )
        .unwrap();
        let mut cost = Cost::new();
        assert_eq!(remote.try_export_entry(1, &mut cost).unwrap(), None);

        // Primary dies with no standby configured: a structured verdict.
        inj.kill();
        let err = remote.try_discard_entry(1, &mut cost).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Disconnected);
        assert!(err.to_string().contains("no standby"), "{err}");
        let err = remote
            .try_import_entry(1, 1, &[0.0; 4], &mut cost)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Disconnected);
    }

    #[test]
    fn retry_budget_exhaustion_is_structured() {
        let (client_t, _server_t) = loopback(4);
        // Server never runs: every call times out. Keep the server half
        // alive so the channel stays open (Timeout, not Disconnected).
        let remote = RemotePs::try_connect(
            Arc::new(client_t),
            NetConfig::paper_default()
                .with_deadline(Some(std::time::Duration::from_millis(10)))
                .with_retry(RetryPolicy {
                    max_retries: 2,
                    base_backoff_ns: 1_000,
                    max_backoff_ns: 2_000,
                    jitter_seed: 1,
                }),
        );
        let err = remote.expect_err("no server: handshake must fail");
        assert_eq!(err.kind(), ErrorKind::Timeout);
        assert!(err.context().contains("retry budget"), "{err}");
        assert!(err.root_cause().context().contains("no response"), "{err}");
    }
}
