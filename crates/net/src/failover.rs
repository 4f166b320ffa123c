//! Checkpoint-driven failover: standby endpoints that a
//! [`crate::RemotePs`] promotes when the primary dies.
//!
//! The paper's failure story (§V-C, §VI-E) is that a PS node's state
//! lives in PMem, so a replacement restores by *scanning* the committed
//! checkpoint in place instead of replaying a remote checkpoint file —
//! orders of magnitude faster at 500 GB scale (Fig. 14). The same
//! economics drive this module: a [`CheckpointReplica`] holds a handle
//! to the primary's persistent media; on promotion it takes a
//! crash-consistent image, runs `core::recovery::recover_node` (slot
//! scan + index rebuild, discarding post-checkpoint versions), spawns a
//! fresh [`PsServer`] over the recovered node, and reports the virtual
//! recovery time under the paper's contention model so the trainer can
//! charge it on the clock.
//!
//! Failover is deliberately *not* transparent: the promoted node's
//! state is rolled back to the last committed checkpoint, so completing
//! the in-flight call against it would splice a half-applied batch onto
//! a rewound timeline. Instead [`Promotion::resume_batch`] tells the
//! caller where the surviving timeline ends; the trainer rewinds to
//! `resume_batch + 1` and replays — deterministic gradients make the
//! replay bit-identical to a fault-free run.

use crate::error::Error;
use crate::server::{PsServer, ServerHandle};
use crate::transport::{loopback, Transport};
use oe_core::engine::PsEngine;
use oe_core::recovery::recover_node;
use oe_core::{BatchId, NodeConfig};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{ContentionModel, Cost, Media, Nanos};
use std::sync::Arc;

/// What a completed failover means for the caller's timeline: recorded
/// by the client at promotion, collected by the trainer via
/// `PsClient::failover_resume` to rewind and charge the recovery pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Batch id the surviving timeline ends at; resume at `+ 1`.
    pub resume_batch: BatchId,
    /// Virtual recovery time to charge on the clock.
    pub recovery_ns: Nanos,
    /// Keys restored from the checkpoint.
    pub recovered_keys: usize,
}

/// Outcome of promoting a standby to primary.
pub struct Promotion {
    /// Transport to the newly promoted server.
    pub transport: Arc<dyn Transport>,
    /// Batch id the surviving timeline ends at (the committed
    /// checkpoint); training resumes at `resume_batch + 1`.
    pub resume_batch: BatchId,
    /// Virtual recovery time (checkpoint scan + index rebuild under
    /// the recovery contention model).
    pub recovery_ns: Nanos,
    /// Keys restored from the checkpoint.
    pub recovered_keys: usize,
}

impl std::fmt::Debug for Promotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promotion")
            .field("resume_batch", &self.resume_batch)
            .field("recovery_ns", &self.recovery_ns)
            .field("recovered_keys", &self.recovered_keys)
            .finish_non_exhaustive()
    }
}

/// A standby endpoint that can be promoted to primary.
pub trait Standby: Send + Sync {
    /// Restore state and start serving. Charges nothing to the caller
    /// directly — the virtual recovery time rides in the returned
    /// [`Promotion`].
    fn promote(&self) -> Result<Promotion, Error>;
}

/// A standby backed by the primary's persistent media: restores through
/// `core::recovery` from the last committed checkpoint.
pub struct CheckpointReplica {
    media: Arc<Media>,
    cfg: NodeConfig,
    /// Server worker threads for the promoted node.
    service_threads: usize,
    /// Threads parallelizing the recovery scan (the paper notes
    /// recovery parallelizes by partitioning, §VI-E).
    recovery_threads: u32,
    /// Seed for the crash image's torn-write resolution.
    crash_seed: u64,
    /// Keeps the promoted server's workers alive for the replica's
    /// lifetime.
    handle: Mutex<Option<ServerHandle>>,
}

impl CheckpointReplica {
    /// Build a standby over the primary's media. `cfg` must match the
    /// primary's pool layout (same dim/optimizer), exactly as any
    /// recovery must.
    pub fn new(
        media: Arc<Media>,
        cfg: NodeConfig,
        service_threads: usize,
        recovery_threads: u32,
        crash_seed: u64,
    ) -> Self {
        Self {
            media,
            cfg,
            service_threads,
            recovery_threads,
            crash_seed,
            handle: Mutex::new(None),
        }
    }
}

impl Standby for CheckpointReplica {
    fn promote(&self) -> Result<Promotion, Error> {
        // Crash-consistent image of the dead primary's PMem: pending
        // (un-flushed) lines resolve to torn writes exactly as a real
        // power cut would leave them.
        let image = self.media.crash(self.crash_seed);
        let media = Arc::new(Media::from_crash(image));
        let mut cost = Cost::new();
        let (node, report) = recover_node(media, self.cfg.clone(), &mut cost).ok_or_else(|| {
            Error::rejected("standby media holds no initialized pool (nothing ever flushed)")
        })?;
        let recovery_ns = recovery_burst_ns(&cost, self.recovery_threads);
        let recovered_keys = report.scan.live.len();
        let resume_batch = report.resume_batch;
        let (transport, handle) = spawn_promoted(Arc::new(node), self.service_threads);
        *self.handle.lock() = Some(handle);
        Ok(Promotion {
            transport,
            resume_batch,
            recovery_ns,
            recovered_keys,
        })
    }
}

/// Spin up a freshly recovered engine behind a loopback transport —
/// the serving tail every standby flavour shares (checkpoint replicas
/// here, pool-resident standbys in `oe-pool`). Returns the client-side
/// transport plus the [`ServerHandle`] keeping the workers alive; the
/// standby must hold the handle for its lifetime.
pub fn spawn_promoted(
    engine: Arc<dyn PsEngine>,
    service_threads: usize,
) -> (Arc<dyn Transport>, ServerHandle) {
    let (client_t, server_t) = loopback(32);
    let handle = PsServer::spawn(engine, server_t, service_threads.max(1));
    (Arc::new(client_t), handle)
}

/// Virtual recovery time for a recovery `cost` parallelized over
/// `threads` scan partitions — the same contention treatment
/// `train::failure` applies to in-process crash recovery, shared here
/// so RPC failover and local recovery charge identically.
pub fn recovery_burst_ns(cost: &Cost, threads: u32) -> Nanos {
    ContentionModel::new(threads.max(1), 1).burst_ns(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::{OptimizerKind, PsNode};

    fn cfg() -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        c
    }

    fn step(n: &PsNode, keys: &[u64], b: u64) {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(keys, b, &mut out, &mut cost);
        n.end_pull_phase(b);
        n.push(keys, &vec![0.5; keys.len() * 4], b, &mut cost);
    }

    #[test]
    fn replica_promotes_to_committed_checkpoint() {
        let primary = PsNode::new(cfg());
        let keys: Vec<u64> = (0..16).collect();
        step(&primary, &keys, 1);
        primary.request_checkpoint(1);
        step(&primary, &keys, 2); // commits 1 during maintenance
        step(&primary, &keys, 3); // uncommitted progress, lost on crash
        let replica = CheckpointReplica::new(Arc::clone(primary.pool().media()), cfg(), 2, 4, 99);
        let promo = replica.promote().expect("promotes");
        assert_eq!(promo.resume_batch, 1);
        assert_eq!(promo.recovered_keys, 16);
        assert!(promo.recovery_ns > 0, "recovery charges virtual time");
        // The promoted server answers over its transport with the
        // checkpoint-committed state.
        use crate::codec::{Frame, Packet, Request, Response};
        let resp = Packet::decode(
            promo
                .transport
                .call(Packet::request(1, 1, Request::Committed).encode(), None)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            resp.frame,
            Frame::Response(Response::Committed { batch: 1 })
        );
    }

    #[test]
    fn uninitialized_replica_refuses_promotion() {
        let media = Arc::new(Media::new(oe_simdevice::MediaConfig::pmem(4096)));
        let replica = CheckpointReplica::new(media, cfg(), 1, 1, 0);
        let err = replica.promote().unwrap_err();
        assert!(!err.is_retryable(), "no state to restore: not retryable");
    }

    #[test]
    fn parallel_recovery_is_charged_less() {
        let primary = PsNode::new(cfg());
        let keys: Vec<u64> = (0..300).collect();
        step(&primary, &keys, 1);
        primary.request_checkpoint(1);
        step(&primary, &keys, 2);
        let promote_with = |threads: u32| {
            CheckpointReplica::new(Arc::clone(primary.pool().media()), cfg(), 1, threads, 7)
                .promote()
                .unwrap()
                .recovery_ns
        };
        let serial = promote_with(1);
        let parallel = promote_with(8);
        assert!(parallel < serial, "{parallel} vs {serial}");
    }
}
