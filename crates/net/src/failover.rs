//! Checkpoint-driven failover: the [`Standby`] a [`crate::RemotePs`]
//! promotes when the primary dies.
//!
//! The paper's failure story (§V-C, §VI-E) is that a PS node's state
//! lives in PMem, so a replacement restores by *scanning* the committed
//! checkpoint in place instead of replaying a remote checkpoint file —
//! orders of magnitude faster at 500 GB scale (Fig. 14). A [`Standby`]
//! holds the [`DurableHome`] of the primary's bytes; on promotion it runs
//! `core::recovery::restore` (settle the torn writes, slot scan, index
//! rebuild, post-checkpoint versions discarded), spawns a fresh
//! [`PsServer`] over the recovered node, and reports the virtual
//! recovery time so the trainer can charge it on the clock. The two
//! homes differ only inside the routine: local media is crash-imaged and
//! scanned on the standby's threads; a `SharedPool` partition is scanned
//! near the pool, ships a 16 B/entry index summary and is re-attached.
//!
//! Failover is deliberately *not* transparent: the promoted node's
//! state is rolled back to the last committed checkpoint, so completing
//! the in-flight call against it would splice a half-applied batch onto
//! a rewound timeline. Instead [`FailoverEvent::resume_batch`] tells the
//! caller where the surviving timeline ends; the trainer rewinds to
//! `resume_batch + 1` and replays — deterministic gradients make the
//! replay bit-identical to a fault-free run.

use crate::error::Error;
use crate::server::PsServer;
use crate::transport::{loopback, Transport};
use oe_core::recovery::{restore, DurableHome};
use oe_core::{BatchId, NodeConfig};
use oe_simdevice::Nanos;
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
    /// Where the surviving timeline ends and what recovery cost.
    pub event: FailoverEvent,
}

impl std::fmt::Debug for Promotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promotion")
            .field("event", &self.event)
            .finish_non_exhaustive()
    }
}

/// A standby endpoint: restores the primary's committed checkpoint from
/// wherever its durable bytes live, then serves.
pub struct Standby {
    home: Arc<dyn DurableHome>,
    cfg: NodeConfig,
    /// Server worker threads for the promoted node.
    service_threads: usize,
    /// Seed for the torn-write resolution of the primary's bytes.
    crash_seed: u64,
}

impl Standby {
    /// A standby over the primary's bytes in `home`. `cfg` must match
    /// the primary's pool layout (same dim/optimizer); a mismatch is
    /// refused at promotion.
    pub fn new(
        home: Arc<dyn DurableHome>,
        cfg: NodeConfig,
        service_threads: usize,
        crash_seed: u64,
    ) -> Self {
        Self {
            home,
            cfg,
            service_threads,
            crash_seed,
        }
    }

    /// Restore state and start serving. Charges nothing to the caller
    /// directly — the virtual recovery time rides in the returned
    /// [`Promotion`]. A refusal is `Rejected`, with the reason.
    pub fn promote(&self) -> Result<Promotion, Error> {
        let restored =
            restore(&*self.home, self.cfg.clone(), self.crash_seed).map_err(Error::rejected)?;
        let event = FailoverEvent {
            resume_batch: restored.report.resume_batch,
            recovery_ns: restored.recovery_ns,
            recovered_keys: restored.report.scan.live.len(),
        };
        // The workers detach; they exit when the client drops its end.
        let (client_t, server_t) = loopback(32);
        drop(PsServer::spawn(
            Arc::new(restored.node),
            server_t,
            self.service_threads.max(1),
        ));
        Ok(Promotion {
            transport: Arc::new(client_t),
            event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::recovery::LocalMedia;
    use oe_core::{OptimizerKind, PsEngine, PsNode};
    use oe_simdevice::{Cost, Media};

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

    fn local(media: &Arc<Media>, scan_threads: u32) -> Arc<dyn DurableHome> {
        Arc::new(LocalMedia::new(Arc::clone(media), scan_threads))
    }

    #[test]
    fn replica_promotes_to_committed_checkpoint() {
        let primary = PsNode::new(cfg());
        let keys: Vec<u64> = (0..16).collect();
        step(&primary, &keys, 1);
        primary.request_checkpoint(1);
        step(&primary, &keys, 2); // commits 1 during maintenance
        step(&primary, &keys, 3); // uncommitted progress, lost on crash
        let replica = Standby::new(local(primary.pool().media(), 4), cfg(), 2, 99);
        let promo = replica.promote().expect("promotes");
        // Pinned at the commit before the two standbys became one.
        assert_eq!(
            promo.event,
            FailoverEvent {
                resume_batch: 1,
                recovery_ns: 11_293,
                recovered_keys: 16,
            }
        );
        // The promoted server answers over its transport with the
        // checkpoint-committed state.
        use crate::codec::tests::control_packet;
        use crate::codec::{Frame, Packet, Request, Response};
        let resp = control_packet(
            &promo
                .transport
                .call(Packet::request(1, 1, Request::Committed).encode(), None)
                .unwrap(),
        );
        assert_eq!(
            resp.frame,
            Frame::Response(Response::Committed { batch: 1 })
        );
    }

    #[test]
    fn uninitialized_replica_refuses_promotion() {
        let media = Arc::new(Media::new(oe_simdevice::MediaConfig::pmem(4096)));
        let replica = Standby::new(local(&media, 1), cfg(), 1, 0);
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
            Standby::new(local(primary.pool().media(), threads), cfg(), 1, 7)
                .promote()
                .unwrap()
                .event
                .recovery_ns
        };
        let serial = promote_with(1);
        let parallel = promote_with(8);
        assert!(parallel < serial, "{parallel} vs {serial}");
    }
}
