//! The PS server event loop: N worker threads decode request packets,
//! execute them against any [`PsEngine`], and reply — the reproduction
//! of the paper's "multiple threads pre-allocated to handle the
//! concurrent pull requests coming from the network" (§V-A, Fig. 5) —
//! now with exactly-once semantics for retried and duplicated
//! requests.
//!
//! ## Replay cache
//!
//! Every request carries a `(client, seq)` idempotence token. Mutating
//! requests (pull, push, end-pull, checkpoint) record their encoded
//! response in a bounded replay cache keyed by that token; when a retry
//! or a duplicated frame arrives with a token already present, the
//! server returns the cached bytes without re-executing — a retried
//! push applies its gradients exactly once no matter how many copies of
//! the frame arrive. Reads are naturally idempotent and bypass the
//! cache. The cache is bounded FIFO: tokens are only ever retried
//! within a retry budget of their first attempt, so old entries are
//! safe to evict.
//!
//! ## Sequence fences
//!
//! A freshly promoted standby starts with an *empty* replay cache, so a
//! stale retry minted against the dead primary would re-execute there —
//! on a node that was just rolled back to the committed checkpoint and
//! whose lost batches the trainer is about to replay with fresh tokens.
//! [`Request::SeqFence`] closes that hole: the failing-over client
//! fences its entire pre-failover sequence space, and the server
//! answers any mutating request at or below the recorded floor with a
//! `Rejected` error instead of executing it. Floors only ratchet
//! upward and are tracked per client id.
//!
//! ## Placement epochs
//!
//! Live migration (`oe-cluster`) changes which node owns a key; a
//! client routing under a pre-cutover table would read or write keys
//! that have already moved away. Every pull/push carries the placement
//! epoch it was routed under; the server tracks the cluster epoch
//! ([`Request::PlacementUpdate`], an upward ratchet like the seq fence)
//! and rejects *fresh* bursts from older epochs. The order of checks is
//! load-bearing: the replay cache is consulted **before** the epoch
//! check, so a retry of a mutation that already executed pre-cutover
//! still gets its original cached response — exactly-once survives the
//! epoch bump — while an unexecuted stale burst is refused and the
//! client must re-route under the new table.

use crate::codec::{validate_frame, Packet, Request, RequestView, Response};
use crate::error::ErrorKind;
use crate::transport::ServerTransport;
use bytes::Bytes;
use oe_core::engine::PsEngine;
use oe_core::{ScratchPool, Shape};
use oe_simdevice::sync::Mutex;
use oe_simdevice::Cost;
use oe_telemetry::{Phase, PhaseTimes, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Replay-cache capacity: far beyond any in-flight retry window (a
/// client retries a token at most `max_retries` times immediately
/// after issuing it).
const REPLAY_CAPACITY: usize = 4096;

/// Bounded FIFO map from idempotence token to the encoded response.
struct ReplayCache {
    map: HashMap<(u32, u64), Bytes>,
    order: VecDeque<(u32, u64)>,
}

impl ReplayCache {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, token: (u32, u64)) -> Option<Bytes> {
        self.map.get(&token).cloned()
    }

    fn insert(&mut self, token: (u32, u64), encoded: Bytes) {
        if self.map.insert(token, encoded).is_none() {
            self.order.push_back(token);
            while self.order.len() > REPLAY_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// A running server; joins its workers on [`ServerHandle::join`].
pub struct ServerHandle {
    workers: Vec<JoinHandle<u64>>,
    registry: Arc<Registry>,
}

impl ServerHandle {
    /// Wait for every worker to exit (they exit when all clients have
    /// disconnected). Returns the total requests served.
    pub fn join(self) -> u64 {
        self.workers
            .into_iter()
            .map(|w| w.join().expect("server worker panicked"))
            .sum()
    }

    /// The server's own telemetry registry (request counters, decode
    /// failures, replay hits, per-request decode/execute wall-clock
    /// latencies).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }
}

/// The PS server.
pub struct PsServer;

impl PsServer {
    /// Spawn `threads` workers serving `engine` from `transport`.
    pub fn spawn(
        engine: Arc<dyn PsEngine>,
        transport: ServerTransport,
        threads: usize,
    ) -> ServerHandle {
        let registry = Arc::new(Registry::new());
        let requests = registry.counter("rpc_requests_total");
        let decode_errors = registry.counter("rpc_decode_errors_total");
        let replay_hits = registry.counter("rpc_replay_hits_total");
        let stale_rejects = registry.counter("rpc_stale_seq_rejections_total");
        let placement_updates = registry.counter("rpc_placement_updates_total");
        let epoch_rejects = registry.counter("rpc_stale_epoch_rejections_total");
        let placement_epoch = Arc::new(AtomicU64::new(0));
        let phases = Arc::new(PhaseTimes::new(
            &registry,
            "rpc",
            &[Phase::RpcDecode, Phase::RpcExecute],
        ));
        let replay = Arc::new(Mutex::new(ReplayCache::new()));
        let seq_floors: Arc<Mutex<HashMap<u32, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let workers = (0..threads.max(1))
            .map(|_| {
                let engine = Arc::clone(&engine);
                let rx = transport.clone();
                let registry = Arc::clone(&registry);
                let requests = requests.clone();
                let decode_errors = decode_errors.clone();
                let replay_hits = replay_hits.clone();
                let stale_rejects = stale_rejects.clone();
                let placement_updates = placement_updates.clone();
                let epoch_rejects = epoch_rejects.clone();
                let placement_epoch = Arc::clone(&placement_epoch);
                let phases = Arc::clone(&phases);
                let replay = Arc::clone(&replay);
                let seq_floors = Arc::clone(&seq_floors);
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    // Per-worker arena pool: a request's keys and grads
                    // are copied once, wire bytes → recycled scratch,
                    // and the steady state allocates nothing per call.
                    let scratch = ScratchPool::new();
                    while let Some((req, reply)) = rx.recv() {
                        served += 1;
                        requests.inc();
                        // Validate the frame (magic/version/checksum)
                        // and decode the hot-path bursts as borrowed
                        // views over the request bytes; only non-burst
                        // requests materialize owned bodies.
                        let decoded = {
                            let _span = phases.span(Phase::RpcDecode);
                            validate_frame(&req).map(|meta| (meta, RequestView::decode(meta, &req)))
                        };
                        // An undecodable frame still gets a reply: the
                        // client is blocked waiting on this call, and
                        // silence would cost it a full deadline. A
                        // corrupted packet's token is untrustworthy, so
                        // the error reply carries token (0, 0) and is
                        // never cached.
                        let encoded = match decoded {
                            Ok((meta, view)) => {
                                let token = (meta.client, meta.seq);
                                match view {
                                    Ok(RequestView::Other(Request::Metrics)) => {
                                        let mut text = registry.render_text();
                                        text.push_str(&engine.metrics_text());
                                        Packet::response(token.0, token.1, Response::Metrics(text))
                                            .encode()
                                    }
                                    Ok(RequestView::Other(Request::SeqFence { floor })) => {
                                        // Ratchet only upward: a delayed
                                        // duplicate of an older fence must
                                        // not reopen already-fenced seqs.
                                        let mut floors = seq_floors.lock();
                                        let f = floors.entry(token.0).or_insert(0);
                                        *f = (*f).max(floor);
                                        Packet::response(
                                            token.0,
                                            token.1,
                                            Response::Ack { cost: Cost::new() },
                                        )
                                        .encode()
                                    }
                                    Ok(RequestView::Other(Request::PlacementUpdate { epoch })) => {
                                        // Upward ratchet, like the seq
                                        // fence: a replayed stale update
                                        // is a harmless no-op.
                                        placement_epoch.fetch_max(epoch, Ordering::SeqCst);
                                        placement_updates.inc();
                                        Packet::response(
                                            token.0,
                                            token.1,
                                            Response::Ack { cost: Cost::new() },
                                        )
                                        .encode()
                                    }
                                    Ok(view) => {
                                        let fenced = view.is_mutating()
                                            && seq_floors
                                                .lock()
                                                .get(&token.0)
                                                .is_some_and(|&floor| token.1 <= floor);
                                        if fenced {
                                            // Never cached: the reject is
                                            // stateless and the token's
                                            // owner has already moved on.
                                            stale_rejects.inc();
                                            Packet::response(
                                                token.0,
                                                token.1,
                                                Response::Error {
                                                    kind: ErrorKind::Rejected,
                                                    message: format!(
                                                        "seq {} at or below fence floor: \
                                                         token predates a failover",
                                                        token.1
                                                    ),
                                                },
                                            )
                                            .encode()
                                        } else {
                                            let cached = if view.is_mutating() {
                                                replay.lock().get(token)
                                            } else {
                                                None
                                            };
                                            let server_epoch =
                                                placement_epoch.load(Ordering::SeqCst);
                                            match cached {
                                                Some(bytes) => {
                                                    // Cached ⇒ already
                                                    // executed; answer the
                                                    // retry even if the
                                                    // placement epoch has
                                                    // moved on since.
                                                    replay_hits.inc();
                                                    bytes
                                                }
                                                None if view
                                                    .epoch()
                                                    .is_some_and(|e| e < server_epoch) =>
                                                {
                                                    // Never cached: the
                                                    // client re-routes and
                                                    // re-sends under the
                                                    // current table.
                                                    epoch_rejects.inc();
                                                    Packet::response(
                                                        token.0,
                                                        token.1,
                                                        Response::Error {
                                                            kind: ErrorKind::Rejected,
                                                            message:
                                                                "stale placement epoch: burst \
                                                                 routed under a pre-migration \
                                                                 table"
                                                                    .to_string(),
                                                        },
                                                    )
                                                    .encode()
                                                }
                                                None => {
                                                    let mutating = view.is_mutating();
                                                    let bytes = {
                                                        let _span = phases.span(Phase::RpcExecute);
                                                        Self::execute_view(
                                                            engine.as_ref(),
                                                            token,
                                                            view,
                                                            &scratch,
                                                        )
                                                    };
                                                    if mutating {
                                                        replay.lock().insert(token, bytes.clone());
                                                    }
                                                    bytes
                                                }
                                            }
                                        }
                                    }
                                    Err(_) if meta.msg_type >= 0x80 => {
                                        decode_errors.inc();
                                        Packet::response(
                                            token.0,
                                            token.1,
                                            Response::Error {
                                                kind: ErrorKind::Rejected,
                                                message: "unexpected response frame".to_string(),
                                            },
                                        )
                                        .encode()
                                    }
                                    Err(e) => {
                                        decode_errors.inc();
                                        Packet::response(
                                            0,
                                            0,
                                            Response::Error {
                                                kind: e.kind(),
                                                message: e.to_string(),
                                            },
                                        )
                                        .encode()
                                    }
                                }
                            }
                            Err(e) => {
                                decode_errors.inc();
                                Packet::response(
                                    0,
                                    0,
                                    Response::Error {
                                        kind: e.kind(),
                                        message: e.to_string(),
                                    },
                                )
                                .encode()
                            }
                        };
                        // A vanished client is not a server error.
                        let _ = reply.send(encoded);
                    }
                    served
                })
            })
            .collect();
        ServerHandle { workers, registry }
    }

    /// Execute a borrowed request view and encode the reply.
    ///
    /// Pull and push — the two requests that dominate steady-state
    /// traffic — never materialize owned key/grad vectors from the wire
    /// bytes: the length-validated views are copied once into a pooled
    /// [`Scratch`](oe_core::PooledScratch) arena (zero allocations once
    /// the shape has been seen), and the pull reply is borrow-encoded
    /// straight from the scratch weights. Control messages go through
    /// [`Self::execute`].
    fn execute_view(
        engine: &dyn PsEngine,
        token: (u32, u64),
        view: RequestView<'_>,
        scratch: &ScratchPool,
    ) -> Bytes {
        match view {
            RequestView::Pull {
                epoch: _,
                batch,
                keys,
            } => {
                let dim = engine.dim();
                let mut arena = scratch.acquire(Shape::request(keys.len(), keys.len() * dim));
                let s = &mut *arena;
                keys.extend_into(&mut s.keys);
                s.rows.reserve(s.keys.len() * dim);
                let mut cost = Cost::new();
                engine.pull(&s.keys, batch, &mut s.rows, &mut cost);
                Packet::encode_weights_response(token.0, token.1, &s.rows, &cost)
            }
            RequestView::Push {
                epoch: _,
                batch,
                keys,
                grads,
            } => {
                let dim = engine.dim();
                // A shape mismatch is a malformed request, not a server
                // bug: reject it with a structured error instead of
                // letting the engine's internal invariants trip.
                if grads.len() != keys.len() * dim {
                    return Packet::response(
                        token.0,
                        token.1,
                        Response::Error {
                            kind: ErrorKind::Rejected,
                            message: format!(
                                "push shape mismatch: {} keys at dim {} require {} grads, got {}",
                                keys.len(),
                                dim,
                                keys.len() * dim,
                                grads.len()
                            ),
                        },
                    )
                    .encode();
                }
                let mut arena = scratch.acquire(Shape::request(keys.len(), grads.len()));
                let s = &mut *arena;
                keys.extend_into(&mut s.keys);
                grads.extend_into(&mut s.rows);
                let mut cost = Cost::new();
                engine.push(&s.keys, &s.rows, batch, &mut cost);
                Packet::response(token.0, token.1, Response::Ack { cost }).encode()
            }
            RequestView::Other(r) => {
                Packet::response(token.0, token.1, Self::execute(engine, r)).encode()
            }
        }
    }

    fn execute(engine: &dyn PsEngine, req: Request) -> Response {
        match req {
            Request::EndPullPhase { batch } => {
                let report = engine.end_pull_phase(batch);
                Response::Maintenance {
                    entries: report.entries_processed,
                    commits: report.ckpt_commits,
                    cost: report.cost,
                }
            }
            Request::Checkpoint { batch } => Response::Ack {
                cost: engine.request_checkpoint(batch),
            },
            Request::Committed => Response::Committed {
                batch: engine.committed_checkpoint(),
            },
            Request::Stats => Response::Stats(engine.stats()),
            Request::ReadWeights { key } => Response::MaybeWeights(engine.read_weights(key)),
            Request::NumKeys => Response::Count(engine.num_keys() as u64),
            Request::Hello => Response::HelloOk {
                dim: engine.dim() as u32,
                name: engine.name().to_string(),
            },
            // Normally intercepted in the worker loop (the server
            // prepends its own registry); kept here so `execute` stays
            // total over `Request`.
            Request::Metrics => Response::Metrics(engine.metrics_text()),
            // Also intercepted in the worker loop (floors live beside
            // the replay cache, not in the engine).
            Request::SeqFence { .. } => Response::Ack { cost: Cost::new() },
            // Intercepted in the worker loop too (the epoch lives beside
            // the seq floors, not in the engine).
            Request::PlacementUpdate { .. } => Response::Ack { cost: Cost::new() },
            Request::ExportEntry { key } => {
                let mut cost = Cost::new();
                Response::Entry(engine.export_entry(key, &mut cost))
            }
            Request::ImportEntry {
                key,
                version,
                payload,
            } => {
                let mut cost = Cost::new();
                engine.import_entry(key, version, &payload, &mut cost);
                Response::Ack { cost }
            }
            Request::DiscardEntry { key } => {
                let mut cost = Cost::new();
                engine.discard_entry(key, &mut cost);
                Response::Ack { cost }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::weights_reply;
    use crate::codec::Frame;
    use crate::transport::{loopback, ClientTransport, Transport};
    use oe_core::{NodeConfig, OptimizerKind, PsNode};

    fn spawn_node() -> (ClientTransport, ServerHandle) {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let engine: Arc<dyn PsEngine> = Arc::new(PsNode::new(cfg));
        let (client, server_t) = loopback(16);
        let handle = PsServer::spawn(engine, server_t, 4);
        (client, handle)
    }

    /// Send a control packet, decode the control reply.
    fn call(client: &ClientTransport, pkt: Packet) -> Packet {
        Packet::decode(client.call(pkt.encode(), None).unwrap()).unwrap()
    }

    /// Pull burst under placement epoch 0; the raw weights reply.
    fn pull(client: &ClientTransport, token: (u32, u64), batch: u64, keys: &[u64]) -> Bytes {
        let frame = Packet::encode_pull(token.0, token.1, 0, batch, keys);
        client.call(frame, None).unwrap()
    }

    /// Dim-4 push burst of one key with every gradient `g`; the reply
    /// (an `Ack` or an `Error`, both control messages).
    fn push(
        client: &ClientTransport,
        token: (u32, u64),
        epoch: u64,
        batch: u64,
        key: u64,
        g: f32,
    ) -> Packet {
        let frame = Packet::encode_push(token.0, token.1, epoch, batch, &[key], &[g; 4]);
        Packet::decode(client.call(frame, None).unwrap()).unwrap()
    }

    fn read_weights(client: &ClientTransport, token: (u32, u64), key: u64) -> Vec<f32> {
        match call(
            client,
            Packet::request(token.0, token.1, Request::ReadWeights { key }),
        )
        .frame
        {
            Frame::Response(Response::MaybeWeights(Some(w))) => w,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn assert_rejected(resp: &Packet, needle: &str) {
        match &resp.frame {
            Frame::Response(Response::Error { kind, message }) => {
                assert_eq!(*kind, ErrorKind::Rejected, "{message}");
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("burst executed: {other:?}"),
        }
    }

    #[test]
    fn serves_pull_over_the_wire() {
        let (client, handle) = spawn_node();
        let (token, weights, cost) = weights_reply(&pull(&client, (1, 1), 1, &[10, 20]));
        assert_eq!(token, (1, 1), "token echoed");
        assert_eq!(weights.len(), 8);
        assert!(cost.total_ns() > 0, "server charges travel back");
        drop(client);
        assert!(handle.join() >= 1);
    }

    #[test]
    fn hello_reports_engine_identity() {
        let (client, handle) = spawn_node();
        let resp = call(&client, Packet::request(1, 2, Request::Hello));
        assert_eq!(
            resp.frame,
            Frame::Response(Response::HelloOk {
                dim: 4,
                name: "PMem-OE".into()
            })
        );
        drop(client);
        handle.join();
    }

    #[test]
    fn duplicate_push_applies_exactly_once() {
        let (client, handle) = spawn_node();
        // Establish the key.
        pull(&client, (7, 1), 1, &[5]);
        call(
            &client,
            Packet::request(7, 2, Request::EndPullPhase { batch: 1 }),
        );
        let w0 = read_weights(&client, (7, 3), 5);
        // The same push token delivered three times (retry storm).
        let r1 = push(&client, (7, 4), 0, 1, 5, 1.0);
        let r2 = push(&client, (7, 4), 0, 1, 5, 1.0);
        let r3 = push(&client, (7, 4), 0, 1, 5, 1.0);
        assert!(matches!(r1.frame, Frame::Response(Response::Ack { .. })));
        assert_eq!(r1, r2, "replayed response is byte-identical");
        assert_eq!(r1, r3);
        let w1 = read_weights(&client, (7, 5), 5);
        // SGD lr=1: one application subtracts exactly the gradient.
        for d in 0..4 {
            assert!(
                (w1[d] - (w0[d] - 1.0)).abs() < 1e-6,
                "dim {d}: {} vs {} — gradient must apply exactly once",
                w1[d],
                w0[d] - 1.0
            );
        }
        assert_eq!(
            handle
                .registry()
                .snapshot()
                .counter("rpc_replay_hits_total"),
            Some(2)
        );
        drop(client);
        handle.join();
    }

    #[test]
    fn seq_fence_rejects_stale_mutations_per_client() {
        let (client, handle) = spawn_node();
        // Establish key 3 for client 7.
        pull(&client, (7, 1), 1, &[3]);
        call(
            &client,
            Packet::request(7, 2, Request::EndPullPhase { batch: 1 }),
        );
        let w0 = read_weights(&client, (7, 3), 3);
        // Client 7 fences its first 10 seqs (as it would after failover).
        let resp = call(
            &client,
            Packet::request(7, 11, Request::SeqFence { floor: 10 }),
        );
        assert!(matches!(resp.frame, Frame::Response(Response::Ack { .. })));
        // A straggling pre-failover push (seq 4 <= floor) must NOT
        // execute on this server — with an empty replay cache it would
        // double-apply after the trainer's replay.
        let stale = push(&client, (7, 4), 0, 1, 3, 1.0);
        assert_rejected(&stale, "fence");
        let w1 = read_weights(&client, (7, 12), 3);
        assert_eq!(w0, w1, "fenced push left weights untouched");
        // Floors are per client: client 8's seq 4 is not fenced.
        push(&client, (8, 4), 0, 1, 3, 1.0);
        // Post-fence seqs from client 7 execute normally.
        push(&client, (7, 13), 0, 1, 3, 1.0);
        let w2 = read_weights(&client, (7, 14), 3);
        for d in 0..4 {
            assert!(
                (w2[d] - (w0[d] - 2.0)).abs() < 1e-6,
                "exactly the two unfenced pushes applied"
            );
        }
        // An older duplicate fence must not lower the floor.
        call(
            &client,
            Packet::request(7, 15, Request::SeqFence { floor: 2 }),
        );
        let still = push(&client, (7, 9), 0, 1, 3, 1.0);
        assert_rejected(&still, "fence");
        assert_eq!(
            handle
                .registry()
                .snapshot()
                .counter("rpc_stale_seq_rejections_total"),
            Some(2)
        );
        drop(client);
        handle.join();
    }

    #[test]
    fn distinct_clients_do_not_share_tokens() {
        let (client, handle) = spawn_node();
        pull(&client, (1, 1), 1, &[9]);
        call(
            &client,
            Packet::request(1, 2, Request::EndPullPhase { batch: 1 }),
        );
        // Same seq, different client ids: both pushes must execute.
        for cid in [10u32, 11] {
            push(&client, (cid, 100), 0, 1, 9, 0.5);
        }
        let resp = call(&client, Packet::request(1, 3, Request::Stats));
        let Frame::Response(Response::Stats(s)) = resp.frame else {
            panic!("unexpected {resp:?}");
        };
        assert_eq!(s.pushes, 2, "different clients both applied");
        drop(client);
        handle.join();
    }

    #[test]
    fn push_shape_mismatch_is_rejected_not_executed() {
        let (client, handle) = spawn_node();
        pull(&client, (1, 1), 1, &[9]);
        call(
            &client,
            Packet::request(1, 2, Request::EndPullPhase { batch: 1 }),
        );
        let w0 = read_weights(&client, (1, 3), 9);
        // One key at dim 4 needs 4 gradients; 3 is a malformed request,
        // answered structurally instead of tripping the engine's assert.
        let short = Packet::encode_push(1, 4, 0, 1, &[9], &[1.0; 3]);
        let resp = Packet::decode(client.call(short, None).unwrap()).unwrap();
        assert_rejected(&resp, "push shape mismatch");
        assert_eq!(read_weights(&client, (1, 5), 9), w0, "nothing applied");
        drop(client);
        handle.join();
    }

    #[test]
    fn garbage_frames_get_a_structured_error_reply() {
        let (client, handle) = spawn_node();
        // A garbage frame must not be dropped silently — the caller is
        // blocked on the reply. It gets a structured error response.
        let resp = Packet::decode(
            client
                .call(bytes::Bytes::from_static(b"\xde\xad\xbe\xef"), None)
                .unwrap(),
        )
        .unwrap();
        match resp.frame {
            Frame::Response(Response::Error { kind, message }) => {
                assert_eq!(kind, ErrorKind::Corrupt);
                assert!(!message.is_empty(), "reason travels back");
            }
            other => panic!("unexpected {other:?}"),
        }
        // So does a valid request with bytes after its body: the tail
        // is covered by no checksum, so the request must not execute.
        let mut long = Packet::request(1, 1, Request::NumKeys).encode().to_vec();
        long.push(0);
        let resp = Packet::decode(client.call(long.into(), None).unwrap()).unwrap();
        match resp.frame {
            Frame::Response(Response::Error { kind, message }) => {
                assert_eq!(kind, ErrorKind::Corrupt);
                assert!(message.contains("trailing bytes"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The server keeps serving real requests afterwards and has
        // counted both decode failures.
        let resp = call(&client, Packet::request(1, 1, Request::NumKeys));
        assert_eq!(resp.frame, Frame::Response(Response::Count(0)));
        assert_eq!(
            handle
                .registry()
                .snapshot()
                .counter("rpc_decode_errors_total"),
            Some(2)
        );
        drop(client);
        handle.join();
    }

    #[test]
    fn metrics_rpc_renders_server_and_engine_registries() {
        let (client, handle) = spawn_node();
        // Generate some traffic first.
        pull(&client, (1, 1), 1, &[1, 2, 3]);
        let resp = call(&client, Packet::request(1, 2, Request::Metrics));
        let Frame::Response(Response::Metrics(text)) = resp.frame else {
            panic!("unexpected {resp:?}");
        };
        // Server-side metrics.
        assert!(text.contains("rpc_requests_total"), "text:\n{text}");
        assert!(text.contains("rpc_decode_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("rpc_replay_hits_total"), "text:\n{text}");
        // Engine-side metrics (PsNode registry appended).
        assert!(text.contains("oe_pulls_total 3"), "text:\n{text}");
        assert!(text.contains("oe_pull_latency_ns"));
        drop(client);
        handle.join();
    }

    #[test]
    fn epoch_fence_rejects_fresh_but_replays_cached_across_a_bump() {
        let (client, handle) = spawn_node();
        // A push executes under epoch 0 and lands in the replay cache.
        pull(&client, (3, 1), 1, &[5]);
        call(
            &client,
            Packet::request(3, 2, Request::EndPullPhase { batch: 1 }),
        );
        let first = push(&client, (3, 3), 0, 1, 5, 1.0);
        assert!(matches!(first.frame, Frame::Response(Response::Ack { .. })));
        // Migration cutover: the rebalancer announces epoch 2.
        let resp = call(
            &client,
            Packet::request(3, 4, Request::PlacementUpdate { epoch: 2 }),
        );
        assert!(matches!(resp.frame, Frame::Response(Response::Ack { .. })));
        // A retry of the already-executed token crosses the bump: it
        // must get the cached response, not a reject — and not apply
        // the gradient a second time.
        let retry = push(&client, (3, 3), 0, 1, 5, 1.0);
        assert_eq!(retry, first, "cached bytes answer the retry");
        let w = read_weights(&client, (3, 5), 5);
        // A FRESH burst still routed under the old table is refused.
        let stale = push(&client, (3, 6), 0, 2, 5, 1.0);
        assert_rejected(&stale, "placement epoch");
        let w_after = read_weights(&client, (3, 7), 5);
        assert_eq!(w, w_after, "rejected burst left weights untouched");
        // Re-routed under the current epoch it executes fine.
        let ok = push(&client, (3, 8), 2, 2, 5, 1.0);
        assert!(matches!(ok.frame, Frame::Response(Response::Ack { .. })));
        // A delayed duplicate of an older update must not lower the epoch.
        call(
            &client,
            Packet::request(3, 9, Request::PlacementUpdate { epoch: 1 }),
        );
        let still_stale = push(&client, (3, 10), 1, 3, 5, 1.0);
        assert_rejected(&still_stale, "placement epoch");
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter("rpc_stale_epoch_rejections_total"), Some(2));
        assert_eq!(snap.counter("rpc_placement_updates_total"), Some(2));
        assert_eq!(snap.counter("rpc_replay_hits_total"), Some(1));
        drop(client);
        handle.join();
    }

    #[test]
    fn migration_rpcs_move_a_full_entry_over_the_wire() {
        let (client, handle) = spawn_node();
        // Create an entry and train it a little so it has real state.
        pull(&client, (9, 1), 1, &[77]);
        call(
            &client,
            Packet::request(9, 2, Request::EndPullPhase { batch: 1 }),
        );
        push(&client, (9, 3), 0, 1, 77, 0.25);
        // Export the full entry (weights + optimizer state + version).
        let (version, payload) = match call(
            &client,
            Packet::request(9, 4, Request::ExportEntry { key: 77 }),
        )
        .frame
        {
            Frame::Response(Response::Entry(Some(e))) => e,
            other => panic!("unexpected {other:?}"),
        };
        assert!(payload.len() >= 4, "payload carries at least the weights");
        // Exporting a key that was never touched yields None.
        let missing = call(
            &client,
            Packet::request(9, 5, Request::ExportEntry { key: 123_456 }),
        );
        assert_eq!(missing.frame, Frame::Response(Response::Entry(None)));
        // Cutover source side: discard forgets the key…
        call(
            &client,
            Packet::request(9, 6, Request::DiscardEntry { key: 77 }),
        );
        let gone = call(
            &client,
            Packet::request(9, 7, Request::ReadWeights { key: 77 }),
        );
        assert_eq!(gone.frame, Frame::Response(Response::MaybeWeights(None)));
        // …and import (as the destination would) restores it exactly.
        call(
            &client,
            Packet::request(
                9,
                8,
                Request::ImportEntry {
                    key: 77,
                    version,
                    payload: payload.clone(),
                },
            ),
        );
        let back = read_weights(&client, (9, 9), 77);
        assert_eq!(&back[..], &payload[..4], "weights survive the round trip");
        drop(client);
        handle.join();
    }
}
