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

use crate::codec::{validate_frame, Packet, Request, RequestView, Response};
use crate::error::{Error, ErrorKind};
use crate::transport::ServerTransport;
use bytes::Bytes;
use oe_core::engine::PsEngine;
use oe_core::{ScratchPool, Shape};
use oe_simdevice::sync::Mutex;
use oe_simdevice::Cost;
use oe_telemetry::{Counter, Phase, PhaseTimes, Registry};
use std::collections::{HashMap, VecDeque};
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
        let shared = Arc::new(Shared {
            engine,
            requests: registry.counter("rpc_requests_total"),
            decode_errors: registry.counter("rpc_decode_errors_total"),
            replay_hits: registry.counter("rpc_replay_hits_total"),
            stale_rejects: registry.counter("rpc_stale_seq_rejections_total"),
            phases: PhaseTimes::new(&registry, "rpc", &[Phase::RpcDecode, Phase::RpcExecute]),
            registry: Arc::clone(&registry),
            replay: Mutex::new(ReplayCache::new()),
            seq_floors: Mutex::new(HashMap::new()),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = transport.clone();
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    // Per-worker arena pool: a request's keys and grads
                    // are copied once, wire bytes → recycled scratch,
                    // and the steady state allocates nothing per call.
                    let scratch = ScratchPool::new();
                    while let Some((req, reply)) = rx.recv() {
                        served += 1;
                        // A vanished client is not a server error.
                        let _ = reply.send(shared.reply(&req, &scratch));
                    }
                    served
                })
            })
            .collect();
        ServerHandle { workers, registry }
    }
}

/// What every worker of one server shares: the engine, the telemetry,
/// the replay cache and the per-client sequence floors.
struct Shared {
    engine: Arc<dyn PsEngine>,
    registry: Arc<Registry>,
    requests: Counter,
    decode_errors: Counter,
    replay_hits: Counter,
    stale_rejects: Counter,
    phases: PhaseTimes,
    replay: Mutex<ReplayCache>,
    seq_floors: Mutex<HashMap<u32, u64>>,
}

impl Shared {
    /// Answer one request frame. Every frame gets a reply — the client
    /// is blocked waiting on this call, and silence would cost it a full
    /// deadline.
    fn reply(&self, frame: &Bytes, scratch: &ScratchPool) -> Bytes {
        self.requests.inc();
        // Validate the frame (magic/version/checksum) and decode the
        // bursts as borrowed views over the request bytes; only control
        // requests materialize owned bodies.
        let decoded = {
            let _span = self.phases.span(Phase::RpcDecode);
            validate_frame(frame).map(|meta| (meta, RequestView::decode(meta, frame)))
        };
        let (meta, view) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => return self.undecodable(e),
        };
        let token = (meta.client, meta.seq);
        let view = match view {
            Ok(view) => view,
            // A sealed response frame sent as a request: its token is
            // trustworthy, so the reject carries it.
            Err(_) if meta.msg_type >= 0x80 => {
                self.decode_errors.inc();
                return error_reply(
                    token,
                    ErrorKind::Rejected,
                    "unexpected response frame".into(),
                );
            }
            Err(e) => return self.undecodable(e),
        };
        // The exposition and the sequence fence touch no engine state:
        // answered untimed, never fenced, never cached.
        if let RequestView::Other(req @ (Request::Metrics | Request::SeqFence { .. })) = view {
            return Packet::response(token.0, token.1, self.execute(token.0, req)).encode();
        }
        let mutating = view.is_mutating();
        if mutating {
            if self
                .seq_floors
                .lock()
                .get(&token.0)
                .is_some_and(|&floor| token.1 <= floor)
            {
                // Never cached: the reject is stateless and the token's
                // owner has already moved on.
                self.stale_rejects.inc();
                return error_reply(
                    token,
                    ErrorKind::Rejected,
                    format!(
                        "seq {} at or below fence floor: token predates a failover",
                        token.1
                    ),
                );
            }
            if let Some(bytes) = self.replay.lock().get(token) {
                self.replay_hits.inc();
                return bytes;
            }
        }
        let bytes = {
            let _span = self.phases.span(Phase::RpcExecute);
            self.execute_view(token, view, scratch)
        };
        if mutating {
            self.replay.lock().insert(token, bytes.clone());
        }
        bytes
    }

    /// The reply to a frame that does not decode. A corrupted packet's
    /// token is untrustworthy, so the reply carries token (0, 0); it is
    /// never cached.
    fn undecodable(&self, e: Error) -> Bytes {
        self.decode_errors.inc();
        error_reply((0, 0), e.kind(), e.to_string())
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
        &self,
        token: (u32, u64),
        view: RequestView<'_>,
        scratch: &ScratchPool,
    ) -> Bytes {
        let engine = self.engine.as_ref();
        match view {
            RequestView::Pull { batch, keys } => {
                let dim = engine.dim();
                let mut arena = scratch.acquire(Shape::request(keys.len(), keys.len() * dim));
                let s = &mut *arena;
                keys.extend_into(&mut s.keys);
                s.rows.reserve(s.keys.len() * dim);
                let mut cost = Cost::new();
                engine.pull(&s.keys, batch, &mut s.rows, &mut cost);
                Packet::encode_weights_response(token.0, token.1, &s.rows, &cost)
            }
            RequestView::Push { batch, keys, grads } => {
                let dim = engine.dim();
                // A shape mismatch is a malformed request, not a server
                // bug: reject it with a structured error instead of
                // letting the engine's internal invariants trip.
                if grads.len() != keys.len() * dim {
                    return error_reply(
                        token,
                        ErrorKind::Rejected,
                        format!(
                            "push shape mismatch: {} keys at dim {} require {} grads, got {}",
                            keys.len(),
                            dim,
                            keys.len() * dim,
                            grads.len()
                        ),
                    );
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
                Packet::response(token.0, token.1, self.execute(token.0, r)).encode()
            }
        }
    }

    /// Execute a control request from `client`.
    fn execute(&self, client: u32, req: Request) -> Response {
        let engine = self.engine.as_ref();
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
            // The server's own registry leads the engine's.
            Request::Metrics => {
                let mut text = self.registry.render_text();
                text.push_str(&engine.metrics_text());
                Response::Metrics(text)
            }
            Request::SeqFence { floor } => {
                // Ratchet only upward: a delayed duplicate of an older
                // fence must not reopen already-fenced seqs.
                let mut floors = self.seq_floors.lock();
                let f = floors.entry(client).or_insert(0);
                *f = (*f).max(floor);
                Response::Ack { cost: Cost::new() }
            }
        }
    }
}

/// An encoded error reply carrying `token`.
fn error_reply(token: (u32, u64), kind: ErrorKind, message: String) -> Bytes {
    Packet::response(token.0, token.1, Response::Error { kind, message }).encode()
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

    /// Pull burst; the raw weights reply.
    fn pull(client: &ClientTransport, token: (u32, u64), batch: u64, keys: &[u64]) -> Bytes {
        let frame = Packet::encode_pull(token.0, token.1, batch, keys);
        client.call(frame, None).unwrap()
    }

    /// Dim-4 push burst of one key with every gradient `g`; the reply
    /// (an `Ack` or an `Error`, both control messages).
    fn push(client: &ClientTransport, token: (u32, u64), batch: u64, key: u64, g: f32) -> Packet {
        let frame = Packet::encode_push(token.0, token.1, batch, &[key], &[g; 4]);
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
        let r1 = push(&client, (7, 4), 1, 5, 1.0);
        let r2 = push(&client, (7, 4), 1, 5, 1.0);
        let r3 = push(&client, (7, 4), 1, 5, 1.0);
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
        let stale = push(&client, (7, 4), 1, 3, 1.0);
        assert_rejected(&stale, "fence");
        let w1 = read_weights(&client, (7, 12), 3);
        assert_eq!(w0, w1, "fenced push left weights untouched");
        // Floors are per client: client 8's seq 4 is not fenced.
        push(&client, (8, 4), 1, 3, 1.0);
        // Post-fence seqs from client 7 execute normally.
        push(&client, (7, 13), 1, 3, 1.0);
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
        let still = push(&client, (7, 9), 1, 3, 1.0);
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
            push(&client, (cid, 100), 1, 9, 0.5);
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
        let short = Packet::encode_push(1, 4, 1, &[9], &[1.0; 3]);
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
    fn each_frame_class_gets_its_reply_and_only_executions_are_timed() {
        // One frame of each class the reply function tells apart, in its
        // order: undecodable, response-typed, the exposition, the
        // sequence fence, a fenced mutation, a replay hit, executions —
        // and a fence over an executed token wins over its cached reply.
        // Every frame is decode-timed; only executions are execute-timed.
        let (client, handle) = spawn_node();
        let garbage = Packet::decode(client.call(Bytes::from_static(b"\x00"), None).unwrap());
        let garbage = garbage.unwrap();
        assert_eq!((garbage.client, garbage.seq), (0, 0), "untrusted token");
        let stray = call(&client, Packet::response(5, 1, Response::Count(1)));
        assert_eq!((stray.client, stray.seq), (5, 1), "token echoed");
        assert_rejected(&stray, "unexpected response frame");
        call(&client, Packet::request(5, 2, Request::Metrics));
        call(
            &client,
            Packet::request(5, 3, Request::SeqFence { floor: 3 }),
        );
        assert_rejected(&push(&client, (5, 1), 1, 9, 1.0), "fence");
        pull(&client, (5, 4), 1, &[9]);
        call(
            &client,
            Packet::request(5, 5, Request::EndPullPhase { batch: 1 }),
        );
        let first = push(&client, (5, 6), 1, 9, 1.0);
        assert_eq!(push(&client, (5, 6), 1, 9, 1.0), first, "replayed");
        call(
            &client,
            Packet::request(5, 7, Request::SeqFence { floor: 6 }),
        );
        assert_rejected(&push(&client, (5, 6), 1, 9, 1.0), "fence");
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter("rpc_requests_total"), Some(11));
        assert_eq!(snap.counter("rpc_decode_errors_total"), Some(2));
        assert_eq!(snap.counter("rpc_stale_seq_rejections_total"), Some(2));
        assert_eq!(snap.counter("rpc_replay_hits_total"), Some(1));
        let samples = |name: &str| snap.histogram(name).map(|h| h.count());
        assert_eq!(samples("rpc_rpc_decode_latency_ns"), Some(11));
        assert_eq!(
            samples("rpc_rpc_execute_latency_ns"),
            Some(3),
            "pull, end-pull, push"
        );
        drop(client);
        handle.join();
    }
}
