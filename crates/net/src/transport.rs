//! Transport abstraction: how request frames reach a PS server.
//!
//! The only concrete implementation here is an in-process loopback (one
//! bounded queue of frames, each carrying its own reply slot), standing
//! in for the testbed's 30 Gb intranet exactly the way the simulated
//! media stands in for Optane: the *protocol* is real, the physics is
//! modelled (the client charges virtual network time per frame byte). A
//! TCP transport would implement the same trait, and so does the
//! integration tests' seeded fault injector (`tests/support/fault.rs`),
//! which wraps any `Transport` to inject failures between the two
//! halves.
//!
//! Calls take an optional deadline: a request that outlives it — queue
//! saturated on send, or the response frame never arriving — fails
//! with a structured [`Error`] of kind `Timeout` instead of blocking
//! the caller forever, which is what makes retry policies possible.

use crate::error::Error;
use bytes::Bytes;
use oe_simdevice::sync::Mutex;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// A synchronous request/response transport.
pub trait Transport: Send + Sync {
    /// Send a request frame and wait for the response frame. `deadline`
    /// bounds the whole round trip; `None` waits indefinitely.
    fn call(&self, request: Bytes, deadline: Option<Duration>) -> Result<Bytes, Error>;
}

/// One in-flight call: the request and where to send the reply.
pub type Envelope = (Bytes, SyncSender<Bytes>);

/// The request queue both halves share: a bounded MPMC FIFO whose send
/// can give up at a deadline. (`std::sync::mpsc` has neither a
/// cloneable receiver nor a timed send.) It counts its live halves so
/// each side learns when the other is gone.
struct Queue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState {
    buf: VecDeque<Envelope>,
    depth: usize,
    clients: usize,
    servers: usize,
}

/// Why [`Queue::send`] handed the envelope back.
enum SendError {
    Full,
    Closed,
}

impl Queue {
    fn send(&self, env: Envelope, until: Option<Instant>) -> Result<(), SendError> {
        let mut s = self.state.lock();
        loop {
            if s.servers == 0 {
                return Err(SendError::Closed);
            }
            if s.buf.len() < s.depth {
                s.buf.push_back(env);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = match until {
                None => self
                    .not_full
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    let left = t.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(SendError::Full);
                    }
                    let woken = self.not_full.wait_timeout(s, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    fn recv(&self) -> Option<Envelope> {
        let mut s = self.state.lock();
        loop {
            if let Some(env) = s.buf.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(env);
            }
            if s.clients == 0 {
                return None;
            }
            s = self
                .not_empty
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Client half of the loopback transport. Cheap to clone: clones share
/// the connection (concurrent calls multiplex over the same queue).
pub struct ClientTransport {
    q: Arc<Queue>,
}

impl Clone for ClientTransport {
    fn clone(&self) -> Self {
        self.q.state.lock().clients += 1;
        Self { q: self.q.clone() }
    }
}

impl Drop for ClientTransport {
    fn drop(&mut self) {
        let mut s = self.q.state.lock();
        s.clients -= 1;
        if s.clients == 0 {
            self.q.not_empty.notify_all();
        }
    }
}

impl Transport for ClientTransport {
    fn call(&self, request: Bytes, deadline: Option<Duration>) -> Result<Bytes, Error> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let start = Instant::now();
        // A deadline past the end of time is no deadline.
        let until = deadline.and_then(|d| start.checked_add(d));
        match self.q.send((request, reply_tx), until) {
            Ok(()) => {}
            Err(SendError::Full) => {
                let limit = deadline.expect("only a deadline send gives up");
                return Err(Error::timeout(format!(
                    "request queue full for {limit:?} (server saturated)"
                )));
            }
            Err(SendError::Closed) => return Err(Error::disconnected("server channel closed")),
        }
        let dropped = || Error::disconnected("server dropped the reply channel");
        match deadline {
            None => reply_rx.recv().map_err(|_| dropped()),
            Some(limit) => match reply_rx.recv_timeout(limit.saturating_sub(start.elapsed())) {
                Ok(reply) => Ok(reply),
                Err(RecvTimeoutError::Timeout) => Err(Error::timeout(format!(
                    "no response within {limit:?} (frame dropped or server stalled)"
                ))),
                Err(RecvTimeoutError::Disconnected) => Err(dropped()),
            },
        }
    }
}

/// Server half: workers pull envelopes from this queue. Clone it once
/// per service thread; the queue closes when the last clone is dropped.
pub struct ServerTransport {
    q: Arc<Queue>,
}

impl ServerTransport {
    /// Receive the next call; `None` when every client is gone.
    pub fn recv(&self) -> Option<Envelope> {
        self.q.recv()
    }
}

impl Clone for ServerTransport {
    fn clone(&self) -> Self {
        self.q.state.lock().servers += 1;
        Self { q: self.q.clone() }
    }
}

impl Drop for ServerTransport {
    fn drop(&mut self) {
        let mut s = self.q.state.lock();
        s.servers -= 1;
        if s.servers == 0 {
            // Nobody will answer the queued calls: dropping their reply
            // slots is what tells the waiting callers so.
            s.buf.clear();
            self.q.not_full.notify_all();
        }
    }
}

/// Create a connected loopback pair with the given queue depth
/// (modelling the NIC ring: senders block when the server is saturated,
/// which is exactly the back-pressure a real RPC stack applies).
pub fn loopback(queue_depth: usize) -> (ClientTransport, ServerTransport) {
    let q = Arc::new(Queue {
        state: Mutex::new(QueueState {
            buf: VecDeque::new(),
            depth: queue_depth.max(1),
            clients: 1,
            servers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (ClientTransport { q: q.clone() }, ServerTransport { q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    #[test]
    fn echo_roundtrip() {
        let (client, server) = loopback(4);
        let h = std::thread::spawn(move || {
            while let Some((req, reply)) = server.recv() {
                let _ = reply.send(req); // echo
            }
        });
        let resp = client.call(Bytes::from_static(b"ping"), None).unwrap();
        assert_eq!(&resp[..], b"ping");
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn disconnected_server_errors() {
        let (client, server) = loopback(1);
        drop(server);
        let err = client.call(Bytes::from_static(b"x"), None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Disconnected);
    }

    #[test]
    fn deadline_expires_when_server_swallows_the_frame() {
        let (client, server) = loopback(4);
        // A server that receives but never replies: the reply channel
        // stays open (envelope kept alive), so only the deadline can
        // unblock the client.
        let h = std::thread::spawn(move || {
            let mut swallowed = Vec::new();
            while let Some(env) = server.recv() {
                swallowed.push(env);
            }
        });
        let err = client
            .call(Bytes::from_static(b"x"), Some(Duration::from_millis(20)))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Timeout);
        assert!(err.is_retryable());
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn deadline_expires_on_saturated_queue() {
        let (client, _server) = loopback(1);
        // Fill the queue (nobody serving), then the next send times out.
        let (reply_tx, _reply_rx) = sync_channel(1);
        assert!(client
            .q
            .send((Bytes::from_static(b"a"), reply_tx), None)
            .is_ok());
        let err = client
            .call(Bytes::from_static(b"b"), Some(Duration::from_millis(20)))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Timeout);
    }

    #[test]
    fn last_receiver_dropped_disconnects_senders_and_queued_callers() {
        let (client, server) = loopback(1);
        let worker = server.clone();
        drop(server);
        // One clone still serves: a call queues and waits for its reply.
        let queued = {
            let c = client.clone();
            std::thread::spawn(move || c.call(Bytes::from_static(b"queued"), None))
        };
        while client.q.state.lock().buf.is_empty() {
            std::thread::yield_now();
        }
        drop(worker);
        let err = queued.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Disconnected, "queued caller: {err}");
        let err = client
            .call(Bytes::from_static(b"late"), Some(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Disconnected, "later sender: {err}");
    }

    #[test]
    fn deadline_send_wakes_when_a_slot_frees() {
        let (client, server) = loopback(1);
        let (reply_tx, _reply_rx) = sync_channel(1);
        assert!(client
            .q
            .send((Bytes::from_static(b"a"), reply_tx), None)
            .is_ok());
        // The queue is full; a server that starts late frees the slot
        // well inside the deadline and echoes both calls.
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            while let Some((req, reply)) = server.recv() {
                let _ = reply.send(req);
            }
        });
        let start = Instant::now();
        let resp = client
            .call(Bytes::from_static(b"b"), Some(Duration::from_secs(30)))
            .expect("the blocked send proceeds once a slot frees");
        assert_eq!(&resp[..], b"b");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "woken, not timed out"
        );
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn concurrent_clients_multiplex() {
        let (client, server) = loopback(8);
        let h = std::thread::spawn(move || {
            while let Some((req, reply)) = server.recv() {
                let _ = reply.send(req);
            }
        });
        let handles: Vec<_> = (0..8u8)
            .map(|i| {
                let c = client.clone();
                std::thread::spawn(move || {
                    for j in 0..100u8 {
                        let payload = Bytes::copy_from_slice(&[i, j]);
                        let resp = c.call(payload.clone(), None).unwrap();
                        assert_eq!(resp, payload, "replies route to the right caller");
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        drop(client);
        h.join().unwrap();
    }
}
