//! Deterministic fault injection at the transport boundary.
//!
//! [`FaultInjector`] wraps any [`Transport`] and, per call, draws from
//! a seeded `splitmix64` stream to decide whether to drop the request,
//! drop the response, deliver the request twice, flip a bit in either
//! direction, delay the call, or kill the server outright. Given the
//! same seed and call order, the schedule is identical run-to-run —
//! the fault-injection suite asserts *bit-identical* final weights
//! against a fault-free run, which is only a meaningful check when the
//! faults themselves are reproducible.
//!
//! Semantics of each fault, chosen to exercise a distinct layer:
//!
//! - **drop request** — the frame never reaches the server; the caller
//!   observes a `Timeout`. Retrying is always safe: nothing executed.
//! - **drop response** — the server *executes* the request but the
//!   reply vanishes; the caller observes the same `Timeout`. Retrying
//!   is only safe because the `(client, seq)` replay cache makes the
//!   re-execution a cache hit — this is the fault that proves
//!   exactly-once.
//! - **duplicate** — the frame is delivered twice (a retransmit racing
//!   a slow ack); the second delivery must hit the replay cache.
//! - **corrupt request / response** — one seeded bit flip; the frame
//!   checksum turns it into a structured `Corrupt` error on whichever
//!   side decodes it.
//! - **delay** — a bounded wall-clock stall, for exercising deadlines.
//! - **kill after N calls** — the inner transport is dropped and every
//!   later call fails `Disconnected`: the failover trigger.

use crate::error::Error;
use crate::transport::Transport;
use bytes::{Bytes, BytesMut};
use oe_core::init::splitmix64;
use oe_simdevice::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Probabilities and schedule for one injector. All probabilities are
/// independent per call, in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// P(request frame vanishes before the server sees it).
    pub drop_request: f64,
    /// P(response frame vanishes after the server executed).
    pub drop_response: f64,
    /// P(request delivered twice).
    pub duplicate: f64,
    /// P(one bit flipped in the request frame).
    pub corrupt_request: f64,
    /// P(one bit flipped in the response frame).
    pub corrupt_response: f64,
    /// P(the call is stalled by a wall-clock delay).
    pub delay: f64,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Kill the server permanently once this many calls have been
    /// attempted (the Nth call and all later ones fail
    /// `Disconnected`).
    pub kill_after_calls: Option<u64>,
}

impl FaultSpec {
    /// No faults at all (pass-through; useful as a control arm).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_request: 0.0,
            drop_response: 0.0,
            duplicate: 0.0,
            corrupt_request: 0.0,
            corrupt_response: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            kill_after_calls: None,
        }
    }

    /// Symmetric frame loss at rate `p` (half on each direction).
    pub fn drops(seed: u64, p: f64) -> Self {
        Self {
            drop_request: p / 2.0,
            drop_response: p / 2.0,
            ..Self::none(seed)
        }
    }

    /// The acceptance-criteria schedule: `drop` total frame loss plus
    /// `corrupt` bit-flip rate (split across directions), with
    /// occasional duplicates.
    pub fn lossy(seed: u64, drop: f64, corrupt: f64) -> Self {
        Self {
            drop_request: drop / 2.0,
            drop_response: drop / 2.0,
            corrupt_request: corrupt / 2.0,
            corrupt_response: corrupt / 2.0,
            duplicate: corrupt / 2.0,
            ..Self::none(seed)
        }
    }

    /// Kill the server after `calls` calls; no other faults.
    pub fn kill_after(seed: u64, calls: u64) -> Self {
        Self {
            kill_after_calls: Some(calls),
            ..Self::none(seed)
        }
    }
}

/// Deterministic, seeded fault-injecting wrapper over any transport.
pub struct FaultInjector {
    inner: Mutex<Option<Arc<dyn Transport>>>,
    spec: FaultSpec,
    calls: AtomicU64,
    injected: AtomicU64,
}

// Decision salts: one independent draw per fault class per call.
const SALT_DROP_REQ: u64 = 0x01;
const SALT_DROP_RESP: u64 = 0x02;
const SALT_DUP: u64 = 0x03;
const SALT_CORRUPT_REQ: u64 = 0x04;
const SALT_CORRUPT_RESP: u64 = 0x05;
const SALT_DELAY: u64 = 0x06;
const SALT_BITPOS: u64 = 0x07;

impl FaultInjector {
    /// Wrap `inner` with the fault schedule `spec`.
    pub fn new(inner: Arc<dyn Transport>, spec: FaultSpec) -> Self {
        Self {
            inner: Mutex::new(Some(inner)),
            spec,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Calls attempted through this injector so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Faults injected so far (all classes).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Kill the server now: drops the inner transport (closing the
    /// channel, so server workers drain and exit) and fails every
    /// subsequent call with `Disconnected`. Idempotent.
    pub fn kill(&self) {
        *self.inner.lock() = None;
    }

    /// Deterministic uniform draw in `[0,1)` for call `n`, class `salt`.
    fn draw(&self, n: u64, salt: u64) -> f64 {
        let h = splitmix64(self.spec.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (salt << 56));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn hit(&self, n: u64, salt: u64, p: f64) -> bool {
        p > 0.0 && self.draw(n, salt) < p
    }

    fn flip_one_bit(&self, frame: &Bytes, n: u64, salt: u64) -> Bytes {
        if frame.is_empty() {
            return frame.clone();
        }
        let h = splitmix64(
            self.spec.seed
                ^ n.wrapping_mul(0xD134_2543_DE82_EF95)
                ^ (salt << 48)
                ^ (SALT_BITPOS << 40),
        );
        let bit = (h as usize) % (frame.len() * 8);
        let mut m = BytesMut::from(&frame[..]);
        m[bit / 8] ^= 1 << (bit % 8);
        m.freeze()
    }
}

impl Transport for FaultInjector {
    fn call(&self, request: Bytes, deadline: Option<Duration>) -> Result<Bytes, Error> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(kill_at) = self.spec.kill_after_calls {
            if n >= kill_at {
                self.kill();
            }
        }
        let inner = match &*self.inner.lock() {
            Some(t) => Arc::clone(t),
            None => {
                return Err(Error::disconnected(
                    "server killed by fault injector".to_string(),
                ))
            }
        };

        if self.hit(n, SALT_DELAY, self.spec.delay) {
            let frac = self.draw(n, SALT_DELAY << 8 | SALT_DELAY);
            let ns = (self.spec.max_delay.as_nanos() as f64 * frac) as u64;
            std::thread::sleep(Duration::from_nanos(ns));
        }

        if self.hit(n, SALT_DROP_REQ, self.spec.drop_request) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            // The frame never reaches the server. The caller's deadline
            // would expire waiting; model that outcome directly so the
            // suite doesn't spend wall-clock time sleeping on it.
            return Err(Error::timeout("request frame dropped by fault injector"));
        }

        let request = if self.hit(n, SALT_CORRUPT_REQ, self.spec.corrupt_request) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            self.flip_one_bit(&request, n, SALT_CORRUPT_REQ)
        } else {
            request
        };

        if self.hit(n, SALT_DUP, self.spec.duplicate) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            // Retransmit racing a slow ack: deliver twice, use the
            // second reply. The server must treat the duplicate as a
            // replay-cache hit for state to stay exactly-once.
            let _first = inner.call(request.clone(), deadline)?;
        }

        let response = inner.call(request, deadline)?;

        if self.hit(n, SALT_DROP_RESP, self.spec.drop_response) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            // Executed server-side, reply lost in flight.
            return Err(Error::timeout("response frame dropped by fault injector"));
        }

        if self.hit(n, SALT_CORRUPT_RESP, self.spec.corrupt_response) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Ok(self.flip_one_bit(&response, n, SALT_CORRUPT_RESP));
        }

        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;
    use crate::transport::loopback;

    fn echo_server() -> (Arc<dyn Transport>, std::thread::JoinHandle<()>) {
        let (client, server) = loopback(16);
        let h = std::thread::spawn(move || {
            while let Some((req, reply)) = server.recv() {
                let _ = reply.send(req);
            }
        });
        (Arc::new(client), h)
    }

    #[test]
    fn passthrough_when_no_faults() {
        let (inner, h) = echo_server();
        let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::none(1));
        for i in 0..50u8 {
            let r = inj.call(Bytes::copy_from_slice(&[i]), None).unwrap();
            assert_eq!(&r[..], &[i]);
        }
        assert_eq!(inj.injected(), 0);
        assert_eq!(inj.calls(), 50);
        drop(inj);
        drop(inner);
        h.join().unwrap();
    }

    #[test]
    fn drop_schedule_is_deterministic() {
        let run = || {
            let (inner, h) = echo_server();
            let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::drops(42, 0.3));
            let outcomes: Vec<bool> = (0..200u8)
                .map(|i| inj.call(Bytes::copy_from_slice(&[i]), None).is_ok())
                .collect();
            drop(inj);
            drop(inner);
            h.join().unwrap();
            outcomes
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same schedule");
        let drops = a.iter().filter(|ok| !**ok).count();
        assert!((30..90).contains(&drops), "~30% of 200: {drops}");
    }

    #[test]
    fn dropped_calls_surface_as_timeouts() {
        let (inner, h) = echo_server();
        let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::drops(7, 1.0));
        let err = inj.call(Bytes::from_static(b"x"), None).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Timeout);
        assert!(err.is_retryable());
        drop(inj);
        drop(inner);
        h.join().unwrap();
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (inner, h) = echo_server();
        let spec = FaultSpec {
            corrupt_response: 1.0,
            ..FaultSpec::none(3)
        };
        let inj = FaultInjector::new(Arc::clone(&inner), spec);
        let sent = Bytes::from_static(b"hello world");
        let got = inj.call(sent.clone(), None).unwrap();
        let diff: u32 = sent
            .iter()
            .zip(got.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        drop(inj);
        drop(inner);
        h.join().unwrap();
    }

    #[test]
    fn kill_after_n_calls_disconnects_forever() {
        let (inner, h) = echo_server();
        let inj = FaultInjector::new(Arc::clone(&inner), FaultSpec::kill_after(1, 3));
        for i in 0..3u8 {
            assert!(inj.call(Bytes::copy_from_slice(&[i]), None).is_ok());
        }
        for _ in 0..2 {
            let err = inj.call(Bytes::from_static(b"x"), None).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Disconnected);
            assert!(!err.is_retryable());
        }
        // The injector dropped its inner handle; once the test's own
        // handle goes too, the server drains and exits.
        drop(inner);
        h.join().unwrap();
    }

    #[test]
    fn duplicate_delivers_twice() {
        let (client, server) = loopback(16);
        let served = Arc::new(AtomicU64::new(0));
        let served2 = Arc::clone(&served);
        let h = std::thread::spawn(move || {
            while let Some((req, reply)) = server.recv() {
                served2.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(req);
            }
        });
        let spec = FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::none(9)
        };
        let client: Arc<dyn Transport> = Arc::new(client);
        let inj = FaultInjector::new(Arc::clone(&client), spec);
        let r = inj.call(Bytes::from_static(b"q"), None).unwrap();
        assert_eq!(&r[..], b"q");
        assert_eq!(served.load(Ordering::Relaxed), 2, "delivered twice");
        drop(inj);
        drop(client);
        h.join().unwrap();
    }
}
