//! Client-side networking configuration: the [`NetCharge`] cost model,
//! the [`RetryPolicy`], and the per-call deadline. [`NetConfig`] mirrors
//! `oe_core::NodeConfig` — one `paper_default()` that encodes the
//! testbed's fault-tolerance knobs, tuned for the fault-injection suite.

use oe_simdevice::Nanos;
use std::time::Duration;

/// The network's virtual-time model, and the only one: the paper's
/// testbed (§VI-A), a 30 Gb intranet with low-overhead RPC. A round trip
/// costs a fixed per-RPC overhead plus its bytes at link bandwidth.
/// [`crate::RemotePs`] prices each request + reply frame pair with it;
/// the trainer prices each worker's pull or push burst with it.
pub struct NetCharge;

impl NetCharge {
    /// Fixed RPC overhead per round trip (ns): serialization + kernel
    /// bypass.
    pub const RPC_OVERHEAD_NS: Nanos = 15_000;
    /// Link bandwidth in bytes/ns (30 Gb/s).
    pub const BW_BYTES_PER_NS: f64 = 3.75;

    /// Virtual time of one round trip carrying `bytes` in total.
    pub fn round_trip_ns(bytes: usize) -> Nanos {
        Self::RPC_OVERHEAD_NS + (bytes as f64 / Self::BW_BYTES_PER_NS) as Nanos
    }
}

/// Exponential backoff with seeded jitter and a retry budget.
///
/// Retries reuse the request's `(client, seq)` idempotence token, so a
/// retried pull or push applies exactly once server-side no matter how
/// many attempts it takes. Backoff waits are charged to the caller's
/// virtual-time cost sink (`CostKind::Net`), so retry overhead shows up
/// in the discrete-event accounting exactly like extra wire time.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts after the first (0 disables retries).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff_ns << n` (capped).
    pub base_backoff_ns: u64,
    /// Cap on a single backoff wait.
    pub max_backoff_ns: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Paper-shaped default: 8 retries, 50 µs base doubling to a 5 ms
    /// cap — generous against a 5% drop schedule (p(9 consecutive
    /// drops) ≈ 2e-12) while keeping worst-case added virtual time per
    /// call under ~15 ms.
    pub fn paper_default() -> Self {
        Self {
            max_retries: 8,
            base_backoff_ns: 50_000,
            max_backoff_ns: 5_000_000,
            jitter_seed: 0x0E_F417,
        }
    }

    /// No retries: every transport error surfaces immediately.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_backoff_ns: 0,
            max_backoff_ns: 0,
            jitter_seed: 0,
        }
    }

    /// Virtual-time backoff before retry attempt `attempt` (0-based) of
    /// the request with sequence number `seq`: exponential, capped, with
    /// deterministic jitter in `[0, backoff/2)` drawn from
    /// `(jitter_seed, seq, attempt)` — seeded jitter keeps simulated
    /// runs reproducible while still decorrelating concurrent retriers.
    pub fn backoff_ns(&self, attempt: u32, seq: u64) -> u64 {
        let base = self
            .base_backoff_ns
            .saturating_shl(attempt.min(32))
            .min(self.max_backoff_ns.max(self.base_backoff_ns));
        if base == 0 {
            return 0;
        }
        let h = oe_core::init::splitmix64(
            self.jitter_seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt as u64,
        );
        base + h % (base / 2).max(1)
    }
}

trait SaturatingShl {
    fn saturating_shl(self, by: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, by: u32) -> u64 {
        if by >= 64 {
            if self == 0 {
                0
            } else {
                u64::MAX
            }
        } else {
            self.checked_shl(by).unwrap_or(u64::MAX)
        }
    }
}

/// Everything a [`crate::RemotePs`] can be told about the wire:
/// deadline and retry policy. Its virtual-time price is [`NetCharge`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Wall-clock bound on a single RPC attempt. `None` blocks forever
    /// (the pre-fault-tolerance behaviour).
    pub deadline: Option<Duration>,
    /// Retry behaviour on retryable failures.
    pub retry: RetryPolicy,
}

impl NetConfig {
    /// The paper's testbed with fault tolerance on: 250 ms attempt
    /// deadline (generous for an in-process loopback; a dropped frame is
    /// detected in one deadline), 8-retry exponential backoff.
    pub fn paper_default() -> Self {
        Self {
            deadline: Some(Duration::from_millis(250)),
            retry: RetryPolicy::paper_default(),
        }
    }

    /// Builder: replace the per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Builder: replace the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::paper_default();
        let b0 = p.backoff_ns(0, 1);
        let b3 = p.backoff_ns(3, 1);
        assert!(b0 >= p.base_backoff_ns && b0 < 2 * p.base_backoff_ns);
        assert!(b3 > b0, "{b0} vs {b3}");
        // Far past the cap: bounded by 1.5 * max.
        let b20 = p.backoff_ns(20, 1);
        assert!(b20 <= p.max_backoff_ns + p.max_backoff_ns / 2 + 1);
    }

    #[test]
    fn jitter_is_deterministic_and_seq_dependent() {
        let p = RetryPolicy::paper_default();
        assert_eq!(p.backoff_ns(2, 7), p.backoff_ns(2, 7));
        // Different seqs decorrelate (overwhelmingly likely for any
        // fixed pair; this pair is part of the golden determinism).
        assert_ne!(p.backoff_ns(2, 7), p.backoff_ns(2, 8));
    }

    #[test]
    fn none_policy_never_waits() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff_ns(0, 1), 0);
    }

    #[test]
    fn builder_chains() {
        let cfg = NetConfig::paper_default()
            .with_deadline(Some(Duration::from_millis(10)))
            .with_retry(RetryPolicy::none());
        assert_eq!(cfg.deadline, Some(Duration::from_millis(10)));
        assert_eq!(cfg.retry.max_retries, 0);
    }

    #[test]
    fn charge_scales_with_bytes() {
        assert_eq!(NetCharge::round_trip_ns(0), NetCharge::RPC_OVERHEAD_NS);
        assert!(NetCharge::round_trip_ns(1_000_000) > NetCharge::round_trip_ns(100));
    }

    #[test]
    fn magnitude() {
        // A pull of 10k keys × 64 dims is ≈ 2.6 MB → ~0.7 ms on 30 Gb.
        let t = NetCharge::round_trip_ns(10_000 * (8 + 4 * 64));
        assert!((500_000..2_000_000).contains(&t), "t = {t}");
    }
}
