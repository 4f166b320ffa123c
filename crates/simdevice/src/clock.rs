//! Virtual time primitives.
//!
//! The whole reproduction runs on *virtual* (simulated) time: device models
//! charge nanoseconds to [`crate::Cost`] sinks and the training driver
//! advances a [`VirtualClock`]. Nothing ever sleeps, so a simulated
//! multi-hour training epoch regenerates in milliseconds of wall time, and
//! results are bit-for-bit deterministic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated nanoseconds.
pub type Nanos = u64;

/// Nanoseconds per second, for conversions.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A monotonically advancing virtual clock shared between simulator
/// components (checkpoint scheduler, trace recorder, trainer).
///
/// The clock is advanced only by the discrete-event driver; components read
/// it to timestamp events or to decide whether a periodic action (e.g. a
/// checkpoint every 20 simulated minutes) is due.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Advance the clock by `delta` nanoseconds, returning the new time.
    pub fn advance(&self, delta: Nanos) -> Nanos {
        self.now_ns.fetch_add(delta, Ordering::AcqRel) + delta
    }
}

/// Convert seconds (possibly fractional) to [`Nanos`].
pub fn secs(s: f64) -> Nanos {
    (s * NANOS_PER_SEC as f64) as Nanos
}

/// Convert minutes to [`Nanos`].
pub fn minutes(m: f64) -> Nanos {
    secs(m * 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn conversions() {
        assert_eq!(secs(1.5), 1_500_000_000);
        assert_eq!(minutes(2.0), 120 * NANOS_PER_SEC);
    }
}
