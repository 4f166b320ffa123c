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

    /// Move the clock forward to `t` if `t` is later than the current time.
    /// Returns the resulting time. Used when merging parallel timelines:
    /// the driver sets the clock to the max of all workers' finish times.
    pub fn advance_to(&self, t: Nanos) -> Nanos {
        let mut cur = self.now_ns.load(Ordering::Acquire);
        while t > cur {
            match self
                .now_ns
                .compare_exchange(cur, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return t,
                Err(observed) => cur = observed,
            }
        }
        cur
    }

    /// Reset to zero (between independent experiment runs).
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Release);
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
    fn advance_to_is_monotonic() {
        let c = VirtualClock::new();
        c.advance(100);
        // Going backwards is a no-op.
        assert_eq!(c.advance_to(50), 100);
        assert_eq!(c.advance_to(250), 250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn conversions() {
        assert_eq!(secs(1.5), 1_500_000_000);
        assert_eq!(minutes(2.0), 120 * NANOS_PER_SEC);
    }

    #[test]
    fn reset_zeroes() {
        let c = VirtualClock::new();
        c.advance(42);
        c.reset();
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn advance_to_concurrent() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for j in 0..1000 {
                        c.advance_to(i * 1000 + j);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 7999);
    }
}
