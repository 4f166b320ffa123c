//! Cache admission control.
//!
//! DLRM access traces are full of one-hit wonders (the exponential
//! tail): admitting every missed key into the cache evicts hot entries
//! for keys that will never be seen again. A TinyLFU-style *doorkeeper*
//! — a tiny counting filter in front of the cache — only admits keys on
//! their second touch within a generation. This is an extension beyond
//! the paper (which admits always); the ablation harness quantifies it.

use crate::Key;

/// Admission strategy for cache misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Admit every missed key (the paper's behaviour).
    Always,
    /// Admit on the second touch within a generation (doorkeeper).
    SecondTouch,
}

impl AdmissionKind {
    /// Build the filter; `expected_keys` sizes the doorkeeper.
    pub fn build(self, expected_keys: usize) -> Admission {
        match self {
            AdmissionKind::Always => Admission::Always,
            AdmissionKind::SecondTouch => Admission::Doorkeeper(Doorkeeper::new(expected_keys)),
        }
    }
}

/// A built admission filter.
pub enum Admission {
    /// No filtering.
    Always,
    /// Second-touch doorkeeper.
    Doorkeeper(Doorkeeper),
}

impl Admission {
    /// Record a touch of `key`; returns true if the key should be
    /// admitted to the cache now.
    pub fn admit(&mut self, key: Key) -> bool {
        match self {
            Admission::Always => true,
            Admission::Doorkeeper(d) => d.touch(key),
        }
    }
}

/// A 4-bit counting filter with periodic halving (aging), à la TinyLFU.
/// ~0.5 B per expected key; false positives only make admission
/// slightly more permissive, never incorrect.
pub struct Doorkeeper {
    counters: Vec<u8>, // two 4-bit counters per byte
    mask: u64,
    touches: u64,
    aging_period: u64,
}

impl Doorkeeper {
    /// Size for `expected_keys` distinct keys.
    pub fn new(expected_keys: usize) -> Self {
        let slots = (expected_keys.max(16)).next_power_of_two();
        Self {
            counters: vec![0; slots / 2],
            mask: (slots - 1) as u64,
            touches: 0,
            aging_period: (slots as u64) * 4,
        }
    }

    fn bump(&mut self, idx: u64) -> u8 {
        let byte = (idx / 2) as usize;
        let high = idx & 1 == 1;
        let cur = if high {
            self.counters[byte] >> 4
        } else {
            self.counters[byte] & 0x0F
        };
        let next = (cur + 1).min(15);
        if high {
            self.counters[byte] = (self.counters[byte] & 0x0F) | (next << 4);
        } else {
            self.counters[byte] = (self.counters[byte] & 0xF0) | next;
        }
        next
    }

    fn age(&mut self) {
        for c in &mut self.counters {
            // Halve both nibbles.
            let high = (*c >> 4) >> 1;
            let low = (*c & 0x0F) >> 1;
            *c = (high << 4) | low;
        }
    }

    /// Record a touch; admit when the key has been seen before.
    pub fn touch(&mut self, key: Key) -> bool {
        self.touches += 1;
        if self.touches.is_multiple_of(self.aging_period) {
            self.age();
        }
        let idx = oe_hash(key) & self.mask;
        self.bump(idx) >= 2
    }
}

#[inline]
fn oe_hash(key: Key) -> u64 {
    let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_admits() {
        let mut a = AdmissionKind::Always.build(100);
        assert!(a.admit(1));
        assert!(a.admit(1));
    }

    #[test]
    fn doorkeeper_rejects_first_touch_admits_second() {
        let mut a = AdmissionKind::SecondTouch.build(1024);
        assert!(!a.admit(42), "first touch rejected");
        assert!(a.admit(42), "second touch admitted");
        assert!(a.admit(42), "stays admitted");
    }

    #[test]
    fn one_hit_wonders_mostly_rejected() {
        let mut a = AdmissionKind::SecondTouch.build(1 << 16);
        let mut admitted = 0;
        for key in 0..4000u64 {
            if a.admit(key) {
                admitted += 1;
            }
        }
        // Only hash collisions sneak through (expected ≈ n²/2m ≈ 122).
        assert!(admitted < 400, "admitted {admitted} of 4000 singletons");
    }

    #[test]
    fn aging_decays_counts() {
        let mut d = Doorkeeper::new(16); // tiny: ages every 64 touches
        assert!(!d.touch(7));
        assert!(d.touch(7));
        // Flood with other keys to trigger several agings.
        for k in 0..400u64 {
            d.touch(k.wrapping_mul(1_000_003));
        }
        // 7's count decayed; not necessarily back to zero (collisions),
        // but the structure stayed sound and bounded.
        let _ = d.touch(7);
    }

    #[test]
    fn counters_saturate_without_overflow() {
        let mut d = Doorkeeper::new(16);
        for _ in 0..100 {
            d.touch(5);
        }
        assert!(d.touch(5), "still admitted after saturation");
    }
}
