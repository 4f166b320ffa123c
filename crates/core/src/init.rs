//! Deterministic weight initialization.
//!
//! New embedding entries are initialized on first touch (Algorithm 1
//! lines 6–12). Initialization is a pure function of (seed, key, index)
//! so every engine — OpenEmbedding and all baselines — starts from
//! *identical* weights, which lets integration tests assert bit-equal
//! convergence across engines.

pub use oe_simdevice::rng::splitmix64;

/// Uniform value in `(-scale, +scale)` for weight `i` of `key`.
#[inline]
pub fn init_weight(seed: u64, key: u64, i: usize, scale: f32) -> f32 {
    let h = splitmix64(seed ^ splitmix64(key ^ ((i as u64) << 32)));
    // Map the top 24 bits to (0,1), then to (-scale, scale).
    let u = ((h >> 40) as f32 + 0.5) / (1u64 << 24) as f32;
    (2.0 * u - 1.0) * scale
}

/// Fill `weights` for a fresh entry; optimizer state (the remainder of
/// the payload) stays zero.
pub fn init_payload(seed: u64, key: u64, scale: f32, dim: usize, payload: &mut [f32]) {
    for (i, w) in payload.iter_mut().take(dim).enumerate() {
        *w = init_weight(seed, key, i, scale);
    }
    for s in payload.iter_mut().skip(dim) {
        *s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_key_sensitive() {
        let a = init_weight(1, 100, 0, 0.1);
        assert_eq!(a, init_weight(1, 100, 0, 0.1));
        assert_ne!(a, init_weight(1, 101, 0, 0.1));
        assert_ne!(a, init_weight(2, 100, 0, 0.1));
        assert_ne!(a, init_weight(1, 100, 1, 0.1));
    }

    #[test]
    fn within_scale_and_roughly_centered() {
        let scale = 0.05f32;
        let mut sum = 0.0f64;
        let n = 10_000;
        for k in 0..n {
            let w = init_weight(7, k, 3, scale);
            assert!(w.abs() <= scale, "w={w}");
            sum += w as f64;
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.002, "mean={mean}");
    }

    #[test]
    fn payload_init_zeroes_state() {
        let mut p = vec![9.0f32; 6];
        init_payload(1, 5, 0.1, 4, &mut p);
        assert!(p[..4].iter().all(|w| w.abs() <= 0.1 && *w != 9.0));
        assert_eq!(&p[4..], &[0.0, 0.0]);
    }
}
