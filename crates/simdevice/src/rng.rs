//! The workspace's one seeded generator.
//!
//! Every random stream in the system — torn-write crash images, storm
//! and Criteo samplers, skew draws, weight init, LSH planes, fault
//! schedules — is a pure function of its seed through the two functions
//! here, so a golden literal or a benchmark number means the same thing
//! in every build. The streams are pinned by the tests below; changing
//! either function moves every virtual metric on file.

/// Advance the SplitMix64 sequence held in `state` and return its next
/// value.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First SplitMix64 value of seed `z`: the stateless mixer that hashes
/// keys to nodes and derives per-index values.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    splitmix64_next(&mut z)
}

/// xoshiro256\*\*, seeded through SplitMix64 as its authors recommend.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Generator whose state is the first four SplitMix64 values of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || splitmix64_next(&mut x);
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` from the top 24 bits.
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// In `[0, n)` by reduction: uniform up to a modulo bias of `n` / 2⁶⁴.
    /// Panics on `n = 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro256starstar_matches_the_published_vector() {
        let mut r = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(got, [11520, 0, 1509978240, 1215971899390074240]);
    }

    #[test]
    fn splitmix64_matches_the_published_vector() {
        let mut x = 0u64;
        assert_eq!(splitmix64_next(&mut x), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64_next(&mut x), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    /// Captured from the benchmark's stand-in generator (`e2e/stubs/rand`)
    /// at `ac0ac0c`, which every number on file was produced with.
    #[test]
    fn seeded_stream_is_the_parent_stand_ins_draw_for_draw() {
        let mut r = Rng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C
            ]
        );
        let mut r = Rng::seed_from_u64(0xC0FFEE);
        assert_eq!(r.f64().to_bits(), 0x3FB2_0E99_A6DD_E4A0);
        assert_eq!(r.f32().to_bits(), 0x3F0F_989E);
        assert_eq!(r.below(1000), 595);
        assert!(!r.chance(0.3));
        assert_eq!(r.f64().to_bits(), 0x3FEE_EC7D_67C3_97C9);
        assert_eq!(r.below(7), 2);
        assert!(r.chance(0.9));
        assert_eq!(r.f32().to_bits(), 0x3F7B_CC18);
    }
}
