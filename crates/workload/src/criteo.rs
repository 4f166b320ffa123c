//! Synthetic Criteo-like CTR dataset (stand-in for the Criteo Kaggle
//! display-advertising dataset used in the paper's Fig. 15).
//!
//! Structure mirrors the real dataset: 13 dense (integer-count) features
//! and 26 categorical fields of wildly varying cardinality (a few tens
//! to millions). Labels are drawn from a hidden ground-truth logistic
//! model over per-key latent effects, so a DLRM trained on the samples
//! has real signal to learn — integration tests assert logloss drops
//! well below the chance baseline.

use oe_simdevice::rng::Rng;

/// Number of dense features (as in Criteo).
pub const DENSE_FEATURES: usize = 13;
/// Number of categorical fields (as in Criteo).
pub const CAT_FIELDS: usize = 26;

/// Scaled-down per-field cardinalities echoing the real dataset's mix of
/// tiny and huge vocabularies.
pub const FIELD_CARDINALITIES: [u64; CAT_FIELDS] = [
    1200, 550, 150_000, 80_000, 300, 20, 11_000, 600, 3, 40_000, 5_000, 120_000, 3_000, 26, 9_000,
    60_000, 10, 4_000, 2_000, 4, 100_000, 15, 15, 35_000, 70, 48_000,
];

/// One training sample.
#[derive(Debug, Clone)]
pub struct CriteoSample {
    /// Dense features, already log-normalized to ≈ [0, 1].
    pub dense: Vec<f32>,
    /// One key per categorical field, globally offset (field `f`'s keys
    /// live in a disjoint range), directly usable as PS keys.
    pub cat_keys: Vec<u64>,
    /// Click label.
    pub label: f32,
}

/// Deterministic synthetic-Criteo sampler.
pub struct CriteoSynth {
    seed: u64,
    field_offsets: [u64; CAT_FIELDS],
    total_keys: u64,
    skew_lambda: f64,
}

impl CriteoSynth {
    /// Create a sampler. Within each field, key popularity follows a
    /// truncated exponential (`skew_lambda` over normalized rank).
    pub fn new(seed: u64) -> Self {
        let mut offsets = [0u64; CAT_FIELDS];
        let mut acc = 0u64;
        for (i, &c) in FIELD_CARDINALITIES.iter().enumerate() {
            offsets[i] = acc;
            acc += c;
        }
        Self {
            seed,
            field_offsets: offsets,
            total_keys: acc,
            skew_lambda: 200.0,
        }
    }

    /// Total distinct keys across all fields.
    pub fn total_keys(&self) -> u64 {
        self.total_keys
    }

    /// The global key range of field `f`.
    pub fn field_range(&self, f: usize) -> std::ops::Range<u64> {
        let start = self.field_offsets[f];
        start..start + FIELD_CARDINALITIES[f]
    }

    /// Hidden ground-truth effect of a key on the click logit.
    fn key_effect(&self, key: u64) -> f32 {
        let h = oe_hash(self.seed ^ 0xABCD, key);
        // Effects in (-0.6, 0.6).
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 1.2
    }

    fn sample_field_key(&self, f: usize, rng: &mut Rng) -> u64 {
        let card = FIELD_CARDINALITIES[f];
        let u = rng.f64();
        let l = self.skew_lambda;
        let x = -(1.0 - u * (1.0 - (-l).exp())).ln() / l;
        let rank = ((x * card as f64) as u64).min(card - 1);
        // Scatter ranks so hot keys are not clustered at range start.
        self.field_offsets[f] + scatter(rank, card, self.seed ^ f as u64)
    }

    /// Draw sample `idx` (pure function of (seed, idx)).
    pub fn sample(&self, idx: u64) -> CriteoSample {
        let mut rng = Rng::seed_from_u64(self.seed ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let dense: Vec<f32> = (0..DENSE_FEATURES)
            .map(|_| {
                // Log-normal-ish counts squashed to ~[0,1].
                let raw = rng.f32() * rng.f32() * 100.0;
                (1.0 + raw).ln() / 5.0
            })
            .collect();
        let cat_keys: Vec<u64> = (0..CAT_FIELDS)
            .map(|f| self.sample_field_key(f, &mut rng))
            .collect();
        // Ground-truth logit: key effects + a dense term + noise.
        let mut logit: f32 = -1.0; // base CTR below 50%
        for &k in &cat_keys {
            logit += self.key_effect(k);
        }
        logit += dense.iter().sum::<f32>() * 0.15;
        logit += (rng.f32() - 0.5) * 0.4;
        let p = 1.0 / (1.0 + (-logit).exp());
        let label = if rng.f32() < p { 1.0 } else { 0.0 };
        CriteoSample {
            dense,
            cat_keys,
            label,
        }
    }

    /// Draw a contiguous mini-batch.
    pub fn batch(&self, start_idx: u64, n: usize) -> Vec<CriteoSample> {
        (0..n as u64).map(|i| self.sample(start_idx + i)).collect()
    }
}

fn oe_hash(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// A cheap bijective-enough scatter of ranks within a field (affine map
/// with an odd multiplier modulo the cardinality is injective when the
/// multiplier is coprime with `card`; we retry until coprime).
fn scatter(rank: u64, card: u64, seed: u64) -> u64 {
    let mut m = (oe_hash(seed, 0x5EED) | 1) % card.max(1);
    if m == 0 {
        m = 1;
    }
    while gcd(m, card) != 1 {
        m += 2;
        if m >= card {
            m = 1;
            break;
        }
    }
    (rank.wrapping_mul(m).wrapping_add(oe_hash(seed, 1) % card)) % card
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Pinned to what the parent commit (`ac0ac0c`, the benchmark's
    /// stand-in generator) drew for this (seed, index).
    #[test]
    fn sample_is_pinned() {
        let s = CriteoSynth::new(42).sample(7);
        let dense: Vec<u32> = s.dense.iter().map(|d| d.to_bits()).collect();
        assert_eq!(
            dense,
            [
                0x3e1f4286, 0x3f0b4f5b, 0x3f0d37d6, 0x3f2bb379, 0x3ef8a75d, 0x3f4625a6, 0x3ecf1162,
                0x3edc1cbb, 0x3f18530e, 0x3dda2a90, 0x3f4d359d, 0x3f159096, 0x3f4a00b1
            ]
        );
        assert_eq!(
            s.cat_keys,
            [
                946, 1508, 84573, 208810, 231985, 232069, 233019, 243231, 243670, 279682, 285756,
                377280, 410744, 411683, 412784, 437293, 480707, 480867, 485384, 486711, 530362,
                586727, 586732, 599313, 621805, 659989
            ]
        );
        assert_eq!(s.label, 0.0);
    }

    #[test]
    fn deterministic_samples() {
        let s = CriteoSynth::new(7);
        let a = s.sample(5);
        let b = s.sample(5);
        assert_eq!(a.cat_keys, b.cat_keys);
        assert_eq!(a.dense, b.dense);
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn keys_stay_in_field_ranges() {
        let s = CriteoSynth::new(1);
        for idx in 0..200 {
            let smp = s.sample(idx);
            assert_eq!(smp.cat_keys.len(), CAT_FIELDS);
            for (f, &k) in smp.cat_keys.iter().enumerate() {
                assert!(s.field_range(f).contains(&k), "field {f} key {k}");
            }
            assert_eq!(smp.dense.len(), DENSE_FEATURES);
            assert!(smp.label == 0.0 || smp.label == 1.0);
        }
    }

    #[test]
    fn fields_are_disjoint_and_cover() {
        let s = CriteoSynth::new(1);
        let mut end = 0;
        for f in 0..CAT_FIELDS {
            let r = s.field_range(f);
            assert_eq!(r.start, end);
            end = r.end;
        }
        assert_eq!(end, s.total_keys());
    }

    #[test]
    fn labels_have_signal_and_balance() {
        let s = CriteoSynth::new(3);
        let n = 4000;
        let pos: f32 = (0..n).map(|i| s.sample(i).label).sum();
        let ctr = pos / n as f32;
        assert!((0.05..0.8).contains(&ctr), "ctr = {ctr}");
        // Signal check: conditional CTR differs between samples containing
        // a strongly positive key vs a strongly negative one.
        let mut hi = (0.0f32, 0.0f32);
        let mut lo = (0.0f32, 0.0f32);
        for i in 0..n {
            let smp = s.sample(i);
            let effect: f32 = smp.cat_keys.iter().map(|&k| s.key_effect(k)).sum();
            if effect > 0.5 {
                hi = (hi.0 + smp.label, hi.1 + 1.0);
            } else if effect < -0.5 {
                lo = (lo.0 + smp.label, lo.1 + 1.0);
            }
        }
        if hi.1 > 20.0 && lo.1 > 20.0 {
            assert!(hi.0 / hi.1 > lo.0 / lo.1, "keys carry signal");
        }
    }

    #[test]
    fn field_skew_reuses_hot_keys() {
        let s = CriteoSynth::new(9);
        let mut distinct = HashSet::new();
        let refs = 2000;
        for i in 0..refs {
            distinct.insert(s.sample(i).cat_keys[2]); // a 150k-card field
        }
        // With skew, far fewer distinct keys than references.
        assert!(
            (distinct.len() as f64) < refs as f64 * 0.8,
            "distinct {} of {refs}",
            distinct.len()
        );
    }
}
