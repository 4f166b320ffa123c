//! Bit-identity sweep for the vectorized optimizer kernels.
//!
//! The `chunks_exact(KERNEL_LANES)` kernels must produce *exactly* the
//! bits of the scalar reference loop — not approximately: checkpoint
//! digests, crash-recovery comparisons, and the `parallel_equiv` suite
//! all compare payloads bit for bit, so a single differently-rounded
//! lane would surface as corruption. This sweep drives every optimizer
//! across dimensions that exercise the full-lane, remainder-only, and
//! mixed paths, over many seeded random payload/gradient streams, and
//! compares `to_bits()` after every step. The batched multi-row kernel
//! is held to the same standard against per-row applies.

use oe_core::optimizer::{Optimizer, OptimizerKind, KERNEL_LANES};

/// Dimensions straddling the lane width: below, at, above, multiples,
/// and off-by-one around multiples — every mix of vector body and
/// scalar remainder.
const DIMS: &[usize] = &[1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 64];

const SEEDS: &[u64] = &[1, 2, 3, 0xDEAD_BEEF, 0x5EED_CAFE];

/// splitmix64: tiny, seedable, and good enough to exercise every
/// rounding path (no external RNG crates on the test path).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f32 in [-1, 1).
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
    }

    /// Uniform f32 in [0, 1) — for state that must stay non-negative
    /// (AdaGrad accumulators, Adam second moments).
    fn next_pos_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

fn kinds() -> Vec<OptimizerKind> {
    vec![
        OptimizerKind::Sgd { lr: 0.05 },
        OptimizerKind::Sgd { lr: 1.0 },
        OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 },
        OptimizerKind::Adagrad { lr: 0.9, eps: 1e-4 },
        OptimizerKind::Adam {
            lr: 0.001,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        },
        OptimizerKind::Adam {
            lr: 0.1,
            beta1: 0.8,
            beta2: 0.99,
            eps: 1e-6,
        },
    ]
}

/// A payload whose state region respects each optimizer's invariants
/// (accumulators and second moments non-negative, step counter a small
/// whole number) so the sweep exercises realistic value ranges.
fn random_payload(kind: OptimizerKind, dim: usize, rng: &mut SplitMix) -> Vec<f32> {
    let mut p: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0).collect();
    match kind {
        OptimizerKind::Sgd { .. } => {}
        OptimizerKind::Adagrad { .. } => {
            p.extend((0..dim).map(|_| rng.next_pos_f32() * 4.0));
        }
        OptimizerKind::Adam { .. } => {
            p.extend((0..dim).map(|_| rng.next_f32())); // m
            p.extend((0..dim).map(|_| rng.next_pos_f32())); // v ≥ 0
            p.push((rng.next_u64() % 64) as f32); // t
        }
    }
    p
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn vectorized_matches_scalar_reference_bit_for_bit() {
    for kind in kinds() {
        let opt = kind.build();
        for &dim in DIMS {
            for &seed in SEEDS {
                let mut rng = SplitMix(seed ^ (dim as u64) << 32);
                let mut a = random_payload(kind, dim, &mut rng);
                let mut b = a.clone();
                // Several steps: state evolved by the kernel feeds back
                // into the next step, so drift would compound and show.
                for step in 0..8 {
                    let grad: Vec<f32> = (0..dim).map(|_| rng.next_f32()).collect();
                    opt.apply(dim, &mut a, &grad);
                    opt.apply_reference(dim, &mut b, &grad);
                    assert_eq!(
                        bits(&a),
                        bits(&b),
                        "{kind:?} dim={dim} seed={seed} step={step}: \
                         vectorized kernel diverged from scalar reference"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_kernel_matches_per_row_applies() {
    for kind in kinds() {
        let opt = kind.build();
        for &dim in &[1usize, 5, 8, 17, 32] {
            let stride = dim + kind.state_f32s(dim);
            for rows in [1usize, 2, 7, 16] {
                let mut rng = SplitMix(0xAB5E * (dim as u64 + 1) + rows as u64);
                let mut batch = Vec::with_capacity(rows * stride);
                for _ in 0..rows {
                    batch.extend(random_payload(kind, dim, &mut rng));
                }
                let grads: Vec<f32> = (0..rows * dim).map(|_| rng.next_f32()).collect();
                let mut per_row = batch.clone();
                for r in 0..rows {
                    opt.apply(
                        dim,
                        &mut per_row[r * stride..(r + 1) * stride],
                        &grads[r * dim..(r + 1) * dim],
                    );
                }
                opt.apply_batch(dim, &mut batch, &grads, rows).unwrap();
                assert_eq!(
                    bits(&batch),
                    bits(&per_row),
                    "{kind:?} dim={dim} rows={rows}: batched kernel diverged"
                );
            }
        }
    }
}

#[test]
fn shape_errors_are_structured_and_nonmutating() {
    for kind in kinds() {
        let opt: Optimizer = kind.build();
        let dim = KERNEL_LANES + 1;
        let expected = dim + kind.state_f32s(dim);
        let mut rng = SplitMix(7);
        let before = random_payload(kind, dim, &mut rng);

        // Short gradient.
        let mut p = before.clone();
        let err = opt
            .apply_batch(dim, &mut p, &vec![0.5; dim - 1], 1)
            .expect_err("short gradient must be rejected");
        assert_eq!(
            (err.dim, err.grad_len, err.payload_len, err.payload_expected),
            (dim, dim - 1, expected, expected)
        );
        assert_eq!(bits(&p), bits(&before), "payload untouched on error");

        // Long gradient.
        assert!(opt
            .apply_batch(dim, &mut p, &vec![0.5; dim + 1], 1)
            .is_err());

        // Wrong payload length (off by one either way).
        let mut long = before.clone();
        long.push(0.0);
        assert!(opt.apply_batch(dim, &mut long, &vec![0.5; dim], 1).is_err());
        let mut short = before.clone();
        short.pop();
        assert!(opt
            .apply_batch(dim, &mut short, &vec![0.5; dim], 1)
            .is_err());

        // Batched shape mismatches.
        let mut rows2 = [before.clone(), before.clone()].concat();
        assert!(opt
            .apply_batch(dim, &mut rows2, &vec![0.0; 2 * dim - 1], 2)
            .is_err());
        assert!(opt
            .apply_batch(dim, &mut rows2[..2 * expected - 1], &vec![0.0; 2 * dim], 2)
            .is_err());

        // The error renders the mismatch for humans.
        let text = err.to_string();
        assert!(text.contains("shape mismatch"), "{text}");
    }
}
