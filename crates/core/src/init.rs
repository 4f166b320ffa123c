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
///
/// # Panics
/// If `payload` is shorter than `dim`.
pub fn init_payload(seed: u64, key: u64, scale: f32, dim: usize, payload: &mut [f32]) {
    let (weights, state) = payload.split_at_mut(dim);
    init_rows(seed, &[key], scale, weights);
    state.fill(0.0);
}

/// Fill `out` row by row: row `r` holds `init_weight(seed, keys[r], i,
/// scale)` for `i` in `0..dim`, where `dim = out.len() / keys.len()`.
/// Bit-identical to calling [`init_weight`] per element, on every CPU:
/// one kernel body is compiled twice, for the baseline instruction set
/// and for AVX2, and the AVX2 copy runs wherever the CPU has it.
///
/// # Panics
/// If `out` does not split into `keys.len()` rows of equal length.
pub fn init_rows(seed: u64, keys: &[u64], scale: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if wide_detected() {
        // SAFETY: `rows_wide`'s one precondition is that the CPU runs
        // the instructions its `#[target_feature]` enables, and
        // `wide_detected` has just checked each of them at run time.
        return unsafe { rows_wide(seed, keys, scale, out) };
    }
    rows_scalar(seed, keys, scale, out)
}

/// [`rows_body`] for the baseline instruction set.
fn rows_scalar(seed: u64, keys: &[u64], scale: f32, out: &mut [f32]) {
    rows_body(seed, keys, scale, out)
}

/// Whether the running CPU has every feature [`rows_wide`] is compiled
/// for (the answer is cached after the first call).
#[cfg(target_arch = "x86_64")]
fn wide_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// [`rows_body`] compiled for AVX2: four 64-bit lanes a vector. An
/// AVX-512DQ copy runs the kernel twice as fast again, but measured
/// end to end it gained no training throughput over this one and set-up
/// ran ~16 % slower on the PMem-bound workload (EXPERIMENTS.md, "Trainer
/// batch work at machine width").
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_wide(seed: u64, keys: &[u64], scale: f32, out: &mut [f32]) {
    rows_body(seed, keys, scale, out)
}

/// The one kernel body. Per element it is [`init_weight`] with the
/// 24-bit draw converted through `i32`, which is exact (the draw is
/// below 2²⁴) and has a vector instruction where `u64 → f32` has none.
#[inline(always)]
fn rows_body(seed: u64, keys: &[u64], scale: f32, out: &mut [f32]) {
    let dim = out.len().checked_div(keys.len()).unwrap_or(0);
    assert_eq!(dim * keys.len(), out.len(), "rows of unequal length");
    if dim == 0 {
        return;
    }
    for (row, &key) in out.chunks_exact_mut(dim).zip(keys) {
        for (i, w) in row.iter_mut().enumerate() {
            let h = splitmix64(seed ^ splitmix64(key ^ ((i as u64) << 32)));
            let u = ((h >> 40) as i32 as f32 + 0.5) / (1u64 << 24) as f32;
            *w = (2.0 * u - 1.0) * scale;
        }
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

    type RowKernel = fn(u64, &[u64], f32, &mut [f32]);

    /// Every compiled copy of the row kernel this CPU can run, by name.
    fn runnable_variants() -> Vec<(&'static str, RowKernel)> {
        let mut variants: Vec<(&'static str, RowKernel)> = vec![("scalar", rows_scalar)];
        #[cfg(target_arch = "x86_64")]
        if wide_detected() {
            variants.push(("wide", |seed, keys, scale, out| {
                // SAFETY: pushed only after `wide_detected` found every
                // feature `rows_wide` is compiled for.
                unsafe { rows_wide(seed, keys, scale, out) }
            }));
        }
        variants.push(("dispatched", init_rows));
        variants
    }

    #[test]
    fn every_row_kernel_variant_equals_init_weight_bit_for_bit() {
        let variants = runnable_variants();
        let names: Vec<&str> = variants.iter().map(|(n, _)| *n).collect();
        println!("row kernel variants run: {}", names.join(", "));
        let mut random = 0x0123_4567_89AB_CDEFu64;
        let mut keys = vec![0, 1, u64::MAX];
        keys.extend((0..5).map(|_| oe_simdevice::rng::splitmix64_next(&mut random)));
        let mut seeds = vec![0, 42, u64::MAX];
        // The synthetic gradients' seeds: batch index ^ 0x5A5A.
        seeds.extend([0u64, 1, 7, 4_095].map(|b| b ^ 0x5A5A));
        for dim in 1..=130 {
            for &seed in &seeds {
                for scale in [0.01f32, 1.0] {
                    let expect: Vec<u32> = keys
                        .iter()
                        .flat_map(|&k| (0..dim).map(move |i| init_weight(seed, k, i, scale)))
                        .map(f32::to_bits)
                        .collect();
                    for &(name, kernel) in &variants {
                        let mut out = vec![f32::NAN; keys.len() * dim];
                        kernel(seed, &keys, scale, &mut out);
                        let got: Vec<u32> = out.iter().map(|w| w.to_bits()).collect();
                        assert_eq!(
                            got, expect,
                            "{name}: dim {dim} seed {seed:#x} scale {scale}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_kernel_accepts_no_rows() {
        for (_, kernel) in runnable_variants() {
            kernel(1, &[], 0.1, &mut []);
            kernel(1, &[3, 4], 0.1, &mut []);
        }
    }

    #[test]
    #[should_panic(expected = "rows of unequal length")]
    fn row_kernel_refuses_ragged_rows() {
        init_rows(1, &[3, 4], 0.1, &mut [0.0; 3]);
    }

    #[test]
    fn payload_init_equals_init_weight_and_zeroes_the_whole_tail() {
        for dim in [1, 7, 8, 9, 16, 33, 64, 130] {
            for tail in [0, 1, dim, 2 * dim] {
                let mut p = vec![9.0f32; dim + tail];
                init_payload(77, u64::MAX - dim as u64, 0.05, dim, &mut p);
                for (i, w) in p[..dim].iter().enumerate() {
                    let expect = init_weight(77, u64::MAX - dim as u64, i, 0.05);
                    assert_eq!(w.to_bits(), expect.to_bits(), "dim {dim} weight {i}");
                }
                assert!(
                    p[dim..].iter().all(|s| s.to_bits() == 0),
                    "dim {dim} tail {tail}"
                );
            }
        }
    }
}
