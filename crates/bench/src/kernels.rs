//! Wall-clock microbenchmarks for the two hot-path engines this crate
//! gates: the vectorized optimizer kernels and the zero-copy codec.
//!
//! Everything else in `oe-bench` measures *virtual* time (the cost
//! model), which is deterministic but blind to real instruction-level
//! wins: a SIMD kernel and its scalar reference charge identical
//! virtual ns by design. This module measures real nanoseconds with
//! `Instant`, best-of-`reps` to shed scheduler noise:
//!
//! - per-row optimizer applies, scalar reference vs vectorized kernels
//!   vs the batched multi-row kernel, in million f32 updates/s;
//! - the burst codec — `Packet::encode_push` and `validate_frame` +
//!   `RequestView` + scatter, the only encode and decode a burst has —
//!   in MB/s;
//! - the shared integrity hash on its two paths: the frame checksum
//!   pass in MB/s and one PMem slot checksum in ns.
//!
//! Absolute rates are machine-dependent and only recorded for the
//! trajectory; the kernel *ratios* (vector/reference, batch/reference)
//! are what the `ci.sh` regression gate holds steady through their
//! geomeans — a vanished speedup means the vectorized kernels stopped
//! engaging.

use oe_core::init::splitmix64 as mix;
use oe_core::OptimizerKind;
use oe_net::{validate_frame, Packet, RequestView};
use oe_pmem::layout::payload_checksum;
use std::hint::black_box;
use std::time::Instant;

/// Work sizes for one kernels run.
#[derive(Debug, Clone)]
pub struct KernelsConfig {
    /// Payload rows per timed repetition.
    pub rows: usize,
    /// Timed repetitions; the best (fastest) is reported.
    pub reps: usize,
    /// Embedding dimensions swept.
    pub dims: Vec<usize>,
    /// Keys in the codec-bench push frame.
    pub codec_keys: usize,
    /// Gradient f32s per key in the codec-bench push frame.
    pub codec_dim: usize,
}

impl KernelsConfig {
    /// Full run.
    pub fn paper() -> Self {
        Self {
            rows: 8192,
            reps: 7,
            dims: vec![8, 32, 64],
            codec_keys: 16_384,
            codec_dim: 32,
        }
    }

    /// CI smoke run: same sweep, ~1/16 the work.
    pub fn smoke() -> Self {
        Self {
            rows: 1024,
            reps: 5,
            dims: vec![8, 32, 64],
            codec_keys: 2048,
            codec_dim: 32,
        }
    }
}

/// One optimizer × dimension row of the sweep.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Optimizer short name (`sgd`, `adagrad`, `adam`).
    pub kind: String,
    /// Embedding dimension.
    pub dim: usize,
    /// Scalar reference loop (`Optimizer::apply_reference`), million f32
    /// weight updates per second.
    pub scalar_mf32s: f64,
    /// Vectorized per-row kernel, million f32 updates per second.
    pub vector_mf32s: f64,
    /// Batched multi-row kernel, million f32 updates per second.
    pub batch_mf32s: f64,
    /// `vector_mf32s / scalar_mf32s` — the gated ratio.
    pub speedup_vector: f64,
    /// `batch_mf32s / scalar_mf32s` — the gated ratio.
    pub speedup_batch: f64,
}

/// Codec throughput over one large push frame.
#[derive(Debug, Clone)]
pub struct CodecResult {
    /// Frame size in bytes.
    pub frame_bytes: usize,
    /// `Packet::encode_push` (borrowed single-pass path), MB/s.
    pub encode_borrowed_mbps: f64,
    /// `validate_frame` + `RequestView` + scatter into reused buffers,
    /// MB/s — the server's decode path.
    pub decode_view_mbps: f64,
    /// `validate_frame` alone — the frame integrity hash — MB/s.
    pub checksum_mbps: f64,
    /// `payload_checksum` of one `codec_dim`-wide f32 slot payload (what
    /// every PMem `read_slot` / `write_slot` pays), ns per call.
    pub slot_checksum_ns: f64,
}

/// Full artifact, serialized to `BENCH_kernels.json`.
#[derive(Debug, Clone)]
pub struct KernelsReport {
    /// The configuration measured.
    pub config: KernelsConfig,
    /// One row per optimizer × dimension.
    pub kernels: Vec<KernelResult>,
    /// The codec comparison.
    pub codec: CodecResult,
}

fn small_f32(seed: u64, i: usize) -> f32 {
    ((mix(seed ^ (i as u64) << 17) % 33) as f32 - 16.0) * 0.0625
}

/// Best-of-`reps` wall time of `work`, in ns.
fn best_ns<F: FnMut()>(reps: usize, mut work: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        work();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best.max(1)
}

fn payload_rows(kind: OptimizerKind, dim: usize, rows: usize, seed: u64) -> Vec<f32> {
    let stride = dim + kind.state_f32s(dim);
    (0..rows * stride)
        .map(|i| {
            // Keep state regions non-negative (AdaGrad accumulators,
            // Adam second moments); weights can be anything small.
            let in_row = i % stride;
            let v = small_f32(seed, i);
            if in_row >= dim {
                v.abs()
            } else {
                v
            }
        })
        .collect()
}

fn bench_kind(cfg: &KernelsConfig, kind: OptimizerKind, name: &str, dim: usize) -> KernelResult {
    let stride = dim + kind.state_f32s(dim);
    let grads: Vec<f32> = (0..cfg.rows * dim).map(|i| small_f32(7, i)).collect();
    let elems = (cfg.rows * dim) as f64;

    let opt = kind.build();
    // The two per-row loops are spelled out so each apply is a direct
    // call: behind a shared fn pointer the reference arm measures slower.
    let mut p = payload_rows(kind, dim, cfg.rows, 1);
    let scalar_ns = best_ns(cfg.reps, || {
        let rows = black_box(&mut p).chunks_exact_mut(stride);
        for (r, g) in rows.zip(grads.chunks_exact(dim)) {
            opt.apply_reference(dim, r, g);
        }
    });
    let mut p = payload_rows(kind, dim, cfg.rows, 1);
    let vector_ns = best_ns(cfg.reps, || {
        let rows = black_box(&mut p).chunks_exact_mut(stride);
        for (r, g) in rows.zip(grads.chunks_exact(dim)) {
            opt.apply(dim, r, g);
        }
    });
    let mut p = payload_rows(kind, dim, cfg.rows, 1);
    let batch_ns = best_ns(cfg.reps, || {
        opt.apply_batch(dim, black_box(&mut p), &grads, cfg.rows)
            .expect("bench shapes are valid");
    });

    let mf32s = |ns: u64| elems * 1e3 / ns as f64;
    KernelResult {
        kind: name.to_string(),
        dim,
        scalar_mf32s: mf32s(scalar_ns),
        vector_mf32s: mf32s(vector_ns),
        batch_mf32s: mf32s(batch_ns),
        speedup_vector: scalar_ns as f64 / vector_ns as f64,
        speedup_batch: scalar_ns as f64 / batch_ns as f64,
    }
}

fn bench_codec(cfg: &KernelsConfig) -> CodecResult {
    let keys: Vec<u64> = (0..cfg.codec_keys as u64).map(mix).collect();
    let grads: Vec<f32> = (0..cfg.codec_keys * cfg.codec_dim)
        .map(|i| small_f32(3, i))
        .collect();
    let frame = Packet::encode_push(9, 1, 0, 1, &keys, &grads);
    let frame_bytes = frame.len();
    let mb = frame_bytes as f64 / (1024.0 * 1024.0);

    let encode_borrowed_ns = best_ns(cfg.reps, || {
        black_box(Packet::encode_push(9, 1, 0, 1, &keys, &grads));
    });

    let (mut kbuf, mut gbuf): (Vec<u64>, Vec<f32>) = (Vec::new(), Vec::new());
    let decode_view_ns = best_ns(cfg.reps, || {
        let meta = validate_frame(&frame).expect("valid frame");
        match RequestView::decode(meta, black_box(&frame)).expect("valid frame") {
            RequestView::Push { keys, grads, .. } => {
                kbuf.clear();
                gbuf.clear();
                keys.extend_into(&mut kbuf);
                grads.extend_into(&mut gbuf);
                black_box((&kbuf, &gbuf));
            }
            _ => unreachable!("encoded a push"),
        }
    });
    let checksum_ns = best_ns(cfg.reps, || {
        black_box(validate_frame(black_box(&frame)).expect("valid frame"));
    });
    let slot: Vec<u8> = grads[..cfg.codec_dim]
        .iter()
        .flat_map(|g| g.to_le_bytes())
        .collect();
    let slot_calls = cfg.codec_keys as u64;
    let slot_ns = best_ns(cfg.reps, || {
        for key in 0..slot_calls {
            black_box(payload_checksum(key, 1, black_box(&slot)));
        }
    });
    let mbps = |ns: u64| mb * 1e9 / ns as f64;
    CodecResult {
        frame_bytes,
        checksum_mbps: mbps(checksum_ns),
        slot_checksum_ns: slot_ns as f64 / slot_calls as f64,
        encode_borrowed_mbps: mbps(encode_borrowed_ns),
        decode_view_mbps: mbps(decode_view_ns),
    }
}

/// Run the full sweep.
pub fn run(cfg: &KernelsConfig) -> KernelsReport {
    let kinds: [(OptimizerKind, &str); 3] = [
        (OptimizerKind::Sgd { lr: 0.0625 }, "sgd"),
        (OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 }, "adagrad"),
        (
            OptimizerKind::Adam {
                lr: 0.001,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            "adam",
        ),
    ];
    let mut kernels = Vec::new();
    for (kind, name) in kinds {
        for &dim in &cfg.dims {
            kernels.push(bench_kind(cfg, kind, name, dim));
        }
    }
    KernelsReport {
        config: cfg.clone(),
        codec: bench_codec(cfg),
        kernels,
    }
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for v in vals {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    (log_sum / n.max(1) as f64).exp()
}

/// Trajectory metrics: every per-cell ratio and the vectorized rates
/// (recorded for history), plus sweep-wide geometric means of the
/// speedup ratios and the absolute codec rates. Only the geomeans are
/// *gated* ([`gated_metrics`]).
pub fn metrics(r: &KernelsReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for k in &r.kernels {
        m.push((
            format!("{}_d{}_speedup_vector", k.kind, k.dim),
            k.speedup_vector,
        ));
        m.push((
            format!("{}_d{}_speedup_batch", k.kind, k.dim),
            k.speedup_batch,
        ));
        m.push((
            format!("{}_d{}_vector_mf32s", k.kind, k.dim),
            k.vector_mf32s,
        ));
    }
    m.push((
        "geomean_speedup_vector".to_string(),
        geomean(r.kernels.iter().map(|k| k.speedup_vector)),
    ));
    m.push((
        "geomean_speedup_batch".to_string(),
        geomean(r.kernels.iter().map(|k| k.speedup_batch)),
    ));
    m.push((
        "codec_view_decode_mbps".to_string(),
        r.codec.decode_view_mbps,
    ));
    m.push(("codec_checksum_mbps".to_string(), r.codec.checksum_mbps));
    m.push(("slot_checksum_ns".to_string(), r.codec.slot_checksum_ns));
    m
}

/// The noise-robust subset of [`metrics`] the gate holds: the sweep-wide
/// geomean speedups. A single cell's wall-clock ratio can swing ±40%
/// run to run, but the geomean over the whole sweep is stable — and a
/// vanished fast path still drags it down.
pub fn gated_metrics(r: &KernelsReport) -> Vec<(String, f64)> {
    let mut m = metrics(r);
    m.retain(|(k, _)| k.starts_with("geomean_"));
    m
}

/// Human-readable table, printed by the `kernels` binary and
/// `figures -- kernels`.
pub fn print_report(r: &KernelsReport) {
    println!(
        "optimizer kernels: {} rows, best of {} reps (wall clock)",
        r.config.rows, r.config.reps
    );
    println!(
        "{:<10} {:>5} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "kind", "dim", "scalar Mf32/s", "vector Mf32/s", "batch Mf32/s", "vec ×", "batch ×"
    );
    for k in &r.kernels {
        println!(
            "{:<10} {:>5} {:>14.1} {:>14.1} {:>14.1} {:>8.2} {:>8.2}",
            k.kind,
            k.dim,
            k.scalar_mf32s,
            k.vector_mf32s,
            k.batch_mf32s,
            k.speedup_vector,
            k.speedup_batch
        );
    }
    let c = &r.codec;
    println!(
        "codec ({} KiB push frame): borrowed encode {:.0} MB/s, view decode + scatter {:.0} MB/s",
        c.frame_bytes / 1024,
        c.encode_borrowed_mbps,
        c.decode_view_mbps
    );
    println!(
        "integrity hash: frame checksum {:.0} MB/s, slot checksum {:.1} ns",
        c.checksum_mbps, c.slot_checksum_ns
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KernelsConfig {
        KernelsConfig {
            rows: 64,
            reps: 1,
            dims: vec![8, 9],
            codec_keys: 128,
            codec_dim: 8,
        }
    }

    #[test]
    fn sweep_produces_finite_positive_rates() {
        let r = run(&tiny());
        assert_eq!(r.kernels.len(), 6, "3 kinds × 2 dims");
        for k in &r.kernels {
            for v in [
                k.scalar_mf32s,
                k.vector_mf32s,
                k.batch_mf32s,
                k.speedup_vector,
                k.speedup_batch,
            ] {
                assert!(v.is_finite() && v > 0.0, "{k:?}");
            }
        }
        for v in [
            r.codec.encode_borrowed_mbps,
            r.codec.decode_view_mbps,
            r.codec.checksum_mbps,
            r.codec.slot_checksum_ns,
        ] {
            assert!(v.is_finite() && v > 0.0);
        }
    }

    #[test]
    fn metrics_cover_every_row_and_the_codec() {
        let r = run(&tiny());
        let m = metrics(&r);
        assert_eq!(m.len(), 6 * 3 + 5);
        assert!(m.iter().any(|(k, _)| k == "sgd_d8_speedup_vector"));
        assert!(m.iter().any(|(k, _)| k == "codec_view_decode_mbps"));
        let gated: Vec<String> = gated_metrics(&r).into_iter().map(|(k, _)| k).collect();
        assert_eq!(gated, ["geomean_speedup_vector", "geomean_speedup_batch"]);
        assert!(m.iter().any(|(k, _)| k == "codec_checksum_mbps"));
        assert!(m.iter().any(|(k, _)| k == "slot_checksum_ns"));
    }
}
