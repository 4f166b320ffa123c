//! GPU compute cost model.
//!
//! The dense part of a DLRM (MLP + interactions) runs on the GPU; its
//! per-batch time scales with the *per-worker* share of the global batch
//! (data parallelism), which is why adding GPUs shrinks compute time
//! while the PS burst time stays roughly constant — the effect that
//! makes the PS the bottleneck at 16 GPUs in Figs. 3/6/7.
//!
//! Calibration: the paper's Fig. 7 shows DRAM-PS total time scaling
//! 1.0 → 0.60 → 0.35 for 4 → 8 → 16 GPUs, which implies compute ≈ 16×
//! the PS burst time at 4 GPUs. [`GpuModel::paper_default`] encodes
//! that ratio against the simulator's default workload scale.

use oe_simdevice::Nanos;

/// Per-worker GPU compute time model.
#[derive(Debug, Clone, Copy)]
pub struct GpuModel {
    /// Fixed per-batch kernel-launch / synchronization overhead (ns).
    pub batch_overhead_ns: u64,
    /// Compute time per training input per embedding dimension (ns):
    /// covers the MLP forward+backward proportional to concat width.
    pub ns_per_input_dim: f64,
    /// Allreduce time for the dense parameters per batch (ns) — paid
    /// once per batch regardless of worker count (ring allreduce is
    /// bandwidth-bound on the slowest link).
    pub allreduce_ns: u64,
}

impl GpuModel {
    /// Calibrated default (V100-class, DeepFM on dim-64 embeddings).
    pub fn paper_default() -> Self {
        Self {
            batch_overhead_ns: 200_000, // 0.2 ms launch + sync
            ns_per_input_dim: 700.0,    // ~46 ms for 1024 inputs × dim 64
            allreduce_ns: 1_200_000,    // dense part is small (<1%)
        }
    }

    /// A faster GPU (halves per-input time) — for sensitivity studies.
    pub fn fast() -> Self {
        let mut m = Self::paper_default();
        m.ns_per_input_dim /= 2.0;
        m
    }

    /// Compute time for one worker processing `inputs` examples with
    /// `fields` sparse features of dimension `dim`.
    pub fn compute_ns(&self, inputs: usize, fields: usize, dim: usize) -> Nanos {
        self.batch_overhead_ns
            + (inputs as f64 * fields as f64 * dim as f64 * self.ns_per_input_dim / 26.0) as u64
            + self.allreduce_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_with_inputs_and_dim() {
        let g = GpuModel::paper_default();
        let base = g.compute_ns(1024, 26, 64);
        assert!(g.compute_ns(2048, 26, 64) > base);
        assert!(g.compute_ns(1024, 26, 128) > base);
        assert!(g.compute_ns(512, 26, 64) < base);
    }

    #[test]
    fn data_parallel_speedup() {
        let g = GpuModel::paper_default();
        // Same global batch split over more workers → less per-worker
        // compute (modulo fixed overhead).
        let four = g.compute_ns(4096 / 4, 26, 64);
        let sixteen = g.compute_ns(4096 / 16, 26, 64);
        assert!(four > 2 * sixteen);
    }

    #[test]
    fn default_magnitude_sane() {
        // 1024 inputs at dim 64 ≈ tens of ms: the regime where the PS
        // burst (a few ms) is hidden at low GPU counts.
        let g = GpuModel::paper_default();
        let t = g.compute_ns(1024, 26, 64);
        assert!((10_000_000..200_000_000).contains(&t), "t = {t}");
    }
}
