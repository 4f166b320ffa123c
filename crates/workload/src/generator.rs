//! Synchronous-training batch generation.
//!
//! A global batch of `batch_size` training inputs is split evenly across
//! `workers` GPU workers (data parallelism); each input references
//! `fields` sparse features sampled from the skew model. Workers dedup
//! their key lists before pulling (standard practice; the PS sees one
//! pull + one update per distinct key per worker per batch — the paired
//! pattern of Fig. 2).

use crate::skew::SkewModel;
use oe_simdevice::rng::splitmix64_next;

/// Embedding key.
pub type Key = u64;

/// A seeded uniform-f64 stream (splitmix64). The batch generator owns
/// its randomness outright so a workload is a pure function of
/// `(spec, batch, worker)`; tests that assert on hit rates or key
/// overlap can therefore pin tight bounds.
#[derive(Debug, Clone)]
pub struct UniformStream {
    state: u64,
}

impl UniformStream {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.state)
    }

    /// Next uniform f64 in [0, 1) (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Total distinct embedding keys in the model.
    pub num_keys: u64,
    /// Sparse features per training input.
    pub fields: usize,
    /// Global batch size (inputs per synchronous step).
    pub batch_size: usize,
    /// Number of GPU workers sharing the batch.
    pub workers: usize,
    /// Access-skew model.
    pub skew: SkewModel,
    /// RNG seed: the whole workload is a pure function of (spec, batch).
    pub seed: u64,
    /// Popularity drift: the rank→key mapping rotates by this many keys
    /// per batch, modelling item churn over a long trace (new items
    /// trend, old ones fade — the paper's 147-day production trace).
    /// 0 = stationary (default).
    pub drift_keys_per_batch: u64,
}

impl WorkloadSpec {
    /// A small default spec for tests.
    pub fn small() -> Self {
        Self {
            num_keys: 10_000,
            fields: 8,
            batch_size: 128,
            workers: 2,
            skew: SkewModel::paper_fit(),
            seed: 1234,
            drift_keys_per_batch: 0,
        }
    }

    /// Keys referenced per worker per batch (before dedup).
    pub fn keys_per_worker(&self) -> usize {
        (self.batch_size / self.workers.max(1)) * self.fields
    }
}

/// One worker's share of a global batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch index this belongs to.
    pub batch_idx: u64,
    /// Worker index.
    pub worker: usize,
    /// Per-input key lists (`inputs × fields`), for model training.
    pub input_keys: Vec<Vec<Key>>,
    /// Deduplicated, sorted keys this worker pulls/pushes.
    pub unique_keys: Vec<Key>,
}

impl Batch {
    /// Number of inputs in this worker batch.
    pub fn inputs(&self) -> usize {
        self.input_keys.len()
    }

    /// Raw (with duplicates) key references.
    pub fn total_refs(&self) -> usize {
        self.input_keys.iter().map(|v| v.len()).sum()
    }
}

/// Deterministic batch generator.
pub struct WorkloadGen {
    spec: WorkloadSpec,
}

impl WorkloadGen {
    /// Build a generator for `spec`.
    pub fn new(spec: WorkloadSpec) -> Self {
        assert!(spec.num_keys > 0 && spec.fields > 0 && spec.batch_size > 0);
        assert!(spec.workers > 0 && spec.workers <= spec.batch_size);
        Self { spec }
    }

    /// The spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Generate worker `w`'s share of global batch `batch_idx`.
    /// Deterministic: the same (spec, batch, worker) always yields the
    /// same batch, so independent engines replay identical workloads.
    pub fn worker_batch(&self, batch_idx: u64, worker: usize) -> Batch {
        assert!(worker < self.spec.workers);
        let mut stream = UniformStream::new(
            self.spec.seed ^ batch_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (worker as u64) << 48,
        );
        let inputs = self.spec.batch_size / self.spec.workers;
        // Popularity drift: rotate the rank→key mapping over time so the
        // hot set slides through the key space.
        let offset = (batch_idx * self.spec.drift_keys_per_batch) % self.spec.num_keys;
        let mut input_keys = Vec::with_capacity(inputs);
        for _ in 0..inputs {
            let keys: Vec<Key> = (0..self.spec.fields)
                .map(|_| {
                    let pick = stream.next_f64();
                    let u = stream.next_f64();
                    (self
                        .spec
                        .skew
                        .rank_from_uniforms(pick, u, self.spec.num_keys)
                        + offset)
                        % self.spec.num_keys
                })
                .collect();
            input_keys.push(keys);
        }
        let mut unique_keys: Vec<Key> = input_keys.iter().flatten().copied().collect();
        unique_keys.sort_unstable();
        unique_keys.dedup();
        Batch {
            batch_idx,
            worker,
            input_keys,
            unique_keys,
        }
    }

    /// All workers' shares of a global batch.
    pub fn global_batch(&self, batch_idx: u64) -> Vec<Batch> {
        (0..self.spec.workers)
            .map(|w| self.worker_batch(batch_idx, w))
            .collect()
    }

    /// Stream raw key references over `batches` batches (for access-
    /// frequency analysis, Table II / Fig. 10).
    pub fn access_counts(&self, batches: u64) -> Vec<u64> {
        let mut counts = vec![0u64; self.spec.num_keys as usize];
        for b in 0..batches {
            for w in 0..self.spec.workers {
                let batch = self.worker_batch(b, w);
                for keys in &batch.input_keys {
                    for &k in keys {
                        counts[k as usize] += 1;
                    }
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stream_matches_splitmix64_reference() {
        // Published splitmix64 test vectors for seed 0 — the key stream
        // is pinned to these forever.
        let mut s = UniformStream::new(0);
        assert_eq!(s.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s.next_u64(), 0x06C4_5D18_8009_454F);
        let mut s = UniformStream::new(0);
        for _ in 0..10_000 {
            let u = s.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn deterministic_replay() {
        let g = WorkloadGen::new(WorkloadSpec::small());
        let a = g.worker_batch(3, 1);
        let b = g.worker_batch(3, 1);
        assert_eq!(a.input_keys, b.input_keys);
        assert_eq!(a.unique_keys, b.unique_keys);
        let c = g.worker_batch(4, 1);
        assert_ne!(a.input_keys, c.input_keys);
    }

    #[test]
    fn workers_split_the_batch() {
        let spec = WorkloadSpec::small();
        let g = WorkloadGen::new(spec.clone());
        let batches = g.global_batch(0);
        assert_eq!(batches.len(), spec.workers);
        let total_inputs: usize = batches.iter().map(|b| b.inputs()).sum();
        assert_eq!(total_inputs, spec.batch_size);
        for b in &batches {
            assert_eq!(b.total_refs(), b.inputs() * spec.fields);
        }
    }

    #[test]
    fn unique_keys_sorted_deduped_in_range() {
        let g = WorkloadGen::new(WorkloadSpec::small());
        let b = g.worker_batch(0, 0);
        let mut sorted = b.unique_keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(b.unique_keys, sorted);
        assert!(b.unique_keys.iter().all(|&k| k < 10_000));
        assert!(!b.unique_keys.is_empty());
    }

    #[test]
    fn hot_keys_dominate_counts() {
        let mut spec = WorkloadSpec::small();
        spec.num_keys = 100_000;
        let g = WorkloadGen::new(spec);
        let counts = g.access_counts(20);
        let total: u64 = counts.iter().sum();
        let top: u64 = counts.iter().take(1000).sum(); // hottest 1%
        assert!(
            top as f64 / total as f64 > 0.90,
            "top 1% share = {}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn drift_rotates_the_hot_set() {
        let mut spec = WorkloadSpec::small();
        spec.num_keys = 50_000;
        spec.drift_keys_per_batch = 5;
        let g = WorkloadGen::new(spec);
        let hot = |b: u64| -> std::collections::HashSet<u64> {
            g.worker_batch(b, 0).unique_keys.iter().copied().collect()
        };
        let early = hot(0);
        let near = hot(1);
        let far = hot(4000); // hot set has moved 20k keys away
        let overlap = |a: &std::collections::HashSet<u64>, b: &std::collections::HashSet<u64>| {
            a.intersection(b).count() as f64 / a.len() as f64
        };
        assert!(
            overlap(&early, &near) > overlap(&early, &far),
            "hot-set overlap decays with drift distance: near {:.2} far {:.2}",
            overlap(&early, &near),
            overlap(&early, &far)
        );
        assert!(overlap(&early, &far) < 0.3);
    }

    #[test]
    fn zero_drift_is_stationary() {
        let spec = WorkloadSpec::small();
        let g = WorkloadGen::new(spec);
        // The hottest key (rank 0) appears in every batch regardless of
        // the batch index.
        for b in [0u64, 100, 10_000] {
            let keys = g.worker_batch(b, 0).unique_keys;
            assert!(keys.contains(&0), "batch {b} touches rank-0");
        }
    }

    #[test]
    #[should_panic]
    fn worker_out_of_range_panics() {
        let g = WorkloadGen::new(WorkloadSpec::small());
        g.worker_batch(0, 99);
    }
}
