//! Parameter-server node configuration.

use crate::optimizer::OptimizerKind;

/// DRAM bookkeeping overhead per cached entry beyond the payload:
/// key + version columns (16 B) plus LRU links (8 B) plus an amortized
/// index share (~40 B). Used to translate a cache *byte* budget (the
/// Fig. 8 knob) into arena entries.
pub const CACHE_ENTRY_OVERHEAD_BYTES: usize = 64;

/// Per-key CPU cost of a hash-index probe (ns).
pub const HASH_PROBE_NS: u64 = 45;
/// Per-key CPU cost of appending to the access queue (ns).
pub const ACCESS_QUEUE_NS: u64 = 8;
/// Per-key CPU cost of LRU pointer surgery (ns).
pub const LRU_OP_NS: u64 = 25;
/// Per-f32 CPU cost of optimizer arithmetic (ns).
pub const OPT_FLOP_NS_PER_F32: u64 = 1;
/// CPU cost of initializing a brand-new entry (ns, excl. memory traffic).
pub const INIT_ENTRY_NS: u64 = 150;
/// Per-key CPU cost of planning a request: reading its key list into
/// the plan (ns).
pub const PLAN_KEY_NS: u64 = 4;
/// Per-key CPU cost of duplicate-key coalescing (one hash-map probe +
/// occurrence-list append, ns).
pub const DEDUP_KEY_NS: u64 = 6;
/// Per-occurrence CPU cost of fanning a deduped payload out to the
/// response buffer during the merge stage (ns; the row itself was read
/// once per *unique* key).
pub const FANOUT_KEY_NS: u64 = 8;
/// CPU cost of one acquisition of the node lock (ns), paid once per
/// planned request.
pub const NODE_LOCK_NS: u64 = 30;
/// Uniform init scale: new weights ~ U(-scale, +scale), derived
/// deterministically from the key (every engine starts from the same
/// weights).
pub const INIT_SCALE: f32 = 0.01;

/// Configuration of one [`crate::PsNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Embedding dimension (f32 weights per entry).
    pub dim: usize,
    /// Optimizer applied to pushed gradients.
    pub optimizer: OptimizerKind,
    /// DRAM cache budget in bytes (translated to entries). The cache is
    /// the paper's: LRU replacement, every missed key admitted.
    pub cache_bytes: usize,
    /// Enable the DRAM cache (Fig. 9 ablation). When off, every entry
    /// lives in PMem and pull/push go straight to the pool.
    pub enable_cache: bool,
    /// Enable pipelined maintenance (Fig. 9 ablation). When off, cache
    /// replacement and flushes run inline on the pull path.
    pub enable_pipeline: bool,
    /// Initial PMem pool capacity in bytes.
    pub pmem_capacity: usize,
    /// Deterministic seed folded into weight initialization.
    pub seed: u64,
    /// Ignored: a node runs each request as one group under its one
    /// lock, on the request thread. Kept only because the end-to-end
    /// benchmark's stack (`e2e/src/stack.rs`) still assigns it; it goes
    /// with that benchmark's `Shape::parallelism`. Must be ≥ 1.
    pub parallelism: usize,
}

impl NodeConfig {
    /// A reasonable default for tests and examples: dim-8 embeddings,
    /// AdaGrad, 1 MiB cache, everything enabled.
    pub fn small(dim: usize) -> Self {
        Self {
            dim,
            optimizer: OptimizerKind::Adagrad {
                lr: 0.05,
                eps: 1e-8,
            },
            cache_bytes: 1 << 20,
            enable_cache: true,
            enable_pipeline: true,
            pmem_capacity: 1 << 24,
            seed: 42,
            parallelism: 1,
        }
    }

    /// Payload length in f32s: weights + optimizer state.
    pub fn payload_f32s(&self) -> usize {
        self.dim + self.optimizer.state_f32s(self.dim)
    }

    /// Payload length in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.payload_f32s() * 4
    }

    /// DRAM bytes one cached entry costs (payload + bookkeeping).
    pub fn bytes_per_cached_entry(&self) -> usize {
        self.payload_bytes() + CACHE_ENTRY_OVERHEAD_BYTES
    }

    /// Total cache capacity in entries implied by `cache_bytes`.
    pub fn cache_entries(&self) -> usize {
        (self.cache_bytes / self.bytes_per_cached_entry()).max(1)
    }

    /// Validate invariants; panics with a clear message on nonsense.
    pub fn validate(&self) {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.cache_bytes > 0, "cache_bytes must be positive");
        assert!(
            self.parallelism >= 1,
            "parallelism must be ≥ 1 (the per-key path was removed in PR 15)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_accounts_for_optimizer_state() {
        let mut c = NodeConfig::small(16);
        c.optimizer = OptimizerKind::Sgd { lr: 0.1 };
        assert_eq!(c.payload_f32s(), 16);
        c.optimizer = OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 };
        assert_eq!(c.payload_f32s(), 32);
        c.optimizer = OptimizerKind::Adam {
            lr: 0.001,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        };
        assert_eq!(c.payload_f32s(), 16 + 32 + 1);
    }

    #[test]
    fn cache_entry_math() {
        let c = NodeConfig::small(64); // payload 512 B + 64 B overhead
        assert_eq!(c.bytes_per_cached_entry(), 576);
        assert_eq!(c.cache_entries(), (1 << 20) / 576);
    }

    #[test]
    fn cache_entries_never_zero() {
        let mut c = NodeConfig::small(64);
        c.cache_bytes = 1; // absurdly small
        assert_eq!(c.cache_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn validate_rejects_zero_dim() {
        let mut c = NodeConfig::small(1);
        c.dim = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "parallelism must be ≥ 1")]
    fn validate_rejects_zero_parallelism() {
        let mut c = NodeConfig::small(1);
        c.parallelism = 0;
        c.validate();
    }
}
