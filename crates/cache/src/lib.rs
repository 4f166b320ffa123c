//! # oe-cache
//!
//! DRAM-cache building blocks for the OpenEmbedding parameter server
//! (paper §V-A, Fig. 5):
//!
//! - [`arena::DramArena`] — a fixed-capacity slab of embedding entries
//!   (key, version, flat `f32` payload) kept in DRAM as the hot cache.
//! - [`tagged::TaggedLoc`] — the hash-index pointer whose *lowest bit*
//!   says whether the entry currently lives in DRAM or PMem, exactly as
//!   the paper's smart pointers (§V-A, following ref. 21).
//! - [`lru::LruList`] — an intrusive doubly-linked LRU over arena slots,
//!   the node cache's one replacement policy (the paper's; every missed
//!   key is admitted); reordering is *deferred* to the maintainer threads
//!   (the pipeline).
//! - [`chain::VersionChain`] — the per-key list of PMem slots still
//!   retained for checkpoint protection, with the pruning rule that
//!   implements the paper's "space manager recycles superseded versions
//!   once the new checkpoint is done".
//! - [`access_queue::AccessQueue`] — the queue of entries touched by the
//!   current batch's pulls, consumed by the cache-maintainer threads.
//! - [`prefetch::PrefetchCache`] — the trainer-side, heat-ranked store
//!   of next-batch rows for the pipelined training path, coherent with
//!   the applied-push watermark, ranked by a [`freq::FreqTracker`] (the
//!   decaying per-key access counts the placer reads too).
//!
//! The crate holds data structures only: Algorithm 1/2 logic lives in
//! `oe-core`.

pub mod access_queue;
pub mod arena;
pub mod chain;
pub mod freq;
pub mod index;
pub mod lru;
pub mod prefetch;
pub mod tagged;

/// Embedding entry key (feature id).
pub type Key = u64;

/// Batch id / entry version.
pub type BatchId = u64;

pub use access_queue::AccessQueue;
pub use arena::DramArena;
pub use chain::VersionChain;
pub use freq::FreqTracker;
pub use index::{HashIndex, IndexEntry};
pub use lru::LruList;
pub use prefetch::{PrefetchCache, PrefetchStats};
pub use tagged::TaggedLoc;
