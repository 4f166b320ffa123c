//! The OpenEmbedding PS node: Algorithm 1 (pull weights) and Algorithm 2
//! (cache replacement & checkpoint), plus gradient application.
//!
//! ## Checkpoint-correctness invariant
//!
//! At every instant, for every key and every protection boundary `b`
//! (the committed Checkpointed Batch ID and every pending checkpoint
//! request), PMem retains the key's newest state with version ≤ `b`,
//! *provided the key existed at batch `b`*. The moving parts:
//!
//! - **flush-before-bump** (Alg. 2 lines 13–16): when maintenance
//!   re-versions a cached entry from `v` to the current batch `n`, it
//!   first flushes the `v`-state if `v ≤ max(pending checkpoints)` and
//!   the PMem copy is stale;
//! - **out-of-place flushes with version-chain pruning** keep exactly the
//!   slots the boundaries require (see [`oe_cache::VersionChain`]);
//! - **commit-on-eviction** (Alg. 2 lines 24–27): when every shard's LRU
//!   victim is newer than the head checkpoint, all ≤-cp states have been
//!   flushed, so the Checkpointed Batch ID is atomically advanced;
//! - a **drain pass** at the end of each maintenance run flushes the
//!   stragglers (cached entries still at version ≤ cp) so checkpoints
//!   commit within one batch even when the cache is not evicting.
//!
//! Checkpoint requests must carry the id of the **latest completed
//! batch** (synchronous checkpointing, paper §II-A): every entry version
//! is then ≤ cp at request time, which closes the flush-before-bump race.

use crate::config::{
    NodeConfig, ACCESS_QUEUE_NS, DEDUP_KEY_NS, FANOUT_KEY_NS, HASH_PROBE_NS, INIT_ENTRY_NS,
    LRU_OP_NS, OPT_FLOP_NS_PER_F32, PLAN_KEY_NS, SHARD_LOCK_NS,
};
use crate::engine::{MaintenanceReport, PsEngine};
use crate::init::init_payload;
use crate::optimizer::Optimizer;
use crate::plan::{ShardBuckets, ShardGroup, ShardPlan};
use crate::scratch::{PooledScratch, Scratch, ScratchPool, Shape};
use crate::stats::{EngineStats, StatsSnapshot};
use crate::storage::{LocalPmem, StorageBackend};
use crate::{BatchId, Key};
use oe_cache::chain::CHAIN_CAP;
use oe_cache::policy::EvictionPolicy;
use oe_cache::{AccessQueue, Admission, DramArena, HashIndex, TaggedLoc, VersionChain};
use oe_pmem::{PmemPool, PoolConfig};
use oe_simdevice::sync::{Mutex, RwLock};
use oe_simdevice::{Cost, CostKind, DeviceTiming};
use oe_telemetry::{Gauge, Phase, PhaseTimes, Registry};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum simultaneously pending checkpoint requests; a newer request
/// replaces the newest pending one when the queue is full (a later
/// checkpoint strictly supersedes an uncommitted earlier one).
const MAX_PENDING_CKPTS: usize = 3;

/// One cache shard: hash index + DRAM arena + LRU, guarded together by
/// the shard lock (the paper's reader-writer lock, Alg. 1 line 3 /
/// Alg. 2 line 9).
struct Shard {
    index: HashIndex,
    arena: DramArena,
    /// Replacement policy (LRU by default; Algorithm 2's "LRU List").
    policy: Box<dyn EvictionPolicy>,
    /// Admission filter consulted before loading a missed key.
    admission: Admission,
}

/// How one *unique* key of a planned pull was served. Recorded by the
/// execute stage and settled into stats by the merge stage, weighted by
/// the key's occurrence count so the accounting identity
/// `hits + misses + new_entries == pulls` holds per occurrence.
#[derive(Debug, Clone, Copy)]
enum PullOutcome {
    /// Served from the DRAM cache.
    Hit,
    /// Served from PMem.
    Miss,
    /// First touch, admitted into the cache.
    NewAdmitted,
    /// First touch, declined by the doorkeeper (initialized in PMem).
    NewDeclined,
}

impl PullOutcome {
    /// Byte tag for the pooled lane scratch (outcomes ride in
    /// [`Scratch::tags`] so a lane performs zero allocations of its own).
    fn code(self) -> u8 {
        match self {
            PullOutcome::Hit => 0,
            PullOutcome::Miss => 1,
            PullOutcome::NewAdmitted => 2,
            PullOutcome::NewDeclined => 3,
        }
    }

    fn from_code(code: u8) -> Self {
        match code {
            0 => PullOutcome::Hit,
            1 => PullOutcome::Miss,
            2 => PullOutcome::NewAdmitted,
            _ => PullOutcome::NewDeclined,
        }
    }
}

/// One execution lane's output for a planned pull, carried entirely in
/// a pooled scratch arena: deduped payloads (uniques × dim, in the
/// lane's group order) in `scratch.rows`, one outcome tag per unique in
/// `scratch.tags`, plus the lane's virtual-time cost (folded
/// max-over-lanes for parallelizable kinds by [`Cost::merge_parallel`]).
/// Dropping the lane returns its buffers to the node's pool.
struct PullLane<'p> {
    scratch: PooledScratch<'p>,
    cost: Cost,
}

/// The OpenEmbedding parameter-server node ("PMem-OE").
pub struct PsNode {
    cfg: NodeConfig,
    opt: Optimizer,
    /// Where durable slots live (local PMem by default; see
    /// [`crate::storage`] for the DRAM and remote-pool arms). All slot
    /// traffic is charged through this seam.
    store: Arc<dyn StorageBackend>,
    shards: Vec<RwLock<Shard>>,
    access_queue: AccessQueue,
    ckpt_pending: Mutex<VecDeque<BatchId>>,
    committed: AtomicU64,
    stats: EngineStats,
    dram: DeviceTiming,
    /// Telemetry registry (S25): counters shared with `stats`, phase
    /// latency histograms, and the committed-CBI gauge all live here.
    registry: Arc<Registry>,
    phases: PhaseTimes,
    committed_gauge: Gauge,
    /// Per-request/per-lane scratch recycling: every hot-path buffer
    /// (payload read scratch, gradient accumulators, lane weight rows,
    /// batched-kernel rows) is drawn from here instead of allocated.
    scratch: ScratchPool,
}

impl PsNode {
    /// Create a fresh node on new PMem media.
    pub fn new(cfg: NodeConfig) -> Self {
        cfg.validate();
        let mut cost = Cost::new();
        let pool = PmemPool::create(
            PoolConfig {
                payload_bytes: cfg.payload_bytes(),
                capacity: cfg.pmem_capacity,
            },
            &mut cost,
        );
        Self::with_pool(cfg, pool)
    }

    /// Create a fresh node on caller-provided (empty) PMem media. Lets
    /// a crash-enumeration harness arm a
    /// [`oe_simdevice::Media`] crash plan *before* pool creation, so
    /// even the pool-format persistence events (root write + fence) are
    /// enumerable crash points.
    pub fn on_media(cfg: NodeConfig, media: Arc<oe_simdevice::Media>) -> Self {
        cfg.validate();
        let mut cost = Cost::new();
        let pool = PmemPool::create_on(media, cfg.payload_bytes(), &mut cost);
        Self::with_pool(cfg, pool)
    }

    /// Create a node on a caller-provided storage backend (the seam the
    /// DRAM baseline and the disaggregated `oe-pool` arm plug into).
    /// The backend's pool payload size must match the config.
    pub fn with_storage(cfg: NodeConfig, store: Arc<dyn StorageBackend>) -> Self {
        cfg.validate();
        assert_eq!(
            store.pool().payload_bytes(),
            cfg.payload_bytes(),
            "storage backend payload size must match node config"
        );
        Self::with_backend(cfg, store)
    }

    fn with_pool(cfg: NodeConfig, pool: PmemPool) -> Self {
        Self::with_backend(cfg, Arc::new(LocalPmem::new(pool)))
    }

    fn with_backend(cfg: NodeConfig, store: Arc<dyn StorageBackend>) -> Self {
        let per_shard = cfg.cache_entries_per_shard();
        let shards = (0..cfg.shards)
            .map(|_| {
                RwLock::new(Shard {
                    index: HashIndex::with_capacity(per_shard * 2),
                    arena: DramArena::new(per_shard, cfg.payload_f32s()),
                    policy: cfg.replacement.build(per_shard),
                    admission: cfg.admission.build(per_shard * 16),
                })
            })
            .collect();
        let opt = cfg.optimizer.build();
        let registry = Arc::new(Registry::new());
        let stats = EngineStats::registered(&registry);
        let phases = PhaseTimes::new(
            &registry,
            "oe",
            &[
                Phase::Pull,
                Phase::Maintain,
                Phase::Flush,
                Phase::CkptCommit,
                Phase::Push,
                Phase::Plan,
                Phase::Dedup,
                Phase::Execute,
                Phase::Merge,
            ],
        );
        let committed_gauge = registry.gauge("oe_committed_batch");
        Self {
            cfg,
            opt,
            store,
            shards,
            access_queue: AccessQueue::new(),
            ckpt_pending: Mutex::new(VecDeque::new()),
            committed: AtomicU64::new(0),
            stats,
            dram: DeviceTiming::dram(),
            registry,
            phases,
            committed_gauge,
            scratch: ScratchPool::new(),
        }
    }

    /// Rebuild a node from a recovered pool + scan report: every live
    /// entry is indexed at its PMem slot; the cache starts cold; the
    /// committed checkpoint id is restored from the pool root.
    pub(crate) fn from_recovery(
        cfg: NodeConfig,
        pool: PmemPool,
        scan: &oe_pmem::scan::ScanReport,
    ) -> Self {
        Self::from_recovered_storage(cfg, Arc::new(LocalPmem::new(pool)), scan)
    }

    /// Rebuild a node from a recovered storage backend + scan report —
    /// the public entry the disaggregated-pool arm uses after a
    /// near-pool recovery scan. Same semantics as local recovery: live
    /// entries indexed at their slots, cold cache, committed CBI
    /// restored from the pool root.
    pub fn from_recovered_storage(
        cfg: NodeConfig,
        store: Arc<dyn StorageBackend>,
        scan: &oe_pmem::scan::ScanReport,
    ) -> Self {
        let node = Self::with_backend(cfg, store);
        for r in &scan.live {
            let sid = node.shard_of(r.key);
            let mut g = node.shards[sid].write();
            g.index.insert_recovered(r.key, r.id, r.version);
        }
        node.committed.store(scan.checkpoint_id, Ordering::Release);
        node.committed_gauge.set(scan.checkpoint_id);
        node
    }

    /// The node's telemetry registry (counters, gauges, phase latency
    /// histograms). Shared so servers can merge it into exposition.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// The backing slot pool (crash it in tests via `pool().media()`).
    pub fn pool(&self) -> &PmemPool {
        self.store.pool()
    }

    /// The storage backend behind this node.
    pub fn storage(&self) -> &Arc<dyn StorageBackend> {
        &self.store
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        (crate::init::splitmix64(key) % self.shards.len() as u64) as usize
    }

    /// Protection boundaries: committed CBI + all pending checkpoint ids.
    fn boundaries(&self) -> (Vec<BatchId>, Option<BatchId>, BatchId) {
        let committed = self.committed.load(Ordering::Acquire);
        let pending = self.ckpt_pending.lock();
        let head = pending.front().copied();
        let protect_max = pending.iter().copied().max().unwrap_or(committed);
        let mut bounds = Vec::with_capacity(1 + pending.len());
        bounds.push(committed);
        bounds.extend(pending.iter().copied());
        (bounds, head, protect_max)
    }

    /// Flush `payload` (state at `version`) of `key` to PMem out of
    /// place, then prune the chain against `boundaries`.
    fn flush_payload(
        &self,
        key: Key,
        version: BatchId,
        payload: &[f32],
        chain: &mut VersionChain,
        boundaries: &[BatchId],
        cost: &mut Cost,
    ) {
        let t0 = cost.total_ns();
        if chain.len() == CHAIN_CAP {
            // Emergency prune so push never overflows.
            let mut freed = Vec::new();
            chain.prune(boundaries, &mut freed);
            for s in freed {
                self.store.free(s, cost);
                EngineStats::add(&self.stats.slots_recycled, 1);
            }
            assert!(
                chain.len() < CHAIN_CAP,
                "version chain irreducible: too many pending checkpoints"
            );
        }
        let slot = self.store.alloc(cost);
        self.store.write_slot(slot, key, version, payload, cost);
        chain.push(slot, version);
        let mut freed = Vec::new();
        chain.prune(boundaries, &mut freed);
        for s in freed {
            self.store.free(s, cost);
            EngineStats::add(&self.stats.slots_recycled, 1);
        }
        EngineStats::add(&self.stats.flushes, 1);
        self.phases
            .record_ns(Phase::Flush, cost.total_ns().saturating_sub(t0));
    }

    /// Evict the shard's LRU victim to PMem, freeing one arena slot.
    /// Returns the victim's version, or None if nothing is cached.
    fn evict_one(
        &self,
        shard: &mut Shard,
        boundaries: &[BatchId],
        cost: &mut Cost,
    ) -> Option<BatchId> {
        let victim = shard.policy.evict()?;
        let vkey = shard.arena.key(victim);
        let vver = shard.arena.version(victim);
        let Shard { index, arena, .. } = shard;
        let e = index.get_mut(vkey).expect("cached key must be indexed");
        if arena.is_dirty(victim) {
            self.flush_payload(
                vkey,
                vver,
                arena.payload(victim),
                &mut e.chain,
                boundaries,
                cost,
            );
        }
        let (newest_slot, _) = e.chain.newest().expect("evicted entry has a PMem copy");
        e.loc = TaggedLoc::pmem(newest_slot);
        e.version = vver;
        arena.remove(victim);
        EngineStats::add(&self.stats.evictions, 1);
        Some(vver)
    }

    /// Algorithm 2 body for one accessed key. Returns true if an
    /// eviction occurred (commit check may be due).
    fn maintain_key(
        &self,
        shard: &mut Shard,
        key: Key,
        batch: BatchId,
        boundaries: &[BatchId],
        protect_max: BatchId,
        cost: &mut Cost,
    ) -> bool {
        cost.charge(CostKind::Cpu, HASH_PROBE_NS + LRU_OP_NS);
        let mut evicted = false;
        let Some(e) = shard.index.get_mut(key) else {
            return false; // key vanished (not possible in normal flow)
        };
        if let Some(slot) = e.loc.as_dram() {
            // Cached entry (Alg. 2 lines 12-17): flush the old-version
            // state if a pending checkpoint may need it, then re-version
            // and reorder.
            let v = shard.arena.version(slot);
            if v < batch {
                if v <= protect_max && shard.arena.is_dirty(slot) {
                    let Shard { arena, .. } = shard;
                    self.flush_payload(key, v, arena.payload(slot), &mut e.chain, boundaries, cost);
                    // The v-state is now persisted; the payload is clean
                    // until the next gradient lands.
                    arena.set_dirty(slot, false);
                }
                shard.arena.set_version(slot, batch);
                e.version = batch;
            }
            shard.policy.on_access(slot);
        } else {
            // PMem-resident entry (Alg. 2 lines 18-31): consult the
            // admission filter, then make room and load.
            let pm_slot = e.loc.as_pmem().expect("tagged loc");
            let version = e.version;
            if !shard.admission.admit(key) {
                // One-hit wonder (so far): leave it in PMem.
                return false;
            }
            if shard.arena.is_full() {
                self.evict_one(shard, boundaries, cost);
                evicted = true;
            }
            let dram_slot = shard
                .arena
                .insert(key, batch)
                .expect("eviction freed a slot");
            // Copy payload PMem → DRAM.
            {
                let Shard { arena, .. } = shard;
                let dst = arena.payload_mut(dram_slot);
                let ok = self.store.read_slot(pm_slot, dst, cost).is_some();
                assert!(ok, "indexed PMem slot must be valid");
                cost.charge(
                    CostKind::DramTransfer,
                    self.dram.write_ns((dst.len() * 4) as u64),
                );
            }
            EngineStats::add(&self.stats.loads, 1);
            // The loaded state is already in PMem: clean until pushed.
            shard.arena.set_dirty(dram_slot, false);
            let e = shard.index.get_mut(key).expect("still indexed");
            e.loc = TaggedLoc::dram(dram_slot);
            // Note: the chain's newest *version label* may lag `version`
            // when the entry was evicted clean (bumped but never pushed);
            // the payload contents are identical in that case.
            let _ = version;
            e.version = batch;
            shard.policy.on_insert(dram_slot);
        }
        evicted
    }

    /// Commit every pending checkpoint whose condition holds: all shards'
    /// LRU victims are newer than it (Alg. 2 lines 24-27, generalized to
    /// shards). Call without holding shard locks.
    fn try_commit(&self, cost: &mut Cost) -> u64 {
        let mut commits = 0;
        loop {
            let Some(cp) = self.ckpt_pending.lock().front().copied() else {
                break;
            };
            let all_newer = self.shards.iter().all(|s| {
                let g = s.read();
                // Only LRU guarantees the victim is oldest-versioned;
                // other policies rely on the drain pass instead.
                if !g.policy.victim_is_oldest_version() {
                    return false;
                }
                match g.policy.peek_victim() {
                    Some(t) => g.arena.version(t) > cp,
                    None => g.arena.is_empty(),
                }
            });
            if !all_newer {
                break;
            }
            self.commit_checkpoint(cp, cost);
            commits += 1;
        }
        commits
    }

    fn commit_checkpoint(&self, cp: BatchId, cost: &mut Cost) {
        let t0 = cost.total_ns();
        self.store.set_checkpoint_id(cp, cost);
        self.committed.store(cp, Ordering::Release);
        self.committed_gauge.set(cp);
        let mut q = self.ckpt_pending.lock();
        debug_assert_eq!(q.front().copied(), Some(cp));
        q.pop_front();
        EngineStats::add(&self.stats.ckpt_commits, 1);
        self.phases
            .record_ns(Phase::CkptCommit, cost.total_ns().saturating_sub(t0));
    }

    /// Drain pass: flush every cached dirty entry with version ≤ cp, then
    /// commit cp. Makes checkpoints commit within one maintenance cycle
    /// even when the cache is not evicting.
    fn drain_commit(&self, cost: &mut Cost) -> u64 {
        let mut commits = 0;
        loop {
            let Some(cp) = self.ckpt_pending.lock().front().copied() else {
                break;
            };
            let (boundaries, _, _) = self.boundaries();
            for s in &self.shards {
                let mut g = s.write();
                let slots: Vec<u32> = g
                    .arena
                    .iter_live()
                    .filter(|&slot| g.arena.version(slot) <= cp)
                    .collect();
                for slot in slots {
                    let key = g.arena.key(slot);
                    let v = g.arena.version(slot);
                    let Shard { index, arena, .. } = &mut *g;
                    let e = index.get_mut(key).expect("cached key indexed");
                    if arena.is_dirty(slot) {
                        self.flush_payload(
                            key,
                            v,
                            arena.payload(slot),
                            &mut e.chain,
                            &boundaries,
                            cost,
                        );
                        arena.set_dirty(slot, false);
                    }
                    cost.charge(CostKind::Cpu, LRU_OP_NS);
                }
            }
            self.commit_checkpoint(cp, cost);
            commits += 1;
        }
        commits
    }

    /// Pull for cache-disabled mode: entries live in PMem only.
    fn pull_uncached(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        let mut arena = self.scratch.acquire(Shape::lane(self.cfg.payload_f32s()));
        arena.payload.resize(self.cfg.payload_f32s(), 0.0);
        let payload = &mut arena.payload;
        for &key in keys {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS);
            let sid = self.shard_of(key);
            let mut g = self.shards[sid].write();
            match g.index.get(key) {
                Some(e) => {
                    let slot = e.loc.as_pmem().expect("uncached mode: PMem only");
                    self.store.read_slot(slot, payload, cost).expect("valid");
                    out.extend_from_slice(&payload[..dim]);
                    EngineStats::add(&self.stats.misses, 1);
                }
                None => {
                    init_payload(self.cfg.seed, key, self.cfg.init_scale, dim, payload);
                    let (boundaries, _, _) = self.boundaries();
                    let slot = self.store.alloc(cost);
                    self.store.write_slot(slot, key, batch, payload, cost);
                    let mut chain = VersionChain::new();
                    chain.push(slot, batch);
                    let _ = boundaries;
                    g.index.insert_recovered(key, slot, batch);
                    g.index.get_mut(key).unwrap().chain = chain;
                    out.extend_from_slice(&payload[..dim]);
                    EngineStats::add(&self.stats.new_entries, 1);
                    cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                }
            }
            EngineStats::add(&self.stats.pulls, 1);
        }
    }

    /// Push for cache-disabled mode: read-modify-write out of place.
    fn push_uncached(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        let dim = self.cfg.dim;
        let mut arena = self.scratch.acquire(Shape::lane(self.cfg.payload_f32s()));
        arena.payload.resize(self.cfg.payload_f32s(), 0.0);
        let payload = &mut arena.payload;
        let (boundaries, _, _) = self.boundaries();
        for (i, &key) in keys.iter().enumerate() {
            let sid = self.shard_of(key);
            let mut g = self.shards[sid].write();
            let Shard { index, .. } = &mut *g;
            let e = index.get_mut(key).expect("pushed key must exist");
            let slot = e.loc.as_pmem().expect("uncached mode: PMem only");
            self.store.read_slot(slot, payload, cost).expect("valid");
            self.opt.apply(dim, payload, &grads[i * dim..(i + 1) * dim]);
            cost.charge(
                CostKind::Cpu,
                dim as u64 * OPT_FLOP_NS_PER_F32 + HASH_PROBE_NS,
            );
            self.flush_payload(key, batch, payload, &mut e.chain, &boundaries, cost);
            let (newest, _) = e.chain.newest().unwrap();
            e.loc = TaggedLoc::pmem(newest);
            e.version = batch;
            EngineStats::add(&self.stats.pushes, 1);
        }
    }

    /// Run Algorithm 2 over the access queue. Public so tests can drive
    /// maintenance directly; engines call it via `end_pull_phase`.
    pub fn run_maintenance(&self, batch: BatchId, cost: &mut Cost) -> (u64, u64) {
        let t0 = cost.total_ns();
        let mut processed = 0u64;
        let mut commits = 0u64;
        if self.cfg.enable_cache {
            let mut chunk = Vec::with_capacity(1024);
            loop {
                chunk.clear();
                if self.access_queue.drain_into(&mut chunk, 1024) == 0 {
                    break;
                }
                let (boundaries, _, protect_max) = self.boundaries();
                let mut any_evicted = false;
                for &key in chunk.iter() {
                    let sid = self.shard_of(key);
                    let mut g = self.shards[sid].write();
                    any_evicted |=
                        self.maintain_key(&mut g, key, batch, &boundaries, protect_max, cost);
                    processed += 1;
                }
                if any_evicted {
                    commits += self.try_commit(cost);
                }
            }
        }
        // Checkpoint completion: evictions may already have committed;
        // the drain pass finishes whatever is left.
        commits += self.try_commit(cost);
        commits += self.drain_commit(cost);
        self.phases
            .record_ns(Phase::Maintain, cost.total_ns().saturating_sub(t0));
        (processed, commits)
    }

    /// Inline maintenance for the non-pipelined ablation: the same work,
    /// charged to the pull path as serialized time (global-lock model).
    fn maintain_inline(&self, batch: BatchId, cost: &mut Cost) {
        let mut mcost = Cost::new();
        let (processed, _) = {
            let (p, c) = self.run_maintenance(batch, &mut mcost);
            (p, c)
        };
        let _ = processed;
        // Device work stays in its buckets; CPU work becomes serialized.
        for kind in [
            CostKind::PmemRead,
            CostKind::PmemWrite,
            CostKind::DramTransfer,
        ] {
            cost.charge_ns_only(kind, mcost.ns(kind));
        }
        cost.charge_ns_only(
            CostKind::Serialized,
            mcost.ns(CostKind::Cpu) + mcost.ns(CostKind::Serialized),
        );
    }

    /// Build the request's [`ShardPlan`], charging the plan and dedup
    /// stages (pure CPU bookkeeping, proportional to occurrences).
    fn build_plan(&self, keys: &[Key], cost: &mut Cost) -> ShardPlan {
        let plan_ns = PLAN_KEY_NS * keys.len() as u64;
        cost.charge(CostKind::Cpu, plan_ns);
        let buckets = ShardBuckets::bucket(keys, self.shards.len(), |k| self.shard_of(k));
        self.phases.record_ns(Phase::Plan, plan_ns);
        let dedup_ns = DEDUP_KEY_NS * keys.len() as u64;
        cost.charge(CostKind::Cpu, dedup_ns);
        let plan = buckets.coalesce();
        self.phases.record_ns(Phase::Dedup, dedup_ns);
        plan
    }

    /// Execute one shard group of a planned pull: the shard's write
    /// lock is taken exactly once (a first touch inserts, and pulls of
    /// one shard never overlapped), every unique key's payload is read
    /// exactly once.
    /// Deduped weight rows land in `s.rows`, one outcome code per
    /// unique in `s.tags`; `s.payload` is the PMem read scratch.
    fn pull_group(
        &self,
        group: &ShardGroup,
        batch: BatchId,
        boundaries: &[BatchId],
        s: &mut Scratch,
        cost: &mut Cost,
    ) {
        let dim = self.cfg.dim;
        cost.charge(CostKind::Cpu, SHARD_LOCK_NS);
        let mut g = self.shards[group.shard].write();
        for &key in &group.uniques {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS + ACCESS_QUEUE_NS);
            let known = g.index.get(key).map(|e| e.loc);
            match known {
                Some(loc) => {
                    if let Some(slot) = loc.as_dram() {
                        s.rows.extend_from_slice(&g.arena.payload(slot)[..dim]);
                        cost.charge(CostKind::DramTransfer, self.dram.read_ns((dim * 4) as u64));
                        s.tags.push(PullOutcome::Hit.code());
                    } else {
                        let slot = loc.as_pmem().unwrap();
                        self.store
                            .read_slot(slot, &mut s.payload, cost)
                            .expect("indexed slot valid");
                        s.rows.extend_from_slice(&s.payload[..dim]);
                        s.tags.push(PullOutcome::Miss.code());
                    }
                }
                None => {
                    // First touch (Alg. 1 lines 6-12).
                    cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                    if g.admission.admit(key) {
                        if g.arena.is_full() {
                            self.evict_one(&mut g, boundaries, cost);
                        }
                        let slot = g.arena.insert(key, batch).expect("slot available");
                        init_payload(
                            self.cfg.seed,
                            key,
                            self.cfg.init_scale,
                            dim,
                            g.arena.payload_mut(slot),
                        );
                        g.index.insert_new_dram(key, slot, batch);
                        g.policy.on_insert(slot);
                        s.rows.extend_from_slice(&g.arena.payload(slot)[..dim]);
                        s.tags.push(PullOutcome::NewAdmitted.code());
                    } else {
                        // Doorkeeper declined: initialize straight to
                        // PMem; the cache stays clean of singletons.
                        init_payload(self.cfg.seed, key, self.cfg.init_scale, dim, &mut s.payload);
                        let slot = self.store.alloc(cost);
                        self.store.write_slot(slot, key, batch, &s.payload, cost);
                        g.index.insert_recovered(key, slot, batch);
                        s.rows.extend_from_slice(&s.payload[..dim]);
                        s.tags.push(PullOutcome::NewDeclined.code());
                    }
                }
            }
        }
    }

    /// Shard-plan pull: bucket → dedup → parallel lane execute → merge.
    /// Every unique key is read once and fanned out to its occurrences;
    /// stats are occurrence-weighted. `tests/parallel_equiv.rs` pins the
    /// weights, stats and `Serialized` ns the retired per-key execution
    /// produced on duplicate-free batches.
    fn pull_planned(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        let plan = self.build_plan(keys, cost);
        let (boundaries, _, _) = self.boundaries();
        let lanes = plan.partition(self.cfg.parallelism);

        let payload_f32s = self.cfg.payload_f32s();
        let run_lane = |range: &Range<usize>| {
            let mut scratch = self.scratch.acquire(Shape::lane(payload_f32s));
            let mut cost = Cost::new();
            {
                let s = &mut *scratch;
                s.payload.resize(payload_f32s, 0.0);
                for group in &plan.groups[range.clone()] {
                    self.pull_group(group, batch, &boundaries, s, &mut cost);
                }
            }
            PullLane { scratch, cost }
        };
        let lane_results: Vec<PullLane> = if lanes.len() <= 1 {
            lanes.iter().map(run_lane).collect()
        } else {
            std::thread::scope(|s| {
                let run_lane = &run_lane;
                let handles: Vec<_> = lanes.iter().map(|r| s.spawn(move || run_lane(r))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pull lane panicked"))
                    .collect()
            })
        };

        // Lane costs compose max-over-lanes for parallelizable kinds,
        // sum for serialized/bandwidth-contended ones.
        let mut par = Cost::new();
        for lane in &lane_results {
            par.merge_parallel(&lane.cost);
        }
        self.phases.record_ns(Phase::Execute, par.total_ns());
        cost.merge(&par);

        // Merge: fan each deduped payload out to its original request
        // positions, append the access queue once per unique (in stable
        // group order, so maintenance is identical at any lane count),
        // and settle occurrence-weighted stats.
        let merge_ns = FANOUT_KEY_NS * plan.total_keys as u64;
        cost.charge(CostKind::Cpu, merge_ns);
        let base = out.len();
        out.resize(base + keys.len() * dim, 0.0);
        for (lane, range) in lane_results.iter().zip(&lanes) {
            let mut ul = 0; // unique cursor within the lane
            for group in &plan.groups[range.clone()] {
                for occs in &group.occs {
                    let w = &lane.scratch.rows[ul * dim..(ul + 1) * dim];
                    let cnt = occs.len() as u64;
                    for &pos in occs {
                        let dst = base + pos as usize * dim;
                        out[dst..dst + dim].copy_from_slice(w);
                    }
                    match PullOutcome::from_code(lane.scratch.tags[ul]) {
                        PullOutcome::Hit => EngineStats::add(&self.stats.hits, cnt),
                        PullOutcome::Miss => EngineStats::add(&self.stats.misses, cnt),
                        PullOutcome::NewAdmitted => {
                            EngineStats::add(&self.stats.new_entries, 1);
                            // Repeat occurrences read the just-inserted
                            // DRAM entry: cache hits.
                            EngineStats::add(&self.stats.hits, cnt - 1);
                        }
                        PullOutcome::NewDeclined => {
                            EngineStats::add(&self.stats.new_entries, 1);
                            // Repeat occurrences read the PMem copy.
                            EngineStats::add(&self.stats.misses, cnt - 1);
                        }
                    }
                    ul += 1;
                }
                self.access_queue.push_all(&group.uniques);
            }
        }
        EngineStats::add(&self.stats.pulls, plan.total_keys as u64);
        self.phases.record_ns(Phase::Merge, merge_ns);

        if !self.cfg.enable_pipeline {
            self.maintain_inline(batch, cost);
        }
    }

    /// Apply every occurrence's gradient to `payload`. Optimizers whose
    /// update is linear in the gradient coalesce duplicates into one
    /// summed apply; stateful optimizers fall back to ordered sequential
    /// applies, bit-identical to separate pushes.
    fn apply_occurrences(
        &self,
        payload: &mut [f32],
        grads: &[f32],
        occs: &[u32],
        gsum: &mut [f32],
        cost: &mut Cost,
    ) {
        let dim = self.cfg.dim;
        let grad_at = |pos: u32| {
            let p = pos as usize;
            &grads[p * dim..(p + 1) * dim]
        };
        if self.opt.coalescible() && occs.len() > 1 {
            gsum.copy_from_slice(grad_at(occs[0]));
            for &pos in &occs[1..] {
                for (s, g) in gsum.iter_mut().zip(grad_at(pos)) {
                    *s += g;
                }
            }
            // (n-1) vector adds + one optimizer apply, one row write.
            cost.charge(
                CostKind::Cpu,
                occs.len() as u64 * dim as u64 * OPT_FLOP_NS_PER_F32,
            );
            cost.charge(CostKind::DramTransfer, self.dram.write_ns((dim * 4) as u64));
            self.opt.apply(dim, payload, gsum);
        } else {
            for &pos in occs {
                cost.charge(CostKind::Cpu, dim as u64 * OPT_FLOP_NS_PER_F32);
                cost.charge(CostKind::DramTransfer, self.dram.write_ns((dim * 4) as u64));
                self.opt.apply(dim, payload, grad_at(pos));
            }
        }
    }

    /// Apply one batched optimizer kernel over the pending run of
    /// contiguous PMem-resident uniques gathered in `s` (payload rows in
    /// `s.rows`, one effective gradient row each in `s.grad_rows`,
    /// unique indices in `s.run`), then flush the rows in original
    /// unique order. The run only ever reorders PMem *reads* ahead of
    /// flushes; reads are not persistence events, so the recovery
    /// protocol's event stream is identical to the one-key-at-a-time
    /// path. All virtual cost was charged at gather time.
    fn flush_pmem_run(
        &self,
        g: &mut Shard,
        group: &ShardGroup,
        batch: BatchId,
        boundaries: &[BatchId],
        s: &mut Scratch,
        cost: &mut Cost,
    ) {
        let n = s.run.len();
        if n == 0 {
            return;
        }
        let dim = self.cfg.dim;
        let stride = self.cfg.payload_f32s();
        self.opt
            .apply_batch(dim, &mut s.rows, &s.grad_rows, n)
            .expect("run buffers are sized by construction");
        for (j, &ui) in s.run.iter().enumerate() {
            let key = group.uniques[ui as usize];
            let row = &s.rows[j * stride..(j + 1) * stride];
            let e = g.index.get_mut(key).expect("indexed");
            self.flush_payload(key, batch, row, &mut e.chain, boundaries, cost);
            let (newest, _) = e.chain.newest().expect("just flushed");
            e.loc = TaggedLoc::pmem(newest);
            e.version = batch;
        }
        s.run.clear();
        s.rows.clear();
        s.grad_rows.clear();
    }

    /// Execute one shard group of a planned push under a single write
    /// lock acquisition. Contiguous runs of PMem-resident uniques are
    /// read up front and updated by one multi-row optimizer kernel
    /// ([`Optimizer::apply_batch`]); DRAM-resident keys apply in place
    /// and act as run boundaries so per-key flush order is unchanged.
    #[allow(clippy::too_many_arguments)]
    fn push_group(
        &self,
        group: &ShardGroup,
        grads: &[f32],
        batch: BatchId,
        boundaries: &[BatchId],
        protect_max: BatchId,
        s: &mut Scratch,
        cost: &mut Cost,
    ) {
        let dim = self.cfg.dim;
        let stride = self.cfg.payload_f32s();
        cost.charge(CostKind::Cpu, SHARD_LOCK_NS);
        let mut g = self.shards[group.shard].write();
        debug_assert!(s.run.is_empty() && s.rows.is_empty() && s.grad_rows.is_empty());
        for (ui, &key) in group.uniques.iter().enumerate() {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS);
            let occs = &group.occs[ui];
            let loc = g.index.get(key).expect("pushed key must exist").loc;
            match loc.as_dram() {
                Some(slot) => {
                    // A DRAM-resident key bounds the pending PMem run:
                    // settle it first so flushes stay in unique order.
                    self.flush_pmem_run(&mut g, group, batch, boundaries, s, cost);
                    let v = g.arena.version(slot);
                    let Shard { index, arena, .. } = &mut *g;
                    let e = index.get_mut(key).expect("indexed");
                    if v <= protect_max && v < batch && arena.is_dirty(slot) {
                        self.flush_payload(
                            key,
                            v,
                            arena.payload(slot),
                            &mut e.chain,
                            boundaries,
                            cost,
                        );
                    }
                    arena.set_version(slot, batch);
                    e.version = batch;
                    self.apply_occurrences(arena.payload_mut(slot), grads, occs, &mut s.acc, cost);
                    arena.set_dirty(slot, true);
                }
                None => {
                    // PMem-resident: read now, join the batched run. The
                    // row's effective gradient lands in `s.grad_rows`;
                    // stateful duplicates apply all but their last
                    // occurrence in order here, so every run row takes
                    // exactly one kernel step. Charges mirror
                    // `apply_occurrences` exactly.
                    let pm_slot = loc.as_pmem().expect("tagged loc");
                    let j = s.run.len();
                    s.rows.resize((j + 1) * stride, 0.0);
                    s.grad_rows.resize((j + 1) * dim, 0.0);
                    let row = &mut s.rows[j * stride..(j + 1) * stride];
                    let grow = &mut s.grad_rows[j * dim..(j + 1) * dim];
                    self.store
                        .read_slot(pm_slot, row, cost)
                        .expect("indexed slot valid");
                    let grad_at = |pos: u32| {
                        let p = pos as usize;
                        &grads[p * dim..(p + 1) * dim]
                    };
                    let row_write = self.dram.write_ns((dim * 4) as u64);
                    if self.opt.coalescible() && occs.len() > 1 {
                        grow.copy_from_slice(grad_at(occs[0]));
                        for &pos in &occs[1..] {
                            for (sg, gv) in grow.iter_mut().zip(grad_at(pos)) {
                                *sg += gv;
                            }
                        }
                        cost.charge(
                            CostKind::Cpu,
                            occs.len() as u64 * dim as u64 * OPT_FLOP_NS_PER_F32,
                        );
                        cost.charge(CostKind::DramTransfer, row_write);
                    } else {
                        for &pos in &occs[..occs.len() - 1] {
                            cost.charge(CostKind::Cpu, dim as u64 * OPT_FLOP_NS_PER_F32);
                            cost.charge(CostKind::DramTransfer, row_write);
                            self.opt.apply(dim, row, grad_at(pos));
                        }
                        grow.copy_from_slice(grad_at(occs[occs.len() - 1]));
                        cost.charge(CostKind::Cpu, dim as u64 * OPT_FLOP_NS_PER_F32);
                        cost.charge(CostKind::DramTransfer, row_write);
                    }
                    s.run.push(ui as u32);
                }
            }
            EngineStats::add(&self.stats.pushes, occs.len() as u64);
        }
        self.flush_pmem_run(&mut g, group, batch, boundaries, s, cost);
    }

    /// Shard-plan push: bucket → dedup → parallel lane execute. Final
    /// weights equal one apply per occurrence in request order
    /// (coalescing is gated on gradient linearity; stateful optimizers
    /// apply sequentially within each key).
    fn push_planned(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        let dim = self.cfg.dim;
        let plan = self.build_plan(keys, cost);
        let (boundaries, _, protect_max) = self.boundaries();
        let lanes = plan.partition(self.cfg.parallelism);

        let payload_f32s = self.cfg.payload_f32s();
        let run_lane = |range: &Range<usize>| -> Cost {
            let mut lcost = Cost::new();
            let mut scratch = self.scratch.acquire(Shape::lane(payload_f32s));
            let s = &mut *scratch;
            s.acc.resize(dim, 0.0);
            for group in &plan.groups[range.clone()] {
                self.push_group(group, grads, batch, &boundaries, protect_max, s, &mut lcost);
            }
            lcost
        };
        let lane_costs: Vec<Cost> = if lanes.len() <= 1 {
            lanes.iter().map(run_lane).collect()
        } else {
            std::thread::scope(|s| {
                let run_lane = &run_lane;
                let handles: Vec<_> = lanes.iter().map(|r| s.spawn(move || run_lane(r))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("push lane panicked"))
                    .collect()
            })
        };

        let mut par = Cost::new();
        for lane in &lane_costs {
            par.merge_parallel(lane);
        }
        self.phases.record_ns(Phase::Execute, par.total_ns());
        cost.merge(&par);
    }
}

impl PsEngine for PsNode {
    fn name(&self) -> &'static str {
        "PMem-OE"
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let t0 = cost.total_ns();
        out.reserve(keys.len() * self.cfg.dim);
        if self.cfg.enable_cache {
            self.pull_planned(keys, batch, out, cost);
        } else {
            self.pull_uncached(keys, batch, out, cost);
        }
        self.phases
            .record_ns(Phase::Pull, cost.total_ns().saturating_sub(t0));
    }

    fn end_pull_phase(&self, batch: BatchId) -> MaintenanceReport {
        if !self.cfg.enable_pipeline {
            // Work already done inline during pull.
            return MaintenanceReport::default();
        }
        let mut cost = Cost::new();
        let (processed, commits) = self.run_maintenance(batch, &mut cost);
        MaintenanceReport {
            cost,
            entries_processed: processed,
            ckpt_commits: commits,
        }
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        assert_eq!(grads.len(), keys.len() * self.cfg.dim, "grad shape");
        let t0 = cost.total_ns();
        if self.cfg.enable_cache {
            self.push_planned(keys, grads, batch, cost);
        } else {
            self.push_uncached(keys, grads, batch, cost);
        }
        self.phases
            .record_ns(Phase::Push, cost.total_ns().saturating_sub(t0));
    }

    fn push_async(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        // Identical state transition to `push` — bit-identity of the
        // pipelined trainer depends on it — plus a telemetry counter so
        // the exposition separates out-of-band applies from critical-
        // path pushes.
        self.registry
            .counter("oe_async_applied_keys_total")
            .add(keys.len() as u64);
        PsEngine::push(self, keys, grads, batch, cost);
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        let mut cost = Cost::new();
        cost.charge(CostKind::Cpu, 100);
        let mut q = self.ckpt_pending.lock();
        if q.back().is_some_and(|&b| b >= batch) {
            return cost; // stale or duplicate request
        }
        if q.len() == MAX_PENDING_CKPTS {
            q.pop_back();
        }
        q.push_back(batch);
        cost
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.committed.load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        let sid = self.shard_of(key);
        let g = self.shards[sid].read();
        let e = g.index.get(key)?;
        let dim = self.cfg.dim;
        if let Some(slot) = e.loc.as_dram() {
            Some(g.arena.payload(slot)[..dim].to_vec())
        } else {
            let mut scratch = vec![0f32; self.cfg.payload_f32s()];
            let mut cost = Cost::new();
            self.store
                .read_slot(e.loc.as_pmem().unwrap(), &mut scratch, &mut cost)?;
            scratch.truncate(dim);
            Some(scratch)
        }
    }

    fn num_keys(&self) -> usize {
        self.shards.iter().map(|s| s.read().index.len()).sum()
    }

    fn metrics_text(&self) -> String {
        self.registry.render_text()
    }

    fn export_entry(&self, key: Key, cost: &mut Cost) -> Option<(BatchId, Vec<f32>)> {
        cost.charge(CostKind::Cpu, HASH_PROBE_NS + SHARD_LOCK_NS);
        let sid = self.shard_of(key);
        let g = self.shards[sid].read();
        let e = g.index.get(key)?;
        let mut payload = vec![0f32; self.cfg.payload_f32s()];
        if let Some(slot) = e.loc.as_dram() {
            // Full payload: weights + optimizer slots, not the
            // dim-truncated view `read_weights` serves.
            payload.copy_from_slice(g.arena.payload(slot));
            cost.charge(
                CostKind::DramTransfer,
                self.dram.read_ns((payload.len() * 4) as u64),
            );
            Some((g.arena.version(slot), payload))
        } else {
            self.store
                .read_slot(e.loc.as_pmem().expect("tagged loc"), &mut payload, cost)
                .expect("indexed slot valid");
            Some((e.version, payload))
        }
    }

    fn import_entry(&self, key: Key, version: BatchId, payload: &[f32], cost: &mut Cost) -> bool {
        assert_eq!(
            payload.len(),
            self.cfg.payload_f32s(),
            "import carries the full payload (weights + optimizer state)"
        );
        cost.charge(CostKind::Cpu, HASH_PROBE_NS + SHARD_LOCK_NS);
        let sid = self.shard_of(key);
        // Replace any existing entry (repeated migrations), releasing
        // its slots first.
        if self.shards[sid].read().index.get(key).is_some() {
            self.discard_entry(key, cost);
        }
        // Land in PMem; the destination's cache promotes it through
        // normal maintenance once it proves hot there. Deliberately no
        // `new_entries` bump: migration is placement plumbing, not a
        // first touch.
        let slot = self.store.alloc(cost);
        self.store.write_slot(slot, key, version, payload, cost);
        let mut g = self.shards[sid].write();
        g.index.insert_recovered(key, slot, version);
        true
    }

    fn discard_entry(&self, key: Key, cost: &mut Cost) -> bool {
        cost.charge(CostKind::Cpu, HASH_PROBE_NS + SHARD_LOCK_NS + LRU_OP_NS);
        let sid = self.shard_of(key);
        let mut g = self.shards[sid].write();
        let Some(mut e) = g.index.remove(key) else {
            return false;
        };
        if let Some(slot) = e.loc.as_dram() {
            g.policy.remove(slot);
            g.arena.remove(slot);
        }
        let mut freed = Vec::new();
        e.chain.clear_into(&mut freed);
        for s in freed {
            self.store.free(s, cost);
            EngineStats::add(&self.stats.slots_recycled, 1);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerKind;

    fn node(cache_entries: usize) -> PsNode {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        cfg.cache_bytes = cache_entries * cfg.bytes_per_cached_entry();
        PsNode::new(cfg)
    }

    fn pull1(n: &PsNode, key: Key, batch: BatchId) -> Vec<f32> {
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&[key], batch, &mut out, &mut cost);
        out
    }

    #[test]
    fn pull_initializes_deterministically() {
        let n = node(16);
        let w1 = pull1(&n, 7, 1);
        let w2 = pull1(&n, 7, 1);
        assert_eq!(w1, w2);
        assert_eq!(w1.len(), 4);
        let other = pull1(&n, 8, 1);
        assert_ne!(w1, other);
        assert_eq!(n.num_keys(), 2);
        assert_eq!(n.stats().new_entries, 1 + 1);
        assert_eq!(n.stats().hits, 1, "second pull of key 7 hits cache");
    }

    #[test]
    fn push_applies_gradient() {
        let n = node(16);
        let w = pull1(&n, 1, 1);
        let mut cost = Cost::new();
        n.end_pull_phase(1);
        n.push(&[1], &[1.0, 2.0, 3.0, 4.0], 1, &mut cost);
        let w2 = n.read_weights(1).unwrap();
        for i in 0..4 {
            assert!((w2[i] - (w[i] - (i as f32 + 1.0))).abs() < 1e-6);
        }
    }

    #[test]
    fn eviction_roundtrip_preserves_weights() {
        // Cache of 2 entries, touch 5 keys: some must be evicted to PMem
        // and read back identically.
        let n = node(2);
        let mut originals = Vec::new();
        for k in 0..5u64 {
            originals.push(pull1(&n, k, 1));
        }
        n.end_pull_phase(1);
        for k in 0..5u64 {
            let w = n.read_weights(k).expect("key known");
            assert_eq!(w, originals[k as usize], "key {k}");
        }
        assert!(n.stats().evictions > 0);
    }

    #[test]
    fn maintenance_moves_pmem_entries_back_to_dram() {
        let n = node(2);
        for k in 0..4u64 {
            pull1(&n, k, 1);
        }
        n.end_pull_phase(1);
        // Keys 0.. were partly evicted; pulling key 0 again misses,
        // maintenance loads it back.
        let before = n.stats().misses;
        pull1(&n, 0, 2);
        n.end_pull_phase(2);
        assert!(n.stats().misses > before || n.stats().hits > 0);
        let _ = pull1(&n, 0, 3);
        // After maintenance of batch 2, key 0 is cached: pull 3 hits.
        assert!(n.stats().hits >= 1);
    }

    #[test]
    fn checkpoint_commits_within_one_maintenance() {
        let n = node(16);
        let mut cost = Cost::new();
        pull1(&n, 1, 1);
        n.end_pull_phase(1);
        n.push(&[1], &[0.1; 4], 1, &mut cost);
        let c = n.request_checkpoint(1);
        assert!(c.total_ns() < 10_000, "request is near-free: {c}");
        assert_eq!(n.committed_checkpoint(), 0);
        pull1(&n, 1, 2);
        let report = n.end_pull_phase(2);
        assert_eq!(report.ckpt_commits, 1);
        assert_eq!(n.committed_checkpoint(), 1);
        assert_eq!(n.stats().ckpt_commits, 1);
    }

    #[test]
    fn stale_checkpoint_requests_ignored() {
        let n = node(16);
        n.request_checkpoint(5);
        n.request_checkpoint(5);
        n.request_checkpoint(3);
        assert_eq!(n.ckpt_pending.lock().len(), 1);
    }

    #[test]
    fn pending_queue_bounded() {
        let n = node(16);
        for b in 1..=10 {
            n.request_checkpoint(b);
        }
        assert!(n.ckpt_pending.lock().len() <= MAX_PENDING_CKPTS);
        // Newest request is retained.
        assert_eq!(n.ckpt_pending.lock().back().copied(), Some(10));
    }

    #[test]
    fn uncached_mode_roundtrip() {
        let mut cfg = NodeConfig::small(4);
        cfg.enable_cache = false;
        cfg.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        let n = PsNode::new(cfg);
        let w = pull1(&n, 9, 1);
        let mut cost = Cost::new();
        n.push(&[9], &[1.0; 4], 1, &mut cost);
        let w2 = n.read_weights(9).unwrap();
        for i in 0..4 {
            assert!((w2[i] - (w[i] - 1.0)).abs() < 1e-6);
        }
        assert_eq!(n.stats().misses, 0);
        // Second pull is a PMem read.
        pull1(&n, 9, 2);
        assert_eq!(n.stats().misses, 1);
        // Checkpoint commits at end_pull_phase.
        n.request_checkpoint(2);
        n.end_pull_phase(3);
        assert_eq!(n.committed_checkpoint(), 2);
    }

    #[test]
    fn non_pipelined_mode_charges_pull_path() {
        let mut cfg = NodeConfig::small(4);
        cfg.enable_pipeline = false;
        cfg.cache_bytes = 2 * cfg.bytes_per_cached_entry();
        let n = PsNode::new(cfg);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&[1, 2, 3, 4], 1, &mut out, &mut cost);
        // Maintenance ran inline: the report is empty.
        let report = n.end_pull_phase(1);
        assert_eq!(report.entries_processed, 0);
        assert!(cost.ns(CostKind::Serialized) > 0);
    }

    #[test]
    fn pipelined_pull_has_no_serialized_cost_after_warmup() {
        let n = node(16);
        pull1(&n, 1, 1);
        n.end_pull_phase(1);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&[1], 2, &mut out, &mut cost);
        assert_eq!(
            cost.ns(CostKind::Serialized),
            0,
            "steady-state pulls take only the read lock"
        );
    }

    #[test]
    fn telemetry_records_phase_latencies() {
        let n = node(2);
        let mut cost = Cost::new();
        let mut out = Vec::new();
        n.pull(&(0..8u64).collect::<Vec<_>>(), 1, &mut out, &mut cost);
        n.end_pull_phase(1);
        n.push(&[0, 1], &[0.5; 8], 1, &mut cost);
        n.request_checkpoint(1);
        n.pull(&[0], 2, &mut out, &mut cost);
        n.end_pull_phase(2);

        let snap = n.registry().snapshot();
        let pull = snap.histogram("oe_pull_latency_ns").expect("registered");
        assert_eq!(pull.count(), 2, "one sample per pull burst");
        assert!(pull.max() > 0, "virtual pull time recorded");
        let maintain = snap.histogram("oe_maintain_latency_ns").unwrap();
        assert!(maintain.count() >= 2);
        assert!(snap.histogram("oe_push_latency_ns").unwrap().count() == 1);
        assert!(snap.histogram("oe_flush_latency_ns").unwrap().count() >= n.stats().flushes);
        assert_eq!(
            snap.histogram("oe_ckpt_commit_latency_ns").unwrap().count(),
            1
        );
        assert_eq!(snap.gauge("oe_committed_batch"), Some(1));
        assert_eq!(snap.counter("oe_pulls_total"), Some(n.stats().pulls));

        let text = n.metrics_text();
        assert!(text.contains("oe_pulls_total"));
        assert!(text.contains("oe_pull_latency_ns{quantile=\"0.99\"}"));

        // Shard-plan stages record one sample per planned request
        // (2 pulls + 1 push); merge only runs on pulls.
        for h in [
            "oe_plan_latency_ns",
            "oe_dedup_latency_ns",
            "oe_execute_latency_ns",
        ] {
            assert_eq!(snap.histogram(h).unwrap().count(), 3, "{h}");
        }
        assert_eq!(snap.histogram("oe_merge_latency_ns").unwrap().count(), 2);
    }

    #[test]
    fn duplicate_pulls_coalesce_to_one_entry() {
        let n = node(16);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        n.pull(&[5, 5, 5], 1, &mut out, &mut cost);
        // One first-touch init, two occurrence fan-outs counted as hits.
        let s = n.stats();
        assert_eq!(s.pulls, 3);
        assert_eq!(s.new_entries, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
        assert_eq!(&out[0..4], &out[4..8]);
        assert_eq!(&out[0..4], &out[8..12]);
        // Exactly one Serialized init despite three occurrences.
        assert_eq!(cost.ops(CostKind::Serialized), 1);
    }

    #[test]
    fn parallel_lanes_match_single_lane() {
        let mk = |parallelism: usize| {
            let mut cfg = NodeConfig::small(4);
            cfg.cache_bytes = 16 * cfg.bytes_per_cached_entry();
            cfg.shards = 8;
            cfg.parallelism = parallelism;
            PsNode::new(cfg)
        };
        let serial = mk(1);
        let parallel = mk(4);
        // Skewed batch with duplicates scattered across shards.
        let keys: Vec<u64> = (0..64).map(|i| (i * i) % 24).collect();
        let grads: Vec<f32> = (0..64 * 4).map(|i| ((i % 5) as f32 - 2.0) * 0.25).collect();
        for n in [&serial, &parallel] {
            let mut out = Vec::new();
            let mut cost = Cost::new();
            n.pull(&keys, 1, &mut out, &mut cost);
            n.end_pull_phase(1);
            n.push(&keys, &grads, 1, &mut cost);
        }
        let mut so = Vec::new();
        let mut po = Vec::new();
        let mut sc = Cost::new();
        let mut pc = Cost::new();
        serial.pull(&keys, 2, &mut so, &mut sc);
        parallel.pull(&keys, 2, &mut po, &mut pc);
        assert_eq!(so, po, "weights identical across lane counts");
        assert_eq!(serial.stats(), parallel.stats());
        assert_eq!(
            sc.ns(CostKind::Serialized),
            pc.ns(CostKind::Serialized),
            "Serialized never parallelizes"
        );
        // The parallel request simulates faster on a skewed batch.
        assert!(pc.total_ns() <= sc.total_ns());
    }

    #[test]
    fn export_import_carries_optimizer_state() {
        // AdaGrad keeps per-key accumulators in the payload tail; a
        // migration that only copied the dim-truncated weights would
        // diverge on the very next push. Export/import must keep the
        // replicas in lockstep.
        let mk = || {
            let mut cfg = NodeConfig::small(4);
            cfg.optimizer = OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 };
            cfg.cache_bytes = 16 * cfg.bytes_per_cached_entry();
            PsNode::new(cfg)
        };
        let (src, dst) = (mk(), mk());
        let mut cost = Cost::new();
        pull1(&src, 7, 1);
        src.end_pull_phase(1);
        src.push(&[7], &[0.5; 4], 1, &mut cost);

        let (ver, payload) = src.export_entry(7, &mut cost).expect("entry exists");
        assert_eq!(payload.len(), src.cfg.payload_f32s(), "full payload");
        assert!(dst.import_entry(7, ver, &payload, &mut cost));
        assert_eq!(dst.read_weights(7), src.read_weights(7));
        assert_eq!(dst.stats().new_entries, 0, "import is not a first touch");

        // Same push on both replicas stays bit-identical (state moved).
        src.push(&[7], &[0.25; 4], 2, &mut cost);
        dst.push(&[7], &[0.25; 4], 2, &mut cost);
        assert_eq!(dst.read_weights(7), src.read_weights(7));
    }

    #[test]
    fn export_missing_key_is_none() {
        let n = node(4);
        let mut cost = Cost::new();
        assert!(n.export_entry(99, &mut cost).is_none());
    }

    #[test]
    fn discard_forgets_key_and_frees_slots() {
        let n = node(2);
        let mut cost = Cost::new();
        for k in 0..5u64 {
            pull1(&n, k, 1); // forces evictions → PMem chains exist
        }
        n.end_pull_phase(1);
        n.push(&(0..5u64).collect::<Vec<_>>(), &[0.1; 20], 1, &mut cost);
        let before = n.num_keys();
        assert!(n.discard_entry(3, &mut cost));
        assert_eq!(n.num_keys(), before - 1);
        assert!(n.read_weights(3).is_none());
        assert!(!n.discard_entry(3, &mut cost), "second discard is a no-op");
        // A later first touch re-initializes deterministically.
        let w = pull1(&n, 3, 2);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn concurrent_pulls_are_consistent() {
        use std::sync::Arc;
        let n = Arc::new(node(64));
        // Warm 32 keys.
        for k in 0..32u64 {
            pull1(&n, k, 1);
        }
        n.end_pull_phase(1);
        let expected: Vec<Vec<f32>> = (0..32u64).map(|k| n.read_weights(k).unwrap()).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let n = Arc::clone(&n);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    let mut cost = Cost::new();
                    for round in 0..50 {
                        out.clear();
                        let keys: Vec<u64> = (0..32).collect();
                        n.pull(&keys, 2 + round, &mut out, &mut cost);
                        for (k, w) in expected.iter().enumerate() {
                            assert_eq!(&out[k * 4..(k + 1) * 4], &w[..]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
