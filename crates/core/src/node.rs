//! The OpenEmbedding PS node: Algorithm 1 (pull weights) and Algorithm 2
//! (cache replacement & checkpoint), plus gradient application. The
//! cache is the paper's: one hash index, DRAM arena and LRU list under
//! one reader-writer lock, every missed key admitted.
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
//! - **commit-on-eviction** (Alg. 2 lines 24–27): when the LRU victim
//!   (the list's tail) is newer than the head checkpoint, all ≤-cp
//!   states have been flushed, so the Checkpointed Batch ID is
//!   atomically advanced;
//! - a **drain pass** at the end of each maintenance run flushes the
//!   stragglers (cached entries still at version ≤ cp) so checkpoints
//!   commit within one batch even when the cache is not evicting.
//!
//! Checkpoint requests must carry the id of the **latest completed
//! batch** (synchronous checkpointing, paper §II-A): every entry version
//! is then ≤ cp at request time, which closes the flush-before-bump race.

use crate::config::{
    NodeConfig, ACCESS_QUEUE_NS, DEDUP_KEY_NS, FANOUT_KEY_NS, HASH_PROBE_NS, INIT_ENTRY_NS,
    INIT_SCALE, LRU_OP_NS, NODE_LOCK_NS, OPT_FLOP_NS_PER_F32, PLAN_KEY_NS,
};
use crate::engine::{MaintenanceReport, PsEngine};
use crate::init::init_payload;
use crate::optimizer::Optimizer;
use crate::plan::ShardPlan;
use crate::scratch::{ReadAhead, Scratch, ScratchPool};
use crate::stats::{EngineStats, StatsSnapshot};
use crate::storage::{LocalPmem, StorageBackend};
use crate::{BatchId, Key};
use oe_cache::chain::CHAIN_CAP;
use oe_cache::{AccessQueue, DramArena, HashIndex, LruList, TaggedLoc, VersionChain};
use oe_pmem::{PmemPool, PoolConfig, SlotId};
use oe_simdevice::sync::{Mutex, RwLock};
use oe_simdevice::{Cost, CostKind, DeviceTiming};
use oe_telemetry::{Gauge, Phase, PhaseTimes, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum simultaneously pending checkpoint requests; a newer request
/// replaces the newest pending one when the queue is full (a later
/// checkpoint strictly supersedes an uncommitted earlier one).
const MAX_PENDING_CKPTS: usize = 3;

/// The node's cache state: hash index + DRAM arena + LRU, guarded
/// together by the node's one lock (the paper's reader-writer lock,
/// Alg. 1 line 3 / Alg. 2 line 9).
struct Shard {
    index: HashIndex,
    arena: DramArena,
    /// Algorithm 2's "LRU List": the tail is the eviction victim, and
    /// the entry the checkpoint commit rule reads.
    lru: LruList,
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
    /// First touch, inserted into the cache.
    New,
}

impl PullOutcome {
    /// Byte tag for the pooled scratch (outcomes ride in
    /// [`Scratch::tags`] so a pull performs zero allocations of its own).
    fn code(self) -> u8 {
        match self {
            PullOutcome::Hit => 0,
            PullOutcome::Miss => 1,
            PullOutcome::New => 2,
        }
    }

    fn from_code(code: u8) -> Self {
        match code {
            0 => PullOutcome::Hit,
            1 => PullOutcome::Miss,
            _ => PullOutcome::New,
        }
    }
}

/// The OpenEmbedding parameter-server node ("PMem-OE").
pub struct PsNode {
    cfg: NodeConfig,
    opt: Optimizer,
    /// Where durable slots live (local PMem by default; see
    /// [`crate::storage`] for the DRAM and remote-pool arms). All slot
    /// traffic is charged through this seam.
    store: Arc<dyn StorageBackend>,
    shard: RwLock<Shard>,
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
    /// Per-request scratch recycling: every hot-path buffer (the request
    /// plan, payload read scratch, gradient accumulator, pulled weight
    /// rows, read-ahead rows) is drawn from here instead of allocated.
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
        let entries = cfg.cache_entries();
        let shard = RwLock::new(Shard {
            index: HashIndex::with_capacity(entries * 2),
            arena: DramArena::new(entries, cfg.payload_f32s()),
            lru: LruList::new(entries),
        });
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
            shard,
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

    /// Rebuild a node from a recovered storage backend + scan report,
    /// wherever the bytes live (`core::recovery` is the one caller):
    /// every live entry is indexed at its slot, the cache starts cold,
    /// and the committed CBI is restored from the pool root.
    pub fn from_recovered_storage(
        cfg: NodeConfig,
        store: Arc<dyn StorageBackend>,
        scan: &oe_pmem::scan::ScanReport,
    ) -> Self {
        let node = Self::with_backend(cfg, store);
        {
            let mut g = node.shard.write();
            for r in &scan.live {
                g.index.insert_recovered(r.key, r.id, r.version);
            }
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

    /// Protection boundaries (committed CBI + all pending checkpoint
    /// ids) and the highest of them.
    fn boundaries(&self) -> (Vec<BatchId>, BatchId) {
        let committed = self.committed.load(Ordering::Acquire);
        let pending = self.ckpt_pending.lock();
        let protect_max = pending.iter().copied().max().unwrap_or(committed);
        let mut bounds = Vec::with_capacity(1 + pending.len());
        bounds.push(committed);
        bounds.extend(pending.iter().copied());
        (bounds, protect_max)
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
            self.recycle(&chain.prune(boundaries), cost);
            assert!(
                chain.len() < CHAIN_CAP,
                "version chain irreducible: too many pending checkpoints"
            );
        }
        let slot = self.store.alloc(cost);
        self.store.write_slot(slot, key, version, payload, cost);
        chain.push(slot, version);
        self.recycle(&chain.prune(boundaries), cost);
        EngineStats::add(&self.stats.flushes, 1);
        self.phases
            .record_ns(Phase::Flush, cost.total_ns().saturating_sub(t0));
    }

    /// Durably free `slots` and count them recycled.
    fn recycle(&self, slots: &[SlotId], cost: &mut Cost) {
        for &s in slots {
            self.store.free(s, cost);
        }
        EngineStats::add(&self.stats.slots_recycled, slots.len() as u64);
    }

    /// Evict the LRU victim to PMem, freeing one arena slot.
    /// Returns the victim's version, or None if nothing is cached.
    fn evict_one(
        &self,
        shard: &mut Shard,
        boundaries: &[BatchId],
        cost: &mut Cost,
    ) -> Option<BatchId> {
        let victim = shard.lru.pop_back()?;
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

    /// Algorithm 2 body for `run[at]`, the key at position `at` of a
    /// run of queued keys, under the node lock held for the whole run.
    /// The run's first load reads every key of the run then
    /// PMem-resident in one batch (`ahead`): no eviction has happened
    /// yet, so those are the keys PMem-resident as the run started, and
    /// each one's first occurrence loads it for certain, since an
    /// eviction only ever takes a DRAM-resident key. Returns true if an
    /// eviction occurred (commit check may be due).
    #[allow(clippy::too_many_arguments)]
    fn maintain_key(
        &self,
        shard: &mut Shard,
        run: &[Key],
        at: usize,
        ahead: &mut ReadAhead,
        batch: BatchId,
        boundaries: &[BatchId],
        protect_max: BatchId,
        cost: &mut Cost,
    ) -> bool {
        let key = run[at];
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
            shard.lru.move_to_front(slot);
        } else {
            // PMem-resident entry (Alg. 2 lines 18-31): make room and
            // load.
            let pm_slot = e.loc.as_pmem().expect("tagged loc");
            if ahead.is_empty() {
                self.read_ahead(shard, run, at, ahead, cost);
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
                match ahead.take(at as u32, pm_slot) {
                    Some(row) => dst.copy_from_slice(row),
                    None => {
                        let ok = self.store.read_slot(pm_slot, dst, cost).is_some();
                        assert!(ok, "indexed PMem slot must be valid");
                    }
                }
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
            // The chain's newest *version label* may lag the entry's
            // version when it was evicted clean (bumped but never
            // pushed); the payload contents are identical in that case.
            e.version = batch;
            shard.lru.push_front(dram_slot);
        }
        evicted
    }

    /// Read, in one batch, the slot of every key of `keys[from..]` that
    /// is PMem-resident now, for [`ReadAhead::take`] at its position in
    /// `keys`.
    fn read_ahead(
        &self,
        shard: &Shard,
        keys: &[Key],
        from: usize,
        ahead: &mut ReadAhead,
        cost: &mut Cost,
    ) {
        for (at, &key) in keys.iter().enumerate().skip(from) {
            if let Some(slot) = shard.index.get(key).and_then(|e| e.loc.as_pmem()) {
                ahead.plan(at as u32, slot);
            }
        }
        ahead.read(&*self.store, cost);
    }

    /// Commit every pending checkpoint whose condition holds: the LRU
    /// victim is newer than it (Alg. 2 lines 24-27). Call without
    /// holding the node lock.
    fn try_commit(&self, cost: &mut Cost) -> u64 {
        let mut commits = 0;
        loop {
            let Some(cp) = self.ckpt_pending.lock().front().copied() else {
                break;
            };
            let newer = {
                let g = self.shard.read();
                match g.lru.tail() {
                    Some(t) => g.arena.version(t) > cp,
                    None => g.arena.is_empty(),
                }
            };
            if !newer {
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
            let (boundaries, _) = self.boundaries();
            {
                let mut g = self.shard.write();
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
        let mut arena = self.scratch.acquire();
        arena.payload.resize(self.cfg.payload_f32s(), 0.0);
        let payload = &mut arena.payload;
        let mut g = self.shard.write();
        for &key in keys {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS);
            match g.index.get(key) {
                Some(e) => {
                    let slot = e.loc.as_pmem().expect("uncached mode: PMem only");
                    self.store.read_slot(slot, payload, cost).expect("valid");
                    out.extend_from_slice(&payload[..dim]);
                    EngineStats::add(&self.stats.misses, 1);
                }
                None => {
                    init_payload(self.cfg.seed, key, INIT_SCALE, dim, payload);
                    let slot = self.store.alloc(cost);
                    self.store.write_slot(slot, key, batch, payload, cost);
                    g.index.insert_recovered(key, slot, batch);
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
        let mut arena = self.scratch.acquire();
        arena.payload.resize(self.cfg.payload_f32s(), 0.0);
        let payload = &mut arena.payload;
        let (boundaries, _) = self.boundaries();
        let mut g = self.shard.write();
        for (i, &key) in keys.iter().enumerate() {
            let e = g.index.get_mut(key).expect("pushed key must exist");
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
            let mut scratch = self.scratch.acquire();
            let ahead = &mut scratch.ahead;
            loop {
                chunk.clear();
                if self.access_queue.drain_into(&mut chunk, 1024) == 0 {
                    break;
                }
                let (boundaries, protect_max) = self.boundaries();
                let mut any_evicted = false;
                // A chunk is one run: one lock acquisition and at most
                // one batched read.
                {
                    let mut g = self.shard.write();
                    ahead.clear();
                    for at in 0..chunk.len() {
                        any_evicted |= self.maintain_key(
                            &mut g,
                            &chunk,
                            at,
                            ahead,
                            batch,
                            &boundaries,
                            protect_max,
                            cost,
                        );
                    }
                }
                processed += chunk.len() as u64;
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
        self.run_maintenance(batch, &mut mcost);
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

    /// Rebuild `plan` as the request's [`ShardPlan`], charging the plan
    /// and dedup stages (pure CPU bookkeeping, proportional to
    /// occurrences).
    fn build_plan(&self, keys: &[Key], plan: &mut ShardPlan, cost: &mut Cost) {
        let plan_ns = PLAN_KEY_NS * keys.len() as u64;
        cost.charge(CostKind::Cpu, plan_ns);
        self.phases.record_ns(Phase::Plan, plan_ns);
        let dedup_ns = DEDUP_KEY_NS * keys.len() as u64;
        cost.charge(CostKind::Cpu, dedup_ns);
        plan.rebuild(keys, 1, |_| 0);
        self.phases.record_ns(Phase::Dedup, dedup_ns);
    }

    /// Execute the planned pull in `s.plan`, its one group: the node's
    /// write lock is taken exactly once (a first touch inserts), every
    /// unique key's payload is read exactly once. An empty request
    /// takes no lock. Deduped weight rows land in the request's empty
    /// `s.rows`, one per unique in plan order, one outcome code per
    /// unique in `s.tags`. The rows of PMem-resident uniques are read
    /// after the loop, in one batch (`s.ahead`): what the loop writes
    /// goes to fresh slots, and it frees only slots of the keys it
    /// evicts, which were DRAM-resident until then, so no slot read
    /// late is one it touched.
    fn pull_group(&self, batch: BatchId, boundaries: &[BatchId], s: &mut Scratch, cost: &mut Cost) {
        let dim = self.cfg.dim;
        let uniques = s.plan.uniques();
        if uniques.is_empty() {
            return;
        }
        cost.charge(CostKind::Cpu, NODE_LOCK_NS);
        let mut g = self.shard.write();
        s.ahead.clear();
        for (ui, &key) in uniques.iter().enumerate() {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS + ACCESS_QUEUE_NS);
            let known = g.index.get(key).map(|e| e.loc);
            match known {
                Some(loc) => {
                    if let Some(slot) = loc.as_dram() {
                        s.rows.extend_from_slice(&g.arena.payload(slot)[..dim]);
                        cost.charge(CostKind::DramTransfer, self.dram.read_ns((dim * 4) as u64));
                        s.tags.push(PullOutcome::Hit.code());
                    } else {
                        s.ahead.plan(ui as u32, loc.as_pmem().expect("tagged loc"));
                        s.rows.resize(s.rows.len() + dim, 0.0);
                        s.tags.push(PullOutcome::Miss.code());
                    }
                }
                None => {
                    // First touch (Alg. 1 lines 6-12).
                    cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                    if g.arena.is_full() {
                        self.evict_one(&mut g, boundaries, cost);
                    }
                    let slot = g.arena.insert(key, batch).expect("slot available");
                    init_payload(
                        self.cfg.seed,
                        key,
                        INIT_SCALE,
                        dim,
                        g.arena.payload_mut(slot),
                    );
                    g.index.insert_new_dram(key, slot, batch);
                    g.lru.push_front(slot);
                    s.rows.extend_from_slice(&g.arena.payload(slot)[..dim]);
                    s.tags.push(PullOutcome::New.code());
                }
            }
        }
        s.ahead.read(&*self.store, cost);
        for (ui, row) in s.ahead.rows() {
            s.rows[ui as usize * dim..][..dim].copy_from_slice(&row[..dim]);
        }
    }

    /// Planned pull: dedup → execute → merge. Every unique key is read
    /// once and fanned out to its occurrences; stats are
    /// occurrence-weighted. `tests/parallel_equiv.rs` pins the weights,
    /// stats and `Serialized` ns the retired per-key execution produced
    /// on duplicate-free batches.
    fn pull_planned(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        let mut scratch = self.scratch.acquire();
        let s = &mut *scratch;
        self.build_plan(keys, &mut s.plan, cost);
        let (boundaries, _) = self.boundaries();
        let t0 = cost.total_ns();
        self.pull_group(batch, &boundaries, s, cost);
        self.phases
            .record_ns(Phase::Execute, cost.total_ns().saturating_sub(t0));

        // Merge: fan each deduped payload out to its original request
        // positions, append the access queue once per unique (in
        // first-occurrence order), and settle occurrence-weighted stats.
        let plan = &s.plan;
        let merge_ns = FANOUT_KEY_NS * plan.total_keys() as u64;
        cost.charge(CostKind::Cpu, merge_ns);
        let base = out.len();
        out.resize(base + keys.len() * dim, 0.0);
        for (u, (w, &tag)) in s.rows.chunks_exact(dim).zip(&s.tags).enumerate() {
            let occs = plan.occs(u);
            let cnt = occs.len() as u64;
            for &pos in occs {
                let dst = base + pos as usize * dim;
                out[dst..dst + dim].copy_from_slice(w);
            }
            match PullOutcome::from_code(tag) {
                PullOutcome::Hit => EngineStats::add(&self.stats.hits, cnt),
                PullOutcome::Miss => EngineStats::add(&self.stats.misses, cnt),
                PullOutcome::New => {
                    EngineStats::add(&self.stats.new_entries, 1);
                    // Repeat occurrences read the just-inserted
                    // DRAM entry: cache hits.
                    EngineStats::add(&self.stats.hits, cnt - 1);
                }
            }
        }
        self.access_queue.push_all(plan.uniques());
        EngineStats::add(&self.stats.pulls, plan.total_keys() as u64);
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

    /// Execute the planned push in `s.plan` under a single acquisition of
    /// the node's write lock, unique by unique. A DRAM-resident
    /// key applies in place; a PMem-resident one applies to its row in
    /// `s.payload` and is flushed out of place at its own turn, so
    /// flushes come in unique order. The request's PMem rows are read
    /// ahead in one batch: reads are not persistence events, so the
    /// persistence stream is that of reading each key at its turn. An
    /// empty request takes no lock.
    fn push_group(
        &self,
        grads: &[f32],
        batch: BatchId,
        boundaries: &[BatchId],
        protect_max: BatchId,
        s: &mut Scratch,
        cost: &mut Cost,
    ) {
        let plan = &s.plan;
        let uniques = plan.uniques();
        if uniques.is_empty() {
            return;
        }
        cost.charge(CostKind::Cpu, NODE_LOCK_NS);
        let mut g = self.shard.write();
        s.ahead.clear();
        for (ui, &key) in uniques.iter().enumerate() {
            cost.charge(CostKind::Cpu, HASH_PROBE_NS);
            let occs = plan.occs(ui);
            let loc = g.index.get(key).expect("pushed key must exist").loc;
            match loc.as_dram() {
                Some(slot) => {
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
                    let pm_slot = loc.as_pmem().expect("tagged loc");
                    if s.ahead.is_empty() {
                        // The first PMem-resident unique: it and every
                        // later one go out in one batch. A key moves only
                        // at its own turn, and never into DRAM, so each
                        // is read at the slot it is at now.
                        self.read_ahead(&g, uniques, ui, &mut s.ahead, cost);
                    }
                    let row = s.ahead.take(ui as u32, pm_slot);
                    s.payload.clear();
                    s.payload
                        .extend_from_slice(row.expect("a push moves no key before its turn"));
                    self.apply_occurrences(&mut s.payload, grads, occs, &mut s.acc, cost);
                    let e = g.index.get_mut(key).expect("indexed");
                    self.flush_payload(key, batch, &s.payload, &mut e.chain, boundaries, cost);
                    let (newest, _) = e.chain.newest().expect("just flushed");
                    e.loc = TaggedLoc::pmem(newest);
                    e.version = batch;
                }
            }
            EngineStats::add(&self.stats.pushes, occs.len() as u64);
        }
    }

    /// Planned push: dedup → execute. Final weights equal one apply per
    /// occurrence in request order (coalescing is gated on gradient
    /// linearity; stateful optimizers apply sequentially within each
    /// key).
    fn push_planned(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        let mut scratch = self.scratch.acquire();
        let s = &mut *scratch;
        self.build_plan(keys, &mut s.plan, cost);
        let (boundaries, protect_max) = self.boundaries();
        s.acc.resize(self.cfg.dim, 0.0);
        let t0 = cost.total_ns();
        self.push_group(grads, batch, &boundaries, protect_max, s, cost);
        self.phases
            .record_ns(Phase::Execute, cost.total_ns().saturating_sub(t0));
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
        let g = self.shard.read();
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
        self.shard.read().index.len()
    }

    fn metrics_text(&self) -> String {
        self.registry.render_text()
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

        // Plan stages record one sample per planned request
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
