//! Ori-Cache: the fine-grained DRAM-PMem hybrid cache of the paper's
//! Observation 1 (§III-B), built the way a straightforward engineer
//! would: Facebook's concurrent hash map for the index, an STL list for
//! LRU, and *synchronous* cache maintenance — every miss evicts and
//! loads inline on the pull path, every access (pull **and** update)
//! reorders the LRU under the global list lock.
//!
//! This is exactly what the paper measures as `Ori-Cache`: correct, but
//! its serialized list operations and burst-time PMem writes sit on the
//! training critical path, so it degrades super-linearly with GPU count
//! (1.24× / 1.56× / 2.27× of DRAM-PS at 4/8/16 GPUs, Fig. 7).
//! Checkpointing is CheckFreq-style incremental (Table III).

use crate::ckpt_log::{CkptDevice, CkptLog};
use oe_cache::{DramArena, LruList};
use oe_core::config::{HASH_PROBE_NS, INIT_ENTRY_NS, LRU_OP_NS, OPT_FLOP_NS_PER_F32};
use oe_core::engine::{MaintenanceReport, PsEngine};
use oe_core::init::init_payload;
use oe_core::optimizer::Optimizer;
use oe_core::stats::{EngineStats, StatsSnapshot};
use oe_core::{BatchId, Key, NodeConfig};
use oe_pmem::{PmemPool, PoolConfig, SlotId};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind, DeviceTiming};
use std::collections::{HashMap, HashSet};

/// Cost of acquiring and releasing the global list lock (uncontended
/// base; the contention model inflates it with the burst stream count).
const LIST_LOCK_NS: u64 = 200;

struct OriEntry {
    dram: Option<u32>,
    pmem: Option<SlotId>,
    version: BatchId,
}

struct Inner {
    index: HashMap<Key, OriEntry>,
    arena: DramArena,
    lru: LruList,
}

/// The fine-grained hybrid cache baseline.
pub struct OriCache {
    cfg: NodeConfig,
    opt: Optimizer,
    inner: Mutex<Inner>,
    pool: PmemPool,
    dirty: Mutex<HashSet<Key>>,
    log: CkptLog,
    stats: EngineStats,
    dram: DeviceTiming,
}

impl OriCache {
    /// Create an Ori-Cache node; checkpoints go to `device`.
    pub fn new(cfg: NodeConfig, device: CkptDevice) -> Self {
        cfg.validate();
        let mut cost = Cost::new();
        let pool = PmemPool::create(
            PoolConfig {
                payload_bytes: cfg.payload_bytes(),
                capacity: cfg.pmem_capacity,
            },
            &mut cost,
        );
        let entries = cfg.cache_entries();
        let log = CkptLog::create(device, cfg.payload_f32s(), 1 << 20);
        Self {
            opt: cfg.optimizer.build(),
            inner: Mutex::new(Inner {
                index: HashMap::new(),
                arena: DramArena::new(entries, cfg.payload_f32s()),
                lru: LruList::new(entries),
            }),
            pool,
            dirty: Mutex::new(HashSet::new()),
            log,
            stats: EngineStats::default(),
            dram: DeviceTiming::dram(),
            cfg,
        }
    }

    /// The checkpoint log.
    pub fn ckpt_log(&self) -> &CkptLog {
        &self.log
    }

    /// Synchronously evict the LRU victim: unconditional write-back to
    /// the victim's (single, in-place) PMem slot. Inline on the caller's
    /// critical path — the defining difference from PMem-OE.
    fn evict_inline(&self, inner: &mut Inner, cost: &mut Cost) {
        let victim = inner.lru.pop_back().expect("cache not empty");
        let vkey = inner.arena.key(victim);
        let e = inner.index.get_mut(&vkey).expect("indexed");
        let slot = match e.pmem {
            Some(s) => s,
            None => {
                let s = self.pool.alloc(cost);
                e.pmem = Some(s);
                s
            }
        };
        self.pool
            .write_slot(slot, vkey, e.version, inner.arena.payload(victim), cost);
        e.dram = None;
        inner.arena.remove(victim);
        EngineStats::add(&self.stats.evictions, 1);
        EngineStats::add(&self.stats.flushes, 1);
    }

    /// Load `key` into the cache (evicting if needed); returns its slot.
    fn load_inline(&self, inner: &mut Inner, key: Key, batch: BatchId, cost: &mut Cost) -> u32 {
        if inner.arena.is_full() {
            self.evict_inline(inner, cost);
        }
        let slot = inner.arena.insert(key, batch).expect("slot available");
        let e = inner.index.get_mut(&key).expect("indexed");
        let pm = e.pmem.expect("uncached entry must have a PMem slot");
        let Inner { arena, .. } = inner;
        self.pool
            .read_slot(pm, arena.payload_mut(slot), cost)
            .expect("valid slot");
        let e = inner.index.get_mut(&key).expect("indexed");
        e.dram = Some(slot);
        e.version = batch;
        inner.lru.push_front(slot);
        EngineStats::add(&self.stats.loads, 1);
        slot
    }
}

impl PsEngine for OriCache {
    fn name(&self) -> &'static str {
        "Ori-Cache"
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.cfg.dim;
        out.reserve(keys.len() * dim);
        for &key in keys {
            // Global lock for index + list on every access.
            cost.charge(CostKind::Serialized, LIST_LOCK_NS + LRU_OP_NS);
            cost.charge(CostKind::Cpu, HASH_PROBE_NS);
            let mut g = self.inner.lock();
            let state = g.index.get(&key).map(|e| e.dram);
            match state {
                Some(Some(slot)) => {
                    out.extend_from_slice(&g.arena.payload(slot)[..dim]);
                    g.lru.move_to_front(slot);
                    cost.charge(CostKind::DramTransfer, self.dram.read_ns((dim * 4) as u64));
                    EngineStats::add(&self.stats.hits, 1);
                }
                Some(None) => {
                    // Miss: synchronous evict + load, all inline.
                    let slot = self.load_inline(&mut g, key, batch, cost);
                    out.extend_from_slice(&g.arena.payload(slot)[..dim]);
                    EngineStats::add(&self.stats.misses, 1);
                }
                None => {
                    cost.charge(CostKind::Serialized, INIT_ENTRY_NS);
                    if g.arena.is_full() {
                        self.evict_inline(&mut g, cost);
                    }
                    let slot = g.arena.insert(key, batch).expect("slot available");
                    init_payload(
                        self.cfg.seed,
                        key,
                        self.cfg.init_scale,
                        dim,
                        g.arena.payload_mut(slot),
                    );
                    g.index.insert(
                        key,
                        OriEntry {
                            dram: Some(slot),
                            pmem: None,
                            version: batch,
                        },
                    );
                    g.lru.push_front(slot);
                    out.extend_from_slice(&g.arena.payload(slot)[..dim]);
                    EngineStats::add(&self.stats.new_entries, 1);
                    self.dirty.lock().insert(key);
                }
            }
            EngineStats::add(&self.stats.pulls, 1);
        }
    }

    fn end_pull_phase(&self, _batch: BatchId) -> MaintenanceReport {
        // No pipeline: everything already happened inline.
        MaintenanceReport::default()
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        assert_eq!(grads.len(), keys.len() * self.cfg.dim);
        let dim = self.cfg.dim;
        for (i, &key) in keys.iter().enumerate() {
            // The cache treats the update as an independent access:
            // another global-lock + list reorder (paper §II-B end).
            cost.charge(CostKind::Serialized, LIST_LOCK_NS + LRU_OP_NS);
            cost.charge(
                CostKind::Cpu,
                HASH_PROBE_NS + dim as u64 * OPT_FLOP_NS_PER_F32,
            );
            let mut g = self.inner.lock();
            let slot = match g.index.get(&key).expect("pushed key exists").dram {
                Some(s) => s,
                None => {
                    let s = self.load_inline(&mut g, key, batch, cost);
                    EngineStats::add(&self.stats.misses, 1);
                    s
                }
            };
            self.opt.apply(
                dim,
                g.arena.payload_mut(slot),
                &grads[i * dim..(i + 1) * dim],
            );
            g.arena.set_version(slot, batch);
            if let Some(e) = g.index.get_mut(&key) {
                e.version = batch;
            }
            g.lru.move_to_front(slot);
            cost.charge(CostKind::DramTransfer, self.dram.write_ns((dim * 4) as u64));
            EngineStats::add(&self.stats.pushes, 1);
        }
        self.dirty.lock().extend(keys.iter().copied());
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        // Incremental dump, synchronous: reads payloads from DRAM or
        // PMem (interfering with training I/O) and writes the log.
        let mut cost = Cost::new();
        let dirty: Vec<Key> = {
            let mut d = self.dirty.lock();
            d.drain().collect()
        };
        let mut staged: Vec<(Key, Vec<f32>)> = Vec::with_capacity(dirty.len());
        {
            let g = self.inner.lock();
            let mut scratch = vec![0f32; self.cfg.payload_f32s()];
            for key in dirty {
                let Some(e) = g.index.get(&key) else { continue };
                match e.dram {
                    Some(slot) => {
                        cost.charge(
                            CostKind::DramTransfer,
                            self.dram.read_ns((self.cfg.payload_bytes()) as u64),
                        );
                        staged.push((key, g.arena.payload(slot).to_vec()));
                    }
                    None => {
                        let pm = e.pmem.expect("uncached entry persisted");
                        self.pool
                            .read_slot(pm, &mut scratch, &mut cost)
                            .expect("valid");
                        staged.push((key, scratch.clone()));
                    }
                }
            }
        }
        let n = self.log.dump(
            staged.iter().map(|(k, p)| (*k, p.as_slice())),
            batch,
            &mut cost,
        );
        EngineStats::add(&self.stats.ckpt_entries_written, n);
        EngineStats::add(&self.stats.ckpt_commits, 1);
        cost
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.log.committed()
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        let g = self.inner.lock();
        let e = g.index.get(&key)?;
        let dim = self.cfg.dim;
        match e.dram {
            Some(slot) => Some(g.arena.payload(slot)[..dim].to_vec()),
            None => {
                let mut scratch = vec![0f32; self.cfg.payload_f32s()];
                let mut cost = Cost::new();
                self.pool.read_slot(e.pmem?, &mut scratch, &mut cost)?;
                scratch.truncate(dim);
                Some(scratch)
            }
        }
    }

    fn num_keys(&self) -> usize {
        self.inner.lock().index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::OptimizerKind;

    fn cfg(cache_entries: usize) -> NodeConfig {
        let mut c = NodeConfig::small(4);
        c.optimizer = OptimizerKind::Sgd { lr: 1.0 };
        c.cache_bytes = cache_entries * c.bytes_per_cached_entry();
        c
    }

    #[test]
    fn eviction_roundtrip() {
        let ps = OriCache::new(cfg(2), CkptDevice::Pmem);
        let mut cost = Cost::new();
        let mut originals = Vec::new();
        for k in 0..5u64 {
            let mut out = Vec::new();
            ps.pull(&[k], 1, &mut out, &mut cost);
            originals.push(out);
        }
        assert!(ps.stats().evictions > 0);
        for k in 0..5u64 {
            assert_eq!(ps.read_weights(k).unwrap(), originals[k as usize][..4]);
        }
    }

    #[test]
    fn miss_work_is_on_the_pull_path() {
        let ps = OriCache::new(cfg(2), CkptDevice::Pmem);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        // Warm 4 keys through a 2-entry cache → evictions + future misses.
        ps.pull(&[1, 2, 3, 4], 1, &mut out, &mut cost);
        out.clear();
        let mut pull2 = Cost::new();
        ps.pull(&[1, 2], 2, &mut out, &mut pull2);
        // Keys 1,2 were evicted: the pull itself pays PMem reads and the
        // eviction write-backs.
        assert!(pull2.ns(CostKind::PmemRead) > 0, "inline load");
        assert!(pull2.ns(CostKind::Serialized) > 0, "global list lock");
        assert!(ps.end_pull_phase(2).cost.is_empty(), "nothing deferred");
    }

    #[test]
    fn update_reorders_lru_again() {
        let ps = OriCache::new(cfg(4), CkptDevice::Pmem);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1], 1, &mut out, &mut cost);
        let pull_serialized = cost.ns(CostKind::Serialized);
        let mut push_cost = Cost::new();
        ps.push(&[1], &[0.1; 4], 1, &mut push_cost);
        assert!(
            push_cost.ns(CostKind::Serialized) > 0,
            "push pays the list lock too (pull/update treated independently)"
        );
        let _ = pull_serialized;
    }

    #[test]
    fn incremental_checkpoint_and_weights() {
        let ps = OriCache::new(cfg(8), CkptDevice::Pmem);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1, 2], 1, &mut out, &mut cost);
        ps.push(&[1, 2], &[0.5; 8], 1, &mut cost);
        let c = ps.request_checkpoint(1);
        assert!(c.total_ns() > 0);
        assert_eq!(ps.committed_checkpoint(), 1);
        assert_eq!(ps.stats().ckpt_entries_written, 2);
        let w = ps.read_weights(1).unwrap();
        assert!((w[0] - (out[0] - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn same_init_as_other_engines() {
        let ps = OriCache::new(cfg(8), CkptDevice::Pmem);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[123], 1, &mut out, &mut cost);
        let expect: Vec<f32> = (0..4)
            .map(|i| oe_core::init::init_weight(42, 123, i, 0.01))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn push_to_evicted_key_reloads() {
        let ps = OriCache::new(cfg(2), CkptDevice::Pmem);
        let mut out = Vec::new();
        let mut cost = Cost::new();
        ps.pull(&[1, 2, 3], 1, &mut out, &mut cost); // key 1 evicted
        let before = ps.read_weights(1).unwrap();
        ps.push(&[1], &[1.0; 4], 1, &mut cost);
        let after = ps.read_weights(1).unwrap();
        assert!((after[0] - (before[0] - 1.0)).abs() < 1e-6);
    }
}
