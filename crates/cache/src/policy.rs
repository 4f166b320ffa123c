//! Pluggable cache replacement policies.
//!
//! The paper uses LRU and explicitly defers policy research ("we do not
//! focus on improving the cache replacement policies", §II-B). This
//! module makes the policy a first-class axis so the ablation harness
//! can quantify how much the *policy* matters relative to the paper's
//! *pipeline* (answer: far less, see the `ablations` experiment):
//!
//! - [`LruPolicy`] — the paper's choice; also the only policy whose
//!   victim is guaranteed oldest-versioned, enabling the eviction-time
//!   checkpoint commit of Algorithm 2 lines 24-27.
//! - [`FifoPolicy`] — insertion order, accesses ignored.
//! - [`ClockPolicy`] — one reference bit + sweeping hand (second
//!   chance); near-LRU hit rates at lower bookkeeping cost.

use crate::lru::LruList;
use std::collections::VecDeque;

/// Which replacement policy a cache shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's configuration).
    Lru,
    /// First-in-first-out.
    Fifo,
    /// CLOCK / second-chance.
    Clock,
}

impl PolicyKind {
    /// Build a policy instance for `capacity` slots.
    pub fn build(self, capacity: usize) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new(capacity)),
            PolicyKind::Fifo => Box::new(FifoPolicy::new(capacity)),
            PolicyKind::Clock => Box::new(ClockPolicy::new(capacity)),
        }
    }
}

/// A cache replacement policy over arena slot indices.
pub trait EvictionPolicy: Send + Sync {
    /// A new entry landed in `slot`.
    fn on_insert(&mut self, slot: u32);
    /// `slot` was accessed (deferred to maintenance in the pipeline).
    fn on_access(&mut self, slot: u32);
    /// Choose and unlink a victim.
    fn evict(&mut self) -> Option<u32>;
    /// Entry left the cache without eviction (recovery/rebuild paths).
    fn remove(&mut self, slot: u32);
    /// Tracked entries.
    fn len(&self) -> usize;
    /// True when nothing is tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The slot that `evict` would pick, without unlinking it — `None`
    /// if the policy cannot cheaply answer. Only LRU guarantees the
    /// peeked victim carries the *oldest batch version*, the property
    /// the eviction-time checkpoint commit relies on; other policies
    /// return the candidate for inspection but the commit logic must
    /// fall back to the drain pass.
    fn peek_victim(&self) -> Option<u32>;
    /// Whether the victim order is oldest-version-first (true only for
    /// LRU under the pipeline's access pattern).
    fn victim_is_oldest_version(&self) -> bool;
}

/// LRU via the intrusive list.
pub struct LruPolicy {
    list: LruList,
}

impl LruPolicy {
    /// LRU over `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            list: LruList::new(capacity),
        }
    }
}

impl EvictionPolicy for LruPolicy {
    fn on_insert(&mut self, slot: u32) {
        self.list.push_front(slot);
    }
    fn on_access(&mut self, slot: u32) {
        self.list.move_to_front(slot);
    }
    fn evict(&mut self) -> Option<u32> {
        self.list.pop_back()
    }
    fn remove(&mut self, slot: u32) {
        self.list.remove(slot);
    }
    fn len(&self) -> usize {
        self.list.len()
    }
    fn peek_victim(&self) -> Option<u32> {
        self.list.tail()
    }
    fn victim_is_oldest_version(&self) -> bool {
        true
    }
}

/// FIFO: accesses don't reorder.
pub struct FifoPolicy {
    queue: VecDeque<u32>,
    present: Vec<bool>,
}

impl FifoPolicy {
    /// FIFO over `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            queue: VecDeque::with_capacity(capacity),
            present: vec![false; capacity],
        }
    }
}

impl EvictionPolicy for FifoPolicy {
    fn on_insert(&mut self, slot: u32) {
        debug_assert!(!self.present[slot as usize]);
        self.present[slot as usize] = true;
        self.queue.push_back(slot);
    }
    fn on_access(&mut self, _slot: u32) {}
    fn evict(&mut self) -> Option<u32> {
        while let Some(slot) = self.queue.pop_front() {
            if self.present[slot as usize] {
                self.present[slot as usize] = false;
                return Some(slot);
            }
        }
        None
    }
    fn remove(&mut self, slot: u32) {
        // Lazy removal: mark absent; the queue skips it later.
        self.present[slot as usize] = false;
    }
    fn len(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }
    fn peek_victim(&self) -> Option<u32> {
        self.queue
            .iter()
            .copied()
            .find(|&s| self.present[s as usize])
    }
    fn victim_is_oldest_version(&self) -> bool {
        false
    }
}

/// CLOCK (second chance): a reference bit per slot and a sweeping hand.
pub struct ClockPolicy {
    referenced: Vec<bool>,
    present: Vec<bool>,
    hand: usize,
    live: usize,
}

impl ClockPolicy {
    /// CLOCK over `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            referenced: vec![false; capacity],
            present: vec![false; capacity],
            hand: 0,
            live: 0,
        }
    }
}

impl EvictionPolicy for ClockPolicy {
    fn on_insert(&mut self, slot: u32) {
        debug_assert!(!self.present[slot as usize]);
        self.present[slot as usize] = true;
        self.referenced[slot as usize] = true;
        self.live += 1;
    }
    fn on_access(&mut self, slot: u32) {
        self.referenced[slot as usize] = true;
    }
    fn evict(&mut self) -> Option<u32> {
        if self.live == 0 {
            return None;
        }
        let n = self.present.len();
        // Two full sweeps guarantee progress (first clears ref bits).
        for _ in 0..2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            if !self.present[i] {
                continue;
            }
            if self.referenced[i] {
                self.referenced[i] = false;
            } else {
                self.present[i] = false;
                self.live -= 1;
                return Some(i as u32);
            }
        }
        None
    }
    fn remove(&mut self, slot: u32) {
        if self.present[slot as usize] {
            self.present[slot as usize] = false;
            self.live -= 1;
        }
    }
    fn len(&self) -> usize {
        self.live
    }
    fn peek_victim(&self) -> Option<u32> {
        None // destructive to compute; not exposed
    }
    fn victim_is_oldest_version(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_trace(policy: &mut dyn EvictionPolicy, capacity: usize, trace: &[u32]) -> usize {
        // Simulate a cache of `capacity`: returns hit count.
        let mut cached = [false; 64];
        let mut hits = 0;
        for &slot_key in trace {
            if cached[slot_key as usize] {
                policy.on_access(slot_key);
                hits += 1;
            } else {
                if policy.len() == capacity {
                    let v = policy.evict().expect("victim");
                    cached[v as usize] = false;
                }
                policy.on_insert(slot_key);
                cached[slot_key as usize] = true;
            }
        }
        hits
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new(8);
        p.on_insert(0);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(0); // 1 is now LRU
        assert_eq!(p.peek_victim(), Some(1));
        assert_eq!(p.evict(), Some(1));
        assert!(p.victim_is_oldest_version());
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = FifoPolicy::new(8);
        p.on_insert(0);
        p.on_insert(1);
        p.on_access(0); // does not save 0
        assert_eq!(p.peek_victim(), Some(0));
        assert_eq!(p.evict(), Some(0));
        assert!(!p.victim_is_oldest_version());
    }

    #[test]
    fn fifo_lazy_removal() {
        let mut p = FifoPolicy::new(8);
        p.on_insert(0);
        p.on_insert(1);
        p.remove(0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.evict(), Some(1), "skips the removed slot");
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new(4);
        for s in 0..3 {
            p.on_insert(s);
        }
        // All referenced: first sweep clears, second evicts slot 0.
        assert_eq!(p.evict(), Some(0));
        // Re-referencing 1 protects it over 2.
        p.on_access(1);
        assert_eq!(p.evict(), Some(2));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn clock_remove_and_empty() {
        let mut p = ClockPolicy::new(4);
        p.on_insert(2);
        p.remove(2);
        assert!(p.is_empty());
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn lru_beats_fifo_on_skewed_trace() {
        // Hot keys 0..3 re-accessed between cold scans.
        let mut trace = Vec::new();
        for round in 0..40u32 {
            for hot in 0..4 {
                trace.push(hot);
            }
            trace.push(4 + (round % 20)); // cold scan
        }
        let cap = 6;
        let lru_hits = run_trace(&mut LruPolicy::new(64), cap, &trace);
        let fifo_hits = run_trace(&mut FifoPolicy::new(64), cap, &trace);
        let clock_hits = run_trace(&mut ClockPolicy::new(64), cap, &trace);
        assert!(lru_hits >= fifo_hits, "lru {lru_hits} vs fifo {fifo_hits}");
        assert!(
            clock_hits >= fifo_hits,
            "clock {clock_hits} vs fifo {fifo_hits}"
        );
    }

    #[test]
    fn all_policies_conserve_entries() {
        for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock] {
            let mut p = kind.build(16);
            for s in 0..10 {
                p.on_insert(s);
            }
            assert_eq!(p.len(), 10, "{kind:?}");
            let mut evicted = std::collections::HashSet::new();
            while let Some(v) = p.evict() {
                assert!(evicted.insert(v), "{kind:?} evicted {v} twice");
            }
            assert_eq!(evicted.len(), 10, "{kind:?}");
            assert!(p.is_empty());
        }
    }
}
