//! `PlacedCluster`: a sharded PS cluster routed through the placement
//! table, with live migration and optional telemetry-driven rebalancing.
//!
//! The paper's static-hash cluster (§IV) with the hash replaced by a
//! [`PlacementTable`] — identical at epoch 0 — and three moving parts:
//!
//! * **Telemetry** — per-node burst-latency histograms and keys-served
//!   counters feed the [`RebalanceController`]; a [`FreqTracker`] feeds
//!   the [`SkewAwarePlacer`].
//! * **Live migration** — [`PlacedCluster::start_migration`] seed-copies
//!   full entries (weights + optimizer state) to their destinations,
//!   double-writes every subsequent push of a migrating key to both
//!   replicas, and cuts over at the `end_pull_phase` fence of the
//!   cutover batch: table epoch bump + source discard, between the pull
//!   and push bursts of one batch, so no push is ever in flight across
//!   the fence. Training never stops, and because seeding/double-writes
//!   carry complete deterministic state, the post-migration weights are
//!   bit-identical to a never-migrated run.
//! * **Rebalancing** — with [`PlacedCluster::with_auto_rebalance`], the
//!   controller checks windowed per-node load/p99 on a batch cadence and
//!   plans a hot-key drain off the overloaded node via the placer.
//!
//! Routing invariant: a burst is always routed by the *current* table —
//! the in-flight migration only adds destination double-writes; it never
//! changes where reads go until the cutover's epoch bump.

use crate::migration::{ActiveMigration, MigrationSpec, MigrationStats};
use crate::placement::PlacementTable;
use crate::placer::{NodeClass, SkewAwarePlacer};
use crate::rebalance::{NodeWindow, RebalanceConfig, RebalanceController};
use oe_cache::FreqTracker;
use oe_core::plan::{ShardBuckets, ShardPlan};
use oe_core::{BatchId, Key, MaintenanceReport, PsEngine, StatsSnapshot};
use oe_simdevice::sync::{Mutex, RwLock};
use oe_simdevice::{Cost, CostKind};
use oe_telemetry::{Counter, Gauge, HistogramHandle, HistogramSnapshot, Registry};
use std::collections::{HashMap, HashSet};

/// A cluster of PS engines routed by an epoch-versioned placement table.
pub struct PlacedCluster<E: PsEngine> {
    nodes: Vec<E>,
    classes: Vec<NodeClass>,
    table: RwLock<PlacementTable>,
    active: Mutex<Option<ActiveMigration>>,
    freq: Mutex<FreqTracker>,
    controller: Option<Mutex<RebalanceController>>,
    mig: Mutex<MigrationStats>,
    /// Keys whose placement changed at the most recent cutovers, not
    /// yet collected by [`PlacedCluster::drain_moved_keys`]. Feeds
    /// trainer-side caches that must invalidate moved entries.
    moved_pending: Mutex<Vec<Key>>,
    // Telemetry: per-node burst latency + keys served, cluster gauges.
    registry: Registry,
    node_hist: Vec<HistogramHandle>,
    node_keys: Vec<Counter>,
    window_base: Mutex<Vec<(HistogramSnapshot, u64)>>,
    epoch_gauge: Gauge,
    migrations_total: Counter,
    keys_moved_total: Counter,
    dw_pushes_total: Counter,
    seed_copies_total: Counter,
}

impl<E: PsEngine> PlacedCluster<E> {
    /// A placed cluster with no controller: static hash routing until
    /// someone calls [`PlacedCluster::start_migration`] explicitly.
    pub fn new(nodes: Vec<E>) -> Self {
        Self::build(nodes, None, Vec::new())
    }

    /// A placed cluster that rebalances itself: the controller checks
    /// windowed telemetry every `cfg.check_every_batches` completed
    /// batches and drains hot keys off an overloaded node. `classes`
    /// restricts hot-key destinations to DRAM-rich nodes (empty = all).
    pub fn with_auto_rebalance(
        nodes: Vec<E>,
        cfg: RebalanceConfig,
        classes: Vec<NodeClass>,
    ) -> Self {
        let ctrl = RebalanceController::new(cfg);
        Self::build(nodes, Some(ctrl), classes)
    }

    fn build(
        nodes: Vec<E>,
        controller: Option<RebalanceController>,
        classes: Vec<NodeClass>,
    ) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        assert!(
            classes.is_empty() || classes.len() == nodes.len(),
            "one class per node, or empty for all-DRAM"
        );
        let registry = Registry::new();
        let node_hist = (0..nodes.len())
            .map(|i| registry.histogram(&format!("cluster_node{i}_burst_ns")))
            .collect();
        let node_keys = (0..nodes.len())
            .map(|i| registry.counter(&format!("cluster_node{i}_keys_served_total")))
            .collect();
        let window_base = Mutex::new(vec![(HistogramSnapshot::empty(), 0u64); nodes.len()]);
        let epoch_gauge = registry.gauge("cluster_placement_epoch");
        let migrations_total = registry.counter("cluster_migrations_total");
        let keys_moved_total = registry.counter("cluster_keys_moved_total");
        let dw_pushes_total = registry.counter("cluster_double_write_pushes_total");
        let seed_copies_total = registry.counter("cluster_seed_copies_total");
        let table = RwLock::new(PlacementTable::new(nodes.len()));
        Self {
            nodes,
            classes,
            table,
            active: Mutex::new(None),
            freq: Mutex::new(FreqTracker::new()),
            controller: controller.map(Mutex::new),
            mig: Mutex::new(MigrationStats::default()),
            moved_pending: Mutex::new(Vec::new()),
            registry,
            node_hist,
            node_keys,
            window_base,
            epoch_gauge,
            migrations_total,
            keys_moved_total,
            dw_pushes_total,
            seed_copies_total,
        }
    }

    /// Number of PS nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes (never, per the constructor).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node (tests / stats).
    pub fn node(&self, i: usize) -> &E {
        &self.nodes[i]
    }

    /// Which node currently serves `key`.
    pub fn node_of(&self, key: Key) -> usize {
        self.table.read().node_of(key)
    }

    /// Current placement epoch.
    pub fn placement_epoch(&self) -> u64 {
        self.table.read().epoch()
    }

    /// A snapshot of the placement table.
    pub fn placement(&self) -> PlacementTable {
        self.table.read().clone()
    }

    /// True while a migration's double-write window is open.
    pub fn migration_active(&self) -> bool {
        self.active.lock().is_some()
    }

    /// Cumulative migration counters.
    pub fn migration_stats(&self) -> MigrationStats {
        *self.mig.lock()
    }

    /// Collect (and clear) the keys whose placement changed at cutovers
    /// since the last call, in move order. A trainer-side prefetch
    /// cache drains this at the batch boundary and invalidates exactly
    /// those entries exactly once — a second drain returns nothing.
    pub fn drain_moved_keys(&self) -> Vec<Key> {
        std::mem::take(&mut *self.moved_pending.lock())
    }

    /// The cluster's telemetry registry (placement epoch, per-node
    /// burst histograms, migration counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Start a migration after `after_batch` has fully completed
    /// (pushes included): seed-copy each moving key's full entry to its
    /// destination now, double-write pushes for
    /// `spec.double_write_batches` batches, then cut over at the
    /// `end_pull_phase` fence. Returns the number of keys actually
    /// migrating (no-op moves are dropped; 0 if a migration is already
    /// in flight).
    pub fn start_migration(
        &self,
        spec: MigrationSpec,
        after_batch: BatchId,
        cost: &mut Cost,
    ) -> usize {
        self.start_migration_inner(&spec.moves, spec.double_write_batches, after_batch, cost)
    }

    fn start_migration_inner(
        &self,
        moves: &[(Key, usize)],
        double_write_batches: u64,
        started_batch: BatchId,
        cost: &mut Cost,
    ) -> usize {
        let mut guard = self.active.lock();
        if guard.is_some() {
            return 0; // one migration at a time
        }
        let real: Vec<(Key, usize, usize)> = {
            let table = self.table.read();
            moves
                .iter()
                .filter_map(|&(k, dest)| {
                    let src = table.node_of(k);
                    (src != dest).then_some((k, src, dest))
                })
                .collect()
        };
        if real.is_empty() {
            return 0;
        }
        // Seed: copy full entries (weights + optimizer state + version)
        // to the destinations. Keys with no entry yet are seeded lazily
        // on their first double-write (or at cutover).
        let mut seeded = HashSet::new();
        let mut copies = 0u64;
        for &(k, src, dest) in &real {
            if let Some((v, payload)) = self.nodes[src].export_entry(k, cost) {
                self.nodes[dest].import_entry(k, v, &payload, cost);
                seeded.insert(k);
                copies += 1;
            }
        }
        self.seed_copies_total.add(copies);
        self.mig.lock().seed_copies += copies;
        let n = real.len();
        *guard = Some(ActiveMigration {
            dest_of: real.iter().map(|&(k, _, d)| (k, d)).collect(),
            moves: real,
            seeded,
            started_batch,
            cutover_batch: started_batch + double_write_batches + 1,
        });
        n
    }

    /// The cutover fence: bump the table epoch with the moves and forget
    /// the source copies. Runs between the pull and push bursts of
    /// `batch` (inside `end_pull_phase`), so no push spans the fence.
    fn cutover(&self, mut active: ActiveMigration, batch: BatchId, cost: &mut Cost) {
        // Any key that has an entry at the source but was never
        // double-written gets its copy now — after this loop the
        // destination has an entry iff the source did, so logical
        // counters (new_entries) stay placement-invariant.
        let mut copies = 0u64;
        for &(k, src, dest) in &active.moves {
            if !active.seeded.contains(&k) {
                if let Some((v, payload)) = self.nodes[src].export_entry(k, cost) {
                    self.nodes[dest].import_entry(k, v, &payload, cost);
                    active.seeded.insert(k);
                    copies += 1;
                }
            }
        }
        let epoch = {
            let mut table = self.table.write();
            let flat: Vec<(Key, usize)> = active.moves.iter().map(|&(k, _, d)| (k, d)).collect();
            table.apply(&flat)
        };
        self.epoch_gauge.set(epoch);
        for &(k, src, _) in &active.moves {
            self.nodes[src].discard_entry(k, cost);
        }
        self.moved_pending
            .lock()
            .extend(active.moves.iter().map(|&(k, _, _)| k));
        let moved = active.moves.len() as u64;
        let window = (batch - active.started_batch).saturating_sub(1);
        self.migrations_total.inc();
        self.keys_moved_total.add(moved);
        self.seed_copies_total.add(copies);
        let mut mig = self.mig.lock();
        mig.migrations += 1;
        mig.keys_moved += moved;
        mig.double_write_batches += window;
        mig.seed_copies += copies;
    }

    /// Controller tick: compute per-node windows from telemetry deltas,
    /// ask the controller for an overload verdict, and start a drain
    /// migration if one is due. No-op without a controller or while a
    /// migration is in flight.
    fn maybe_rebalance(&self, batch: BatchId, cost: &mut Cost) {
        let Some(ctrl) = &self.controller else { return };
        let mut ctrl = ctrl.lock();
        if !ctrl.due(batch) || self.active.lock().is_some() {
            return;
        }
        let windows: Vec<NodeWindow> = {
            let mut bases = self.window_base.lock();
            (0..self.nodes.len())
                .map(|i| {
                    let snap = self.node_hist[i].snapshot();
                    let keys_now = self.node_keys[i].get();
                    let delta = snap.delta_since(&bases[i].0);
                    let w = NodeWindow {
                        keys: keys_now - bases[i].1,
                        p99_ns: delta.p99(),
                        mean_ns: delta.mean(),
                    };
                    bases[i] = (snap, keys_now);
                    w
                })
                .collect()
        };
        let Some(hot) = ctrl.overloaded(&windows) else {
            return;
        };
        let moves = {
            let placer = SkewAwarePlacer::new(ctrl.config().placer.clone());
            let table = self.table.read();
            let loads: Vec<u64> = windows.iter().map(|w| w.keys).collect();
            let freq = self.freq.lock();
            placer.plan_moves(&freq, &table, &loads, &self.classes, Some(hot))
        };
        if !moves.is_empty() {
            // Seeding happens here, between this batch's pulls and its
            // pushes, so this batch's pushes are already double-written:
            // the snapshot predates them, hence started = batch − 1.
            let dw = ctrl.config().double_write_batches;
            self.start_migration_inner(&moves, dw, batch.saturating_sub(1), cost);
            self.freq.lock().decay();
        }
    }

    /// Bucket a burst by the *current* table and coalesce duplicates.
    fn scatter(&self, keys: &[Key]) -> ShardPlan {
        let table = self.table.read();
        ShardBuckets::bucket(keys, self.nodes.len(), |k| table.node_of(k)).coalesce()
    }
}

impl<E: PsEngine> PsEngine for PlacedCluster<E> {
    fn name(&self) -> &'static str {
        self.nodes[0].name()
    }

    fn dim(&self) -> usize {
        self.nodes[0].dim()
    }

    fn pull(&self, keys: &[Key], batch: BatchId, out: &mut Vec<f32>, cost: &mut Cost) {
        let dim = self.dim();
        let start = out.len();
        out.resize(start + keys.len() * dim, 0.0);
        let plan = self.scatter(keys);
        let mut node_costs = Vec::with_capacity(plan.groups.len());
        {
            let mut freq = self.freq.lock();
            for g in &plan.groups {
                for (ui, occ) in g.occs.iter().enumerate() {
                    freq.observe(g.uniques[ui], occ.len() as u64);
                }
            }
        }
        for g in &plan.groups {
            let mut node_out = Vec::with_capacity(g.uniques.len() * dim);
            let mut c = Cost::new();
            self.nodes[g.shard].pull(&g.uniques, batch, &mut node_out, &mut c);
            for (ui, occ) in g.occs.iter().enumerate() {
                let src = ui * dim;
                for &pos in occ {
                    let dst = start + pos as usize * dim;
                    out[dst..dst + dim].copy_from_slice(&node_out[src..src + dim]);
                }
            }
            self.node_hist[g.shard].record(c.total_ns());
            self.node_keys[g.shard].add(g.uniques.len() as u64);
            node_costs.push(c);
        }
        merge_node_parallel(&node_costs, cost);
    }

    fn end_pull_phase(&self, batch: BatchId) -> MaintenanceReport {
        let reports: Vec<MaintenanceReport> =
            self.nodes.iter().map(|n| n.end_pull_phase(batch)).collect();
        let mut merged = MaintenanceReport::default();
        let mut costs = Vec::new();
        for r in reports {
            merged.entries_processed += r.entries_processed;
            merged.ckpt_commits += r.ckpt_commits;
            costs.push(r.cost);
        }
        merge_node_parallel(&costs, &mut merged.cost);
        // The cutover fence: all pulls of `batch` are done, no push of
        // `batch` has started.
        let due = {
            let mut guard = self.active.lock();
            match guard.as_ref() {
                Some(a) if batch >= a.cutover_batch => guard.take(),
                _ => None,
            }
        };
        let mut c = Cost::new();
        if let Some(active) = due {
            self.cutover(active, batch, &mut c);
        } else {
            self.maybe_rebalance(batch, &mut c);
        }
        merged.cost.merge(&c);
        merged
    }

    fn push(&self, keys: &[Key], grads: &[f32], batch: BatchId, cost: &mut Cost) {
        let dim = self.dim();
        let mut guard = self.active.lock();
        // Late seeding must happen *before* the source applies this
        // batch's gradient, so the copy reflects the pre-push state and
        // the double-write below advances both replicas exactly once.
        if let Some(a) = guard.as_mut() {
            let mut copies = 0u64;
            for &k in keys {
                if a.dest_of.contains_key(&k) && !a.seeded.contains(&k) {
                    let src = self.table.read().node_of(k);
                    let dest = a.dest_of[&k];
                    if let Some((v, payload)) = self.nodes[src].export_entry(k, cost) {
                        self.nodes[dest].import_entry(k, v, &payload, cost);
                        a.seeded.insert(k);
                        copies += 1;
                    }
                }
            }
            if copies > 0 {
                self.seed_copies_total.add(copies);
                self.mig.lock().seed_copies += copies;
            }
        }
        let plan = self.scatter(keys);
        let mut node_costs = Vec::with_capacity(plan.groups.len());
        for g in &plan.groups {
            let occ = g.occurrences_in_request_order();
            let mut node_keys = Vec::with_capacity(occ.len());
            let mut node_grads = Vec::with_capacity(occ.len() * dim);
            for &(pos, k) in &occ {
                node_keys.push(k);
                let p = pos as usize * dim;
                node_grads.extend_from_slice(&grads[p..p + dim]);
            }
            let mut c = Cost::new();
            self.nodes[g.shard].push(&node_keys, &node_grads, batch, &mut c);
            self.node_hist[g.shard].record(c.total_ns());
            node_costs.push(c);
        }
        // Double-write: migrating keys also push to their destination,
        // occurrence-preserving, so both replicas apply the identical
        // per-key gradient sequence.
        if let Some(a) = guard.as_ref() {
            let mut per_dest: HashMap<usize, (Vec<Key>, Vec<f32>)> = HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                if let Some(&dest) = a.dest_of.get(&k) {
                    if a.seeded.contains(&k) {
                        let e = per_dest.entry(dest).or_default();
                        e.0.push(k);
                        e.1.extend_from_slice(&grads[i * dim..(i + 1) * dim]);
                    }
                }
            }
            let mut dests: Vec<usize> = per_dest.keys().copied().collect();
            dests.sort_unstable();
            let mut dw = 0u64;
            for d in dests {
                let (dk, dg) = &per_dest[&d];
                let before = self.nodes[d].stats().pushes;
                let mut c = Cost::new();
                self.nodes[d].push(dk, dg, batch, &mut c);
                dw += self.nodes[d].stats().pushes - before;
                self.node_hist[d].record(c.total_ns());
                node_costs.push(c);
            }
            if dw > 0 {
                self.dw_pushes_total.add(dw);
                self.mig.lock().double_write_pushes += dw;
            }
        }
        merge_node_parallel(&node_costs, cost);
    }

    fn request_checkpoint(&self, batch: BatchId) -> Cost {
        let mut total = Cost::new();
        let costs: Vec<Cost> = self
            .nodes
            .iter()
            .map(|n| n.request_checkpoint(batch))
            .collect();
        merge_node_parallel(&costs, &mut total);
        total
    }

    fn committed_checkpoint(&self) -> BatchId {
        self.nodes
            .iter()
            .map(|n| n.committed_checkpoint())
            .min()
            .unwrap_or(0)
    }

    fn stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for n in &self.nodes {
            let s = n.stats();
            total.pulls += s.pulls;
            total.hits += s.hits;
            total.misses += s.misses;
            total.new_entries += s.new_entries;
            total.pushes += s.pushes;
            total.evictions += s.evictions;
            total.flushes += s.flushes;
            total.loads += s.loads;
            total.ckpt_commits += s.ckpt_commits;
            total.ckpt_entries_written += s.ckpt_entries_written;
            total.slots_recycled += s.slots_recycled;
        }
        // Double-writes are migration plumbing, not training traffic:
        // subtract them so summed push counters stay placement-invariant.
        total.pushes -= self.mig.lock().double_write_pushes.min(total.pushes);
        total
    }

    fn read_weights(&self, key: Key) -> Option<Vec<f32>> {
        self.nodes[self.node_of(key)].read_weights(key)
    }

    fn num_keys(&self) -> usize {
        // During a double-write window each seeded key has a live
        // replica on both its source and its destination.
        let replicas = self.active.lock().as_ref().map_or(0, |a| a.seeded.len());
        self.nodes.iter().map(|n| n.num_keys()).sum::<usize>() - replicas
    }

    fn metrics_text(&self) -> String {
        self.registry.render_text()
    }

    fn export_entry(&self, key: Key, cost: &mut Cost) -> Option<(BatchId, Vec<f32>)> {
        self.nodes[self.node_of(key)].export_entry(key, cost)
    }

    fn import_entry(&self, key: Key, version: BatchId, payload: &[f32], cost: &mut Cost) -> bool {
        self.nodes[self.node_of(key)].import_entry(key, version, payload, cost)
    }

    fn discard_entry(&self, key: Key, cost: &mut Cost) -> bool {
        self.nodes[self.node_of(key)].discard_entry(key, cost)
    }
}

/// Merge per-node burst costs for nodes serving in parallel: the
/// elementwise max of device/serialized charges (each node's hardware
/// works concurrently) and the sum of CPU/NET/fabric (the client still
/// pays per-request work, and pool-backed nodes share one fabric link,
/// so their transfers queue rather than overlap). A simple,
/// conservative merge for multi-node bursts (paper §IV: a burst
/// completes when the slowest node does). Operation counts always sum,
/// as in [`Cost::merge_parallel`]: they count events, not time.
fn merge_node_parallel(costs: &[Cost], out: &mut Cost) {
    let (mut ns, mut ops) = ([0; 8], [0; 8]);
    for kind in CostKind::ALL {
        let i = kind as usize;
        ns[i] = match kind {
            CostKind::Cpu | CostKind::Net | CostKind::FabricTransfer => {
                costs.iter().map(|c| c.ns(kind)).sum()
            }
            _ => costs.iter().map(|c| c.ns(kind)).max().unwrap_or(0),
        };
        ops[i] = costs.iter().map(|c| c.ops(kind)).sum();
    }
    out.merge(&Cost::from_raw_parts(ns, ops));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::PlacerConfig;
    use oe_core::{NodeConfig, OptimizerKind, PsNode};

    fn nodes(n: usize, opt: OptimizerKind) -> Vec<PsNode> {
        let mut cfg = NodeConfig::small(4);
        cfg.optimizer = opt;
        (0..n).map(|_| PsNode::new(cfg.clone())).collect()
    }

    fn adagrad() -> OptimizerKind {
        OptimizerKind::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        }
    }

    fn pull(c: &impl PsEngine, keys: &[u64], b: u64) -> Vec<f32> {
        let (mut out, mut cost) = (Vec::new(), Cost::new());
        c.pull(keys, b, &mut out, &mut cost);
        out
    }

    fn push(c: &impl PsEngine, keys: &[u64], b: u64) {
        let mut grads = vec![0.0f32; keys.len() * 4];
        for (i, g) in grads.iter_mut().enumerate() {
            *g = ((i % 7) as f32 - 3.0) * 0.01 + (b as f32) * 0.001;
        }
        c.push(keys, &grads, b, &mut Cost::new());
    }

    #[test]
    fn routes_like_static_hash_at_epoch_zero() {
        let c = PlacedCluster::new(nodes(3, adagrad()));
        assert_eq!(c.placement_epoch(), 0);
        for k in 0..64u64 {
            assert_eq!(c.node_of(k), crate::hash_node_of(k, 3));
        }
        let keys: Vec<u64> = (0..32).collect();
        let out = pull(&c, &keys, 1);
        assert_eq!(out.len(), 32 * 4);
    }

    #[test]
    fn parallel_cost_merge_takes_max_of_device_time() {
        let mut costs = vec![Cost::new(), Cost::new()];
        costs[0].charge(CostKind::PmemWrite, 100);
        costs[1].charge(CostKind::PmemWrite, 300);
        costs[0].charge(CostKind::Cpu, 10);
        costs[1].charge(CostKind::Cpu, 20);
        let mut out = Cost::new();
        merge_node_parallel(&costs, &mut out);
        assert_eq!(out.ns(CostKind::PmemWrite), 300);
        assert_eq!(out.ns(CostKind::Cpu), 30);
        // Operation counts sum whatever the nanosecond rule.
        assert_eq!(out.ops(CostKind::PmemWrite), 2);
        assert_eq!(out.ops(CostKind::Cpu), 2);
        assert_eq!(out.ops(CostKind::DramTransfer), 0);
    }

    // The next three came from the unit tests of `oe-core`'s static-hash
    // cluster type when it was deleted (static hash = placement epoch
    // 0). Its other tests are covered elsewhere: never-empty by `build`'s
    // assert, unique-key scatter order and push-routes-to-owner by
    // `routes_like_static_hash_at_epoch_zero` plus `tests/end_to_end.rs`
    // (`cluster_of_nodes_trains_identically_to_single_node`), and the
    // cost merge by `parallel_cost_merge_takes_max_of_device_time`.

    #[test]
    fn scatter_gather_preserves_request_order_with_duplicate_keys() {
        // A hot key repeated across the request comes back at every
        // occurrence position, identically to the single-node gather.
        let keys: Vec<u64> = vec![7, 3, 7, 11, 3, 7, 99, 11, 7, 3];
        let sgd = OptimizerKind::Sgd { lr: 1.0 };
        let c3 = PlacedCluster::new(nodes(3, sgd));
        let c1 = PlacedCluster::new(nodes(1, sgd));
        let out3 = pull(&c3, &keys, 1);
        assert_eq!(out3, pull(&c1, &keys, 1));
        assert_eq!(out3.len(), keys.len() * 4);
        let w7 = c3.read_weights(7).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            if k == 7 {
                assert_eq!(&out3[i * 4..i * 4 + 4], &w7[..]);
            }
        }
        // Dedup happened: nodes count distinct keys, not occurrences.
        let pulls: u64 = (0..3).map(|i| c3.node(i).stats().pulls).sum();
        assert_eq!(pulls, 4, "10 occurrences coalesce to 4 uniques");

        // Duplicate pushes apply per occurrence (or coalesce to an
        // identical sum — SGD is linear) on both cluster shapes.
        for c in [&c3, &c1] {
            c.end_pull_phase(1);
            push(c, &keys, 1);
        }
        for &k in &keys {
            assert_eq!(c3.read_weights(k), c1.read_weights(k), "key {k}");
        }
    }

    #[test]
    fn committed_checkpoint_is_the_min_over_nodes() {
        let c = PlacedCluster::new(nodes(2, adagrad()));
        let keys: Vec<u64> = (0..8).collect();
        pull(&c, &keys, 1);
        c.end_pull_phase(1);
        push(&c, &keys, 1);
        c.request_checkpoint(1);
        pull(&c, &keys, 2);
        c.end_pull_phase(2);
        assert_eq!(c.committed_checkpoint(), 1);
    }

    #[test]
    fn committed_checkpoint_is_zero_when_one_node_never_checkpointed() {
        // Checkpoint node 0 directly; node 1 never commits anything, so
        // the *cluster* commit point must stay 0 — a recovery to any
        // batch > 0 would lose node 1's uncommitted state boundary.
        let c = PlacedCluster::new(nodes(2, adagrad()));
        let keys: Vec<u64> = (0..64).filter(|&k| c.node_of(k) == 0).collect();
        assert!(!keys.is_empty());
        pull(&c, &keys, 1);
        c.end_pull_phase(1);
        c.node(0).request_checkpoint(1);
        pull(&c, &keys, 2);
        c.end_pull_phase(2);
        assert!(c.node(0).committed_checkpoint() >= 1, "node 0 committed");
        assert_eq!(c.node(1).committed_checkpoint(), 0, "node 1 never did");
        assert_eq!(c.committed_checkpoint(), 0, "cluster min is 0");
    }

    #[test]
    fn migration_is_bit_identical_and_relocates() {
        // Train two identical clusters; migrate on one; weights must
        // stay bit-identical while routing actually changes.
        let a = PlacedCluster::new(nodes(3, adagrad()));
        let b = PlacedCluster::new(nodes(3, adagrad()));
        let keys: Vec<u64> = (0..48).collect();
        let moved: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| a.node_of(k) == 0)
            .collect();
        assert!(moved.len() >= 4, "enough keys on node 0: {}", moved.len());
        for batch in 1..=12u64 {
            for c in [&a, &b] {
                pull(c, &keys, batch);
                c.end_pull_phase(batch);
                push(c, &keys, batch);
            }
            if batch == 4 {
                let spec = MigrationSpec {
                    moves: moved.iter().map(|&k| (k, 1 + (k as usize % 2))).collect(),
                    double_write_batches: 3,
                };
                let n = a.start_migration(spec, 4, &mut Cost::new());
                assert_eq!(n, moved.len());
                assert!(a.migration_active());
            }
        }
        assert!(!a.migration_active(), "cutover happened");
        assert_eq!(a.placement_epoch(), 1);
        assert_eq!(b.placement_epoch(), 0);
        for &k in &keys {
            assert_eq!(
                a.read_weights(k),
                b.read_weights(k),
                "key {k} diverged across migration"
            );
        }
        for &k in &moved {
            assert_ne!(a.node_of(k), 0, "key {k} relocated");
            assert!(a.node(0).read_weights(k).is_none(), "source forgot key {k}");
        }
        let ms = a.migration_stats();
        assert_eq!(ms.migrations, 1);
        assert_eq!(ms.keys_moved, moved.len() as u64);
        assert!(ms.double_write_pushes > 0, "pushes were in flight");
        assert_eq!(ms.double_write_batches, 3);
        // Logical counters are placement-invariant.
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.pulls, sb.pulls);
        assert_eq!(sa.pushes, sb.pushes, "double-writes subtracted");
        assert_eq!(sa.new_entries, sb.new_entries);
        assert_eq!(a.num_keys(), b.num_keys());
    }

    #[test]
    fn num_keys_stable_during_double_write_window() {
        let c = PlacedCluster::new(nodes(2, adagrad()));
        let keys: Vec<u64> = (0..20).collect();
        pull(&c, &keys, 1);
        c.end_pull_phase(1);
        push(&c, &keys, 1);
        let before = c.num_keys();
        let moved: Vec<(u64, usize)> = keys
            .iter()
            .filter(|&&k| c.node_of(k) == 0)
            .map(|&k| (k, 1))
            .collect();
        c.start_migration(
            MigrationSpec {
                moves: moved,
                double_write_batches: 2,
            },
            1,
            &mut Cost::new(),
        );
        assert!(c.migration_active());
        assert_eq!(c.num_keys(), before, "replicas not double-counted");
    }

    #[test]
    fn key_born_during_window_migrates_via_late_seed() {
        let c = PlacedCluster::new(nodes(2, adagrad()));
        let d = PlacedCluster::new(nodes(2, adagrad()));
        let old: Vec<u64> = (0..8).collect();
        let newborn: u64 = (100..200).find(|&k| c.node_of(k) == 0).unwrap();
        for e in [&c, &d] {
            pull(e, &old, 1);
            e.end_pull_phase(1);
            push(e, &old, 1);
        }
        // Migrate node 0's keys, including the not-yet-born `newborn`.
        let mut moves: Vec<(u64, usize)> = old
            .iter()
            .filter(|&&k| c.node_of(k) == 0)
            .map(|&k| (k, 1))
            .collect();
        moves.push((newborn, 1));
        c.start_migration(
            MigrationSpec {
                moves,
                double_write_batches: 2,
            },
            1,
            &mut Cost::new(),
        );
        // The newborn first appears mid-window.
        let mut all = old.clone();
        all.push(newborn);
        for batch in 2..=6u64 {
            for e in [&c, &d] {
                pull(e, &all, batch);
                e.end_pull_phase(batch);
                push(e, &all, batch);
            }
        }
        assert!(!c.migration_active());
        assert_eq!(c.node_of(newborn), 1, "newborn routed to destination");
        assert_eq!(c.read_weights(newborn), d.read_weights(newborn));
        assert_eq!(c.stats().new_entries, d.stats().new_entries);
    }

    #[test]
    fn second_migration_request_is_refused_while_active() {
        let c = PlacedCluster::new(nodes(2, adagrad()));
        let keys: Vec<u64> = (0..16).collect();
        pull(&c, &keys, 1);
        c.end_pull_phase(1);
        push(&c, &keys, 1);
        let moves: Vec<(u64, usize)> = keys
            .iter()
            .filter(|&&k| c.node_of(k) == 0)
            .map(|&k| (k, 1))
            .collect();
        assert!(
            c.start_migration(
                MigrationSpec {
                    moves: moves.clone(),
                    double_write_batches: 4
                },
                1,
                &mut Cost::new()
            ) > 0
        );
        assert_eq!(
            c.start_migration(
                MigrationSpec {
                    moves,
                    double_write_batches: 4
                },
                2,
                &mut Cost::new()
            ),
            0,
            "one migration at a time"
        );
    }

    #[test]
    fn auto_rebalance_drains_a_melted_node() {
        // All traffic hammers node 0's keys; the controller must notice
        // and move hot keys off it, bumping the epoch.
        let cfg = RebalanceConfig {
            check_every_batches: 4,
            double_write_batches: 1,
            min_window_keys: 32,
            placer: PlacerConfig {
                hot_fraction: 0.5,
                max_moves: 64,
            },
        };
        let c = PlacedCluster::with_auto_rebalance(nodes(3, adagrad()), cfg, Vec::new());
        let hot: Vec<u64> = (0..2000u64)
            .filter(|&k| c.node_of(k) == 0)
            .take(24)
            .collect();
        for batch in 1..=16u64 {
            pull(&c, &hot, batch);
            c.end_pull_phase(batch);
            push(&c, &hot, batch);
        }
        assert!(c.placement_epoch() >= 1, "controller migrated");
        let off: usize = hot.iter().filter(|&&k| c.node_of(k) != 0).count();
        assert!(off > 0, "hot keys drained off node 0: {off}/{}", hot.len());
        assert!(c.migration_stats().keys_moved > 0);
        // Telemetry reflects it all.
        let snap = c.registry().snapshot();
        assert_eq!(
            snap.gauge("cluster_placement_epoch"),
            Some(c.placement_epoch())
        );
        assert!(snap.counter("cluster_keys_moved_total").unwrap() > 0);
    }

    #[test]
    fn balanced_load_never_triggers_the_controller() {
        let cfg = RebalanceConfig {
            check_every_batches: 2,
            min_window_keys: 16,
            ..RebalanceConfig::default()
        };
        let c = PlacedCluster::with_auto_rebalance(nodes(3, adagrad()), cfg, Vec::new());
        let keys: Vec<u64> = (0..96).collect(); // hash-spread evenly-ish
        for batch in 1..=12u64 {
            pull(&c, &keys, batch);
            c.end_pull_phase(batch);
            push(&c, &keys, batch);
        }
        assert_eq!(c.placement_epoch(), 0, "no migration on balanced load");
        assert_eq!(c.migration_stats().migrations, 0);
    }
}
