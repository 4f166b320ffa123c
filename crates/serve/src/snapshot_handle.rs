//! Lock-free multi-reader snapshot serving.
//!
//! The serving plane's unit of consistency is an immutable [`Snapshot`]:
//! a checkpoint image decoded once into a contiguous DRAM row arena, a
//! key→row index, and (optionally) a per-snapshot ANN retrieval index.
//! Every read method takes `&self` and returns a *borrow* into the
//! arena — no out-params, no per-call allocation, no interior locking —
//! paired with the virtual [`Cost`] of the read, unifying serve-path
//! cost reporting with the rest of the system.
//!
//! A [`SnapshotHandle`] publishes snapshots to concurrent readers with
//! an epoch flip: a checkpoint commit from training builds the next
//! snapshot off to the side, then [`SnapshotHandle::flip`] swaps it in
//! atomically mid-traffic. Readers hold a [`SnapshotReader`] that
//! caches an `Arc<Snapshot>`; the steady-state read path is **one
//! atomic epoch load** — the handle's mutex is touched only once per
//! flip per reader, to re-clone the Arc. Because snapshots are
//! immutable and swapped whole, a reader can never observe a torn mix
//! of two checkpoints: whatever epoch it holds, every row it returns
//! belongs to exactly one committed checkpoint
//! (`crates/serve/tests/snapshot_flip.rs` proves this under 100
//! mid-traffic flips).
//!
//! [`CheckpointPublisher`] wires the flip to the training side's
//! checkpoint flow ([`oe_core::CheckpointScheduler`] →
//! `request_checkpoint` → commit): at every batch boundary it notices a
//! newly committed checkpoint id, captures the persistence domain,
//! builds the next snapshot (ANN index included), and flips.

use crate::ann::{AnnConfig, LshIndex};
use oe_core::config::HASH_PROBE_NS;
use oe_core::{BatchId, PsEngine, PsNode};
use oe_pmem::scan::scan_image;
use oe_simdevice::rng::splitmix64;
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, CostKind, CrashImage, DeviceTiming};
use oe_telemetry::{Counter, Phase, PhaseTimes, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An unused slot of [`Snapshot::index`].
const NO_ROW: u32 = u32::MAX;

/// One point lookup in this many is timed into
/// `serve_lookup_latency_ns`. A timed lookup pays two clock reads and a
/// histogram record, about twice what the lookup itself costs; one in
/// 256 keeps that under 1 % of a lookup (DESIGN.md §12, "Lookup
/// telemetry").
const LOOKUP_TIMING_STRIDE: u64 = 256;

/// Where `key`'s row is, or would go, in the open-addressed `index`.
fn probe(index: &[u32], keys: &[u64], key: u64) -> usize {
    let mask = index.len() - 1;
    let mut at = splitmix64(key) as usize & mask;
    while index[at] != NO_ROW && keys[index[at] as usize] != key {
        at = (at + 1) & mask;
    }
    at
}

/// An immutable, fully-decoded checkpoint image: the serving plane's
/// unit of atomicity. All read methods take `&self` and return borrows
/// into one contiguous row arena.
pub struct Snapshot {
    checkpoint: BatchId,
    dim: usize,
    payload_f32s: usize,
    /// Row-major arena: `num_keys × payload_f32s`, sorted by key.
    rows: Vec<f32>,
    /// Row → key (ascending; rows are key-sorted for determinism).
    keys: Vec<u64>,
    /// Key → row: an open-addressed table of rows (or [`NO_ROW`]), a
    /// power of two long and at most half full, probed linearly from
    /// the key's hash; the key itself is read back from `keys`.
    index: Vec<u32>,
    /// Virtual cost of building this snapshot (image scan + decode +
    /// ANN construction) — paid once per flip, not per read.
    build_cost: Cost,
    ann: Option<LshIndex>,
}

impl Snapshot {
    /// Decode `image` at its committed checkpoint into an immutable
    /// snapshot. `dim` is the embedding dimension served (the weight
    /// prefix of each payload); `ann` requests a per-snapshot retrieval
    /// index. Returns `None` if the image holds no initialized pool or
    /// `dim` is zero or wider than its payload.
    pub fn build(image: CrashImage, dim: usize, ann: Option<&AnnConfig>) -> Option<Self> {
        Self::build_recording(image, dim, ann, None)
    }

    /// [`Self::build`], with [`LshIndex::build`] alone timed into
    /// `phases` as [`Phase::AnnBuild`].
    fn build_recording(
        image: CrashImage,
        dim: usize,
        ann: Option<&AnnConfig>,
        phases: Option<&PhaseTimes>,
    ) -> Option<Self> {
        // One read-only pass judges every slot where it lies; survivors
        // are then decoded straight into their key-sorted rows. Charged
        // as the pool path was: root read, scan, one slot read per row.
        let mut cost = Cost::new();
        let mut scan = scan_image(&image, &mut cost)?;
        let payload_f32s = scan.payload_f32s();
        if !(1..=payload_f32s).contains(&dim) {
            return None;
        }
        let mut live = std::mem::take(&mut scan.report.live);
        live.sort_unstable_by_key(|r| r.key);
        assert!(live.len() < NO_ROW as usize, "row ids are u32");
        let keys: Vec<u64> = live.iter().map(|r| r.key).collect();
        let mut rows = vec![0f32; live.len() * payload_f32s];
        let mut index = vec![NO_ROW; (2 * live.len()).next_power_of_two()];
        for (row, rec) in live.iter().enumerate() {
            let out = &mut rows[row * payload_f32s..][..payload_f32s];
            scan.read_slot(rec.id, out, &mut cost);
            let at = probe(&index, &keys, rec.key);
            index[at] = row as u32;
        }
        let ann = ann.map(|cfg| {
            let _span = phases.map(|p| p.span(Phase::AnnBuild));
            let (idx, ann_cost) = LshIndex::build(&rows, &keys, dim, payload_f32s, cfg);
            cost.merge(&ann_cost);
            idx
        });
        Some(Self {
            checkpoint: scan.report.checkpoint_id,
            dim,
            payload_f32s,
            rows,
            keys,
            index,
            build_cost: cost,
            ann,
        })
    }

    /// Batch id the snapshot's weights correspond to.
    pub fn checkpoint(&self) -> BatchId {
        self.checkpoint
    }

    /// Embedding dimension served (weight prefix of each payload).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Full payload width (weights + optimizer state).
    pub fn payload_f32s(&self) -> usize {
        self.payload_f32s
    }

    /// Distinct keys available.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// True when the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The per-snapshot ANN index, if one was built at flip time.
    pub fn ann_index(&self) -> Option<&LshIndex> {
        self.ann.as_ref()
    }

    /// Virtual cost of building the snapshot (scan + decode + ANN).
    pub fn build_cost(&self) -> &Cost {
        &self.build_cost
    }

    /// The virtual cost of one DRAM arena read of `f32s` values.
    fn read_cost(&self, f32s: usize) -> Cost {
        let mut cost = Cost::new();
        cost.charge(CostKind::Cpu, HASH_PROBE_NS);
        DeviceTiming::dram().charge_read(f32s as u64 * 4, &mut cost);
        cost
    }

    /// Look up the embedding (weight prefix) of `key`: a borrow into
    /// the row arena plus the read's virtual cost. `None` (probe cost
    /// only) for unknown keys — the caller picks its missing-feature
    /// convention.
    pub fn lookup(&self, key: u64) -> (Option<&[f32]>, Cost) {
        match self.row_of(key) {
            Some(row) => (Some(self.row(row)), self.read_cost(self.dim)),
            None => (None, self.read_cost(0)),
        }
    }

    /// Full payload of `key` (weights + optimizer state), borrowed.
    pub fn payload(&self, key: u64) -> (Option<&[f32]>, Cost) {
        match self.row_of(key) {
            Some(row) => {
                let start = row as usize * self.payload_f32s;
                (
                    Some(&self.rows[start..start + self.payload_f32s]),
                    self.read_cost(self.payload_f32s),
                )
            }
            None => (None, self.read_cost(0)),
        }
    }

    /// Embedding (weight prefix) of row `row` (`< num_keys`), borrowed.
    pub fn row(&self, row: u32) -> &[f32] {
        let start = row as usize * self.payload_f32s;
        &self.rows[start..start + self.dim]
    }

    /// Key stored at `row`.
    pub fn key_of_row(&self, row: u32) -> u64 {
        self.keys[row as usize]
    }

    /// Row index of `key`, if present.
    pub fn row_of(&self, key: u64) -> Option<u32> {
        let row = self.index[probe(&self.index, &self.keys, key)];
        (row != NO_ROW).then_some(row)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("checkpoint", &self.checkpoint)
            .field("keys", &self.keys.len())
            .field("dim", &self.dim)
            .field("ann", &self.ann.is_some())
            .finish()
    }
}

/// Epoch-flipped publication point for [`Snapshot`]s: training commits
/// a checkpoint, the next snapshot is built off-path, and `flip` swaps
/// it in for every reader atomically. Readers go through
/// [`SnapshotReader`]; the steady-state read path costs one atomic
/// load.
pub struct SnapshotHandle {
    epoch: AtomicU64,
    current: Mutex<Arc<Snapshot>>,
    registry: Arc<Registry>,
    phases: PhaseTimes,
    flips: Counter,
    hits: Counter,
    unknown: Counter,
}

impl SnapshotHandle {
    /// Publish `initial` at epoch 1 with a fresh telemetry registry
    /// (`serve_lookup`/`serve_topk`/`snapshot_flip`/`snapshot_build`/
    /// `ann_build` latency histograms plus hit/unknown/flip counters).
    pub fn new(initial: Arc<Snapshot>) -> Self {
        let registry = Arc::new(Registry::new());
        let phases = PhaseTimes::new(
            &registry,
            "",
            &[
                Phase::ServeLookup,
                Phase::ServeTopk,
                Phase::SnapshotFlip,
                Phase::SnapshotBuild,
                Phase::AnnBuild,
            ],
        );
        let flips = registry.counter("serve_snapshot_flips_total");
        let hits = registry.counter("serve_hits_total");
        let unknown = registry.counter("serve_unknown_keys_total");
        Self {
            epoch: AtomicU64::new(1),
            current: Mutex::new(initial),
            registry,
            phases,
            flips,
            hits,
            unknown,
        }
    }

    /// The handle's telemetry registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Current publication epoch (bumped by every flip; starts at 1).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically publish `next` to all readers. Readers currently
    /// inside a request keep serving their old snapshot (it stays alive
    /// through their cached `Arc`) and pick up `next` on their next
    /// request — nobody ever sees a mix. Returns the new epoch.
    pub fn flip(&self, next: Arc<Snapshot>) -> u64 {
        let _span = self.phases.span(Phase::SnapshotFlip);
        let mut cur = self.current.lock();
        *cur = next;
        // Publish the epoch while still holding the writer lock: a
        // reader that observes the new epoch will find the new Arc.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(cur);
        self.flips.inc();
        epoch
    }

    /// Build a snapshot from `image` and flip it in: the whole build
    /// is recorded under `snapshot_build_latency_ns`, the index
    /// construction inside it under `ann_build_latency_ns` (no sample
    /// without an index). `None` if the image holds no initialized
    /// pool — the previous snapshot keeps serving.
    pub fn publish_image(
        &self,
        image: CrashImage,
        dim: usize,
        ann: Option<&AnnConfig>,
    ) -> Option<(u64, Arc<Snapshot>)> {
        let built = {
            let _span = self.phases.span(Phase::SnapshotBuild);
            let phases = Some(&self.phases);
            Arc::new(Snapshot::build_recording(image, dim, ann, phases)?)
        };
        let epoch = self.flip(Arc::clone(&built));
        Some((epoch, built))
    }

    /// Clone the currently published snapshot (locks briefly; readers
    /// on the hot path use [`SnapshotReader`] instead).
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.lock())
    }

    /// A reader with its own cached snapshot — one per serving thread.
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            handle: self,
            seen_epoch: self.epoch(),
            cached: self.load(),
            lookups: 0,
        }
    }
}

impl std::fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHandle")
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// A per-thread view into a [`SnapshotHandle`]. The fast path —
/// [`SnapshotReader::acquire`] — is one `Acquire` epoch load; the
/// handle mutex is taken only when a flip happened since the last
/// request. Read methods record hit/unknown counters (every lookup)
/// and wall-clock serve latency (every top-k, one lookup in 256) into
/// the handle's registry and return the virtual read cost alongside the
/// value.
pub struct SnapshotReader<'h> {
    handle: &'h SnapshotHandle,
    seen_epoch: u64,
    cached: Arc<Snapshot>,
    /// Point lookups served so far: lookup `n` (0-based) is timed iff
    /// `n % 256 == 0`. A flip does not reset it.
    lookups: u64,
}

impl SnapshotReader<'_> {
    /// The consistent snapshot for this request: refreshes the cached
    /// `Arc` iff the epoch moved, then borrows it. Every read taken
    /// from the returned `&Snapshot` belongs to one checkpoint.
    pub fn acquire(&mut self) -> &Snapshot {
        let epoch = self.handle.epoch.load(Ordering::Acquire);
        if epoch != self.seen_epoch {
            self.cached = self.handle.load();
            self.seen_epoch = epoch;
        }
        &self.cached
    }

    /// Epoch of the snapshot this reader last served from.
    pub fn seen_epoch(&self) -> u64 {
        self.seen_epoch
    }

    /// Look up one embedding: refresh, borrow, record telemetry (the
    /// hit or unknown counter always, the latency one lookup in 256).
    pub fn lookup(&mut self, key: u64) -> (Option<&[f32]>, Cost) {
        let handle = self.handle;
        let timed = self.lookups.is_multiple_of(LOOKUP_TIMING_STRIDE);
        self.lookups += 1;
        let (value, cost) = {
            let _span = timed.then(|| handle.phases.span(Phase::ServeLookup));
            self.acquire().lookup(key)
        };
        match value {
            Some(_) => handle.hits.inc(),
            None => handle.unknown.inc(),
        }
        (value, cost)
    }

    /// Retrieve the top-`k` nearest rows for `query` with `retriever`,
    /// recording under `serve_topk_latency_ns`.
    pub fn retrieve(
        &mut self,
        query: &[f32],
        k: usize,
        retriever: &dyn crate::ann::Retriever,
    ) -> (Vec<crate::ann::TopK>, Cost) {
        let handle = self.handle;
        let _span = handle.phases.span(Phase::ServeTopk);
        let snap = self.acquire();
        retriever.top_k(snap, query, k)
    }
}

/// Wires the training side's checkpoint flow to the serving flip: call
/// [`CheckpointPublisher::maybe_publish`] at every batch boundary
/// (right where [`oe_core::CheckpointScheduler::due`] drives
/// `request_checkpoint`). When the node's committed checkpoint
/// advances, the persistence domain is captured, built into a
/// snapshot, and flipped into the handle — mid-traffic, without pausing
/// readers.
pub struct CheckpointPublisher {
    handle: Arc<SnapshotHandle>,
    dim: usize,
    ann: Option<AnnConfig>,
    last_published: BatchId,
}

impl CheckpointPublisher {
    /// Publish committed checkpoints of a `dim`-dimensional model into
    /// `handle`, building an ANN index per flip when `ann` is set.
    pub fn new(handle: Arc<SnapshotHandle>, dim: usize, ann: Option<AnnConfig>) -> Self {
        let last_published = handle.load().checkpoint();
        Self {
            handle,
            dim,
            ann,
            last_published,
        }
    }

    /// Checkpoint id most recently flipped into the handle.
    pub fn last_published(&self) -> BatchId {
        self.last_published
    }

    /// Publish the node's committed checkpoint if it advanced since the
    /// last flip. Returns the new epoch when a flip happened.
    pub fn maybe_publish(&mut self, node: &PsNode) -> Option<u64> {
        let ckpt = node.committed_checkpoint();
        if ckpt <= self.last_published {
            return None;
        }
        let image = node.pool().media().crash(ckpt);
        let (epoch, _snap) = self
            .handle
            .publish_image(image, self.dim, self.ann.as_ref())?;
        self.last_published = ckpt;
        Some(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_core::{NodeConfig, OptimizerKind, PsEngine};
    use oe_simdevice::{Media, MediaConfig};

    const DIM: usize = 4;

    fn image_at(gen: u64) -> CrashImage {
        // A tiny pool written directly: every key's payload encodes the
        // generation so snapshots are distinguishable.
        let media = Arc::new(Media::new(MediaConfig::pmem(1 << 20)));
        let mut cost = Cost::new();
        let pool = oe_pmem::PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
        for key in 0..20u64 {
            let id = pool.alloc(&mut cost);
            let payload: Vec<f32> = (0..DIM)
                .map(|d| (gen * 1_000 + key * 10 + d as u64) as f32)
                .collect();
            pool.write_slot(id, key, gen, &payload, &mut cost);
        }
        pool.set_checkpoint_id(gen, &mut cost);
        media.crash(gen)
    }

    #[test]
    fn snapshot_reads_are_borrows_with_cost() {
        let snap = Snapshot::build(image_at(3), DIM, None).expect("build");
        assert_eq!(snap.checkpoint(), 3);
        assert_eq!(snap.num_keys(), 20);
        assert_eq!(snap.dim(), DIM);
        let (row, cost) = snap.lookup(7);
        assert_eq!(row.unwrap(), &[3_070.0, 3_071.0, 3_072.0, 3_073.0]);
        assert!(cost.total_ns() > 0, "reads charge virtual cost");
        let (missing, miss_cost) = snap.lookup(999);
        assert!(missing.is_none(), "an unknown key is None, not zeros");
        assert!(miss_cost.total_ns() > 0, "probes still cost");
        // Payload borrows the full width.
        let (payload, _) = snap.payload(7);
        assert_eq!(payload.unwrap().len(), snap.payload_f32s());
        // Keys are sorted, rows line up.
        assert!(snap.keys().windows(2).all(|w| w[0] < w[1]));
        let row_id = snap.row_of(7).unwrap();
        assert_eq!(snap.key_of_row(row_id), 7);
        assert_eq!(snap.row(row_id), snap.lookup(7).0.unwrap());
    }

    #[test]
    fn flip_is_atomic_and_bumps_epoch() {
        let handle =
            SnapshotHandle::new(Arc::new(Snapshot::build(image_at(1), DIM, None).unwrap()));
        assert_eq!(handle.epoch(), 1);
        let mut reader = handle.reader();
        let (v, _) = reader.lookup(5);
        assert_eq!(v.unwrap()[0], 1_050.0);
        let epoch = handle.flip(Arc::new(Snapshot::build(image_at(2), DIM, None).unwrap()));
        assert_eq!(epoch, 2);
        let (v, _) = reader.lookup(5);
        assert_eq!(v.unwrap()[0], 2_050.0, "reader picked up the flip");
        assert_eq!(reader.seen_epoch(), 2);
        // The counters are the handle's, current while the reader lives.
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter("serve_snapshot_flips_total"), Some(1));
        assert_eq!(snap.counter("serve_hits_total"), Some(2));
        assert_eq!(
            snap.histogram("snapshot_flip_latency_ns").unwrap().count(),
            1
        );
        drop(reader);
    }

    #[test]
    fn reader_times_every_top_k_and_renders_its_counters() {
        let handle =
            SnapshotHandle::new(Arc::new(Snapshot::build(image_at(1), DIM, None).unwrap()));
        let mut reader = handle.reader();
        reader.lookup(1);
        reader.lookup(999); // unknown
        let (top, cost) = reader.retrieve(&[1.0; DIM], 2, &crate::ann::ExactScan);
        assert_eq!(top.len(), 2);
        assert!(cost.total_ns() > 0);
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter("serve_hits_total"), Some(1));
        assert_eq!(snap.counter("serve_unknown_keys_total"), Some(1));
        assert_eq!(snap.histogram("serve_topk_latency_ns").unwrap().count(), 1);
        let text = handle.registry().render_text();
        assert!(text.contains("serve_hits_total"), "text:\n{text}");
        assert!(
            text.contains("serve_lookup_latency_ns{quantile=\"0.99\"}"),
            "text:\n{text}"
        );
    }

    #[test]
    fn ann_build_histogram_times_the_index_build_only() {
        let handle =
            SnapshotHandle::new(Arc::new(Snapshot::build(image_at(1), DIM, None).unwrap()));
        let samples = |name: &str| {
            let snap = handle.registry().snapshot();
            snap.histogram(name).map_or(0, |h| h.count())
        };
        // No index requested: the build is timed, the index build is not.
        handle.publish_image(image_at(2), DIM, None).expect("pool");
        assert_eq!(samples("snapshot_build_latency_ns"), 1);
        assert_eq!(samples("ann_build_latency_ns"), 0);
        let ann = AnnConfig::paper_default();
        let (_, snap) = handle.publish_image(image_at(3), DIM, Some(&ann)).unwrap();
        assert!(snap.ann_index().is_some());
        assert_eq!(samples("snapshot_build_latency_ns"), 2);
        assert_eq!(samples("ann_build_latency_ns"), 1);
    }

    #[test]
    fn reader_holds_a_consistent_snapshot_across_a_flip() {
        let handle =
            SnapshotHandle::new(Arc::new(Snapshot::build(image_at(1), DIM, None).unwrap()));
        let mut reader = handle.reader();
        let snap = reader.acquire();
        let before = snap.lookup(3).0.unwrap().to_vec();
        // Flip mid-request: the acquired borrow still serves gen 1.
        handle.flip(Arc::new(Snapshot::build(image_at(2), DIM, None).unwrap()));
        let after = snap.lookup(3).0.unwrap();
        assert_eq!(before, after, "acquired snapshot is immutable");
        // The next request sees gen 2.
        let snap = reader.acquire();
        assert_eq!(snap.checkpoint(), 2);
    }

    #[test]
    fn publisher_flips_on_committed_checkpoints_only() {
        let mut cfg = NodeConfig::small(DIM);
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.1 };
        let node = PsNode::new(cfg);
        let keys: Vec<u64> = (0..10).collect();
        let mut cost = Cost::new();
        let mut out = Vec::new();
        node.pull(&keys, 1, &mut out, &mut cost);
        node.end_pull_phase(1);
        node.push(&keys, &vec![0.1; keys.len() * DIM], 1, &mut cost);
        node.request_checkpoint(1);
        out.clear();
        node.pull(&keys, 2, &mut out, &mut cost);
        node.end_pull_phase(2);

        let initial = Arc::new(Snapshot::build(image_at(0), DIM, None).unwrap());
        let handle = Arc::new(SnapshotHandle::new(initial));
        let mut publisher = CheckpointPublisher::new(Arc::clone(&handle), DIM, None);

        let epoch = publisher.maybe_publish(&node).expect("checkpoint 1 flips");
        assert_eq!(epoch, 2);
        assert_eq!(publisher.last_published(), 1);
        assert_eq!(handle.load().checkpoint(), 1);
        // Same committed checkpoint again: no flip.
        assert_eq!(publisher.maybe_publish(&node), None);
        assert_eq!(handle.epoch(), 2);
    }
}
