//! Recovery scan (paper §V-C):
//!
//! 1. stream through every slot up to the persisted high-water mark,
//! 2. discard slots whose version exceeds the durable Checkpointed Batch
//!    ID (updates from batches after the last committed checkpoint),
//! 3. for each key keep the *newest surviving* version (older superseded
//!    versions whose space had not been recycled yet are freed),
//! 4. hand the survivors to the caller to rebuild the DRAM hash index.
//!
//! The recovery cost model matches the paper's description ("dominated by
//! the scanning of data in PMem and reconstruction of the hash index"):
//! one sequential pass over the used region at PMem bandwidth plus
//! per-entry CPU work, with *no* payload copy — entries stay in PMem.

use crate::layout::{
    backed_slots, bytes_to_f32s, slot_bytes, Root, SlotHeader, SlotState, HEADER_BYTES, ROOT_BYTES,
};
use crate::pool::{PmemPool, SlotId};
use oe_simdevice::rng::splitmix64;
use oe_simdevice::{Cost, CostKind, CrashImage, DeviceTiming, Media};
use std::sync::Arc;

/// One live entry discovered by the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredSlot {
    /// Where the entry lives (still in PMem).
    pub id: SlotId,
    /// Embedding key.
    pub key: u64,
    /// Batch version (≤ recovered checkpoint id).
    pub version: u64,
}

/// Outcome of a recovery scan.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Live entries (one per key: newest version ≤ checkpoint id).
    pub live: Vec<RecoveredSlot>,
    /// Slots discarded because their version was newer than the
    /// checkpointed batch id (uncommitted training progress).
    pub discarded_future: u64,
    /// Valid but superseded older versions, freed.
    pub discarded_stale: u64,
    /// Slots with `Valid` state but checksum mismatch (torn writes from
    /// incorrect flush ordering — zero when the write protocol is obeyed).
    pub corrupt: u64,
    /// Total slot positions examined.
    pub scanned_slots: u64,
    /// Bytes streamed from PMem.
    pub scan_bytes: u64,
    /// Checkpoint id recovered from the root.
    pub checkpoint_id: u64,
}

/// Per-recovered-entry CPU cost: hash-index insert during rebuild.
const INDEX_REBUILD_NS_PER_ENTRY: u64 = 120;
/// Per-slot CPU cost of header decode + checksum verify during the scan.
const SCAN_CPU_NS_PER_SLOT: u64 = 40;

/// An unused cell of [`Newest::index`].
const NO_ENTRY: u32 = u32::MAX;

/// The newest surviving version of each key seen so far: one dense entry
/// per key, found through an open-addressed table of entry numbers (or
/// [`NO_ENTRY`]), a power of two long, probed linearly from the key's
/// hash and doubled before it is more than half full.
struct Newest {
    entries: Vec<RecoveredSlot>,
    index: Vec<u32>,
}

impl Newest {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            index: vec![NO_ENTRY; 16],
        }
    }

    /// Where `key`'s entry number is, or would go, in `index`.
    fn probe(&self, key: u64) -> usize {
        debug_assert!(
            2 * self.entries.len() <= self.index.len(),
            "table over half full"
        );
        let mask = self.index.len() - 1;
        let mut at = splitmix64(key) as usize & mask;
        while self.index[at] != NO_ENTRY && self.entries[self.index[at] as usize].key != key {
            at = (at + 1) & mask;
        }
        at
    }

    /// The entry of `slot.key`, or `None` after recording `slot` as it.
    fn get_or_insert(&mut self, slot: RecoveredSlot) -> Option<&mut RecoveredSlot> {
        let at = self.probe(slot.key);
        if self.index[at] != NO_ENTRY {
            return Some(&mut self.entries[self.index[at] as usize]);
        }
        assert!(
            self.entries.len() < NO_ENTRY as usize,
            "entry numbers are u32"
        );
        self.index[at] = self.entries.len() as u32;
        self.entries.push(slot);
        if 2 * self.entries.len() > self.index.len() {
            self.index = vec![NO_ENTRY; 2 * self.index.len()];
            for (n, e) in self.entries.iter().enumerate() {
                let at = self.probe(e.key);
                self.index[at] = n as u32;
            }
        }
        None
    }
}

/// The one classifier behind [`scan`] and [`scan_image`]: judge slots
/// `0..high_water` through `check` (one read of the whole slot), drop
/// versions past the checkpoint, keep the newest survivor per key and
/// charge the aggregate recovery cost. Reads only. Returns the report,
/// the slots found free (slot order) and the slots to free — torn,
/// uncommitted, superseded — in the order the free list receives them.
fn survey(
    root: &Root,
    media_len: usize,
    mut check: impl FnMut(SlotId) -> Result<SlotHeader, SlotState>,
    cost: &mut Cost,
) -> (ScanReport, Vec<SlotId>, Vec<SlotId>) {
    let ckpt = root.checkpoint_id;
    let slot_bytes = slot_bytes(root.payload_bytes);
    // The high-water mark runs ahead of the media in chunks, and a
    // write grows the media to cover its whole slot: a slot the media
    // does not fully back was never written, so it is free unread.
    let backed = backed_slots(media_len, slot_bytes);

    let mut newest = Newest::new();
    let mut report = ScanReport {
        checkpoint_id: ckpt,
        scanned_slots: root.high_water,
        scan_bytes: ROOT_BYTES + root.high_water * slot_bytes,
        ..Default::default()
    };
    let mut to_free: Vec<SlotId> = Vec::new();
    let mut free: Vec<SlotId> = Vec::new();

    for id in (0..root.high_water).map(SlotId) {
        if id.0 >= backed {
            free.push(id);
            continue;
        }
        let header = match check(id) {
            Ok(header) => header,
            Err(SlotState::Free) => {
                free.push(id);
                continue;
            }
            Err(SlotState::Valid) => {
                report.corrupt += 1;
                to_free.push(id);
                continue;
            }
        };
        if header.version > ckpt {
            report.discarded_future += 1;
            to_free.push(id);
            continue;
        }
        let slot = RecoveredSlot {
            id,
            key: header.key,
            version: header.version,
        };
        if let Some(kept) = newest.get_or_insert(slot) {
            report.discarded_stale += 1;
            if slot.version > kept.version {
                to_free.push(kept.id);
                *kept = slot;
            } else {
                to_free.push(id);
            }
        }
    }

    report.live = newest.entries;
    report.live.sort_unstable_by_key(|r| r.id);

    // Aggregate recovery cost: sequential stream + rebuild CPU.
    let pmem = DeviceTiming::pmem();
    let stream_ns = (report.scan_bytes as f64 / pmem.read_bw_bytes_per_ns) as u64;
    cost.charge(CostKind::PmemRead, pmem.read_lat_ns + stream_ns);
    cost.charge(
        CostKind::Cpu,
        report.scanned_slots * SCAN_CPU_NS_PER_SLOT
            + report.live.len() as u64 * INDEX_REBUILD_NS_PER_ENTRY,
    );
    (report, free, to_free)
}

/// Scan the pool, prune per-key to the newest checkpointed version, free
/// everything else, and charge the recovery cost. The pool's free list is
/// installed as a side effect.
pub fn scan(pool: &PmemPool, cost: &mut Cost) -> ScanReport {
    // Functional reads use a throwaway sink: we charge one aggregate
    // *sequential* streaming cost instead of per-slot random-read costs.
    let mut scratch_cost = Cost::new();
    let root = Root {
        payload_bytes: pool.payload_bytes(),
        checkpoint_id: pool.checkpoint_id(&mut scratch_cost),
        // The persisted high-water mark bounds the scan after a crash.
        // Deriving it as scanned bytes / `slot_bytes` counted the 64 B
        // root line as a slot whenever `slot_bytes == 64`, conjuring a
        // phantom `SlotId(high_water)` into the recovered free list; see
        // the `recovered_free_list_has_no_phantom_slot` regression below.
        high_water: pool.persisted_high_water(),
    };
    let check = |id| pool.check_slot(id, None, &mut scratch_cost);
    let (report, mut free, to_free) = survey(&root, pool.media().len(), check, cost);
    for id in to_free {
        pool.free_no_list(id, &mut scratch_cost);
        free.push(id);
    }
    pool.install_free_list(free);
    report
}

/// A pool image scanned where it lies: what [`recover`] would keep and
/// charge, without a pool, a media, a copy or a write.
pub struct ImageScan<'a> {
    image: &'a CrashImage,
    root: Root,
    /// What [`scan`] reports for the same bytes.
    pub report: ScanReport,
}

/// Scan `image` read-only, charging `cost` what [`recover`] charges on
/// the same bytes (root read + scan). `None` where [`PmemPool::open`]
/// refuses.
pub fn scan_image<'a>(image: &'a CrashImage, cost: &mut Cost) -> Option<ImageScan<'a>> {
    let bytes = image.bytes();
    let root = Root::decode(bytes, bytes.len())?;
    DeviceTiming::of(image.device()).charge_read(ROOT_BYTES, cost);
    let slot_bytes = slot_bytes(root.payload_bytes);
    let slot_len = HEADER_BYTES as usize + root.payload_bytes;
    let check = |id: SlotId| {
        let off = (ROOT_BYTES + id.0 * slot_bytes) as usize;
        SlotHeader::verified(&bytes[off..off + slot_len])
    };
    let (report, ..) = survey(&root, bytes.len(), check, cost);
    Some(ImageScan {
        image,
        root,
        report,
    })
}

impl ImageScan<'_> {
    /// Payload size per slot in `f32`s.
    pub fn payload_f32s(&self) -> usize {
        self.root.payload_bytes / 4
    }

    /// Decode the payload of a slot the scan kept into `out`, charging
    /// one slot read as [`PmemPool::read_slot`] does. The scan verified
    /// the slot and the bytes cannot change: no second checksum.
    pub fn read_slot(&self, id: SlotId, out: &mut [f32], cost: &mut Cost) {
        let len = self.root.payload_bytes;
        let at = (ROOT_BYTES + id.0 * slot_bytes(len) + HEADER_BYTES) as usize;
        bytes_to_f32s(&self.image.bytes()[at..at + len], out);
        DeviceTiming::of(self.image.device()).charge_read(HEADER_BYTES + len as u64, cost);
    }
}

/// Open crashed media and scan it: the full recovery entry point.
pub fn recover(media: Arc<Media>, cost: &mut Cost) -> Option<(PmemPool, ScanReport)> {
    let pool = PmemPool::open(media, cost)?;
    let report = scan(&pool, cost);
    Some((pool, report))
}

impl PmemPool {
    /// Durably mark a slot free without touching the in-memory free list
    /// (the scan rebuilds the free list wholesale).
    pub(crate) fn free_no_list(&self, id: SlotId, cost: &mut Cost) {
        let off = self.slot_offset(id);
        self.media()
            .write_persist(off, &(SlotState::Free as u32).to_le_bytes(), cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use oe_simdevice::Media;

    fn crash_and_recover(pool: &PmemPool, seed: u64) -> (PmemPool, ScanReport) {
        let media = Arc::new(Media::from_crash(pool.media().crash(seed)));
        let mut cost = Cost::new();
        recover(media, &mut cost).expect("pool recoverable")
    }

    fn new_pool() -> (PmemPool, Cost) {
        let mut cost = Cost::new();
        let p = PmemPool::create(PoolConfig::for_embedding(4, 0, 1 << 20), &mut cost);
        (p, cost)
    }

    #[test]
    fn scan_recovers_committed_entries() {
        let (p, mut cost) = new_pool();
        for k in 0..10u64 {
            let id = p.alloc(&mut cost);
            p.write_slot(id, k, 3, &[k as f32; 4], &mut cost);
        }
        p.set_checkpoint_id(3, &mut cost);
        let (p2, report) = crash_and_recover(&p, 7);
        assert_eq!(report.live.len(), 10);
        assert_eq!(report.checkpoint_id, 3);
        assert_eq!(report.corrupt, 0);
        let mut out = vec![0f32; 4];
        for r in &report.live {
            let h = p2.read_slot(r.id, &mut out, &mut cost).unwrap();
            assert_eq!(out, [h.key as f32; 4]);
        }
    }

    #[test]
    fn scan_discards_versions_beyond_checkpoint() {
        let (p, mut cost) = new_pool();
        // key 1 at version 2 (checkpointed), key 2 at version 9 (future).
        let a = p.alloc(&mut cost);
        p.write_slot(a, 1, 2, &[1.0; 4], &mut cost);
        let b = p.alloc(&mut cost);
        p.write_slot(b, 2, 9, &[2.0; 4], &mut cost);
        p.set_checkpoint_id(5, &mut cost);
        let (_p2, report) = crash_and_recover(&p, 1);
        assert_eq!(report.live.len(), 1);
        assert_eq!(report.live[0].key, 1);
        assert_eq!(report.discarded_future, 1);
    }

    #[test]
    fn scan_keeps_newest_version_per_key() {
        let (p, mut cost) = new_pool();
        // Three versions of key 7: 1, 4, 9. Checkpoint at 5 → keep 4.
        for (ver, val) in [(1u64, 10.0f32), (4, 40.0), (9, 90.0)] {
            let id = p.alloc(&mut cost);
            p.write_slot(id, 7, ver, &[val; 4], &mut cost);
        }
        p.set_checkpoint_id(5, &mut cost);
        let (p2, report) = crash_and_recover(&p, 2);
        assert_eq!(report.live.len(), 1);
        assert_eq!(report.live[0].version, 4);
        assert_eq!(report.discarded_future, 1);
        assert_eq!(report.discarded_stale, 1);
        let mut out = vec![0f32; 4];
        p2.read_slot(report.live[0].id, &mut out, &mut cost)
            .unwrap();
        assert_eq!(out, [40.0; 4]);
    }

    #[test]
    fn freed_slots_are_reusable_after_recovery() {
        let (p, mut cost) = new_pool();
        let a = p.alloc(&mut cost);
        p.write_slot(a, 1, 1, &[1.0; 4], &mut cost);
        p.set_checkpoint_id(1, &mut cost);
        let (p2, report) = crash_and_recover(&p, 3);
        assert_eq!(report.live.len(), 1);
        // All non-live slot positions up to high water are free.
        assert!(p2.free_slots() > 0);
        let mut c = Cost::new();
        let reused = p2.alloc(&mut c);
        assert_ne!(reused, report.live[0].id);
    }

    #[test]
    fn recovery_cost_scales_with_footprint() {
        let (small, mut cost) = new_pool();
        let id = small.alloc(&mut cost);
        small.write_slot(id, 1, 1, &[0.0; 4], &mut cost);
        small.set_checkpoint_id(1, &mut cost);

        let (big, _) = new_pool();
        let mut cost_b = Cost::new();
        for k in 0..3000u64 {
            let id = big.alloc(&mut cost_b);
            big.write_slot(id, k, 1, &[0.0; 4], &mut cost_b);
        }
        big.set_checkpoint_id(1, &mut cost_b);

        let mut c_small = Cost::new();
        let m = Arc::new(Media::from_crash(small.media().crash(1)));
        recover(m, &mut c_small).unwrap();
        let mut c_big = Cost::new();
        let m = Arc::new(Media::from_crash(big.media().crash(1)));
        recover(m, &mut c_big).unwrap();
        assert!(
            c_big.total_ns() > c_small.total_ns(),
            "bigger pool, longer recovery: {} vs {}",
            c_big.total_ns(),
            c_small.total_ns()
        );
    }

    #[test]
    fn recovered_free_list_has_no_phantom_slot() {
        // Regression (crashmc sweep): the scan bound used to be computed
        // as scanned bytes / `slot_bytes`, which counts the 64 B root line
        // as a slot whenever `slot_bytes == 64`, so the never-allocated
        // `SlotId(high_water)` entered the recovered free list. A
        // free-list pop and the bump allocator (`next == high_water`)
        // would then hand out the same slot twice, cross-linking two
        // keys. First exposed at crash-event index 9 of the minimal
        // one-slot run (the torn checkpoint-id fence); any index
        // reproduces it.
        use oe_simdevice::CrashPlan;
        let (p, mut cost) = new_pool();
        assert_eq!(p.slot_bytes(), 64, "layout the bug depends on");
        p.media().arm_crash_plan(CrashPlan {
            at_event: 9,
            seed: 3,
        });
        let id = p.alloc(&mut cost); // events 2-3 (high-water persist)
        p.write_slot(id, 1, 1, &[1.0; 4], &mut cost); // events 4-7
        p.set_checkpoint_id(1, &mut cost); // events 8-9: torn commit
        let image = p.media().take_crash_capture().expect("event 9 reached");
        let mut rcost = Cost::new();
        let (p2, report) =
            recover(Arc::new(Media::from_crash(image)), &mut rcost).expect("recoverable");
        let hw = p2.high_water();
        let free = p2.free_list_ids();
        assert!(
            free.iter().all(|s| s.0 < hw),
            "phantom slot at/beyond high water {hw} in recovered free list"
        );
        let mut dedup = free.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), free.len(), "duplicate ids in free list");
        // free ∪ live partitions 0..hw exactly (no leaks, no overlap).
        assert_eq!(free.len() as u64 + report.live.len() as u64, hw);
        for r in &report.live {
            assert!(!free.contains(&r.id), "live slot {:?} also free", r.id);
        }
        // Draining the free list then bump-allocating must never repeat.
        let mut seen = std::collections::HashSet::new();
        for r in &report.live {
            seen.insert(r.id);
        }
        let mut c = Cost::new();
        for _ in 0..=hw.min(1100) {
            assert!(seen.insert(p2.alloc(&mut c)), "slot handed out twice");
        }
    }

    #[test]
    fn half_backed_high_water_slot_scans_as_free() {
        // 64 B root + 1024 × 128 B slots overshoot a 2^17-byte media by
        // one line: the last high-water slot's header is backed, its
        // payload is not. The one-read scan must not read past the end.
        let mut cost = Cost::new();
        let p = PmemPool::create(PoolConfig::for_embedding(16, 0, 1 << 17), &mut cost);
        assert_eq!(p.slot_bytes(), 128, "layout the case depends on");
        let id = p.alloc(&mut cost);
        p.write_slot(id, 1, 1, &[1.0; 16], &mut cost);
        p.set_checkpoint_id(1, &mut cost);
        let (p2, report) = crash_and_recover(&p, 5);
        assert_eq!(p2.media().len(), 1 << 17);
        assert_eq!(report.scanned_slots, 1024);
        assert_eq!(report.live.len(), 1);
        assert_eq!(p2.free_slots(), 1023);
        assert!(p2.free_list_ids().contains(&SlotId(1023)));
    }

    #[test]
    fn torn_unfenced_write_is_never_recovered_as_valid() {
        // Write a slot with the full protocol, then start overwriting a
        // second slot but crash before the commit fence. Recovery must
        // either see the slot as free or detect corruption — never return
        // a half-written payload as live.
        for seed in 0..32 {
            let (p, mut cost) = new_pool();
            let a = p.alloc(&mut cost);
            p.write_slot(a, 1, 1, &[1.0; 4], &mut cost);
            p.set_checkpoint_id(1, &mut cost);
            // Simulate a buggy partial write: payload without fence, then
            // VALID state without fence.
            let b = p.alloc(&mut cost);
            let off = p.slot_offset(b);
            let hdr = crate::layout::SlotHeader {
                state: SlotState::Valid,
                checksum: 0xBAD, // wrong on purpose: torn write
                key: 2,
                version: 1,
            };
            p.media().write(off, &hdr.encode(), &mut cost);
            p.media().flush(off, 24, &mut cost); // no fence!

            let (_p2, report) = crash_and_recover(&p, seed);
            assert_eq!(report.live.len(), 1, "seed {seed}");
            assert_eq!(report.live[0].key, 1);
        }
    }
}
