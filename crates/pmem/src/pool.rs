//! The persistent pool: space manager + crash-safe slot I/O + root updates.

use crate::layout::{
    bytes_to_f32s, f32s_to_bytes, payload_checksum, root_off, slot_bytes, Root, SlotHeader,
    SlotState, HEADER_BYTES, POOL_MAGIC, ROOT_BYTES,
};
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, Media, MediaConfig};
use std::cell::RefCell;
use std::sync::Arc;

/// Identifies a slot within a pool (dense index, not a byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u64);

/// Pool creation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Payload size per slot in bytes (embedding dim × 4 × (1 + optimizer
    /// state vectors)).
    pub payload_bytes: usize,
    /// Initial media capacity in bytes.
    pub capacity: usize,
}

impl PoolConfig {
    /// Config for embedding entries of `dim` `f32` weights plus
    /// `opt_slots` optimizer state vectors of the same dim.
    pub fn for_embedding(dim: usize, opt_slots: usize, capacity: usize) -> Self {
        Self {
            payload_bytes: dim * 4 * (1 + opt_slots),
            capacity,
        }
    }
}

/// How many slots of high-water headroom to persist at a time; amortizes
/// the root update that bounds the recovery scan.
const HIGH_WATER_CHUNK: u64 = 1024;

struct AllocState {
    free: Vec<SlotId>,
    next: u64,
    /// Durably recorded scan bound (`next` rounded up to the chunk).
    persisted_high_water: u64,
}

/// A persistent-memory pool of fixed-size embedding slots. See crate docs
/// for the crash-safety protocol.
pub struct PmemPool {
    media: Arc<Media>,
    payload_bytes: usize,
    slot_bytes: u64,
    alloc: Mutex<AllocState>,
}

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl PmemPool {
    /// Create and initialize a fresh pool on new PMem media.
    pub fn create(cfg: PoolConfig, cost: &mut Cost) -> Self {
        let media = Arc::new(Media::new(MediaConfig::pmem(cfg.capacity)));
        Self::create_on(media, cfg.payload_bytes, cost)
    }

    /// Create a pool on existing (empty) media.
    pub fn create_on(media: Arc<Media>, payload_bytes: usize, cost: &mut Cost) -> Self {
        let slot_bytes = slot_bytes(payload_bytes);
        let mut root = [0u8; ROOT_BYTES as usize];
        root[root_off::MAGIC as usize..][..8].copy_from_slice(&POOL_MAGIC.to_le_bytes());
        root[root_off::PAYLOAD_BYTES as usize..][..8]
            .copy_from_slice(&(payload_bytes as u64).to_le_bytes());
        root[root_off::CKPT_ID as usize..][..8].copy_from_slice(&0u64.to_le_bytes());
        root[root_off::HIGH_WATER as usize..][..8].copy_from_slice(&0u64.to_le_bytes());
        media.write(0, &root, cost);
        media.persist(0, ROOT_BYTES, cost);
        Self {
            media,
            payload_bytes,
            slot_bytes,
            alloc: Mutex::new(AllocState {
                free: Vec::new(),
                next: 0,
                persisted_high_water: 0,
            }),
        }
    }

    /// The underlying media (to crash it in tests / hand to recovery).
    pub fn media(&self) -> &Arc<Media> {
        &self.media
    }

    /// Payload size per slot in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Payload size per slot in `f32`s.
    pub fn payload_f32s(&self) -> usize {
        self.payload_bytes / 4
    }

    /// Total on-media footprint of one slot, including header and padding.
    pub fn slot_bytes(&self) -> u64 {
        self.slot_bytes
    }

    /// Number of slot positions ever allocated (scan bound).
    pub fn high_water(&self) -> u64 {
        self.alloc.lock().next
    }

    /// Number of slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.alloc.lock().free.len()
    }

    /// Number of live (allocated, not freed) slots.
    pub fn live_slots(&self) -> u64 {
        let g = self.alloc.lock();
        g.next - g.free.len() as u64
    }

    pub(crate) fn slot_offset(&self, id: SlotId) -> u64 {
        ROOT_BYTES + id.0 * self.slot_bytes
    }

    /// Allocate a slot (reuses freed space first). Volatile bookkeeping,
    /// except when the high-water mark must be durably extended.
    pub fn alloc(&self, cost: &mut Cost) -> SlotId {
        let mut g = self.alloc.lock();
        if let Some(id) = g.free.pop() {
            return id;
        }
        let id = SlotId(g.next);
        g.next += 1;
        if g.next > g.persisted_high_water {
            g.persisted_high_water = (g.next).div_ceil(HIGH_WATER_CHUNK) * HIGH_WATER_CHUNK;
            let hw = g.persisted_high_water;
            drop(g);
            self.media
                .write(root_off::HIGH_WATER, &hw.to_le_bytes(), cost);
            self.media.persist(root_off::HIGH_WATER, 8, cost);
        }
        id
    }

    /// Return a slot to the free list, durably marking it `Free` so a
    /// recovery scan cannot resurrect stale contents.
    pub fn free(&self, id: SlotId, cost: &mut Cost) {
        let off = self.slot_offset(id);
        self.media
            .write(off, &(SlotState::Free as u32).to_le_bytes(), cost);
        self.media.persist(off, 4, cost);
        self.alloc.lock().free.push(id);
    }

    /// Crash-safe full-slot write:
    /// 1. header (state `Free`) + payload → flush → fence,
    /// 2. state `Valid` → flush → fence.
    ///
    /// After step 2 the slot is recoverable; a crash before it leaves the
    /// slot invisible (state reads `Free` or checksum mismatches).
    pub fn write_slot(&self, id: SlotId, key: u64, version: u64, payload: &[f32], cost: &mut Cost) {
        assert_eq!(
            payload.len() * 4,
            self.payload_bytes,
            "payload size mismatch for pool"
        );
        let off = self.slot_offset(id);
        SCRATCH.with(|s| {
            // Header + payload are built in place in the reused scratch
            // (every byte is overwritten, so it is sized, never cleared)
            // and go out as a single contiguous write.
            let mut rec = s.borrow_mut();
            rec.resize(HEADER_BYTES as usize + self.payload_bytes, 0);
            let (head, body) = rec.split_at_mut(HEADER_BYTES as usize);
            f32s_to_bytes(payload, body);
            let header = SlotHeader {
                state: SlotState::Free, // not yet visible
                checksum: payload_checksum(key, version, body),
                key,
                version,
            };
            head.copy_from_slice(&header.encode());
            self.media.write(off, &rec, cost);
            self.media.persist(off, rec.len() as u64, cost);
            // Commit: flip the state word.
            self.media
                .write(off, &(SlotState::Valid as u32).to_le_bytes(), cost);
            self.media.persist(off, 4, cost);
        });
    }

    /// Read a slot's payload into `out` (must be `payload_f32s` long),
    /// verifying state and checksum. Returns the header on success.
    pub fn read_slot(&self, id: SlotId, out: &mut [f32], cost: &mut Cost) -> Option<SlotHeader> {
        assert_eq!(out.len(), self.payload_f32s());
        self.check_slot(id, Some(out), cost).ok()
    }

    /// One read of a whole slot (header + payload), classified from that
    /// one buffer by [`SlotHeader::verified`]; the payload of a sound
    /// slot is decoded into `out` when given.
    pub(crate) fn check_slot(
        &self,
        id: SlotId,
        out: Option<&mut [f32]>,
        cost: &mut Cost,
    ) -> Result<SlotHeader, SlotState> {
        let off = self.slot_offset(id);
        SCRATCH.with(|s| {
            let mut buf = s.borrow_mut();
            buf.resize(HEADER_BYTES as usize + self.payload_bytes, 0);
            self.media.read(off, &mut buf, cost);
            let header = SlotHeader::verified(&buf)?;
            if let Some(out) = out {
                bytes_to_f32s(&buf[HEADER_BYTES as usize..], out);
            }
            Ok(header)
        })
    }

    /// Durably read the Checkpointed Batch ID from the root.
    pub fn checkpoint_id(&self, cost: &mut Cost) -> u64 {
        let mut b = [0u8; 8];
        self.media.read(root_off::CKPT_ID, &mut b, cost);
        u64::from_le_bytes(b)
    }

    /// Atomically (8-byte, single-line) persist a new Checkpointed Batch
    /// ID — the commit point of a batch-aware checkpoint (Algorithm 2,
    /// line 25).
    pub fn set_checkpoint_id(&self, id: u64, cost: &mut Cost) {
        self.media.write(root_off::CKPT_ID, &id.to_le_bytes(), cost);
        self.media.persist(root_off::CKPT_ID, 8, cost);
    }

    /// Reconstruct pool handles over recovered media (after
    /// [`oe_simdevice::Media::crash`] + [`oe_simdevice::Media::from_crash`]).
    /// Reads the root; the caller then runs [`crate::scan::scan`] to
    /// rebuild the free list and index. Returns `None` if the magic is
    /// not this format's: media never initialized, root lost, or a pool
    /// of another format version, whose slot checksums this build would
    /// misread as torn ([`Self::refusal`] says which, in words).
    pub fn open(media: Arc<Media>, cost: &mut Cost) -> Option<Self> {
        let mut line = [0u8; ROOT_BYTES as usize];
        if media.len() < ROOT_BYTES as usize {
            return None;
        }
        media.read(0, &mut line, cost);
        let root = Root::decode(&line)?;
        Some(Self {
            media,
            payload_bytes: root.payload_bytes,
            slot_bytes: slot_bytes(root.payload_bytes),
            alloc: Mutex::new(AllocState {
                free: Vec::new(),
                next: root.high_water,
                persisted_high_water: root.high_water,
            }),
        })
    }

    /// Why [`Self::open`] refuses `media`, for an operator: a pool of
    /// another format version reads differently from no pool at all.
    pub fn refusal(media: &Media) -> String {
        let mut magic = [0u8; 8];
        if media.len() >= ROOT_BYTES as usize {
            media.read(root_off::MAGIC, &mut magic, &mut Cost::new());
        }
        let magic = u64::from_le_bytes(magic);
        if magic >> 16 == POOL_MAGIC >> 16 && magic != POOL_MAGIC {
            format!(
                "pool format \"OEPM\" v{} is not readable by this build (\"OEPM\" v{}): \
                 its slot checksums are defined differently",
                magic & 0xFFFF,
                POOL_MAGIC & 0xFFFF
            )
        } else {
            "no initialized pool in image".to_string()
        }
    }

    /// Install the free list discovered by a recovery scan.
    pub(crate) fn install_free_list(&self, free: Vec<SlotId>) {
        self.alloc.lock().free = free;
    }

    /// Snapshot of the current free list (slot accounting checks: the
    /// crash-point harness asserts free ∪ live partitions `0..high_water`
    /// with no duplicates after every recovery).
    pub fn free_list_ids(&self) -> Vec<SlotId> {
        self.alloc.lock().free.clone()
    }

    /// Scan bound for recovery: persisted high water mark.
    pub(crate) fn persisted_high_water(&self) -> u64 {
        self.alloc.lock().persisted_high_water
    }

    /// A layout-derived description of this pool, used in reports.
    pub fn describe(&self) -> String {
        format!(
            "PmemPool {{ payload: {} B ({} f32), slot: {} B, high_water: {}, free: {} }}",
            self.payload_bytes,
            self.payload_f32s(),
            self.slot_bytes,
            self.high_water(),
            self.free_slots()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_simdevice::CostKind;

    fn pool(dim: usize) -> (PmemPool, Cost) {
        let mut cost = Cost::new();
        let p = PmemPool::create(PoolConfig::for_embedding(dim, 1, 1 << 20), &mut cost);
        (p, cost)
    }

    #[test]
    fn slot_layout_geometry() {
        let (p, _) = pool(64);
        // 24 header + 64*4*2 payload = 536 → 576 (9 lines).
        assert_eq!(p.payload_bytes(), 512);
        assert_eq!(p.slot_bytes(), 576);
        assert_eq!(p.slot_offset(SlotId(0)), 64);
        assert_eq!(p.slot_offset(SlotId(2)), 64 + 2 * 576);
    }

    #[test]
    fn write_read_roundtrip() {
        let (p, mut cost) = pool(4);
        let id = p.alloc(&mut cost);
        let payload: Vec<f32> = (0..8).map(|i| i as f32 * 0.5).collect();
        p.write_slot(id, 99, 7, &payload, &mut cost);
        let mut out = vec![0f32; 8];
        let h = p.read_slot(id, &mut out, &mut cost).expect("valid");
        assert_eq!(h.key, 99);
        assert_eq!(h.version, 7);
        assert_eq!(out, payload);
        assert!(cost.ns(CostKind::PmemWrite) > 0);
    }

    #[test]
    fn alloc_reuses_freed_slots() {
        let (p, mut cost) = pool(4);
        let a = p.alloc(&mut cost);
        let b = p.alloc(&mut cost);
        assert_ne!(a, b);
        p.free(a, &mut cost);
        let c = p.alloc(&mut cost);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(p.high_water(), 2);
    }

    #[test]
    fn freed_slot_is_invisible() {
        let (p, mut cost) = pool(4);
        let id = p.alloc(&mut cost);
        p.write_slot(id, 1, 1, &[1.0; 8], &mut cost);
        p.free(id, &mut cost);
        let mut out = vec![0f32; 8];
        assert!(p.read_slot(id, &mut out, &mut cost).is_none());
    }

    #[test]
    fn checkpoint_id_roundtrip_and_persistence() {
        let (p, mut cost) = pool(4);
        assert_eq!(p.checkpoint_id(&mut cost), 0);
        p.set_checkpoint_id(41, &mut cost);
        assert_eq!(p.checkpoint_id(&mut cost), 41);
        // Survives a crash (fully fenced).
        let media = Arc::new(Media::from_crash(p.media().crash(5)));
        let p2 = PmemPool::open(media, &mut cost).expect("magic ok");
        assert_eq!(p2.checkpoint_id(&mut cost), 41);
    }

    #[test]
    fn open_rejects_uninitialized_media() {
        let mut cost = Cost::new();
        let media = Arc::new(Media::new(MediaConfig::pmem(1024)));
        assert!(PmemPool::open(media, &mut cost).is_none());
    }

    #[test]
    fn open_refuses_a_pool_of_another_format_version() {
        // An "OEPM" v1 root over otherwise intact slots: opening it
        // would scan every slot as torn, so it must not open at all.
        let (p, mut cost) = pool(4);
        let id = p.alloc(&mut cost);
        p.write_slot(id, 5, 2, &[3.25f32; 8], &mut cost);
        p.set_checkpoint_id(2, &mut cost);
        let v1 = 0x4F45_504D_0001_u64;
        p.media()
            .write(root_off::MAGIC, &v1.to_le_bytes(), &mut cost);
        p.media().persist(root_off::MAGIC, 8, &mut cost);
        let media = Arc::new(Media::from_crash(p.media().crash(1)));
        assert!(PmemPool::open(Arc::clone(&media), &mut cost).is_none());
        assert!(crate::scan::recover(Arc::clone(&media), &mut cost).is_none());
        let why = PmemPool::refusal(&media);
        assert!(why.contains("\"OEPM\" v1") && why.contains("v2"), "{why}");
        // Never-initialized media is told apart from an old pool.
        let blank = Media::new(MediaConfig::pmem(1024));
        assert_eq!(PmemPool::refusal(&blank), "no initialized pool in image");
    }

    #[test]
    fn committed_slot_survives_crash() {
        let (p, mut cost) = pool(4);
        let id = p.alloc(&mut cost);
        let payload = [3.25f32; 8];
        p.write_slot(id, 5, 2, &payload, &mut cost);
        for seed in 0..8 {
            let media = Arc::new(Media::from_crash(p.media().crash(seed)));
            let p2 = PmemPool::open(media, &mut cost).unwrap();
            let mut out = vec![0f32; 8];
            let h = p2.read_slot(id, &mut out, &mut cost).expect("survives");
            assert_eq!(h.key, 5);
            assert_eq!(out, payload);
        }
    }

    #[test]
    fn high_water_persisted_in_chunks() {
        let (p, mut cost) = pool(4);
        for _ in 0..3 {
            p.alloc(&mut cost);
        }
        let media = Arc::new(Media::from_crash(p.media().crash(1)));
        let p2 = PmemPool::open(media, &mut cost).unwrap();
        // Recovered high water is the chunk bound, covering all allocations.
        assert!(p2.high_water() >= 3);
        assert_eq!(p2.high_water() % HIGH_WATER_CHUNK, 0);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn wrong_payload_size_panics() {
        let (p, mut cost) = pool(4);
        let id = p.alloc(&mut cost);
        p.write_slot(id, 1, 1, &[0.0; 3], &mut cost);
    }

    #[test]
    fn concurrent_alloc_unique() {
        use std::collections::HashSet;
        let (p, _) = pool(4);
        let p = Arc::new(p);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                let mut cost = Cost::new();
                (0..500).map(|_| p.alloc(&mut cost)).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate slot {id:?}");
            }
        }
        assert_eq!(seen.len(), 4000);
    }
}
