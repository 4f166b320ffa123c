//! The recovery scan keeps the newest surviving version of each key in a
//! flat table: dense entries plus an open-addressed index of entry
//! numbers. The `HashMap` survey it replaced lives on here as [`Oracle`],
//! re-implemented over the raw image bytes through the public
//! [`SlotHeader::decode`] and [`payload_checksum`]. Seeded pools mixing
//! superseded versions, versions past the checkpoint, torn slots, freed
//! slots, same-version twins of one key and a high-water mark past the
//! backed media are crashed; for every image the scan report (each
//! counter, `live` in order), the free list [`recover`] installs and the
//! report of [`scan_image`] must equal the oracle's.
//!
//! Three mutants this suite catches: `>=` for `>` in the version compare
//! (the later of two same-version twins would win), the two `to_free`
//! pushes swapped (the free list order moves), and a table grown only
//! when full (the scan's half-load invariant check fires).

use oe_pmem::layout::payload_checksum;
use oe_pmem::pool::PoolConfig;
use oe_pmem::scan::{recover, scan_image};
use oe_pmem::{
    PmemPool, RecoveredSlot, ScanReport, SlotHeader, SlotId, SlotState, HEADER_BYTES, ROOT_BYTES,
};
use oe_simdevice::rng::Rng;
use oe_simdevice::{Cost, CrashImage, Media};
use std::collections::HashMap;
use std::sync::Arc;

/// What the retired survey found in an image.
#[derive(Debug, PartialEq)]
struct Oracle {
    live: Vec<RecoveredSlot>,
    discarded_future: u64,
    discarded_stale: u64,
    corrupt: u64,
    scanned_slots: u64,
    scan_bytes: u64,
    checkpoint_id: u64,
    /// Free slots in slot order, then the freed ones in the order the
    /// scan freed them: the free list `recover` installs.
    free_list: Vec<SlotId>,
}

/// A root field of an image.
fn field(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// An image's slot size and how many whole slots its bytes back.
fn geometry(bytes: &[u8]) -> (u64, u64) {
    let slot_bytes = (HEADER_BYTES + field(bytes, 8)).div_ceil(64) * 64;
    (slot_bytes, (bytes.len() as u64 - ROOT_BYTES) / slot_bytes)
}

impl Oracle {
    /// The `HashMap` survey, over the image bytes as they lie.
    fn survey(bytes: &[u8]) -> Self {
        let (payload_bytes, ckpt, high_water) =
            (field(bytes, 8), field(bytes, 16), field(bytes, 24));
        let (slot_bytes, backed) = geometry(bytes);
        let mut best: HashMap<u64, (SlotId, u64)> = HashMap::new();
        let (mut free, mut to_free) = (Vec::new(), Vec::new());
        let (mut future, mut stale, mut corrupt) = (0, 0, 0);
        for id in (0..high_water).map(SlotId) {
            if id.0 >= backed {
                free.push(id);
                continue;
            }
            let off = (ROOT_BYTES + id.0 * slot_bytes) as usize;
            let header = SlotHeader::decode(&bytes[off..]);
            let payload = &bytes[off + HEADER_BYTES as usize..][..payload_bytes as usize];
            if header.state != SlotState::Valid {
                free.push(id);
                continue;
            }
            if payload_checksum(header.key, header.version, payload) != header.checksum {
                corrupt += 1;
                to_free.push(id);
                continue;
            }
            if header.version > ckpt {
                future += 1;
                to_free.push(id);
                continue;
            }
            match best.entry(header.key) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((id, header.version));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let (old_id, old_ver) = *o.get();
                    stale += 1;
                    if header.version > old_ver {
                        o.insert((id, header.version));
                        to_free.push(old_id);
                    } else {
                        to_free.push(id);
                    }
                }
            }
        }
        let mut live: Vec<RecoveredSlot> = best
            .into_iter()
            .map(|(key, (id, version))| RecoveredSlot { id, key, version })
            .collect();
        live.sort_unstable_by_key(|r| r.id);
        free.extend(to_free);
        Self {
            live,
            discarded_future: future,
            discarded_stale: stale,
            corrupt,
            scanned_slots: high_water,
            scan_bytes: ROOT_BYTES + high_water * slot_bytes,
            checkpoint_id: ckpt,
            free_list: free,
        }
    }

    /// The same fields, as the scan under test reported them.
    fn from_report(r: &ScanReport, free_list: Vec<SlotId>) -> Self {
        Self {
            live: r.live.clone(),
            discarded_future: r.discarded_future,
            discarded_stale: r.discarded_stale,
            corrupt: r.corrupt,
            scanned_slots: r.scanned_slots,
            scan_bytes: r.scan_bytes,
            checkpoint_id: r.checkpoint_id,
            free_list,
        }
    }
}

/// A payload that differs per (key, version, slot) so twins are told
/// apart by their bytes as well as their ids.
fn payload(len: usize, key: u64, version: u64, salt: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| (key ^ version << 8 ^ salt << 16 ^ i) as f32)
        .collect()
}

/// A seeded pool crashed once. Its checkpoint sits mid-range, so some
/// versions are past it; keys come from a small set, so most are written
/// more than once; twins, frees, torn slots and unfenced stores are mixed
/// in; a small media leaves the 1 024-slot high-water chunk mostly
/// unbacked.
fn crashed_pool(case: u64) -> CrashImage {
    let mut rng = Rng::seed_from_u64(0x5C4E_0000 + case);
    let dim = 1 + rng.below(8) as usize;
    let pool = PmemPool::create(
        PoolConfig::for_embedding(
            dim,
            rng.below(3) as usize,
            64 * (1 + rng.below(96) as usize),
        ),
        &mut Cost::new(),
    );
    let mut cost = Cost::new();
    let media = Arc::clone(pool.media());
    let f32s = pool.payload_f32s();
    let slot_off = |id: SlotId| ROOT_BYTES + id.0 * pool.slot_bytes();
    let keys: Vec<u64> = (0..2 + rng.below(60))
        .map(|i| if i % 3 == 0 { i } else { rng.next_u64() })
        .collect();
    let ckpt = 2 + rng.below(12);
    let mut written: Vec<(SlotId, u64, u64)> = Vec::new();
    for step in 0..rng.below(240) {
        match rng.below(16) {
            0..=8 => {
                let (key, version) = (
                    keys[rng.below(keys.len() as u64) as usize],
                    1 + rng.below(ckpt + 4),
                );
                let id = pool.alloc(&mut cost);
                pool.write_slot(
                    id,
                    key,
                    version,
                    &payload(f32s, key, version, step),
                    &mut cost,
                );
                written.push((id, key, version));
            }
            9 | 10 if !written.is_empty() => {
                // A twin: the same key at the same version in a new slot.
                let (_, key, version) = written[rng.below(written.len() as u64) as usize];
                let id = pool.alloc(&mut cost);
                pool.write_slot(
                    id,
                    key,
                    version,
                    &payload(f32s, key, version, step),
                    &mut cost,
                );
                written.push((id, key, version));
            }
            11 | 12 if !written.is_empty() => {
                let (id, ..) = written.swap_remove(rng.below(written.len() as u64) as usize);
                pool.free(id, &mut cost);
            }
            13 => {
                // Torn: a whole slot marked valid whose checksum fails.
                let id = pool.alloc(&mut cost);
                let header = SlotHeader {
                    state: SlotState::Valid,
                    checksum: rng.next_u64() as u32,
                    key: keys[0],
                    version: 1,
                };
                let mut rec = header.encode().to_vec();
                rec.resize(HEADER_BYTES as usize + pool.payload_bytes(), 0x5A);
                media.write_persist(slot_off(id), &rec, &mut cost);
            }
            14 if !written.is_empty() => {
                // An unfenced store into a live payload: the crash's draw
                // decides whether that slot reads torn.
                let (id, ..) = written[rng.below(written.len() as u64) as usize];
                let at = slot_off(id) + HEADER_BYTES;
                media.write(at, &rng.next_u64().to_le_bytes()[..4], &mut cost);
                if rng.chance(0.7) {
                    media.flush(at, 4, &mut cost);
                }
            }
            _ => {}
        }
    }
    pool.set_checkpoint_id(ckpt, &mut cost);
    media.crash(rng.next_u64())
}

#[test]
fn flat_survey_matches_the_retired_hash_map_survey() {
    let (mut stale, mut future, mut corrupt, mut twins, mut freed, mut unbacked) =
        (0, 0, 0, 0, 0, 0);
    for case in 0..288u64 {
        let image = crashed_pool(case);
        let want = Oracle::survey(image.bytes());

        let (pool, report) = recover(Arc::new(Media::from_crash(image.clone())), &mut Cost::new())
            .unwrap_or_else(|| panic!("case {case}: recoverable"));
        assert_eq!(
            Oracle::from_report(&report, pool.free_list_ids()),
            want,
            "case {case}: recover"
        );
        let scan = scan_image(&image, &mut Cost::new()).expect("scannable");
        assert_eq!(
            Oracle::from_report(&scan.report, want.free_list.clone()),
            want,
            "case {case}: scan_image"
        );

        // What the cases cover.
        stale += (want.discarded_stale > 0) as u32;
        future += (want.discarded_future > 0) as u32;
        corrupt += (want.corrupt > 0) as u32;
        let (slot_bytes, backed) = geometry(image.bytes());
        unbacked += (report.scanned_slots > backed) as u32;
        let headers: Vec<SlotHeader> = (0..report.scanned_slots.min(backed))
            .map(|id| SlotHeader::decode(&image.bytes()[(ROOT_BYTES + id * slot_bytes) as usize..]))
            .collect();
        // A freed slot keeps its header but for the state word.
        freed += headers
            .iter()
            .any(|h| h.state == SlotState::Free && h.checksum != 0) as u32;
        let mut seen = std::collections::HashSet::new();
        twins += headers
            .iter()
            .any(|h| h.state == SlotState::Valid && !seen.insert((h.key, h.version)))
            as u32;
    }
    for (what, n) in [
        ("superseded versions", stale),
        ("versions past the checkpoint", future),
        ("torn slots", corrupt),
        ("same-version twins", twins),
        ("freed slots", freed),
        ("high water past the backed media", unbacked),
    ] {
        assert!(n >= 32, "{what} in only {n} cases");
    }
}
