//! `Snapshot::build` against the recovery scan, on an image that holds
//! every kind of slot the scan has to judge.
//!
//! The snapshot decode reads the image bytes directly; `recover` +
//! `read_slot` go through `Media` and a `PmemPool`. Both must keep the
//! same rows, and the decode must charge what the pool path charged:
//! the `build_cost()` literals below were captured on the commit before
//! the decode stopped using a pool (`fe78ac1`). If one moves, the
//! virtual publish cost changed — do not re-pin without saying why.

use oe_pmem::scan::recover;
use oe_pmem::{PmemPool, SlotHeader, SlotState, ROOT_BYTES};
use oe_serve::{AnnConfig, Snapshot};
use oe_simdevice::{Cost, CrashImage, Media, MediaConfig};
use std::sync::Arc;

/// Served width; the payload also carries one optimizer-state vector.
const DIM: usize = 4;
const PAYLOAD: usize = 2 * DIM;
const CHECKPOINT: u64 = 5;

fn payload(key: u64, version: u64) -> Vec<f32> {
    (0..PAYLOAD as u64)
        .map(|d| (key * 1_000 + version * 10 + d) as f32 * 0.5 - 3.0)
        .collect()
}

/// 4 KiB of media under a 1 024-slot high-water mark: 63 slots are
/// backed, 57 are written.
fn image() -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(4096)));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), PAYLOAD * 4, &mut cost);
    assert_eq!(pool.slot_bytes(), 64, "layout the backed count depends on");
    let write = |key: u64, version: u64, cost: &mut Cost| {
        let id = pool.alloc(cost);
        pool.write_slot(id, key, version, &payload(key, version), cost);
        id
    };
    // Committed rows, keys descending so slot order is not key order.
    let first: Vec<_> = (0..40u64)
        .rev()
        .map(|k| (k, write(k, 1 + k % 3, &mut cost)))
        .collect();
    // Superseded: a newer committed version in a later slot …
    for k in 0..10 {
        write(k, 4, &mut cost);
    }
    // … and, for key 50, in an earlier one.
    write(50, 5, &mut cost);
    write(50, 2, &mut cost);
    // Past the checkpoint: over a committed version, and alone.
    write(7, 9, &mut cost);
    write(8, 6, &mut cost);
    write(100, 7, &mut cost);
    // A torn slot: marked valid over a payload its checksum does not cover.
    let torn = pool.alloc(&mut cost);
    let header = SlotHeader {
        state: SlotState::Valid,
        checksum: 0xBAD,
        key: 200,
        version: 1,
    };
    let off = ROOT_BYTES + torn.0 * pool.slot_bytes();
    media.write(off, &header.encode(), &mut cost);
    media.persist(off, 24, &mut cost);
    // One flipped payload byte under a committed header.
    let flipped = write(201, 1, &mut cost);
    let off = ROOT_BYTES + flipped.0 * pool.slot_bytes() + 24 + 5;
    media.write(off, &[0xFF], &mut cost);
    media.persist(off, 1, &mut cost);
    // Freed slots (keys 38 and 39 leave the table), freed last so that
    // no later write takes them back.
    for (k, id) in &first {
        if *k >= 38 {
            pool.free(*id, &mut cost);
        }
    }
    pool.set_checkpoint_id(CHECKPOINT, &mut cost);
    assert_eq!(
        media.len(),
        4096,
        "the high-water mark must outrun the media"
    );
    media.crash(9)
}

#[test]
fn snapshot_rows_equal_recover_plus_read_slot() {
    let image = image();
    let mut cost = Cost::new();
    let media = Arc::new(Media::from_crash(image.clone()));
    let (pool, report) = recover(media, &mut cost).expect("pool");
    assert_eq!(report.checkpoint_id, CHECKPOINT);
    assert_eq!(report.scanned_slots, 1024);
    assert_eq!(
        (
            report.live.len(),
            report.discarded_stale,
            report.discarded_future,
            report.corrupt
        ),
        (39, 11, 3, 2)
    );

    let snap = Snapshot::build(image, DIM, None).expect("snapshot");
    assert_eq!(snap.checkpoint(), CHECKPOINT);
    assert_eq!(snap.payload_f32s(), PAYLOAD);
    assert_eq!(snap.num_keys(), report.live.len());
    assert!(snap.keys().windows(2).all(|w| w[0] < w[1]));
    let mut want = vec![0f32; PAYLOAD];
    for r in &report.live {
        let header = pool.read_slot(r.id, &mut want, &mut cost).expect("live");
        assert_eq!((header.key, header.version), (r.key, r.version));
        let got = snap.payload(r.key).0.expect("served");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&want), "key {}", r.key);
        let row = snap.row_of(r.key).expect("indexed");
        assert_eq!(snap.key_of_row(row), r.key);
        assert_eq!(snap.lookup(r.key).0.unwrap(), &want[..DIM]);
    }
    // Newest committed version wins; the rest are not served.
    assert_eq!(snap.payload(3).0.unwrap(), payload(3, 4).as_slice());
    assert_eq!(snap.payload(7).0.unwrap(), payload(7, 4).as_slice());
    assert_eq!(snap.payload(50).0.unwrap(), payload(50, 5).as_slice());
    for gone in [38, 39, 100, 200, 201, 999] {
        assert!(snap.lookup(gone).0.is_none(), "key {gone}");
        assert!(snap.row_of(gone).is_none(), "key {gone}");
    }
}

#[test]
fn build_cost_is_the_pool_path_charge() {
    let plain = Snapshot::build(image(), DIM, None).expect("snapshot");
    assert_eq!(
        plain.build_cost().raw_parts(),
        ([0, 14227, 0, 0, 45640, 0, 0, 0], [0, 41, 0, 0, 1, 0, 0, 0])
    );
    let ann = AnnConfig::paper_default();
    let indexed = Snapshot::build(image(), DIM, Some(&ann)).expect("snapshot");
    assert_eq!(
        indexed.build_cost().raw_parts(),
        ([86, 14227, 0, 0, 55624, 0, 0, 0], [1, 41, 0, 0, 2, 0, 0, 0])
    );
}
