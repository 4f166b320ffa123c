//! The point-lookup telemetry rule, pinned exactly.
//!
//! [`oe_serve::SnapshotReader::lookup`] counts every lookup in
//! `serve_hits_total` or `serve_unknown_keys_total` at once, and times
//! lookup number `n` (0-based, per reader) into
//! `serve_lookup_latency_ns` iff `n % 256 == 0`. So `n` lookups leave
//! exactly `⌈n / 256⌉` latency samples, and a snapshot flip does not
//! restart the count.

use oe_serve::{Snapshot, SnapshotHandle};
use oe_simdevice::{Cost, CrashImage, Media, MediaConfig};
use oe_telemetry::RegistrySnapshot;
use std::sync::Arc;

const DIM: usize = 4;
const KEYS: u64 = 40;
const LOOKUPS: u64 = 513;
/// The reader's snapshot flips after this many lookups.
const FLIP_AFTER: u64 = 300;

/// A committed image of keys `0..KEYS` whose payloads encode `gen`.
fn image_at(gen: u64) -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(1 << 16)));
    let mut cost = Cost::new();
    let pool = oe_pmem::PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
    for key in 0..KEYS {
        let id = pool.alloc(&mut cost);
        pool.write_slot(id, key, gen, &[(gen * 100 + key) as f32; DIM], &mut cost);
    }
    pool.set_checkpoint_id(gen, &mut cost);
    media.crash(gen)
}

fn snapshot_at(gen: u64) -> Arc<Snapshot> {
    Arc::new(Snapshot::build(image_at(gen), DIM, None).expect("a committed pool"))
}

/// Lookup `n`'s key: every third one is unknown.
fn key_of(n: u64) -> u64 {
    if n % 3 == 2 {
        1_000 + n
    } else {
        n % KEYS
    }
}

/// What the registry shows after `done` lookups: (hits, unknowns,
/// latency samples).
fn counts(snap: &RegistrySnapshot) -> (u64, u64, u64) {
    (
        snap.counter("serve_hits_total").unwrap(),
        snap.counter("serve_unknown_keys_total").unwrap(),
        snap.histogram("serve_lookup_latency_ns").unwrap().count(),
    )
}

/// The exact counts `done` lookups by [`key_of`] must leave.
fn expected(done: u64) -> (u64, u64, u64) {
    let unknown = (0..done).filter(|&n| key_of(n) >= KEYS).count() as u64;
    (done - unknown, unknown, done.div_ceil(256))
}

#[test]
fn a_reader_times_lookups_0_256_512_and_counts_every_one() {
    let handle = SnapshotHandle::new(snapshot_at(1));
    let mut reader = handle.reader();
    for n in 0..LOOKUPS {
        if n == FLIP_AFTER {
            handle.flip(snapshot_at(2));
        }
        let gen = if n < FLIP_AFTER { 1 } else { 2 };
        let (row, _) = reader.lookup(key_of(n));
        match row {
            Some(row) => assert_eq!(row[0], (gen * 100 + key_of(n)) as f32, "lookup {n}"),
            None => assert!(key_of(n) >= KEYS, "lookup {n}: known key missed"),
        }
        // Read while the reader is alive: nothing is held back in it.
        let got = counts(&handle.registry().snapshot());
        assert_eq!(got, expected(n + 1), "after lookup {n}");
    }
    assert_eq!(reader.seen_epoch(), 2, "the reader served across the flip");
    let (hits, unknown, timed) = counts(&handle.registry().snapshot());
    assert_eq!(hits + unknown, LOOKUPS);
    assert_eq!(timed, 3, "lookups 0, 256 and 512 are timed");
    drop(reader);
}
