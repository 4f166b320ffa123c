//! Any root line decodes to a structured outcome, never a panic.
//!
//! The root line of a pool image names the payload width every slot
//! offset, payload decode and buffer is sized from. A width that is not
//! whole `f32`s used to panic the payload decode, and one near `u64::MAX`
//! wrapped the slot size to zero and panicked the scan; a high-water mark
//! of 2⁴⁰ slots on a 64-byte root had the scan free-list every one. A
//! root is now refused unless its width is one to `MAX_PAYLOAD_BYTES`
//! whole `f32`s and its high-water mark is one the allocator could have
//! persisted over the slots the image backs. Seeded mutations
//! of a valid image's root fields go through every entry point that
//! decodes an image — [`PmemPool::open`], [`recover`], [`scan_image`],
//! [`Snapshot::build`] (with and without a retrieval index) and `oectl` —
//! which must agree on whether a pool is there and never panic.

use oe_pmem::scan::{recover, scan_image};
use oe_pmem::PmemPool;
use oe_serve::{save_image, AnnConfig, Snapshot};
use oe_simdevice::rng::Rng;
use oe_simdevice::{Cost, CrashImage, DeviceKind, Media, MediaConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::Arc;

const DIM: usize = 4;
const KEYS: u64 = 24;
/// Root field offsets: magic, payload width, checkpoint id, high water.
const FIELDS: [usize; 4] = [0, 8, 16, 24];

/// A committed image with superseded and uncommitted versions in it.
fn image() -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(1 << 14)));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
    for version in 1..=3 {
        for key in 0..KEYS {
            let id = pool.alloc(&mut cost);
            pool.write_slot(id, key, version, &[key as f32; DIM], &mut cost);
        }
    }
    pool.set_checkpoint_id(2, &mut cost);
    media.crash(5)
}

fn field(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A value for root field `at`: widths around the real one, odd and
/// enormous ones; high-water marks up to 64 Ki slots, from 2¹⁷ to 2⁵⁶
/// slots and ones whose scanned region overflows; any checkpoint id; a
/// near-miss magic.
fn mutation(rng: &mut Rng, at: usize, old: u64) -> u64 {
    match at {
        0 => old ^ 1 << rng.below(64),
        8 => match rng.below(6) {
            0 => rng.below(64),
            1 => 4 * rng.below(1 << 12),
            2 => u64::MAX - rng.below(128),
            3 => 1 << (14 + rng.below(50)),
            4 => rng.next_u64(),
            _ => old + 1 + rng.below(3),
        },
        16 => rng.next_u64() >> rng.below(64),
        _ => match rng.below(5) {
            0 => u64::MAX - rng.below(4),
            1 => u64::MAX / 64 + rng.below(4),
            2 => 1 << (17 + rng.below(40)),
            _ => rng.below(1 << 16),
        },
    }
}

/// Whether the root describes a pool at all, as every entry point sees
/// it; the scan-side entry points also decode every payload they keep.
fn outcomes(image: &CrashImage) -> [bool; 5] {
    let media = || Arc::new(Media::from_crash(image.clone()));
    let mut cost = Cost::new();
    let opened = PmemPool::open(media(), &mut cost);
    let dim = opened.as_ref().map_or(DIM, |p| p.payload_f32s());
    let recovered = recover(media(), &mut cost).map(|(pool, report)| {
        let mut out = vec![0f32; pool.payload_f32s()];
        for r in &report.live {
            pool.read_slot(r.id, &mut out, &mut cost);
        }
    });
    let scanned = scan_image(image, &mut cost).map(|scan| {
        let mut out = vec![0f32; scan.payload_f32s()];
        for r in &scan.report.live {
            scan.read_slot(r.id, &mut out, &mut cost);
        }
    });
    let ann = AnnConfig::paper_default();
    [
        opened.is_some(),
        recovered.is_some(),
        scanned.is_some(),
        Snapshot::build(image.clone(), dim, None).is_some(),
        Snapshot::build(image.clone(), dim, Some(&ann)).is_some(),
    ]
}

#[test]
fn mutated_root_fields_never_panic() {
    let base = image();
    assert_eq!(outcomes(&base), [true; 5], "the unmutated image opens");
    let mut refused = 0;
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x2007_0000 + case);
        let mut bytes = base.bytes().to_vec();
        for _ in 0..1 + rng.below(2) {
            let at = FIELDS[rng.below(4) as usize];
            let value = mutation(&mut rng, at, field(&bytes, at));
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let img = CrashImage::from_parts(bytes, DeviceKind::Pmem);
        let got = catch_unwind(AssertUnwindSafe(|| outcomes(&img)))
            .unwrap_or_else(|_| panic!("case {case}: a mutated root panicked the decode"));
        assert!(
            got == [true; 5] || got == [false; 5],
            "case {case}: entry points disagree: {got:?}"
        );
        refused += !got[0] as u32;
    }
    assert!(refused >= 64, "only {refused} mutated roots refused");
}

/// `oectl verify` and `oectl dump` exit 1 saying "no initialized pool"
/// on the image with root field `at` set to `value`.
fn assert_oectl_refuses(at: usize, value: u64) {
    let mut bytes = image().bytes().to_vec();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let img = CrashImage::from_parts(bytes, DeviceKind::Pmem);
    let path = std::env::temp_dir().join(format!(
        "oe_malformed_root_{at}_{value}_{}",
        std::process::id()
    ));
    save_image(&img, &path).expect("image written");
    for cmd in ["verify", "dump"] {
        let out = Command::new(env!("CARGO_BIN_EXE_oectl"))
            .args([cmd, path.to_str().unwrap(), "1"])
            .output()
            .expect("oectl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {at}={value}: {stderr}");
        assert!(
            stderr.contains("no initialized pool"),
            "{cmd} {at}={value}: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The operator tool says "no pool" for a width no pool can have.
#[test]
fn oectl_refuses_an_impossible_width_in_words() {
    for width in [6u64, u64::MAX - 3] {
        assert_oectl_refuses(8, width);
    }
}

/// ... and for a high-water mark no allocator could have persisted on
/// the image, which it would otherwise walk slot by slot.
#[test]
fn oectl_refuses_an_unbacked_high_water_in_words() {
    for high_water in [1u64 << 17, 1 << 40, 1 << 56] {
        assert_oectl_refuses(24, high_water);
    }
}

/// ... while a sound root is served: `oectl dump` and `top` answer for
/// an image whose high-water mark is past the first allocation chunk,
/// judged against the slots the whole image backs.
#[test]
fn oectl_serves_a_sound_image_past_one_allocation_chunk() {
    let media = Arc::new(Media::new(MediaConfig::pmem(1 << 18)));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
    for key in 0..1_100u64 {
        let id = pool.alloc(&mut cost);
        pool.write_slot(id, key, 1, &[key as f32; DIM], &mut cost);
    }
    pool.set_checkpoint_id(1, &mut cost);
    let path = std::env::temp_dir().join(format!("oe_sound_root_{}", std::process::id()));
    save_image(&media.crash(5), &path).expect("image written");
    let oectl = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_oectl"))
            .args(args)
            .output()
            .expect("oectl runs");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let at = path.to_str().unwrap();
    let dump = oectl(&["dump", at, "7"]);
    assert!(dump.contains("key 7 @ checkpoint 1"), "{dump}");
    assert!(dump.contains("weights : [7.0, 7.0, 7.0, 7.0]"), "{dump}");
    let top = oectl(&["top", at, "7", "3"]);
    assert!(
        top.contains("top-3 items by dot product with key 7 (exact)"),
        "{top}"
    );
    std::fs::remove_file(&path).ok();
}
