//! A pool image of another format version is refused, never "recovered".
//!
//! The slot checksum definition is part of the "OEPM" format. Code that
//! opened an image written under another definition would scan every
//! slot as torn and hand back an empty but successfully recovered node —
//! silent loss of the whole model. Every entry point must refuse such an
//! image instead, and the operator tool must say why in words.

use oe_core::recovery::recover_node;
use oe_core::{NodeConfig, OptimizerKind};
use oe_pmem::scan::recover;
use oe_pmem::PmemPool;
use oe_serve::{save_image, Snapshot};
use oe_simdevice::{Cost, CrashImage, Media, MediaConfig};
use std::process::Command;
use std::sync::Arc;

const DIM: usize = 4;
const KEYS: u64 = 16;

/// A committed checkpoint image; with `magic`, its root is restamped.
fn image(magic: Option<u64>) -> CrashImage {
    let media = Arc::new(Media::new(MediaConfig::pmem(1 << 20)));
    let mut cost = Cost::new();
    let pool = PmemPool::create_on(Arc::clone(&media), DIM * 4, &mut cost);
    for key in 0..KEYS {
        let id = pool.alloc(&mut cost);
        pool.write_slot(id, key, 1, &[key as f32; DIM], &mut cost);
    }
    pool.set_checkpoint_id(1, &mut cost);
    if let Some(magic) = magic {
        media.write_persist(0, &magic.to_le_bytes(), &mut cost);
    }
    media.crash(3)
}

const OEPM_V1: u64 = 0x4F45_504D_0001;

fn sgd_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::small(DIM);
    cfg.optimizer = OptimizerKind::Sgd { lr: 0.05 };
    cfg
}

fn oectl_verify(image: &CrashImage, name: &str) -> std::process::Output {
    let path = std::env::temp_dir().join(format!("oe_old_format_{name}_{}", std::process::id()));
    save_image(image, &path).expect("image written");
    let out = Command::new(env!("CARGO_BIN_EXE_oectl"))
        .arg("verify")
        .arg(&path)
        .output()
        .expect("oectl runs");
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn current_format_image_is_served_and_verified() {
    // The control: the same image with its own magic opens everywhere.
    let img = image(None);
    let mut cost = Cost::new();
    let (_, report) = recover(Arc::new(Media::from_crash(img.clone())), &mut cost).expect("opens");
    assert_eq!(report.live.len() as u64, KEYS);
    assert_eq!(report.corrupt, 0);
    let snap = Snapshot::build(img.clone(), DIM, None).expect("builds");
    assert_eq!(snap.num_keys() as u64, KEYS);
    let out = oectl_verify(&img, "v2");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("verified {KEYS} entries, 0 bad")),
        "{stdout}"
    );
}

#[test]
fn old_format_image_is_refused_by_every_entry_point() {
    let img = image(Some(OEPM_V1));
    let media = || Arc::new(Media::from_crash(img.clone()));
    let mut cost = Cost::new();
    assert!(PmemPool::open(media(), &mut cost).is_none(), "open");
    assert!(recover(media(), &mut cost).is_none(), "scan::recover");
    assert!(
        Snapshot::build(img.clone(), DIM, None).is_none(),
        "Snapshot::build"
    );
    assert!(
        recover_node(media(), sgd_cfg(), &mut cost).is_none(),
        "recover_node"
    );

    let out = oectl_verify(&img, "v1");
    assert!(!out.status.success(), "oectl verify must fail: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"OEPM\" v1") && stderr.contains("not readable"),
        "oectl must name the old format in words: {stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("verified"));
}
