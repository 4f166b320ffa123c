//! Durable snapshot image files.
//!
//! A [`CrashImage`] is the persistence-domain contents of a pool at a
//! crash (or clean shutdown) point. Serializing it to disk turns
//! checkpoints into operable artifacts: copy them to backup storage
//! (the paper's "remote storage in large periods" tier), inspect them
//! with `oectl`, or decode them read-only into a
//! [`crate::snapshot_handle::Snapshot`].
//!
//! File format (little-endian):
//!
//! ```text
//! "OEIMG1" (6 B) | device u8 | reserved u8 | len u64 | bytes …
//! ```

use oe_simdevice::{CrashImage, DeviceKind};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 6] = b"OEIMG1";
/// Magic, device tag, reserved byte and length field.
const HEADER_BYTES: u64 = 16;

/// Snapshot I/O errors.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Not an image file / corrupted header.
    BadFormat(&'static str),
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io: {e}"),
            SnapshotError::BadFormat(m) => write!(f, "bad image: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn device_tag(kind: DeviceKind) -> u8 {
    match kind {
        DeviceKind::Dram => 0,
        DeviceKind::Pmem => 1,
        DeviceKind::FlashSsd => 2,
        DeviceKind::CxlFabric => 3,
    }
}

fn device_from_tag(tag: u8) -> Result<DeviceKind, SnapshotError> {
    match tag {
        0 => Ok(DeviceKind::Dram),
        1 => Ok(DeviceKind::Pmem),
        2 => Ok(DeviceKind::FlashSsd),
        3 => Ok(DeviceKind::CxlFabric),
        _ => Err(SnapshotError::BadFormat("unknown device tag")),
    }
}

/// Write an image to `path` (atomic-enough: write then rename is left to
/// the caller's deployment tooling; this writes directly).
pub fn save_image(image: &CrashImage, path: &Path) -> Result<(), SnapshotError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(MAGIC)?;
    f.write_all(&[device_tag(image.device()), 0])?;
    f.write_all(&(image.bytes().len() as u64).to_le_bytes())?;
    f.write_all(image.bytes())?;
    f.sync_all()?;
    Ok(())
}

/// Read an image from `path`. The header's length field must equal the
/// number of bytes that follow it: nothing is allocated on its word.
pub fn load_image(path: &Path) -> Result<CrashImage, SnapshotError> {
    let mut f = std::fs::File::open(path)?;
    let mut header = [0u8; HEADER_BYTES as usize];
    f.read_exact(&mut header)?;
    if &header[0..6] != MAGIC {
        return Err(SnapshotError::BadFormat("magic mismatch"));
    }
    let device = device_from_tag(header[6])?;
    let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if f.metadata()?.len().checked_sub(HEADER_BYTES) != Some(len) {
        return Err(SnapshotError::BadFormat(
            "length field disagrees with file size",
        ));
    }
    let mut bytes = vec![0u8; len as usize];
    f.read_exact(&mut bytes)?;
    Ok(CrashImage::from_parts(bytes, device))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_simdevice::{Cost, Media, MediaConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oe_snapshot_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn image_roundtrips_through_disk() {
        let media = Media::new(MediaConfig::pmem(4096));
        let mut cost = Cost::new();
        media.write_persist(100, b"persisted payload", &mut cost);
        let image = media.crash(1);

        let path = tmp("roundtrip");
        save_image(&image, &path).unwrap();
        let back = load_image(&path).unwrap();
        assert_eq!(back.bytes(), image.bytes());
        assert_eq!(back.device(), image.device());

        // And it rehydrates into working media.
        let m2 = Media::from_crash(back);
        let mut buf = [0u8; 17];
        m2.read(100, &mut buf, &mut cost);
        assert_eq!(&buf, b"persisted payload");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_garbage_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not an image").unwrap();
        assert!(matches!(
            load_image(&path),
            Err(SnapshotError::BadFormat(_))
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn length_field_must_match_the_file() {
        // A 16-byte header claiming 2^45 bytes must be refused before
        // anything that size is allocated; so must a field one byte short
        // of, or one byte past, what the file holds.
        let image = Media::new(MediaConfig::pmem(256)).crash(1);
        let path = tmp("length");
        save_image(&image, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        for claim in [1u64 << 45, 255, 257, u64::MAX] {
            let mut bytes = good.clone();
            bytes[8..16].copy_from_slice(&claim.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(load_image(&path), Err(SnapshotError::BadFormat(_))),
                "claim {claim}"
            );
        }
        let mut header_only = good[..16].to_vec();
        header_only[8..16].copy_from_slice(&(1u64 << 45).to_le_bytes());
        std::fs::write(&path, &header_only).unwrap();
        assert!(matches!(
            load_image(&path),
            Err(SnapshotError::BadFormat(_))
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        std::fs::write(&path, &trailing).unwrap();
        assert!(matches!(
            load_image(&path),
            Err(SnapshotError::BadFormat(_))
        ));
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load_image(&path).unwrap().bytes(), image.bytes());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_image(Path::new("/nonexistent/oe.img")),
            Err(SnapshotError::Io(_))
        ));
    }
}
