//! On-media layout of the pool: root object and slot headers.
//!
//! ```text
//! offset 0                64                64 + slot_bytes
//! ┌───────────────────┬──────────────────┬──────────────────┬─ ─ ─
//! │ root (1 line)     │ slot 0           │ slot 1           │ ...
//! │ magic,            │ ┌header┐┌payload┐│                  │
//! │ payload_bytes,    │ │ 24 B ││ N*4 B ││                  │
//! │ ckpt_batch_id,    │ └──────┘└───────┘│                  │
//! │ slots_high_water  │ (padded to 64 B) │                  │
//! └───────────────────┴──────────────────┴──────────────────┴─ ─ ─
//! ```
//!
//! Slot header fields are written little-endian; the checksum is
//! [`oe_simdevice::integrity_hash`] over key ‖ version ‖ payload (the
//! little-endian byte stream, so an image reads the same on any host)
//! folded to 32 bits, so torn payloads are detectable even if a buggy
//! ordering marked the slot `VALID`. The fold keeps the slot header at
//! 24 B at the price of the hash's certainty: a damaged slot passes with
//! probability 2⁻³².
//!
//! Format "OEPM" v2. The root magic carries the version because the
//! checksum definition is part of the format: code that opened a pool
//! written under another definition would see every slot as torn and
//! "recover" an empty node, so any other magic — an older "OEPM"
//! included — is refused at [`crate::PmemPool::open`].

use oe_simdevice::integrity_hash;

/// Size of the persistent root object (one cache line).
pub const ROOT_BYTES: u64 = 64;

/// Magic value identifying an initialized pool.
pub const POOL_MAGIC: u64 = 0x4F45_504D_0002_u64; // "OEPM" v2

/// Serialized slot header size in bytes.
pub const HEADER_BYTES: u64 = 24;

/// Offsets within the root line.
pub(crate) mod root_off {
    pub const MAGIC: u64 = 0;
    pub const PAYLOAD_BYTES: u64 = 8;
    pub const CKPT_ID: u64 = 16;
    pub const HIGH_WATER: u64 = 24;
}

/// The root line, decoded.
pub(crate) struct Root {
    pub payload_bytes: usize,
    pub checkpoint_id: u64,
    pub high_water: u64,
}

impl Root {
    /// Decode the first [`ROOT_BYTES`] of a pool. `None` if `bytes` is
    /// shorter than a root line or its magic is not this format's.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let line = bytes.get(..ROOT_BYTES as usize)?;
        let field = |off: u64| {
            u64::from_le_bytes(line[off as usize..][..8].try_into().expect("8-byte field"))
        };
        (field(root_off::MAGIC) == POOL_MAGIC).then(|| Self {
            payload_bytes: field(root_off::PAYLOAD_BYTES) as usize,
            checkpoint_id: field(root_off::CKPT_ID),
            high_water: field(root_off::HIGH_WATER),
        })
    }
}

/// On-media footprint of one slot: header + payload, padded to a line.
pub(crate) fn slot_bytes(payload_bytes: usize) -> u64 {
    (HEADER_BYTES + payload_bytes as u64).div_ceil(64) * 64
}

/// Lifecycle state of a slot, stored durably in its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SlotState {
    /// Slot is unused (or retired); ignored by recovery.
    Free = 0,
    /// Slot holds a fully persisted entry.
    Valid = 0xA11D,
}

impl SlotState {
    /// Decode from the raw header word; anything unrecognized is `Free`
    /// (a torn header can only produce garbage, which must read as free).
    pub fn from_raw(raw: u32) -> Self {
        if raw == SlotState::Valid as u32 {
            SlotState::Valid
        } else {
            SlotState::Free
        }
    }
}

/// Decoded slot header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotHeader {
    /// Slot lifecycle state.
    pub state: SlotState,
    /// [`payload_checksum`] of key ‖ version ‖ payload.
    pub checksum: u32,
    /// Embedding entry key.
    pub key: u64,
    /// Batch id of the last update reflected in the payload.
    pub version: u64,
}

impl SlotHeader {
    /// Serialize into a 24-byte buffer.
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut b = [0u8; HEADER_BYTES as usize];
        b[0..4].copy_from_slice(&(self.state as u32).to_le_bytes());
        b[4..8].copy_from_slice(&self.checksum.to_le_bytes());
        b[8..16].copy_from_slice(&self.key.to_le_bytes());
        b[16..24].copy_from_slice(&self.version.to_le_bytes());
        b
    }

    /// Decode from a 24-byte buffer.
    pub fn decode(b: &[u8]) -> Self {
        assert!(b.len() >= HEADER_BYTES as usize);
        Self {
            state: SlotState::from_raw(u32::from_le_bytes(b[0..4].try_into().unwrap())),
            checksum: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            key: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            version: u64::from_le_bytes(b[16..24].try_into().unwrap()),
        }
    }

    /// Classify one whole slot (header + payload) from its bytes: `Ok`
    /// with the header of a valid slot whose checksum holds, or `Err`
    /// with the state that made it unreadable — `Free`, or `Valid` for a
    /// valid-marked slot whose checksum does not match (torn).
    pub(crate) fn verified(slot: &[u8]) -> Result<Self, SlotState> {
        let header = Self::decode(slot);
        let payload = &slot[HEADER_BYTES as usize..];
        if header.state != SlotState::Valid
            || payload_checksum(header.key, header.version, payload) != header.checksum
        {
            return Err(header.state);
        }
        Ok(header)
    }
}

/// Integrity hash of key ‖ version ‖ payload bytes, folded to 32 bits.
pub fn payload_checksum(key: u64, version: u64, payload: &[u8]) -> u32 {
    let h = integrity_hash(&[&key.to_le_bytes(), &version.to_le_bytes(), payload]);
    (h ^ (h >> 32)) as u32
}

/// Write a payload of `f32` weights as little-endian bytes into `out`
/// (one bulk pass: a plain copy on little-endian hosts).
pub fn f32s_to_bytes(src: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), src.len() * 4, "payload size mismatch");
    for (dst, v) in out.chunks_exact_mut(4).zip(src) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Convert little-endian bytes back to `f32`s (into `out`).
pub fn bytes_to_f32s(src: &[u8], out: &mut [f32]) {
    assert_eq!(src.len(), out.len() * 4, "payload size mismatch");
    for (v, chunk) in out.iter_mut().zip(src.chunks_exact(4)) {
        *v = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = SlotHeader {
            state: SlotState::Valid,
            checksum: 0xDEADBEEF,
            key: 42,
            version: 7,
        };
        let enc = h.encode();
        assert_eq!(SlotHeader::decode(&enc), h);
    }

    #[test]
    fn garbage_state_reads_as_free() {
        assert_eq!(SlotState::from_raw(0), SlotState::Free);
        assert_eq!(SlotState::from_raw(0xA11D), SlotState::Valid);
        assert_eq!(SlotState::from_raw(12345), SlotState::Free);
    }

    #[test]
    fn checksum_sensitive_to_all_inputs() {
        let p = [1u8, 2, 3, 4];
        let base = payload_checksum(1, 1, &p);
        assert_ne!(base, payload_checksum(2, 1, &p));
        assert_ne!(base, payload_checksum(1, 2, &p));
        assert_ne!(base, payload_checksum(1, 1, &[1, 2, 3, 5]));
        assert_eq!(base, payload_checksum(1, 1, &p));
    }

    #[test]
    fn checksum_is_the_shared_hash_of_the_concatenation() {
        // key ‖ version ‖ payload is hashed in place, part by part; the
        // value is that of the one contiguous little-endian stream.
        let payload: Vec<u8> = (0..=255).collect();
        let (key, version) = (0x0102_0304_0506_0708u64, 77u64);
        let mut stream = key.to_le_bytes().to_vec();
        stream.extend(version.to_le_bytes());
        stream.extend(&payload);
        let h = integrity_hash(&[&stream]);
        assert_eq!(
            payload_checksum(key, version, &payload),
            (h ^ (h >> 32)) as u32
        );
    }

    #[test]
    fn f32_conversion_is_per_element_le_bytes_and_roundtrips() {
        for n in [0usize, 1, 7, 8, 9, 1023] {
            let vals: Vec<f32> = (0..n as u32)
                .map(|i| match i % 4 {
                    0 => f32::from_bits(0x7FC0_0001 ^ (i << 3)), // NaN payload bits
                    1 => -(i as f32) * 0.25,
                    2 => f32::MIN_POSITIVE,
                    _ => f32::from_bits(i.wrapping_mul(0x9E37_79B9)),
                })
                .collect();
            let want: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut bytes = vec![0xAAu8; n * 4];
            f32s_to_bytes(&vals, &mut bytes);
            assert_eq!(bytes, want, "n = {n}");
            let mut back = vec![0f32; n];
            bytes_to_f32s(&bytes, &mut back);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&vals), "n = {n}");
        }
    }
}
