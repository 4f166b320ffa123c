//! The one integrity hash of the repository: the wire frame checksum
//! (`oe-net`) and the PMem slot checksum (`oe-pmem`) are both this
//! function, so a frame and a pool image agree on what "intact" means.
//!
//! It is defined on the *byte stream* `parts[0] ‖ parts[1] ‖ …`, read
//! little-endian, so the value does not depend on the platform or on how
//! the caller happened to split its input (nobody copies to hash):
//!
//! 1. Every full 32-byte block feeds four independent 64-bit lanes, one
//!    little-endian word each: `lane = rotl(lane + word·P2, 31)·P1`. The
//!    lanes carry no dependency on each other, so the four multiply
//!    chains run in parallel — this is what takes the hash from one byte
//!    per dependent multiply (FNV-1a, which it replaced) to one *block*.
//! 2. The lanes fold into `h = P5 + len`, one after the other:
//!    `h = rotl(h ^ lane, 27)·P1 + P4`.
//! 3. The last `len % 32` bytes go in one at a time:
//!    `h = rotl(h ^ byte·P5, 11)·P1`.
//! 4. A final xor-shift/multiply avalanche spreads every bit of `h`.
//!
//! **What it guarantees.** Every step is a bijection of the running
//! state for a fixed input word and a bijection of the input word for a
//! fixed state (add, xor, rotate, multiply by an odd constant, and
//! xor-shift are all invertible on `u64`). Two equal-length inputs that
//! differ only inside one aligned word — or one tail byte — therefore
//! *always* hash differently: no single-bit flip, and no burst confined
//! to a word, can go unnoticed at 64 bits. Anything wider collides with
//! probability about 2⁻⁶⁴. The lane round pre-multiplies the word and
//! rotates between its two multiplies (the xxHash64 round) so that no
//! input bit has a data-independent path through a lane; a cheaper
//! one-multiply round lets a fixed two-bit pattern cancel with
//! certainty.
//!
//! It is an integrity check against torn writes and flipped bits, not a
//! MAC: anyone who can choose the bytes can also recompute the hash.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per step of the four lanes.
const BLOCK: usize = 32;

/// Feed one 32-byte block to the lanes, one little-endian word each.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        *lane = lane
            .wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1);
    }
}

/// 64-bit integrity hash of the concatenation of `parts` (see the module
/// docs for the definition and what it guarantees).
pub fn integrity_hash(parts: &[&[u8]]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    // Bytes of a block that straddles two parts (and, at the end, the
    // tail) wait here; everything else is hashed where it lies.
    let mut held = [0u8; BLOCK];
    let mut held_len = 0;
    let mut len = 0u64;
    for &part in parts {
        len = len.wrapping_add(part.len() as u64);
        let mut rest = part;
        if held_len > 0 {
            let take = rest.len().min(BLOCK - held_len);
            held[held_len..held_len + take].copy_from_slice(&rest[..take]);
            held_len += take;
            rest = &rest[take..];
            if held_len < BLOCK {
                continue;
            }
            absorb(&mut lanes, &held);
        }
        let mut blocks = rest.chunks_exact(BLOCK);
        for block in &mut blocks {
            absorb(&mut lanes, block);
        }
        let tail = blocks.remainder();
        held[..tail.len()].copy_from_slice(tail);
        held_len = tail.len();
    }
    let mut h = P5.wrapping_add(len);
    for lane in lanes {
        h = (h ^ lane).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    for &byte in &held[..held_len] {
        h = (h ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 byte stream: seeded inputs without an RNG dependency.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    fn assert_every_flip_detected(data: &mut [u8], bit_positions: impl Iterator<Item = usize>) {
        let clean = integrity_hash(&[data]);
        for pos in bit_positions {
            data[pos / 8] ^= 1 << (pos % 8);
            assert_ne!(
                integrity_hash(&[data]),
                clean,
                "len {}: flip of bit {pos} went unnoticed",
                data.len()
            );
            data[pos / 8] ^= 1 << (pos % 8);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_for_every_short_length() {
        for len in 0..=160usize {
            let mut data = bytes(len as u64, len);
            assert_every_flip_detected(&mut data, 0..len * 8);
        }
    }

    #[test]
    fn single_bit_flips_are_detected_up_to_64_kib_for_every_tail_length() {
        // Lengths up to 64 KiB whose tails cover 0..=31; on each, a
        // stride-sampled set of bit positions plus the first and last
        // blocks and the whole tail.
        for tail in 0..BLOCK {
            let blocks = [1usize, 17, 301, 2047][tail % 4];
            let len = blocks * BLOCK + tail;
            assert!(len <= 64 * 1024);
            let mut data = bytes(0xA5A5 + tail as u64, len);
            let bits = len * 8;
            let sampled = (0..bits).step_by(8 * 61 + 3);
            let edges = (0..BLOCK * 8).chain(bits - (BLOCK + tail) * 8..bits);
            assert_every_flip_detected(&mut data, sampled.chain(edges));
        }
        let mut data = bytes(9, 64 * 1024);
        assert_every_flip_detected(&mut data, (0..64 * 1024 * 8).step_by(4099));
    }

    #[test]
    fn multi_part_input_hashes_like_the_concatenation() {
        // The two shapes callers use — `header[..20] ‖ body` on the wire,
        // `key ‖ version ‖ payload` on media — and every other split.
        for len in [0usize, 1, 19, 20, 21, 31, 32, 33, 52, 63, 64, 65, 272, 1000] {
            let data = bytes(len as u64 ^ 0x77, len);
            let whole = integrity_hash(&[&data]);
            for a in 0..=len {
                assert_eq!(
                    integrity_hash(&[&data[..a], &data[a..]]),
                    whole,
                    "len {len} split at {a}"
                );
            }
            for (a, b) in [(8usize, 16usize), (0, 0), (3, 3), (20, 52), (31, 33)] {
                if a <= b && b <= len {
                    assert_eq!(
                        integrity_hash(&[&data[..a], &data[a..b], &[], &data[b..]]),
                        whole,
                        "len {len} split at {a}, {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn golden_vectors_are_pinned() {
        // The wire (protocol v4) and media ("OEPM" v2) formats are
        // defined by these values: changing one is a format change.
        assert_eq!(integrity_hash(&[]), 0x7EE0_5998_CECD_CD91);
        assert_eq!(integrity_hash(&[b"OpenEmbedding"]), 0x37EA_B13F_80F1_1977);
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(integrity_hash(&[&ramp]), 0x289D_C678_B6A7_7EC3);
        assert_eq!(
            integrity_hash(&[&bytes(20230403, 4099)]),
            0x5FC7_C47D_4426_D6DF
        );
    }

    #[test]
    fn length_is_part_of_the_hash() {
        // Trailing zeros change the value even though they add nothing
        // to xor/add-style accumulators.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=96 {
            assert!(seen.insert(integrity_hash(&[&vec![0u8; len]])), "len {len}");
        }
    }
}
