//! Incremental checkpoint log (the paper's "Incremental Checkpoint" from
//! CheckFreq, ref. 11; Table IV).
//!
//! Entries dirtied since the previous checkpoint are appended to a log on
//! a checkpoint device (SSD or PMem); a header records the committed
//! batch id. The dump is *synchronous*: training pauses while it runs —
//! and on PMem the dump's writes additionally contend with training I/O
//! (the effect Fig. 12 quantifies; the contention is modelled by the
//! trainer from the charged `PmemWrite`/`SsdTransfer` time).
//!
//! Replay scans the log and keeps the newest record per key with version
//! ≤ the committed id, which is how `DRAM-PS` recovers in Fig. 14.

use oe_core::Key;
use oe_simdevice::sync::Mutex;
use oe_simdevice::{Cost, Media, MediaConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Which device holds the checkpoint log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptDevice {
    /// Flash SSD (the traditional choice).
    Ssd,
    /// PMem used as a fast checkpoint file device.
    Pmem,
}

const HEADER_BYTES: u64 = 64;
const MAGIC: u64 = 0x4F45_434B_0001;
/// Dump writes are buffered into chunks of this many bytes so the
/// per-write device latency amortizes (checkpoint dumps are sequential).
const CHUNK_BYTES: usize = 256 * 1024;
/// Per-entry CPU bookkeeping of the CheckFreq-style incremental
/// checkpointer: dirty-set tracking, key serialization, offset-map
/// update, and write-ahead metadata logging (~1 µs/entry measured for
/// hash-table checkpointers; this is what makes frequent incremental
/// checkpoints expensive in the paper's Fig. 12).
const CKPT_ENTRY_CPU_NS: u64 = 1_000;

/// Append-only checkpoint log with a committed-batch header.
pub struct CkptLog {
    media: Arc<Media>,
    payload_f32s: usize,
    state: Mutex<LogState>,
}

struct LogState {
    next_off: u64,
    records: u64,
    committed: u64,
}

impl CkptLog {
    /// Record size on media.
    fn record_bytes(&self) -> u64 {
        16 + self.payload_f32s as u64 * 4
    }

    /// Create an empty log on a fresh device.
    pub fn create(device: CkptDevice, payload_f32s: usize, capacity: usize) -> Self {
        let media = match device {
            CkptDevice::Ssd => Media::new(MediaConfig::ssd(capacity)),
            CkptDevice::Pmem => Media::new(MediaConfig::pmem(capacity)),
        };
        let log = Self {
            media: Arc::new(media),
            payload_f32s,
            state: Mutex::new(LogState {
                next_off: HEADER_BYTES,
                records: 0,
                committed: 0,
            }),
        };
        let mut cost = Cost::new();
        log.write_header(0, 0, &mut cost);
        log
    }

    fn write_header(&self, committed: u64, records: u64, cost: &mut Cost) {
        let mut h = [0u8; HEADER_BYTES as usize];
        h[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        h[8..16].copy_from_slice(&committed.to_le_bytes());
        h[16..24].copy_from_slice(&records.to_le_bytes());
        h[24..32].copy_from_slice(&(self.payload_f32s as u64).to_le_bytes());
        self.media.write(0, &h, cost);
        self.media.persist(0, HEADER_BYTES, cost);
    }

    /// The device media (crash/restore in tests).
    pub fn media(&self) -> &Arc<Media> {
        &self.media
    }

    /// Batch id of the last completed dump.
    pub fn committed(&self) -> u64 {
        self.state.lock().committed
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.state.lock().records
    }

    /// Synchronously dump `entries` as the checkpoint for `batch`.
    /// Charges the full transfer to `cost` (training is paused meanwhile).
    pub fn dump<'a, I>(&self, entries: I, batch: u64, cost: &mut Cost) -> u64
    where
        I: Iterator<Item = (Key, &'a [f32])>,
    {
        let mut g = self.state.lock();
        let mut buf: Vec<u8> = Vec::with_capacity(CHUNK_BYTES + self.record_bytes() as usize);
        let mut written = 0u64;
        for (key, payload) in entries {
            assert_eq!(payload.len(), self.payload_f32s, "payload shape");
            cost.charge(oe_simdevice::CostKind::Cpu, CKPT_ENTRY_CPU_NS);
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&batch.to_le_bytes());
            for &v in payload {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            written += 1;
            if buf.len() >= CHUNK_BYTES {
                self.media.write(g.next_off, &buf, cost);
                self.media.persist(g.next_off, buf.len() as u64, cost);
                g.next_off += buf.len() as u64;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.media.write(g.next_off, &buf, cost);
            self.media.persist(g.next_off, buf.len() as u64, cost);
            g.next_off += buf.len() as u64;
        }
        g.records += written;
        g.committed = batch;
        let (c, r) = (g.committed, g.records);
        drop(g);
        self.write_header(c, r, cost);
        written
    }

    /// Open a log from (possibly crash-surviving) media and replay it:
    /// newest record per key with version ≤ the committed header id.
    /// Returns `(committed_batch, entries)`.
    pub fn replay(media: &Arc<Media>, cost: &mut Cost) -> Option<(u64, HashMap<Key, Vec<f32>>)> {
        let mut h = [0u8; HEADER_BYTES as usize];
        if media.len() < HEADER_BYTES as usize {
            return None;
        }
        media.read(0, &mut h, cost);
        if u64::from_le_bytes(h[0..8].try_into().unwrap()) != MAGIC {
            return None;
        }
        let committed = u64::from_le_bytes(h[8..16].try_into().unwrap());
        let records = u64::from_le_bytes(h[16..24].try_into().unwrap());
        let payload_f32s = u64::from_le_bytes(h[24..32].try_into().unwrap()) as usize;
        let rec_bytes = 16 + payload_f32s * 4;

        let mut newest: HashMap<Key, (u64, Vec<f32>)> = HashMap::new();
        // Sequential chunked read: recovery streams the log, it does not
        // random-access records.
        let total_bytes = records as usize * rec_bytes;
        let mut log = vec![0u8; total_bytes];
        let mut read_off = 0usize;
        while read_off < total_bytes {
            let n = (total_bytes - read_off).min(CHUNK_BYTES);
            media.read(
                HEADER_BYTES + read_off as u64,
                &mut log[read_off..read_off + n],
                cost,
            );
            read_off += n;
        }
        let mut off = 0usize;
        for _ in 0..records {
            let rec = &log[off..off + rec_bytes];
            off += rec_bytes;
            let key = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            let version = u64::from_le_bytes(rec[8..16].try_into().unwrap());
            if version > committed {
                continue; // torn dump beyond the committed header
            }
            let entry = newest.entry(key).or_insert_with(|| (0, Vec::new()));
            if entry.1.is_empty() || version >= entry.0 {
                let mut payload = vec![0f32; payload_f32s];
                for (i, chunk) in rec[16..].chunks_exact(4).enumerate() {
                    payload[i] = f32::from_le_bytes(chunk.try_into().unwrap());
                }
                *entry = (version, payload);
            }
        }
        Some((
            committed,
            newest.into_iter().map(|(k, (_, p))| (k, p)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_simdevice::CostKind;

    #[test]
    fn dump_and_replay_roundtrip() {
        let log = CkptLog::create(CkptDevice::Ssd, 4, 1 << 20);
        let entries: Vec<(Key, Vec<f32>)> = (0..10u64).map(|k| (k, vec![k as f32; 4])).collect();
        let mut cost = Cost::new();
        let n = log.dump(
            entries.iter().map(|(k, p)| (*k, p.as_slice())),
            3,
            &mut cost,
        );
        assert_eq!(n, 10);
        assert_eq!(log.committed(), 3);
        assert!(cost.ns(CostKind::SsdTransfer) > 0);

        let mut rcost = Cost::new();
        let (committed, map) = CkptLog::replay(log.media(), &mut rcost).unwrap();
        assert_eq!(committed, 3);
        assert_eq!(map.len(), 10);
        assert_eq!(map[&7], vec![7.0; 4]);
    }

    #[test]
    fn incremental_dumps_keep_newest() {
        let log = CkptLog::create(CkptDevice::Pmem, 2, 1 << 20);
        let mut cost = Cost::new();
        log.dump([(1u64, [1.0f32, 1.0].as_slice())].into_iter(), 1, &mut cost);
        log.dump(
            [
                (1u64, [2.0f32, 2.0].as_slice()),
                (2u64, [9.0f32, 9.0].as_slice()),
            ]
            .into_iter(),
            2,
            &mut cost,
        );
        let (committed, map) = CkptLog::replay(log.media(), &mut cost).unwrap();
        assert_eq!(committed, 2);
        assert_eq!(map[&1], vec![2.0, 2.0]);
        assert_eq!(map[&2], vec![9.0, 9.0]);
    }

    #[test]
    fn ssd_dump_is_much_slower_than_pmem_dump() {
        // Compare the device-transfer portion (the per-entry CPU
        // bookkeeping is identical for both devices).
        let mk = |dev| {
            let log = CkptLog::create(dev, 64, 1 << 22);
            let payload = vec![0.5f32; 64];
            let mut cost = Cost::new();
            log.dump((0..2000u64).map(|k| (k, payload.as_slice())), 1, &mut cost);
            cost.ns(CostKind::SsdTransfer) + cost.ns(CostKind::PmemWrite)
        };
        let ssd = mk(CkptDevice::Ssd);
        let pmem = mk(CkptDevice::Pmem);
        assert!(ssd > 2 * pmem, "ssd={ssd} pmem={pmem}");
    }

    #[test]
    fn replay_rejects_uninitialized_media() {
        let media = Arc::new(Media::new(MediaConfig::ssd(1024)));
        let mut cost = Cost::new();
        assert!(CkptLog::replay(&media, &mut cost).is_none());
    }

    #[test]
    fn empty_dump_still_commits() {
        let log = CkptLog::create(CkptDevice::Ssd, 4, 1 << 16);
        let mut cost = Cost::new();
        let n = log.dump(std::iter::empty(), 5, &mut cost);
        assert_eq!(n, 0);
        assert_eq!(log.committed(), 5);
    }
}
