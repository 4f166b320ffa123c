//! A simulated byte-addressable storage media with crash semantics.
//!
//! [`Media`] models the path a store takes on a real machine with Optane
//! PMem:
//!
//! ```text
//!   store → CPU cache (volatile)          [Media::write   → Dirty line]
//!   CLWB  → write-pending queue           [Media::flush   → Flushed line]
//!   SFENCE→ persistence domain (durable)  [Media::fence   → durable bytes]
//! ```
//!
//! On a crash ([`Media::crash`]), dirty lines vanish, fenced lines survive,
//! and flushed-but-unfenced lines each survive independently with
//! probability ½ (seeded, deterministic) — the torn-write window that makes
//! real PMem programming error-prone (paper §II-B, refs. 18–22).
//!
//! A `Media` with [`DeviceKind::Dram`] is volatile: crash loses everything.
//! A `Media` with [`DeviceKind::FlashSsd`] is write-through durable (we
//! model checkpoint files on SSD as synced on write).
//!
//! All operations charge virtual time to a [`Cost`] sink using the
//! device's [`DeviceTiming`].
//!
//! Most stores are persisted right away ([`Media::write_persist`]), so
//! the volatile shadow holds a handful of lines at a time: it is a `Vec`
//! sorted by line number, and one store-and-persist takes the media lock
//! once. Over an empty shadow, with no crash capture due at its events,
//! a store-and-persist skips the shadow and stores in place.
//!
//! The media remembers how far its durable bytes were ever stored to;
//! past that bound they are the zeros it was created or grown with, so
//! a crash image copies only the stored prefix and leaves the rest of
//! its zeroed allocation untouched.

use crate::cost::{Cost, CostKind};
use crate::device::{DeviceKind, DeviceTiming};
use crate::rng::Rng;
use crate::sync::RwLock;
use std::ops::Range;

/// Cache line size in bytes — the persistence granularity of PMem.
pub const CACHE_LINE: usize = 64;

/// Fence (SFENCE + drain) CPU cost in nanoseconds.
const FENCE_NS: u64 = 30;

/// Configuration for a [`Media`].
#[derive(Debug, Clone, Copy)]
pub struct MediaConfig {
    /// Device class being simulated.
    pub device: DeviceKind,
    /// Initial capacity in bytes (the media grows on demand beyond this).
    pub capacity: usize,
}

impl MediaConfig {
    /// PMem media with the given initial capacity.
    pub fn pmem(capacity: usize) -> Self {
        Self {
            device: DeviceKind::Pmem,
            capacity,
        }
    }

    /// Volatile DRAM media.
    pub fn dram(capacity: usize) -> Self {
        Self {
            device: DeviceKind::Dram,
            capacity,
        }
    }

    /// Write-through SSD media.
    pub fn ssd(capacity: usize) -> Self {
        Self {
            device: DeviceKind::FlashSsd,
            capacity,
        }
    }
}

#[derive(Clone)]
struct DirtyLine {
    data: [u8; CACHE_LINE],
    /// CLWB issued but not yet fenced.
    flushed: bool,
}

/// A programmable crash trigger for exhaustive crash-point enumeration:
/// when the `at_event`-th persistence event (see
/// [`Media::persistence_events`]) is about to execute, the media captures
/// a [`CrashImage`] of the state *before* that event applies, resolving
/// torn writes with `seed`. The run then continues normally; the harness
/// collects the image with [`Media::take_crash_capture`] afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Zero-based persistence-event index to crash at. The image reflects
    /// events `0..at_event` having executed; event `at_event` has not.
    pub at_event: u64,
    /// Torn-write resolution seed (same semantics as [`Media::crash`]).
    pub seed: u64,
}

struct MediaInner {
    /// Bytes guaranteed to survive a crash (the persistence domain).
    durable: Vec<u8>,
    /// End of the highest byte range ever stored into `durable`; every
    /// byte past it is zero.
    written: usize,
    /// Volatile CPU-cache shadow: (line number, line), sorted by line
    /// number, one entry per line.
    lines: Vec<(u64, DirtyLine)>,
    /// Snapshots of flushed lines that were overwritten before a fence:
    /// their flushed content may still land on media. Applied in order.
    pending: Vec<(u64, [u8; CACHE_LINE])>,
    /// Monotonic count of persistence events executed so far (every
    /// PMem `flush` and `fence` call; `persist` counts as two).
    events: u64,
    /// Armed crash trigger, if any.
    plan: Option<CrashPlan>,
    /// Image captured by the armed plan.
    capture: Option<CrashImage>,
}

/// The durable state extracted at a crash point. Rehydrate with
/// [`Media::from_crash`] to simulate a post-restart process.
#[derive(Clone)]
pub struct CrashImage {
    bytes: Vec<u8>,
    device: DeviceKind,
}

impl CrashImage {
    /// Raw durable bytes at the crash point.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Device class the image was captured from.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Reconstruct an image (snapshot-file loading).
    pub fn from_parts(bytes: Vec<u8>, device: DeviceKind) -> Self {
        Self { bytes, device }
    }
}

/// Simulated storage media. See module docs.
pub struct Media {
    timing: DeviceTiming,
    inner: RwLock<MediaInner>,
}

impl Media {
    /// Create a media per `cfg`, zero-initialized.
    pub fn new(cfg: MediaConfig) -> Self {
        Self {
            timing: DeviceTiming::of(cfg.device),
            inner: RwLock::new(MediaInner {
                durable: vec![0u8; cfg.capacity],
                written: 0,
                lines: Vec::new(),
                pending: Vec::new(),
                events: 0,
                plan: None,
                capture: None,
            }),
        }
    }

    /// Rebuild a media from a crash image (simulates process restart with
    /// the persistence domain contents intact).
    pub fn from_crash(image: CrashImage) -> Self {
        Self {
            timing: DeviceTiming::of(image.device),
            inner: RwLock::new(MediaInner {
                written: image.bytes.len(),
                durable: image.bytes,
                lines: Vec::new(),
                pending: Vec::new(),
                events: 0,
                plan: None,
                capture: None,
            }),
        }
    }

    /// The device timing model in use.
    pub fn timing(&self) -> &DeviceTiming {
        &self.timing
    }

    /// Current capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.read().durable.len()
    }

    /// True if capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lines currently dirty or flushed-unfenced (volatile).
    pub fn volatile_lines(&self) -> usize {
        let g = self.inner.read();
        g.lines.len() + g.pending.len()
    }

    fn line_of(off: u64) -> u64 {
        off / CACHE_LINE as u64
    }

    fn is_pmem(&self) -> bool {
        self.timing.kind == DeviceKind::Pmem
    }

    /// Write `data` at `off`. For PMem this lands in the volatile cache
    /// shadow (cheap CPU store); durability requires [`Self::flush`] +
    /// [`Self::fence`]. For DRAM/SSD the write is applied directly
    /// (volatile resp. write-through) and charged at device write cost.
    pub fn write(&self, off: u64, data: &[u8], cost: &mut Cost) {
        self.write_in(&mut self.inner.write(), off, data, cost);
    }

    /// Store, CLWB and SFENCE under one lock: the same bytes, costs and
    /// persistence events (a flush, then a fence) as [`Self::write`]
    /// followed by [`Self::persist`] of the written range.
    ///
    /// When nobody can observe the store half-done — the line shadow is
    /// empty and no armed [`CrashPlan`] falls on either of its two
    /// events — the bytes go straight into the durable image, which is
    /// where the fence would have put them (the private `store_durable`).
    pub fn write_persist(&self, off: u64, data: &[u8], cost: &mut Cost) {
        let mut g = self.inner.write();
        if self.is_pmem() && !data.is_empty() && g.unobserved() {
            self.store_durable(&mut g, off, data, cost);
            return;
        }
        self.write_in(&mut g, off, data, cost);
        if self.is_pmem() {
            self.flush_in(&mut g, off, data.len() as u64, cost);
            self.fence_in(&mut g, cost);
        }
    }

    /// `write_persist` of a non-empty store over an empty shadow, with
    /// no capture due: the shadow path would copy the covered lines out
    /// of `durable`, overlay `data`, flush exactly those lines and fence
    /// them back. So this stores `data` in place and leaves `durable`,
    /// `written`, the event count and every charge as that path does —
    /// growth included: `durable` covers the store, then its last line.
    fn store_durable(&self, g: &mut MediaInner, off: u64, data: &[u8], cost: &mut Cost) {
        let end = off as usize + data.len();
        let last = Self::line_of(end as u64 - 1);
        let lines = last - Self::line_of(off) + 1;
        let line_end = (last as usize + 1) * CACHE_LINE;
        if g.durable.len() < end {
            g.durable.resize(end.next_power_of_two(), 0);
        }
        if g.durable.len() < line_end {
            g.durable.resize(line_end.next_power_of_two(), 0);
        }
        g.durable[off as usize..end].copy_from_slice(data);
        g.written = g.written.max(line_end);
        g.events += 2;
        cost.charge(CostKind::Cpu, 1 + data.len() as u64 / 64);
        cost.charge(
            CostKind::PmemWrite,
            self.timing.write_ns(lines * CACHE_LINE as u64),
        );
        cost.charge(CostKind::Cpu, FENCE_NS);
    }

    fn write_in(&self, g: &mut MediaInner, off: u64, data: &[u8], cost: &mut Cost) {
        if data.is_empty() {
            return;
        }
        let end = off as usize + data.len();
        if g.durable.len() < end {
            g.durable.resize(end.next_power_of_two(), 0);
        }
        if !self.is_pmem() {
            g.durable[off as usize..end].copy_from_slice(data);
            g.written = g.written.max(end);
            cost.charge(
                self.timing.write_cost_kind(),
                self.timing.write_ns(data.len() as u64),
            );
            return;
        }
        // Store goes through the CPU cache: charge only the store issue
        // cost; persistence is charged at flush time.
        cost.charge(CostKind::Cpu, 1 + data.len() as u64 / 64);
        let first = Self::line_of(off);
        let last = Self::line_of(off + data.len() as u64 - 1);
        for line in first..=last {
            let line_start = line * CACHE_LINE as u64;
            let i = match g.lines.binary_search_by_key(&line, |&(l, _)| l) {
                Ok(i) => {
                    let dl = &mut g.lines[i].1;
                    if dl.flushed {
                        // The flushed version may still persist:
                        // snapshot it before overwriting.
                        g.pending.push((line, dl.data));
                        dl.flushed = false;
                    }
                    i
                }
                Err(i) => {
                    // Base content: the durable bytes.
                    let mut base = [0u8; CACHE_LINE];
                    let s = line_start as usize;
                    let e = (s + CACHE_LINE).min(g.durable.len());
                    base[..e - s].copy_from_slice(&g.durable[s..e]);
                    let dl = DirtyLine {
                        data: base,
                        flushed: false,
                    };
                    g.lines.insert(i, (line, dl));
                    i
                }
            };
            // Copy the overlapping part of `data` into the line.
            let copy_start = off.max(line_start);
            let copy_end = (off + data.len() as u64).min(line_start + CACHE_LINE as u64);
            let src = (copy_start - off) as usize..(copy_end - off) as usize;
            let dst = (copy_start - line_start) as usize..(copy_end - line_start) as usize;
            g.lines[i].1.data[dst].copy_from_slice(&data[src]);
        }
    }

    /// Index range of the shadow lines numbered `first..=last`.
    fn span(lines: &[(u64, DirtyLine)], first: u64, last: u64) -> Range<usize> {
        let lo = lines.partition_point(|&(l, _)| l < first);
        lo..lo + lines[lo..].partition_point(|&(l, _)| l <= last)
    }

    /// Read `buf.len()` bytes from `off`, observing the volatile shadow
    /// (a CPU always sees its own cached stores).
    pub fn read(&self, off: u64, buf: &mut [u8], cost: &mut Cost) {
        if !buf.is_empty() {
            self.read_in(&self.inner.read(), off, buf, cost);
        }
    }

    /// Read `len` bytes from each offset of `offs` into consecutive
    /// `len`-byte chunks of `buf`, under one lock: the same bytes and
    /// charges as one [`Self::read`] per offset. Every range is copied
    /// before the caller looks at any of them, so the copies' cache
    /// misses overlap instead of each waiting on the last.
    pub fn read_many(
        &self,
        offs: impl IntoIterator<Item = u64>,
        len: usize,
        buf: &mut [u8],
        cost: &mut Cost,
    ) {
        if len == 0 {
            return;
        }
        let g = self.inner.read();
        for (off, chunk) in offs.into_iter().zip(buf.chunks_exact_mut(len)) {
            self.read_in(&g, off, chunk, cost);
        }
    }

    fn read_in(&self, g: &MediaInner, off: u64, buf: &mut [u8], cost: &mut Cost) {
        let end = off as usize + buf.len();
        assert!(
            end <= g.durable.len(),
            "media read out of bounds: {}..{} > {}",
            off,
            end,
            g.durable.len()
        );
        buf.copy_from_slice(&g.durable[off as usize..end]);
        if self.is_pmem() && !g.lines.is_empty() {
            let last = Self::line_of(off + buf.len() as u64 - 1);
            for (line, dl) in &g.lines[Self::span(&g.lines, Self::line_of(off), last)] {
                let line_start = line * CACHE_LINE as u64;
                let copy_start = off.max(line_start);
                let copy_end = (off + buf.len() as u64).min(line_start + CACHE_LINE as u64);
                let dst = (copy_start - off) as usize..(copy_end - off) as usize;
                let src = (copy_start - line_start) as usize..(copy_end - line_start) as usize;
                buf[dst].copy_from_slice(&dl.data[src]);
            }
        }
        cost.charge(
            self.timing.read_cost_kind(),
            self.timing.read_ns(buf.len() as u64),
        );
    }

    /// Issue CLWB for every dirty line overlapping `[off, off+len)`.
    /// Charges the PMem write cost for the flushed bytes. A no-op on
    /// DRAM/SSD media.
    pub fn flush(&self, off: u64, len: u64, cost: &mut Cost) {
        if self.is_pmem() {
            self.flush_in(&mut self.inner.write(), off, len, cost);
        }
    }

    fn flush_in(&self, g: &mut MediaInner, off: u64, len: u64, cost: &mut Cost) {
        if len == 0 {
            return;
        }
        g.note_event();
        let last = Self::line_of(off + len - 1);
        let mut flushed_lines = 0u64;
        let span = Self::span(&g.lines, Self::line_of(off), last);
        for (_, dl) in &mut g.lines[span] {
            if !dl.flushed {
                dl.flushed = true;
                flushed_lines += 1;
            }
        }
        if flushed_lines > 0 {
            cost.charge(
                CostKind::PmemWrite,
                self.timing.write_ns(flushed_lines * CACHE_LINE as u64),
            );
        }
    }

    /// SFENCE: every line flushed before this call becomes durable.
    pub fn fence(&self, cost: &mut Cost) {
        if self.is_pmem() {
            self.fence_in(&mut self.inner.write(), cost);
        }
    }

    fn fence_in(&self, g: &mut MediaInner, cost: &mut Cost) {
        g.note_event();
        cost.charge(CostKind::Cpu, FENCE_NS);
        let MediaInner {
            durable,
            written,
            lines,
            pending,
            ..
        } = g;
        for (line, data) in pending.drain(..) {
            *written = (*written).max(apply_line(durable, line, &data));
        }
        lines.retain(|(line, dl)| {
            if dl.flushed {
                *written = (*written).max(apply_line(durable, *line, &dl.data));
            }
            !dl.flushed
        });
    }

    /// Convenience: flush + fence for a range, under one lock.
    pub fn persist(&self, off: u64, len: u64, cost: &mut Cost) {
        if self.is_pmem() {
            let mut g = self.inner.write();
            self.flush_in(&mut g, off, len, cost);
            self.fence_in(&mut g, cost);
        }
    }

    /// Simulate a power failure at this instant. Deterministic given
    /// `seed`:
    /// - DRAM media: everything is lost (zeroed image of the same size).
    /// - SSD media: write-through, everything survives.
    /// - PMem media: durable bytes survive; each flushed-but-unfenced line
    ///   (including superseded pending snapshots, in write order) lands on
    ///   media independently with probability ½; dirty lines are lost.
    ///
    /// The image is as long as the media; only its stored prefix is
    /// copied.
    pub fn crash(&self, seed: u64) -> CrashImage {
        let g = self.inner.read();
        let device = self.timing.kind;
        match device {
            DeviceKind::Dram => CrashImage {
                bytes: vec![0u8; g.durable.len()],
                device,
            },
            // SSD is write-through, and fabric-attached pool media
            // outlives the node (its write path applies stores
            // directly): everything survives.
            DeviceKind::FlashSsd | DeviceKind::CxlFabric => CrashImage {
                bytes: g.durable_copy(),
                device,
            },
            DeviceKind::Pmem => g.pmem_image(seed),
        }
    }

    /// Persistence events executed so far: every PMem [`Self::flush`] and
    /// [`Self::fence`] call gets one monotonically increasing index
    /// ([`Self::persist`] and [`Self::write_persist`] count as two). The
    /// stream is deterministic for a deterministic workload, which is what
    /// makes exhaustive crash-point enumeration possible.
    pub fn persistence_events(&self) -> u64 {
        self.inner.read().events
    }

    /// Arm a [`CrashPlan`]: when persistence event `plan.at_event` is
    /// about to execute, a crash image of the state before it is captured
    /// (the run continues). Replaces any previous plan and discards any
    /// previous capture.
    pub fn arm_crash_plan(&self, plan: CrashPlan) {
        let mut g = self.inner.write();
        g.plan = Some(plan);
        g.capture = None;
    }

    /// Remove the armed plan, keeping any capture already taken.
    pub fn disarm_crash_plan(&self) {
        self.inner.write().plan = None;
    }

    /// Take the image captured by an armed [`CrashPlan`], if the planned
    /// event was reached.
    pub fn take_crash_capture(&self) -> Option<CrashImage> {
        self.inner.write().capture.take()
    }
}

impl MediaInner {
    /// Torn-write crash image of this PMem state: durable bytes plus each
    /// flushed-but-unfenced line (superseded pending snapshots first, in
    /// write order, then the shadow's flushed lines in ascending line
    /// order) landing independently with probability ½.
    fn pmem_image(&self, seed: u64) -> CrashImage {
        let mut rng = Rng::seed_from_u64(seed);
        let mut bytes = self.durable_copy();
        for (line, data) in &self.pending {
            if rng.chance(0.5) {
                apply_line(&mut bytes, *line, data);
            }
        }
        for (line, dl) in self.lines.iter().filter(|(_, dl)| dl.flushed) {
            if rng.chance(0.5) {
                apply_line(&mut bytes, *line, &dl.data);
            }
        }
        CrashImage {
            bytes,
            device: DeviceKind::Pmem,
        }
    }

    /// The durable bytes, copied up to the stored bound into a zeroed
    /// buffer of the same length: the zero tail is never read, and its
    /// pages are never touched.
    fn durable_copy(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.durable.len()];
        bytes[..self.written].copy_from_slice(&self.durable[..self.written]);
        bytes
    }

    /// True if no volatile line is held and no armed [`CrashPlan`] will
    /// capture at either of the next two persistence events: a store
    /// persisted by them (a flush, then a fence) cannot be seen half-done.
    fn unobserved(&self) -> bool {
        self.lines.is_empty()
            && self.pending.is_empty()
            && match self.plan {
                Some(plan) if self.capture.is_none() => {
                    !(self.events..self.events + 2).contains(&plan.at_event)
                }
                _ => true,
            }
    }

    /// Count one persistence event; if an armed [`CrashPlan`] names this
    /// index, capture the crash image *before* the event applies.
    fn note_event(&mut self) {
        if let Some(plan) = self.plan {
            if self.events == plan.at_event && self.capture.is_none() {
                self.capture = Some(self.pmem_image(plan.seed));
            }
        }
        self.events += 1;
    }
}

/// Store one line into `durable`, growing it to cover the line; returns
/// the end of the stored range.
fn apply_line(durable: &mut Vec<u8>, line: u64, data: &[u8; CACHE_LINE]) -> usize {
    let s = line as usize * CACHE_LINE;
    if durable.len() < s + CACHE_LINE {
        durable.resize((s + CACHE_LINE).next_power_of_two(), 0);
    }
    durable[s..s + CACHE_LINE].copy_from_slice(data);
    s + CACHE_LINE
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Media {
        /// Read bytes as they would survive a crash *right now*
        /// assuming all flushed lines made it (optimistic durable view).
        fn read_durable(&self, off: u64, buf: &mut [u8]) {
            let g = self.inner.read();
            let end = off as usize + buf.len();
            assert!(end <= g.durable.len());
            buf.copy_from_slice(&g.durable[off as usize..end]);
        }
    }

    fn pmem() -> Media {
        Media::new(MediaConfig::pmem(4096))
    }

    /// The torn-write draw is the crash suites' shared randomness: which
    /// flushed-but-unfenced lines land is pinned to the image the parent
    /// commit (`ac0ac0c`, the benchmark's stand-in generator) produced for
    /// this seed.
    #[test]
    fn torn_write_image_is_pinned() {
        let m = pmem();
        let mut cost = Cost::new();
        for i in 0..32u64 {
            m.write(i * 64, &[i as u8 + 1; 64], &mut cost);
        }
        m.flush(0, 1024, &mut cost);
        // Overwriting flushed lines before the fence leaves pending
        // snapshots, which draw before the flushed lines do.
        for i in 0..8u64 {
            m.write(i * 64, &[0xA0 + i as u8; 64], &mut cost);
        }
        m.flush(0, 256, &mut cost);
        m.flush(1024, 1024, &mut cost);
        let img = m.crash(0x7041);
        assert_eq!(img.bytes().len(), 4096);
        let first_byte_per_line: Vec<u8> = (0..32).map(|l| img.bytes()[l * 64]).collect();
        assert_eq!(
            first_byte_per_line,
            [
                0, 0, 162, 163, 0, 6, 7, 8, 0, 0, 0, 0, 13, 0, 15, 0, 17, 18, 19, 0, 21, 0, 0, 0,
                0, 0, 0, 28, 0, 30, 31, 32
            ]
        );
        assert_eq!(crate::integrity_hash(&[img.bytes()]), 0x9909_D508_E87A_0D5C);
    }

    #[test]
    fn write_read_roundtrip_sees_shadow() {
        let m = pmem();
        let mut cost = Cost::new();
        m.write(100, b"hello world", &mut cost);
        let mut buf = [0u8; 11];
        m.read(100, &mut buf, &mut cost);
        assert_eq!(&buf, b"hello world");
        // Not yet durable.
        let mut d = [0u8; 11];
        m.read_durable(100, &mut d);
        assert_eq!(&d, &[0u8; 11]);
    }

    #[test]
    fn persist_makes_durable() {
        let m = pmem();
        let mut cost = Cost::new();
        m.write(0, b"abc", &mut cost);
        m.persist(0, 3, &mut cost);
        let mut d = [0u8; 3];
        m.read_durable(0, &mut d);
        assert_eq!(&d, b"abc");
        assert_eq!(m.volatile_lines(), 0);
        assert!(cost.ns(CostKind::PmemWrite) >= 94);
    }

    #[test]
    fn crash_loses_dirty_lines() {
        let m = pmem();
        let mut cost = Cost::new();
        m.write(0, b"durable!", &mut cost);
        m.persist(0, 8, &mut cost);
        m.write(256, b"volatile", &mut cost); // never flushed
        let img = m.crash(42);
        assert_eq!(&img.bytes()[0..8], b"durable!");
        assert_eq!(&img.bytes()[256..264], &[0u8; 8]);
    }

    #[test]
    fn crash_keeps_fenced_lines_always() {
        for seed in 0..16 {
            let m = pmem();
            let mut cost = Cost::new();
            m.write(64, b"fenced", &mut cost);
            m.persist(64, 6, &mut cost);
            let img = m.crash(seed);
            assert_eq!(&img.bytes()[64..70], b"fenced");
        }
    }

    #[test]
    fn flushed_unfenced_lines_tear() {
        // A flushed-but-unfenced line should persist for some seeds and
        // not others.
        let mut survived = 0;
        let mut lost = 0;
        for seed in 0..64 {
            let m = pmem();
            let mut cost = Cost::new();
            m.write(0, b"torn", &mut cost);
            m.flush(0, 4, &mut cost); // no fence!
            let img = m.crash(seed);
            if &img.bytes()[0..4] == b"torn" {
                survived += 1;
            } else {
                lost += 1;
            }
        }
        assert!(survived > 10, "some seeds persist: {survived}");
        assert!(lost > 10, "some seeds lose: {lost}");
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let build = || {
            let m = pmem();
            let mut cost = Cost::new();
            for i in 0..8u64 {
                m.write(i * 64, &[i as u8 + 1; 64], &mut cost);
            }
            m.flush(0, 512, &mut cost); // unfenced
            m
        };
        let a = build().crash(7);
        let b = build().crash(7);
        assert_eq!(a.bytes(), b.bytes());
        let c = build().crash(8);
        // Extremely likely to differ with 8 torn lines.
        assert_ne!(a.bytes(), c.bytes());
    }

    #[test]
    fn overwrite_of_flushed_line_snapshots_pending() {
        let m = pmem();
        let mut cost = Cost::new();
        m.write(0, b"AAAA", &mut cost);
        m.flush(0, 4, &mut cost);
        // Overwrite before fence: old flushed content goes to pending.
        m.write(0, b"BBBB", &mut cost);
        m.fence(&mut cost); // commits the pending "AAAA" snapshot
        let mut d = [0u8; 4];
        m.read_durable(0, &mut d);
        assert_eq!(&d, b"AAAA");
        // The CPU still sees BBBB.
        let mut v = [0u8; 4];
        m.read(0, &mut v, &mut cost);
        assert_eq!(&v, b"BBBB");
    }

    #[test]
    fn dram_media_loses_all_on_crash() {
        let m = Media::new(MediaConfig::dram(128));
        let mut cost = Cost::new();
        m.write(0, b"gone", &mut cost);
        let img = m.crash(1);
        assert_eq!(&img.bytes()[0..4], &[0u8; 4]);
    }

    #[test]
    fn ssd_media_is_write_through() {
        let m = Media::new(MediaConfig::ssd(8192));
        let mut cost = Cost::new();
        m.write(4096, b"kept", &mut cost);
        let img = m.crash(1);
        assert_eq!(&img.bytes()[4096..4100], b"kept");
        assert!(cost.ns(CostKind::SsdTransfer) > 10_000);
    }

    #[test]
    fn rehydrate_from_crash_image() {
        let m = pmem();
        let mut cost = Cost::new();
        m.write(0, b"persisted", &mut cost);
        m.persist(0, 9, &mut cost);
        let m2 = Media::from_crash(m.crash(3));
        let mut buf = [0u8; 9];
        m2.read(0, &mut buf, &mut cost);
        assert_eq!(&buf, b"persisted");
    }

    #[test]
    fn media_grows_on_demand() {
        let m = Media::new(MediaConfig::pmem(64));
        let mut cost = Cost::new();
        m.write(10_000, b"far", &mut cost);
        m.persist(10_000, 3, &mut cost);
        assert!(m.len() >= 10_003);
        let mut buf = [0u8; 3];
        m.read(10_000, &mut buf, &mut cost);
        assert_eq!(&buf, b"far");
    }

    #[test]
    fn persistence_events_count_flush_and_fence() {
        let m = pmem();
        let mut cost = Cost::new();
        assert_eq!(m.persistence_events(), 0);
        m.write(0, b"x", &mut cost);
        assert_eq!(m.persistence_events(), 0, "stores are not events");
        m.flush(0, 1, &mut cost);
        assert_eq!(m.persistence_events(), 1);
        m.fence(&mut cost);
        assert_eq!(m.persistence_events(), 2);
        m.persist(64, 8, &mut cost);
        assert_eq!(m.persistence_events(), 4, "persist = flush + fence");
        m.write_persist(128, b"y", &mut cost);
        assert_eq!(m.persistence_events(), 6, "write_persist = flush + fence");
        m.write_persist(128, b"", &mut cost);
        assert_eq!(m.persistence_events(), 7, "an empty range still fences");
        assert_eq!(m.volatile_lines(), 0);
        // Non-PMem media never count events.
        let d = Media::new(MediaConfig::dram(128));
        d.write(0, b"x", &mut cost);
        d.flush(0, 1, &mut cost);
        d.fence(&mut cost);
        assert_eq!(d.persistence_events(), 0);
    }

    #[test]
    fn crash_plan_captures_state_before_event() {
        // Events: 0 = flush("AA"), 1 = fence, 2 = flush("BB"), 3 = fence.
        let run = |plan: Option<CrashPlan>| {
            let m = pmem();
            let mut cost = Cost::new();
            if let Some(p) = plan {
                m.arm_crash_plan(p);
            }
            m.write(0, b"AA", &mut cost);
            m.persist(0, 2, &mut cost);
            m.write(0, b"BB", &mut cost);
            m.persist(0, 2, &mut cost);
            m
        };
        // Crash before event 2 (second flush): only "AA" is durable.
        let m = run(Some(CrashPlan {
            at_event: 2,
            seed: 1,
        }));
        let img = m.take_crash_capture().expect("event reached");
        assert_eq!(&img.bytes()[0..2], b"AA");
        // Crash before event 0: nothing durable yet.
        let m = run(Some(CrashPlan {
            at_event: 0,
            seed: 1,
        }));
        let img = m.take_crash_capture().unwrap();
        assert_eq!(&img.bytes()[0..2], &[0u8; 2]);
        // Plan beyond the run: no capture, run unaffected.
        let m = run(Some(CrashPlan {
            at_event: 99,
            seed: 1,
        }));
        assert!(m.take_crash_capture().is_none());
        let mut d = [0u8; 2];
        m.read_durable(0, &mut d);
        assert_eq!(&d, b"BB");
    }

    #[test]
    fn crash_plan_capture_matches_direct_crash() {
        // Capturing at event k must equal crashing a twin run stopped
        // right before event k, for the same seed.
        let build_to = |stop_before: u64| {
            let m = pmem();
            let mut cost = Cost::new();
            type MediaOp = Box<dyn Fn(&Media, &mut Cost)>;
            let ops: Vec<MediaOp> = vec![
                Box::new(|m, c| m.write(0, b"1111", c)),
                Box::new(|m, c| m.flush(0, 4, c)), // event 0
                Box::new(|m, c| m.write(64, b"2222", c)),
                Box::new(|m, c| m.flush(64, 4, c)), // event 1
                Box::new(|m, c| m.fence(c)),        // event 2
            ];
            for op in ops {
                if m.persistence_events() == stop_before {
                    break;
                }
                op(&m, &mut cost);
            }
            m
        };
        for k in 0..3u64 {
            // Full run on a fresh armed media.
            let armed = pmem();
            armed.arm_crash_plan(CrashPlan {
                at_event: k,
                seed: 7,
            });
            let mut cost = Cost::new();
            armed.write(0, b"1111", &mut cost);
            armed.flush(0, 4, &mut cost);
            armed.write(64, b"2222", &mut cost);
            armed.flush(64, 4, &mut cost);
            armed.fence(&mut cost);
            let cap = armed.take_crash_capture().expect("reached");
            let direct = build_to(k).crash(7);
            assert_eq!(cap.bytes(), direct.bytes(), "event {k}");
        }
    }

    #[test]
    fn rearming_plan_discards_previous_capture() {
        let m = pmem();
        let mut cost = Cost::new();
        m.arm_crash_plan(CrashPlan {
            at_event: 0,
            seed: 1,
        });
        m.write(0, b"AA", &mut cost);
        m.persist(0, 2, &mut cost);
        m.arm_crash_plan(CrashPlan {
            at_event: 3,
            seed: 1,
        });
        m.write(0, b"BB", &mut cost);
        m.persist(0, 2, &mut cost); // events 2 (flush), 3 (fence)
        let img = m.take_crash_capture().expect("second plan fired");
        // Before event 3 the "BB" line is flushed-unfenced: seed decides.
        let b = &img.bytes()[0..2];
        assert!(b == b"AA" || b == b"BB");
        assert!(m.take_crash_capture().is_none(), "capture is taken once");
    }

    #[test]
    fn costs_charged_to_right_buckets() {
        let m = pmem();
        let mut c = Cost::new();
        m.write(0, &[0u8; 256], &mut c);
        assert_eq!(c.ns(CostKind::PmemWrite), 0, "store is cache-level");
        m.flush(0, 256, &mut c);
        assert!(c.ns(CostKind::PmemWrite) > 0);
        let mut buf = [0u8; 256];
        m.read(0, &mut buf, &mut c);
        assert!(c.ns(CostKind::PmemRead) >= 305);
    }
}
