//! The media's line shadow is a `Vec` sorted by line number, and
//! `persist` / `write_persist` take the media lock once. The shadow it
//! replaced, a hash map from line number to line with one lock per
//! `write` / `flush` / `fence`, lives on here as [`Oracle`], copied from
//! the last commit that carried it (8ed1b9a). Seeded random op sequences
//! run against both; after every op the two must agree on the bytes a
//! CPU reads, the `Cost` charged, the persistence-event count, the
//! volatile line count, the capacity, and every crash image and crash
//! plan capture, byte for byte.
//!
//! Two mutants this suite catches: walking the flushed lines of a crash
//! image in any order but ascending line number (the hash-map shadow
//! sorted them first, and the torn-write draws follow that order), and a
//! `write_persist` that skips one `note_event` (every later event index
//! and crash plan shifts by one).
//!
//! A crash image copies only the prefix of the media ever stored to; the
//! oracle clones all of it. Sparsely written media of every device class,
//! media rehydrated from a crash image, torn lines past the stored bound
//! and growth past the capacity must still give the oracle's image, byte
//! for byte and as long.

use oe_simdevice::rng::Rng;
use oe_simdevice::sync::RwLock;
use oe_simdevice::{
    Cost, CostKind, CrashImage, CrashPlan, DeviceKind, DeviceTiming, Media, MediaConfig, CACHE_LINE,
};
use std::collections::HashMap;

const FENCE_NS: u64 = 30;

#[derive(Clone)]
struct DirtyLine {
    data: [u8; CACHE_LINE],
    flushed: bool,
}

struct OracleInner {
    durable: Vec<u8>,
    lines: HashMap<u64, DirtyLine>,
    pending: Vec<(u64, [u8; CACHE_LINE])>,
    events: u64,
    plan: Option<CrashPlan>,
    capture: Option<CrashImage>,
}

/// The retired media: line shadow in a hash map, a lock per call.
struct Oracle {
    timing: DeviceTiming,
    inner: RwLock<OracleInner>,
}

impl Oracle {
    fn new(cfg: MediaConfig) -> Self {
        Self {
            timing: DeviceTiming::of(cfg.device),
            inner: RwLock::new(OracleInner {
                durable: vec![0u8; cfg.capacity],
                lines: HashMap::new(),
                pending: Vec::new(),
                events: 0,
                plan: None,
                capture: None,
            }),
        }
    }

    fn from_crash(image: CrashImage) -> Self {
        Self {
            timing: DeviceTiming::of(image.device()),
            inner: RwLock::new(OracleInner {
                durable: image.bytes().to_vec(),
                lines: HashMap::new(),
                pending: Vec::new(),
                events: 0,
                plan: None,
                capture: None,
            }),
        }
    }

    fn len(&self) -> usize {
        self.inner.read().durable.len()
    }

    fn volatile_lines(&self) -> usize {
        let g = self.inner.read();
        g.lines.len() + g.pending.len()
    }

    fn line_of(off: u64) -> u64 {
        off / CACHE_LINE as u64
    }

    fn write(&self, off: u64, data: &[u8], cost: &mut Cost) {
        if data.is_empty() {
            return;
        }
        let mut g = self.inner.write();
        let end = off as usize + data.len();
        if g.durable.len() < end {
            g.durable.resize(end.next_power_of_two(), 0);
        }
        match self.timing.kind {
            DeviceKind::Dram | DeviceKind::FlashSsd | DeviceKind::CxlFabric => {
                g.durable[off as usize..end].copy_from_slice(data);
                cost.charge(
                    self.timing.write_cost_kind(),
                    self.timing.write_ns(data.len() as u64),
                );
            }
            DeviceKind::Pmem => {
                cost.charge(CostKind::Cpu, 1 + data.len() as u64 / 64);
                let first = Self::line_of(off);
                let last = Self::line_of(off + data.len() as u64 - 1);
                for line in first..=last {
                    let line_start = line * CACHE_LINE as u64;
                    let existing = g.lines.get(&line).map(|dl| (dl.data, dl.flushed));
                    let mut entry = match existing {
                        Some((data, flushed)) => {
                            if flushed {
                                g.pending.push((line, data));
                            }
                            DirtyLine {
                                data,
                                flushed: false,
                            }
                        }
                        None => {
                            let mut buf = [0u8; CACHE_LINE];
                            let s = line_start as usize;
                            let e = (s + CACHE_LINE).min(g.durable.len());
                            buf[..e - s].copy_from_slice(&g.durable[s..e]);
                            DirtyLine {
                                data: buf,
                                flushed: false,
                            }
                        }
                    };
                    let copy_start = off.max(line_start);
                    let copy_end = (off + data.len() as u64).min(line_start + CACHE_LINE as u64);
                    let src = (copy_start - off) as usize..(copy_end - off) as usize;
                    let dst = (copy_start - line_start) as usize..(copy_end - line_start) as usize;
                    entry.data[dst].copy_from_slice(&data[src]);
                    g.lines.insert(line, entry);
                }
            }
        }
    }

    fn read(&self, off: u64, buf: &mut [u8], cost: &mut Cost) {
        if buf.is_empty() {
            return;
        }
        let g = self.inner.read();
        let end = off as usize + buf.len();
        assert!(end <= g.durable.len());
        buf.copy_from_slice(&g.durable[off as usize..end]);
        if self.timing.kind == DeviceKind::Pmem && !g.lines.is_empty() {
            let first = Self::line_of(off);
            let last = Self::line_of(off + buf.len() as u64 - 1);
            for line in first..=last {
                if let Some(dl) = g.lines.get(&line) {
                    let line_start = line * CACHE_LINE as u64;
                    let copy_start = off.max(line_start);
                    let copy_end = (off + buf.len() as u64).min(line_start + CACHE_LINE as u64);
                    let dst = (copy_start - off) as usize..(copy_end - off) as usize;
                    let src = (copy_start - line_start) as usize..(copy_end - line_start) as usize;
                    buf[dst].copy_from_slice(&dl.data[src]);
                }
            }
        }
        cost.charge(
            self.timing.read_cost_kind(),
            self.timing.read_ns(buf.len() as u64),
        );
    }

    fn flush(&self, off: u64, len: u64, cost: &mut Cost) {
        if self.timing.kind != DeviceKind::Pmem || len == 0 {
            return;
        }
        let mut g = self.inner.write();
        Self::note_event(&mut g);
        let first = Self::line_of(off);
        let last = Self::line_of(off + len - 1);
        let mut flushed_lines = 0u64;
        for line in first..=last {
            if let Some(dl) = g.lines.get_mut(&line) {
                if !dl.flushed {
                    dl.flushed = true;
                    flushed_lines += 1;
                }
            }
        }
        if flushed_lines > 0 {
            cost.charge(
                CostKind::PmemWrite,
                self.timing.write_ns(flushed_lines * CACHE_LINE as u64),
            );
        }
    }

    fn fence(&self, cost: &mut Cost) {
        if self.timing.kind != DeviceKind::Pmem {
            return;
        }
        let mut g = self.inner.write();
        Self::note_event(&mut g);
        cost.charge(CostKind::Cpu, FENCE_NS);
        let pending = std::mem::take(&mut g.pending);
        for (line, data) in pending {
            Self::apply_line(&mut g.durable, line, &data);
        }
        let fenced: Vec<u64> = g
            .lines
            .iter()
            .filter(|(_, dl)| dl.flushed)
            .map(|(&l, _)| l)
            .collect();
        for line in fenced {
            let dl = g.lines.remove(&line).expect("line present");
            Self::apply_line(&mut g.durable, line, &dl.data);
        }
    }

    fn persist(&self, off: u64, len: u64, cost: &mut Cost) {
        self.flush(off, len, cost);
        self.fence(cost);
    }

    /// What every store-then-persist site did before `write_persist`.
    fn write_persist(&self, off: u64, data: &[u8], cost: &mut Cost) {
        self.write(off, data, cost);
        self.persist(off, data.len() as u64, cost);
    }

    fn apply_line(durable: &mut Vec<u8>, line: u64, data: &[u8; CACHE_LINE]) {
        let s = line as usize * CACHE_LINE;
        if durable.len() < s + CACHE_LINE {
            durable.resize((s + CACHE_LINE).next_power_of_two(), 0);
        }
        durable[s..s + CACHE_LINE].copy_from_slice(data);
    }

    fn crash(&self, seed: u64) -> CrashImage {
        let g = self.inner.read();
        match self.timing.kind {
            DeviceKind::Dram => {
                CrashImage::from_parts(vec![0u8; g.durable.len()], DeviceKind::Dram)
            }
            DeviceKind::Pmem => Self::pmem_image(&g, seed),
            kind => CrashImage::from_parts(g.durable.clone(), kind),
        }
    }

    fn pmem_image(g: &OracleInner, seed: u64) -> CrashImage {
        let mut rng = Rng::seed_from_u64(seed);
        let mut bytes = g.durable.clone();
        for (line, data) in &g.pending {
            if rng.chance(0.5) {
                Self::apply_line(&mut bytes, *line, data);
            }
        }
        let mut flushed: Vec<(&u64, &DirtyLine)> =
            g.lines.iter().filter(|(_, dl)| dl.flushed).collect();
        flushed.sort_by_key(|(l, _)| **l);
        for (line, dl) in flushed {
            if rng.chance(0.5) {
                Self::apply_line(&mut bytes, *line, &dl.data);
            }
        }
        CrashImage::from_parts(bytes, DeviceKind::Pmem)
    }

    fn note_event(g: &mut OracleInner) {
        if let Some(plan) = g.plan {
            if g.events == plan.at_event && g.capture.is_none() {
                g.capture = Some(Self::pmem_image(g, plan.seed));
            }
        }
        g.events += 1;
    }

    fn persistence_events(&self) -> u64 {
        self.inner.read().events
    }

    fn arm_crash_plan(&self, plan: CrashPlan) {
        let mut g = self.inner.write();
        g.plan = Some(plan);
        g.capture = None;
    }

    fn disarm_crash_plan(&self) {
        self.inner.write().plan = None;
    }

    fn take_crash_capture(&self) -> Option<CrashImage> {
        self.inner.write().capture.take()
    }
}

/// An offset that overlaps earlier ones most of the time: a small hot
/// window of a few lines, otherwise anywhere in (or past) the capacity.
fn offset(rng: &mut Rng, len: usize) -> u64 {
    match rng.below(8) {
        0 => rng.below(len as u64 * 3 / 2 + 1),
        1 => rng.below(len as u64),
        _ => 40 + rng.below(5 * CACHE_LINE as u64),
    }
}

/// A length that is zero, a few bytes, exactly a line, or spans several.
fn length(rng: &mut Rng) -> usize {
    match rng.below(6) {
        0 => 0,
        1 => 1 + rng.below(8) as usize,
        2 => CACHE_LINE,
        _ => rng.below(4 * CACHE_LINE as u64 + 1) as usize,
    }
}

fn bytes_of(img: Option<CrashImage>) -> Option<(Vec<u8>, DeviceKind)> {
    img.map(|i| (i.bytes().to_vec(), i.device()))
}

fn assert_same(m: &Media, o: &Oracle, cm: &Cost, co: &Cost, what: &str) {
    assert_eq!(cm, co, "{what}: cost");
    assert_eq!(
        m.persistence_events(),
        o.persistence_events(),
        "{what}: persistence events"
    );
    assert_eq!(
        m.volatile_lines(),
        o.volatile_lines(),
        "{what}: volatile lines"
    );
    assert_eq!(m.len(), o.len(), "{what}: capacity");
    // The whole media as a CPU sees it.
    let mut a = vec![0u8; m.len()];
    let mut b = vec![0u8; o.len()];
    m.read(0, &mut a, &mut Cost::new());
    o.read(0, &mut b, &mut Cost::new());
    assert!(a == b, "{what}: visible bytes");
}

#[test]
fn sorted_shadow_matches_the_retired_shadow() {
    for case in 0..320u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_0000 + case);
        let capacity = 256 + rng.below(1024) as usize;
        let cfg = match case % 8 {
            6 => MediaConfig::dram(capacity),
            7 => MediaConfig::ssd(capacity),
            _ => MediaConfig::pmem(capacity),
        };
        let m = Media::new(cfg);
        let o = Oracle::new(cfg);
        let (mut cm, mut co) = (Cost::new(), Cost::new());
        for step in 0..96 {
            let what = format!("case {case} step {step}");
            let len = m.len();
            match rng.below(16) {
                0..=3 => {
                    let off = offset(&mut rng, len);
                    let data: Vec<u8> = (0..length(&mut rng))
                        .map(|_| rng.below(256) as u8)
                        .collect();
                    m.write(off, &data, &mut cm);
                    o.write(off, &data, &mut co);
                }
                4 | 5 => {
                    let (off, n) = (offset(&mut rng, len), length(&mut rng) as u64);
                    m.flush(off, n, &mut cm);
                    o.flush(off, n, &mut co);
                }
                6 => {
                    m.fence(&mut cm);
                    o.fence(&mut co);
                }
                7 => {
                    let (off, n) = (offset(&mut rng, len), length(&mut rng) as u64);
                    m.persist(off, n, &mut cm);
                    o.persist(off, n, &mut co);
                }
                8 | 9 => {
                    let off = offset(&mut rng, len);
                    let data: Vec<u8> = (0..length(&mut rng))
                        .map(|_| rng.below(256) as u8)
                        .collect();
                    m.write_persist(off, &data, &mut cm);
                    o.write_persist(off, &data, &mut co);
                }
                10 | 11 => {
                    let n = length(&mut rng).min(len);
                    let off = rng.below((len - n) as u64 + 1);
                    let (mut a, mut b) = (vec![0u8; n], vec![0u8; n]);
                    m.read(off, &mut a, &mut cm);
                    o.read(off, &mut b, &mut co);
                    assert_eq!(a, b, "{what}: read {off}+{n}");
                }
                12 => {
                    let plan = CrashPlan {
                        at_event: m.persistence_events() + rng.below(12),
                        seed: rng.next_u64(),
                    };
                    m.arm_crash_plan(plan);
                    o.arm_crash_plan(plan);
                }
                13 => {
                    assert!(
                        bytes_of(m.take_crash_capture()) == bytes_of(o.take_crash_capture()),
                        "{what}: plan capture"
                    );
                    if rng.chance(0.5) {
                        m.disarm_crash_plan();
                        o.disarm_crash_plan();
                    }
                }
                _ => {
                    let seed = rng.next_u64();
                    assert!(
                        bytes_of(Some(m.crash(seed))) == bytes_of(Some(o.crash(seed))),
                        "{what}: crash image, seed {seed:#x}"
                    );
                }
            }
            assert_same(&m, &o, &cm, &co, &what);
        }
        let seed = case ^ 0xC4A5;
        assert!(
            bytes_of(Some(m.crash(seed))) == bytes_of(Some(o.crash(seed))),
            "case {case}: final crash image"
        );
        assert!(
            bytes_of(m.take_crash_capture()) == bytes_of(o.take_crash_capture()),
            "case {case}: final plan capture"
        );
    }
}

/// Media far larger than what is stored to, of every device class:
/// stores cluster in the first lines, one in eight lands anywhere up to
/// half again past the capacity (growth), flushed-but-unfenced and
/// superseded lines sit past the stored bound, and both sides restart
/// from their crash images now and then. After every op a fresh crash
/// image must equal the oracle's, length included.
#[test]
fn sparse_media_crash_images_match() {
    let devices = [
        DeviceKind::Pmem,
        DeviceKind::Pmem,
        DeviceKind::Pmem,
        DeviceKind::FlashSsd,
        DeviceKind::CxlFabric,
        DeviceKind::Dram,
    ];
    for case in 0..288u64 {
        let mut rng = Rng::seed_from_u64(0xB0DE_0000 + case);
        let cfg = MediaConfig {
            device: devices[case as usize % devices.len()],
            capacity: 4096 << rng.below(4),
        };
        let (mut m, mut o) = (Media::new(cfg), Oracle::new(cfg));
        let (mut cm, mut co) = (Cost::new(), Cost::new());
        for step in 0..64 {
            let what = format!("case {case} step {step}");
            let len = m.len() as u64;
            let off = match rng.below(8) {
                0 => rng.below(len * 3 / 2),
                _ => rng.below(8 * CACHE_LINE as u64),
            };
            let data: Vec<u8> = (0..length(&mut rng))
                .map(|_| rng.below(256) as u8)
                .collect();
            match rng.below(10) {
                0..=2 => {
                    m.write(off, &data, &mut cm);
                    o.write(off, &data, &mut co);
                }
                3 => {
                    m.write_persist(off, &data, &mut cm);
                    o.write_persist(off, &data, &mut co);
                }
                4 => {
                    m.persist(off, data.len() as u64, &mut cm);
                    o.persist(off, data.len() as u64, &mut co);
                }
                5 => {
                    // A torn line in the never-stored half, sometimes
                    // overwritten before any fence (a pending snapshot).
                    let off = len / 2 + rng.below(len / 2);
                    for _ in 0..1 + rng.below(2) {
                        m.write(off, &data, &mut cm);
                        o.write(off, &data, &mut co);
                        m.flush(off, data.len() as u64, &mut cm);
                        o.flush(off, data.len() as u64, &mut co);
                    }
                }
                6 => {
                    let seed = rng.next_u64();
                    let (a, b) = (m.crash(seed), o.crash(seed));
                    assert!(
                        bytes_of(Some(a.clone())) == bytes_of(Some(b.clone())),
                        "{what}"
                    );
                    (m, o) = (Media::from_crash(a), Oracle::from_crash(b));
                }
                7 => {
                    let plan = CrashPlan {
                        at_event: m.persistence_events() + rng.below(8),
                        seed: rng.next_u64(),
                    };
                    m.arm_crash_plan(plan);
                    o.arm_crash_plan(plan);
                }
                8 => assert!(
                    bytes_of(m.take_crash_capture()) == bytes_of(o.take_crash_capture()),
                    "{what}: plan capture"
                ),
                _ => {
                    m.fence(&mut cm);
                    o.fence(&mut co);
                }
            }
            assert_same(&m, &o, &cm, &co, &what);
            let seed = rng.next_u64();
            let (a, b) = (m.crash(seed), o.crash(seed));
            assert_eq!(a.bytes().len(), b.bytes().len(), "{what}: image length");
            assert!(
                bytes_of(Some(a)) == bytes_of(Some(b)),
                "{what}: crash image, seed {seed:#x}"
            );
        }
    }
}

/// A store-heavy case with many flushed-but-unfenced lines, so each crash
/// image draws over dozens of torn lines: the draw order matters.
#[test]
fn torn_draw_order_matches_over_many_flushed_lines() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x70A2 + case);
        let cfg = MediaConfig::pmem(4096);
        let m = Media::new(cfg);
        let o = Oracle::new(cfg);
        let (mut cm, mut co) = (Cost::new(), Cost::new());
        for _ in 0..48 {
            let off = rng.below(4096 - 2 * CACHE_LINE as u64);
            let data: Vec<u8> = (0..1 + rng.below(2 * CACHE_LINE as u64) as usize)
                .map(|_| rng.below(256) as u8)
                .collect();
            m.write(off, &data, &mut cm);
            o.write(off, &data, &mut co);
            if rng.chance(0.6) {
                m.flush(off, data.len() as u64, &mut cm);
                o.flush(off, data.len() as u64, &mut co);
            }
        }
        assert_same(&m, &o, &cm, &co, &format!("case {case}"));
        for seed in 0..4 {
            assert!(
                bytes_of(Some(m.crash(seed))) == bytes_of(Some(o.crash(seed))),
                "case {case} seed {seed}"
            );
        }
    }
}

/// The product's store stream: almost every store is a `write_persist`
/// over an empty shadow, which the media stores straight into its
/// durable bytes. Crash plans are armed to land on the next
/// `write_persist`'s flush event, on its fence event, or a few events
/// later; now and then a plain `write` leaves the shadow non-empty, so
/// the stores after it take the shadow path until a `persist` empties
/// it. Captures, crash images, costs, event counts and the bytes a CPU
/// reads — one range at a time or many under one lock — must equal the
/// oracle's, which always goes through its shadow.
#[test]
fn in_place_write_persist_matches_the_retired_shadow() {
    for case in 0..160u64 {
        let mut rng = Rng::seed_from_u64(0x1A_5E00 + case);
        let cfg = MediaConfig::pmem(256 + rng.below(2048) as usize);
        let (m, o) = (Media::new(cfg), Oracle::new(cfg));
        let (mut cm, mut co) = (Cost::new(), Cost::new());
        for step in 0..80 {
            let what = format!("case {case} step {step}");
            let len = m.len();
            let off = offset(&mut rng, len);
            let data: Vec<u8> = (0..1 + rng.below(3 * CACHE_LINE as u64) as usize)
                .map(|_| rng.below(256) as u8)
                .collect();
            match rng.below(16) {
                0..=8 => {
                    m.write_persist(off, &data, &mut cm);
                    o.write_persist(off, &data, &mut co);
                }
                9 | 10 => {
                    // Lands on this store's flush (0), its fence (1), or
                    // a later store's event, past in-place ones.
                    let ahead = 2 + 4 * rng.below(2);
                    let plan = CrashPlan {
                        at_event: m.persistence_events() + rng.below(ahead),
                        seed: rng.next_u64(),
                    };
                    m.arm_crash_plan(plan);
                    o.arm_crash_plan(plan);
                    m.write_persist(off, &data, &mut cm);
                    o.write_persist(off, &data, &mut co);
                }
                11 => assert!(
                    bytes_of(m.take_crash_capture()) == bytes_of(o.take_crash_capture()),
                    "{what}: plan capture"
                ),
                12 => {
                    m.write(off, &data, &mut cm);
                    o.write(off, &data, &mut co);
                    if rng.chance(0.5) {
                        m.flush(off, data.len() as u64, &mut cm);
                        o.flush(off, data.len() as u64, &mut co);
                    }
                }
                13 => {
                    m.persist(0, len as u64 * 2, &mut cm);
                    o.persist(0, len as u64 * 2, &mut co);
                }
                14 => {
                    let n = 1 + rng.below(3 * CACHE_LINE as u64) as usize;
                    let offs: Vec<u64> = (0..1 + rng.below(6))
                        .map(|_| rng.below((m.len() - n) as u64 + 1))
                        .collect();
                    let mut many = vec![0u8; offs.len() * n];
                    m.read_many(offs.iter().copied(), n, &mut many, &mut cm);
                    for (i, &off) in offs.iter().enumerate() {
                        let mut one = vec![0u8; n];
                        o.read(off, &mut one, &mut co);
                        assert!(many[i * n..][..n] == one[..], "{what}: read_many {off}+{n}");
                    }
                }
                _ => {
                    let seed = rng.next_u64();
                    assert!(
                        bytes_of(Some(m.crash(seed))) == bytes_of(Some(o.crash(seed))),
                        "{what}: crash image, seed {seed:#x}"
                    );
                }
            }
            assert_same(&m, &o, &cm, &co, &what);
        }
        assert!(
            bytes_of(m.take_crash_capture()) == bytes_of(o.take_crash_capture()),
            "case {case}: final plan capture"
        );
    }
}
