//! # oe-simdevice
//!
//! Simulated storage devices for the OpenEmbedding reproduction.
//!
//! Real Intel Optane PMem is unavailable in this environment, so this crate
//! provides the two things the paper's design actually depends on:
//!
//! 1. **A calibrated timing model** ([`DeviceTiming`]) for DRAM, PMem and
//!    Flash SSD, using the bandwidth/latency numbers from Table I of the
//!    paper, plus a concurrency-degradation model (PMem loses much more
//!    effective bandwidth under bursty parallel access than DRAM — the root
//!    cause of the paper's Observation 1).
//! 2. **A crash-consistent byte-addressable media** ([`Media`]) with CPU
//!    cache-line shadowing, explicit [`Media::flush`] / [`Media::fence`]
//!    (CLWB / SFENCE equivalents) and *seeded torn-write crash injection*
//!    ([`Media::crash`]): dirty lines vanish, flushed-but-unfenced lines
//!    persist with probability ½. This makes persistence-ordering bugs —
//!    which on real hardware only surface as silent corruption after a power
//!    loss — reproducible in unit and property tests.
//!
//! Virtual time is tracked through [`Cost`] sinks: storage operations never
//! sleep, they *charge* nanoseconds, and the training simulator in
//! `oe-train` composes those charges into end-to-end phase times.

pub mod clock;
pub mod contention;
pub mod cost;
pub mod device;
pub mod hist;
pub mod integrity;
pub mod media;
pub mod overlap;
pub mod rng;
pub mod sync;

pub use clock::{Nanos, VirtualClock};
pub use contention::{amdahl_burst, shared_bandwidth_ns, ContentionModel};
pub use cost::{Cost, CostKind};
pub use device::{DeviceKind, DeviceTiming};
pub use hist::LatencyHistogram;
pub use integrity::integrity_hash;
pub use media::{CrashImage, CrashPlan, Media, MediaConfig, CACHE_LINE};
pub use overlap::PipelineWindow;
