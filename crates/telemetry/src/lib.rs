//! # oe-telemetry
//!
//! The observability substrate of the parameter-server stack (S25):
//! the paper evaluates OpenEmbedding almost entirely through latency
//! and throughput distributions (§VI, Table I, Fig. 11), and a
//! production PS is tuned by watching exactly those numbers move.
//!
//! - [`hist`] — a lock-free, log₂-bucketed latency [`Histogram`]
//!   (record in ns through `&self`, query p50/p95/p99/p999/max on an
//!   immutable [`HistogramSnapshot`], mergeable across threads). The
//!   same histogram serves wall-clock `Instant` timings on real
//!   servers and virtual-time `Cost` deltas in the discrete-event
//!   simulator.
//! - [`registry`] — a [`Registry`] of named counters/gauges/histograms
//!   with cheap cloned handles for hot-path recording and a consistent
//!   [`Registry::snapshot`].
//! - [`span`] — per-[`Phase`] timers ([`PhaseTimes`]) with RAII
//!   wall-clock guards and explicit virtual-time recording.
//! - [`text`] — Prometheus-style text exposition, served over the
//!   wire by `Request::Metrics` and printed by `oectl metrics`.
//!
//! The crate depends only on `std`, so every layer of the
//! stack (core node, net server, snapshot handle, trainer, benches) can
//! link it without weight.

#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod span;
pub mod text;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, HistogramHandle, MetricValue, Registry, RegistrySnapshot};
pub use span::{Phase, PhaseTimes, SpanGuard};
