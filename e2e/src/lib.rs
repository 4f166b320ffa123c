//! `oe-e2e`: one train → checkpoint → publish → serve → recover
//! benchmark over the whole stack, in virtual and host time, with a
//! per-layer traced run. See `README.md` next to this crate.

pub mod compare;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod pin;
pub mod report;
pub mod seams;
pub mod stack;
pub mod stages;
pub mod trace;
pub mod workloads;
