//! Exhaustive crash-point enumeration: every persistence event (each
//! CLWB-equivalent flush and SFENCE-equivalent fence) of a reference
//! training run — multi-batch, three checkpoint commits, a changing key
//! population — is a crash point. For every index, and several
//! torn-write seeds per index, the sweep crashes, recovers through
//! `core::recovery`, and checks the five durability invariants
//! (committed-id bounds, checksum integrity, slot accounting,
//! recovery idempotence, bit-identical lossless rewind). See
//! `support::crashmc` for the invariant definitions.

pub mod support;

use openembedding::net::{validate_frame, Packet, Request, Response, ResponseView};
use openembedding::prelude::*;
use openembedding::simdevice::Media;
use std::sync::Arc;
use support::crashmc::{
    capture_image, check_crash_point, committed_bounds, recovery_crash_sweep, reference, sweep,
    CrashMcConfig,
};

fn assert_clean_exhaustive(optimizer: OptimizerKind) {
    let cfg = CrashMcConfig::exhaustive(optimizer);
    assert_eq!(cfg.stride, 1, "exhaustive sweep covers every index");
    let rep = sweep(&cfg);
    assert!(
        rep.violations.is_empty(),
        "durability violations at enumerated crash points: {:#?}",
        rep.violations
    );
    // Coverage: every event index plus the quiescent end state, at the
    // configured torn-write fan-out.
    assert_eq!(rep.indices_checked, rep.total_events + 1);
    assert_eq!(rep.seeds_per_index, cfg.seeds_per_index);
    assert!(
        rep.total_events > 100,
        "the schedule must generate real persistence traffic, saw {}",
        rep.total_events
    );
    // Unrecoverable media is legal only before the pool root's first
    // fence (event indices 0 and 1), and index 1 only torn-write-
    // dependently — so at most 2 indices × seeds captures.
    assert!(
        rep.unrecoverable_fresh <= 2 * cfg.seeds_per_index,
        "unrecoverable media beyond the pool-root fence window: {}",
        rep.unrecoverable_fresh
    );
}

fn adagrad() -> OptimizerKind {
    OptimizerKind::Adagrad {
        lr: 0.05,
        eps: 1e-8,
    }
}

fn adam() -> OptimizerKind {
    OptimizerKind::Adam {
        lr: 0.01,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
    }
}

/// The stride-sampled sweep's coverage, per optimizer: every 7th event
/// index with one torn-write seed, then a crash inside the recovery of
/// the image taken at 99 % of the event stream. Every enumerated crash
/// point is an index into the persistence-event stream, so a media or
/// pool change that adds, drops or reorders a flush or fence moves
/// these counts.
#[test]
fn smoke_shape_event_stream_is_pinned() {
    let (mut events_enumerated, mut invariant_checks) = (0, 0);
    for optimizer in [OptimizerKind::Sgd { lr: 0.5 }, adagrad()] {
        let mut cfg = CrashMcConfig::exhaustive(optimizer);
        cfg.stride = 7;
        cfg.seeds_per_index = 1;
        let s = sweep(&cfg);
        assert!(s.violations.is_empty(), "{:#?}", s.violations);
        assert_eq!(s.total_events, 238, "{optimizer:?} total events");
        assert_eq!(s.indices_checked, 35, "{optimizer:?} indices checked");
        let rs = recovery_crash_sweep(&cfg, (s.total_events - 1) * 99 / 100, 0xC4A5);
        assert!(rs.violations.is_empty(), "{:#?}", rs.violations);
        assert_eq!(rs.indices_checked, 10, "{optimizer:?} recovery indices");
        events_enumerated += s.indices_checked;
        invariant_checks += s.invariant_checks + rs.invariant_checks;
    }
    assert_eq!(events_enumerated, 70, "events enumerated");
    assert_eq!(invariant_checks, 830, "invariant checks");
}

#[test]
fn exhaustive_sweep_sgd_holds_every_invariant() {
    assert_clean_exhaustive(OptimizerKind::Sgd { lr: 0.5 });
}

#[test]
fn exhaustive_sweep_adagrad_holds_every_invariant() {
    assert_clean_exhaustive(adagrad());
}

#[test]
fn exhaustive_sweep_adam_holds_every_invariant() {
    // Adam's payload carries two moments plus the step counter — the
    // widest persisted state, and the one where a lossy recovery shows
    // up as a rewind divergence even when the weights look plausible.
    assert_clean_exhaustive(adam());
}

#[test]
fn crash_during_recovery_is_exhaustively_idempotent() {
    let cfg = CrashMcConfig::exhaustive(OptimizerKind::Sgd { lr: 0.5 });
    let r = reference(&cfg);
    // Crash points with post-checkpoint progress: recovery must discard
    // future slots (durable `free_no_list` writes), and each of those
    // writes is itself an enumerable crash point. Sweep several source
    // crash points spread across the run.
    let mut recovery_events_seen = 0;
    for (i, at_event) in [
        r.total_events - 1,
        r.total_events - 7,
        r.total_events * 3 / 4,
        r.total_events / 2,
    ]
    .into_iter()
    .enumerate()
    {
        let rep = recovery_crash_sweep(&cfg, at_event, 101 + i as u64);
        assert!(
            rep.violations.is_empty(),
            "crash-during-recovery violations at source event {at_event}: {:#?}",
            rep.violations
        );
        assert_eq!(rep.indices_checked, rep.recovery_events);
        recovery_events_seen += rep.recovery_events;
    }
    assert!(
        recovery_events_seen > 0,
        "at least one source crash point must make recovery issue durable frees"
    );

    // The stateful optimizers at 50 / 75 / 99 % of their event streams:
    // 30 crash points inside recovery each.
    for optimizer in [adagrad(), adam()] {
        let cfg = CrashMcConfig::exhaustive(optimizer);
        let last = reference(&cfg).total_events - 1;
        let mut indices = 0;
        for (i, pct) in [50, 75, 99].into_iter().enumerate() {
            let rep = recovery_crash_sweep(&cfg, last * pct / 100, 0xC4A5 + i as u64);
            assert!(rep.violations.is_empty(), "{:#?}", rep.violations);
            assert_eq!(rep.indices_checked, rep.recovery_events);
            indices += rep.indices_checked;
        }
        assert_eq!(indices, 30, "{optimizer:?} recovery indices");
    }
}

#[test]
fn standby_promotes_consistently_from_enumerated_crash_points() {
    let cfg = CrashMcConfig::exhaustive(adagrad());
    let r = reference(&cfg);
    // Drive `net::Standby` promotion from images captured at chosen
    // crash indices: mid-run, late-run, and the final fence.
    for (i, at_event) in [
        r.total_events / 3,
        r.total_events * 4 / 5,
        r.total_events - 1,
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 7 + i as u64;
        let image = capture_image(&cfg, at_event, seed);
        let media = Arc::new(Media::from_crash(image));
        let standby = Standby::new(
            Arc::new(LocalMedia::new(media, 2)),
            cfg.node_config(),
            2,
            seed,
        );
        let promo = standby.promote().expect("captured image is recoverable");
        let (lo, hi) = committed_bounds(&r, at_event);
        let resume_batch = promo.event.resume_batch;
        assert!(
            resume_batch >= lo && resume_batch <= hi,
            "promotion at event {at_event} resumed at {resume_batch} outside [{lo}, {hi}]",
        );
        // The promoted server must answer for exactly that checkpoint.
        let reply = promo
            .transport
            .call(Packet::request(1, 1, Request::Committed).encode(), None)
            .expect("promoted server serves");
        let meta = validate_frame(&reply).expect("well-formed frame");
        let resp = ResponseView::decode(meta, &reply).expect("well-formed response");
        assert!(
            matches!(
                resp,
                ResponseView::Other(Response::Committed { batch }) if batch == resume_batch
            ),
            "{resp:?}"
        );
    }
}

// The harness's own checks, at the smallest shapes that exercise each
// entry point.

fn sgd_cfg() -> CrashMcConfig {
    CrashMcConfig::exhaustive(OptimizerKind::Sgd { lr: 0.5 })
}

#[test]
fn reference_run_is_deterministic() {
    let cfg = sgd_cfg();
    let a = reference(&cfg);
    let b = reference(&cfg);
    assert_eq!(a.total_events, b.total_events);
    assert!(a.total_events > 50, "schedule generates real traffic");
    assert_eq!(a.final_weights, b.final_weights, "bit-identical replays");
    assert_eq!(a.requested, vec![2, 4, 6]);
    // Three commits land in the reference (requests at 2, 4, 6
    // commit during the following batch's maintenance).
    assert_eq!(a.records.last().unwrap().committed, 6);
    // Boundary event counters never decrease (a batch with no
    // eviction or commit traffic legally issues zero events), and
    // the run as a whole generates traffic past creation.
    for w in a.records.windows(2) {
        assert!(w[0].events <= w[1].events);
    }
    let first = a.records.first().unwrap().events;
    let last = a.records.last().unwrap().events;
    assert!(last > first);
}

#[test]
fn spot_crash_points_hold_all_invariants() {
    // The full sweeps are above; here a spot check at characteristic
    // indices (fresh pool, mid-run, quiescence).
    let cfg = sgd_cfg();
    let r = reference(&cfg);
    for k in [0, 1, 2, r.total_events / 2, r.total_events] {
        let rep = check_crash_point(&cfg, &r, k, 7);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert!(rep.checks > 0);
    }
}

#[test]
fn sampled_sweep_is_clean_and_counts_coverage() {
    let mut cfg = sgd_cfg();
    cfg.stride = 29;
    cfg.seeds_per_index = 1;
    let rep = sweep(&cfg);
    assert!(rep.violations.is_empty(), "{:#?}", rep.violations);
    assert_eq!(
        rep.indices_checked,
        rep.total_events / 29 + 1,
        "stride covers the range"
    );
    assert!(rep.invariant_checks > rep.indices_checked * 5);
}

#[test]
fn crash_during_recovery_recovers_again() {
    let cfg = sgd_cfg();
    let r = reference(&cfg);
    // Crash mid-run where uncommitted future slots exist, so the
    // recovery scan has durable frees to issue (and be crashed in).
    let rep = recovery_crash_sweep(&cfg, r.total_events - 3, 11);
    assert!(
        rep.recovery_events > 0,
        "recovery at this index issues durable frees"
    );
    assert_eq!(rep.indices_checked, rep.recovery_events);
    assert!(rep.violations.is_empty(), "{:#?}", rep.violations);
}
