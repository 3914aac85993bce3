//! The *real* WAL group-commit protocol under exhaustive/bounded
//! schedule exploration.
//!
//! `oisum_service::wal::Shared` is generic over
//! [`oisum_core::SyncShimLike`] and a storage sink, so the exact
//! production code paths — `append`'s inline fast path, the contended
//! spin/park path, `run_committer`'s accumulate-and-drain loop, the
//! `done_waiters` notify skip-guard — run here against model
//! primitives, with every lock, wait, notify, and atomic a scheduling
//! point. Each scenario asserts, in every explored schedule:
//!
//! * **no verdicts** — no deadlock, no lost wakeup, no lock-order
//!   inversion (the `segment < state` order is declared to the
//!   checker);
//! * **dense watermark** — `committed` never exceeds `submitted`, and
//!   both equal the appended count at the end;
//! * **ACKed implies durable** — at every probe point the sink's synced
//!   watermark covers everything `committed` claims (with fsync on), so
//!   an `Ok` append was durable when ACKed;
//! * **clean close** — the sink is sealed exactly once, after all
//!   records;
//! * **waker per mark** — the commit waker (the reactor's only wakeup)
//!   ran once for every mark the queue-draining path published, with
//!   that mark.
//!
//! The harness lives in `support/` so the schedule census can record
//! the same scenarios' execution counts.
//! The contended park path once had a genuine stranding window here: an
//! appender that lost the segment-lock race to a direct committer whose
//! group did not cover its ticket could park on `done` just as that
//! committer's skip-guarded notify saw zero waiters — leaving the
//! record queued with nobody left to commit it until the next append,
//! flush, or close. These scenarios fail with a lost-wakeup verdict if
//! that hand-to-committer fix regresses.

mod support;

use oisum_loom_lite::{declare_lock_order, Model};
use oisum_service::wal::{FsyncPolicy, LOCK_ORDER};
use std::time::Duration;
use support::{
    appender, appender_then_closer, closer, committer, mk_scenario, never_inline_submit_race,
    observe,
};

/// The ordering witness: the constant the production annotation
/// (`lint:lock-order`) and these scenarios both rely on.
#[test]
fn declared_order_matches_wal_annotation() {
    assert_eq!(LOCK_ORDER, ["segment", "state"]);
}

/// One appender + committer + closer, `always` policy. Bound 2 — the
/// CHESS result: almost every concurrency bug manifests within two
/// preemptions, and the tree stays enumerable.
#[test]
fn wal_always_single_appender() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Always),
        vec![appender(1, true), committer(), closer(1)],
        observe(1),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (1, 1, 1, 1, true, 0));
    assert!(report.executions > 10, "blocking points must branch the tree");
}

/// Two racing appenders + committer under `always`: the contended path
/// (try_lock race, spin-exhausted park, committer handoff) is exercised
/// across schedules. Preemption-bounded (CHESS, bound 2) to keep the
/// tree tractable; the stranding regression above needs exactly two
/// preemptions, so the bound covers it.
#[test]
fn wal_always_two_appenders_bounded() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Always),
        vec![appender_then_closer(1, true, 2), appender(2, true), committer()],
        observe(2),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 2, true, 0));
}

/// Two appenders under the `group` policy: both records travel through
/// the queue and the committer's timed accumulation loop (`max_wait`
/// below one wait slice ⇒ exactly one timeout window per pass).
#[test]
fn wal_group_two_appenders_bounded() {
    declare_lock_order(&LOCK_ORDER);
    let policy = FsyncPolicy::Group { max_batch: 2, max_wait: Duration::from_nanos(1) };
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(policy),
        vec![appender_then_closer(1, true, 2), appender(2, true), committer()],
        observe(2),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 2, true, 0));
}

/// `never` policy: no fsync anywhere — `synced_records` stays 0, but
/// the protocol's liveness and the dense watermark are policy-free.
#[test]
fn wal_never_two_appenders_bounded() {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario(FsyncPolicy::Never),
        vec![appender_then_closer(1, false, 2), appender(2, false), committer()],
        observe(2),
    );
    declare_lock_order(&[]);
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 0, true, 0));
}

/// The reactor's `never` path: an inline submit races a queued submit
/// (its record would reach the rotation threshold), the committer and
/// a closer. Dense watermark and ACKed-implies-durable are probed at
/// each ACK; the end state also checks one waker call per mark the
/// committer published (see `support::observe`).
#[test]
fn wal_never_inline_submit_races_queued_submit() {
    let report = never_inline_submit_race();
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 0, true, 1));
    assert!(report.executions > 100, "four threads must branch the tree");
}
