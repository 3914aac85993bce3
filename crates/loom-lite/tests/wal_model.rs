//! The *real* WAL group-commit protocol under exhaustive/bounded
//! schedule exploration.
//!
//! `oisum_service::wal::Shared` is generic over
//! [`oisum_core::SyncShimLike`] and a storage sink, so the exact
//! production code paths — `submit` (the only ticket issuer) with its
//! `never` inline commit, `append`'s one counted wait on the ticket,
//! `run_committer`'s accumulate-and-drain loop, the `done_waiters`
//! notify skip-guard — run here against model primitives, with every
//! lock, wait, notify, and atomic a scheduling point. Each scenario
//! (preemption bound 2) asserts, in every explored schedule:
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
//! The harness and the scenarios live in `support/` so the schedule
//! census can record the same scenarios' execution counts.
//! Every queued record reaches the committer through `submit`'s
//! empty→1 `notify_one(work)`; these scenarios fail with a lost-wakeup
//! verdict if that handoff regresses.

mod support;

use oisum_service::wal::LOCK_ORDER;

/// The ordering witness: the constant the production annotation
/// (`lint:lock-order`) and these scenarios both rely on.
#[test]
fn declared_order_matches_wal_annotation() {
    assert_eq!(LOCK_ORDER, ["segment", "state"]);
}

#[test]
fn wal_always_single_appender() {
    let report = support::always_single_appender();
    assert_eq!(*report.sole_outcome(), (1, 1, 1, 1, true, 0));
    assert!(report.executions > 10, "blocking points must branch the tree");
}

#[test]
fn wal_always_two_appenders_bounded() {
    let report = support::always_two_appenders();
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 2, true, 0));
}

#[test]
fn wal_group_two_appenders_bounded() {
    let report = support::group_two_appenders();
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 2, true, 0));
}

#[test]
fn wal_never_two_appenders_bounded() {
    let report = support::never_two_appenders();
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 0, true, 0));
}

/// The reactor's `never` path: dense watermark and
/// ACKed-implies-durable are probed at each ACK; the end state also
/// checks one waker call per mark the committer published (see
/// `support::observe`).
#[test]
fn wal_never_inline_submit_races_queued_submit() {
    let report = support::never_inline_submit_race();
    assert_eq!(*report.sole_outcome(), (2, 2, 2, 0, true, 1));
    assert!(report.executions > 100, "three threads must branch the tree");
}
