//! The WAL model harness shared by `wal_model.rs` (which asserts the
//! scenarios) and `census.rs` (which records how many schedules they
//! cover): the real `oisum_service::wal::Shared` protocol over model
//! primitives and an observable in-memory sink.

// Each test binary uses its own subset of the harness.
#![allow(dead_code)]

use oisum_loom_lite::{declare_lock_order, Model, ModelSyncShim, Report, ThreadBody};
use oisum_service::wal::{FsyncPolicy, MemSink, SegmentSink, Shared, WalError, LOCK_ORDER};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

/// [`MemSink`] behind an `Arc` so the scenario can still observe it
/// after the committer's close path takes it out of the protocol
/// (`*seg = None`, exactly as production drops the sealed file). The
/// inner `std` mutex is never contended — the protocol only touches the
/// sink under the model-checked `segment` lock — so it adds no blocking
/// the scheduler can't see.
pub struct SharedSink(Arc<StdMutex<MemSink>>);

impl SharedSink {
    fn mem(&self) -> std::sync::MutexGuard<'_, MemSink> {
        self.0.lock().unwrap()
    }
}

impl SegmentSink for SharedSink {
    fn commit_one(
        &mut self,
        stream: &str,
        client_id: u64,
        seq: u64,
        value_bytes: &[u8],
    ) -> Result<(), WalError> {
        self.mem().commit_one(stream, client_id, seq, value_bytes)
    }
    fn fits_inline(&self, framed: usize) -> bool {
        self.mem().fits_inline(framed)
    }
    fn ensure_group_fits(&mut self, incoming: usize) -> Result<(), WalError> {
        self.mem().ensure_group_fits(incoming)
    }
    fn commit_group(&mut self, buf: &mut [u8], count: u64, fsync: bool) -> Result<(), WalError> {
        self.mem().commit_group(buf, count, fsync)
    }
    fn rotate_if_full(&mut self) -> Result<(), WalError> {
        self.mem().rotate_if_full()
    }
    fn seal(&mut self) -> Result<(), WalError> {
        self.mem().seal()
    }
    fn index(&self) -> u64 {
        self.mem().index()
    }
}

pub struct WalScenario {
    pub shared: Shared<ModelSyncShim, SharedSink>,
    pub sink: Arc<StdMutex<MemSink>>,
    /// Every mark the commit waker was called with, in call order.
    /// Pushed from inside the protocol, never contended (see
    /// [`SharedSink`]).
    pub wakes: Arc<StdMutex<Vec<u64>>>,
}

/// A scenario over `sink` with a recording commit waker.
pub fn mk_scenario_with(fsync: FsyncPolicy, sink: MemSink) -> WalScenario {
    let sink = Arc::new(StdMutex::new(sink));
    let wakes = Arc::new(StdMutex::new(Vec::new()));
    let shared = Shared::new(fsync, SharedSink(Arc::clone(&sink)), 0);
    let log = Arc::clone(&wakes);
    assert!(shared.set_commit_waker(Box::new(move |mark| log.lock().unwrap().push(mark))));
    WalScenario { shared, sink, wakes }
}

/// An appender thread: appends one record and, on ACK, probes the
/// ACKed-implies-durable and dense-watermark invariants at that very
/// point in the schedule (not just at the end).
pub fn appender(id: u64, fsyncs: bool) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        s.shared
            .append("model", id, 1, &id.to_le_bytes())
            .expect("append must be ACKed");
        s.shared.probe(|sink, submitted, committed| {
            assert!(committed <= submitted, "watermark must stay dense");
            if fsyncs {
                if let Some(sink) = sink {
                    let m = sink.mem();
                    assert!(
                        m.synced_records >= committed,
                        "ACKed-implies-durable: committed {} > synced {}",
                        committed,
                        m.synced_records
                    );
                }
            }
        });
    })
}

/// A submitter thread under `never`: submits one record of
/// `values` f64s, waits (blocking, counted) until the mark covers its
/// ticket — the moment the reactor would send the ACK — and probes
/// there that the record is written into the sink (`never`'s meaning
/// of durable: tickets commit in order, so `records >= ticket`) and
/// that the watermark is dense.
pub fn submitter(id: u64, values: usize) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        let bytes = vec![0u8; 8 * values];
        let ticket = s.shared.submit("model", id, 1, &bytes).expect("submit must be accepted");
        s.shared.wait_committed(ticket).expect("submit must be ACKed");
        assert!(s.shared.commit_mark() >= ticket, "ACK before the mark covered the ticket");
        s.shared.probe(|sink, submitted, committed| {
            assert!(committed <= submitted, "watermark must stay dense");
            if let Some(sink) = sink {
                let records = sink.mem().records;
                assert!(
                    records >= ticket,
                    "ACKed-implies-durable: ticket {ticket} > {records} written"
                );
            }
        });
    })
}

/// A [`submitter`] that doubles as the closer once all `n` tickets are
/// committed (see [`appender_then_closer`] for why roles are folded).
pub fn submitter_then_closer(id: u64, values: usize, n: u64) -> ThreadBody<WalScenario> {
    let submit = submitter(id, values);
    Box::new(move |s: &WalScenario| {
        submit(s);
        s.shared.wait_committed(n).expect("every ticket commits");
        s.shared.request_stop();
    })
}

pub fn committer() -> ThreadBody<WalScenario> {
    Box::new(|s: &WalScenario| s.shared.run_committer())
}

/// An appender that doubles as the closer: appends, then waits
/// (blocking, counted — never polling) for all `n` tickets to commit
/// and stops the committer so it drains and seals. Folding the roles
/// keeps the thread count at three, which is what keeps the
/// preemption-bounded tree enumerable in seconds rather than minutes —
/// and the stranding window needs only two appenders plus the
/// committer anyway.
pub fn appender_then_closer(id: u64, fsyncs: bool, n: u64) -> ThreadBody<WalScenario> {
    let append = appender(id, fsyncs);
    Box::new(move |s: &WalScenario| {
        append(s);
        s.shared.wait_committed(n).expect("every ticket commits");
        s.shared.request_stop();
    })
}

/// Waits (blocking, counted — never polling) for all `n` tickets to
/// commit, then stops the committer so it drains and seals.
pub fn closer(n: u64) -> ThreadBody<WalScenario> {
    Box::new(move |s: &WalScenario| {
        s.shared.wait_committed(n).expect("every ticket commits");
        s.shared.request_stop();
    })
}

/// The end-state every schedule must agree on (an [`Outcome`]). It also
/// checks that the commit waker ran once for every mark the
/// queue-draining path published, with exactly that mark — the
/// reactor's only wakeup.
pub fn observe(n: u64) -> impl Fn(&WalScenario) -> Outcome {
    move |s: &WalScenario| {
        let (submitted, committed) = s.shared.queue_snapshot();
        let m = s.sink.lock().unwrap();
        assert_eq!(submitted, n, "every append got a ticket");
        assert_eq!(committed, n, "dense watermark covers every ticket");
        assert_eq!(
            *s.wakes.lock().unwrap(),
            m.group_ends,
            "the commit waker must run once per published group mark"
        );
        (submitted, committed, m.records, m.synced_records, m.sealed, m.rotations)
    }
}

/// The end state [`observe`] reports: `(submitted, committed,
/// records, synced records, sealed, rotations)`.
pub type Outcome = (u64, u64, u64, u64, bool, u64);

/// Explores `threads` over a fresh scenario under `fsync` (the sink
/// rotating at `rotate_at` bytes, 0 never) at preemption bound 2 — the
/// CHESS result: almost every concurrency bug manifests within two
/// preemptions, and the tree stays enumerable — with the WAL's lock
/// order declared to the checker, and every schedule's end state
/// checked by [`observe`]`(n)`.
fn bounded(
    fsync: FsyncPolicy,
    rotate_at: usize,
    threads: Vec<ThreadBody<WalScenario>>,
    n: u64,
) -> Report<Outcome> {
    declare_lock_order(&LOCK_ORDER);
    let report = Model { preemption_bound: Some(2), ..Model::default() }.check(
        || mk_scenario_with(fsync, MemSink { rotate_at, ..MemSink::default() }),
        threads,
        observe(n),
    );
    declare_lock_order(&[]);
    report
}

/// One appender + committer + closer, `always` policy.
pub fn always_single_appender() -> Report<Outcome> {
    bounded(FsyncPolicy::Always, 0, vec![appender(1, true), committer(), closer(1)], 1)
}

/// Two racing appenders + committer under `always`: both records
/// cross to the committer, whichever order they queue in.
pub fn always_two_appenders() -> Report<Outcome> {
    let threads = vec![appender_then_closer(1, true, 2), appender(2, true), committer()];
    bounded(FsyncPolicy::Always, 0, threads, 2)
}

/// Two appenders under the `group` policy: both records travel through
/// the queue and the committer's timed accumulation loop (`max_wait`
/// below one wait slice ⇒ exactly one timeout window per pass), with
/// the appenders raising the `appending` gauge across their submits.
pub fn group_two_appenders() -> Report<Outcome> {
    let policy = FsyncPolicy::Group { max_batch: 2, max_wait: Duration::from_nanos(1) };
    let threads = vec![appender_then_closer(1, true, 2), appender(2, true), committer()];
    bounded(policy, 0, threads, 2)
}

/// Two blocking appenders under `never`: each either commits inline or
/// queues behind the other — no fsync anywhere, so `synced_records`
/// stays 0, but liveness and the dense watermark are policy-free.
pub fn never_two_appenders() -> Report<Outcome> {
    let threads = vec![appender_then_closer(1, false, 2), appender(2, false), committer()];
    bounded(FsyncPolicy::Never, 0, threads, 2)
}

/// A `never`-policy inline submit races a queued submit, the committer
/// and a closer; the queued submitter doubles as the closer, which
/// keeps the tree at three threads. The sink rotates at 64 bytes:
/// the 1-value record (43 framed bytes) fits inline into an empty
/// segment, the 8-value one (99 bytes) never fits and always takes the
/// queue, so the committer commits it, rotates, and publishes — while
/// the small record commits inline, or queues behind it, depending on
/// the schedule. Every schedule ends with both records committed, one
/// rotation, and a sealed sink.
pub fn never_inline_submit_race() -> Report<Outcome> {
    let threads = vec![submitter(1, 1), submitter_then_closer(2, 8, 2), committer()];
    bounded(FsyncPolicy::Never, 64, threads, 2)
}

/// A WAL scenario: explores its schedules and reports their outcomes.
pub type Scenario = fn() -> Report<Outcome>;

/// Every WAL scenario, by its census name.
pub const WAL_SCENARIOS: [(&str, Scenario); 5] = [
    ("wal_always_single_appender", always_single_appender),
    ("wal_always_two_appenders", always_two_appenders),
    ("wal_group_two_appenders", group_two_appenders),
    ("wal_never_two_appenders", never_two_appenders),
    ("wal_never_inline_submit_race", never_inline_submit_race),
];
