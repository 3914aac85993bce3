//! Schedule-accounting census: pins exploration sizes to closed forms
//! where they exist, and emits the outcome census as JSON
//! (`BENCH_loomlite.json`-style) when `OISUM_LOOMLITE_OUT` names a
//! file — `scripts/verify.sh` sets it so every verified tree ships a
//! machine-readable record of how many schedules its proofs covered.

mod support;

use oisum_core::AtomicU64Like;
use oisum_loom_lite::{binomial, Model, ModelAtomicU64, ModelMutex, Report, ThreadBody};

fn incr_body(times: usize) -> ThreadBody<ModelAtomicU64> {
    Box::new(move |a| {
        for _ in 0..times {
            a.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    })
}

/// Atomic-only scenarios have closed-form schedule counts: each thread
/// takes (ops + 1) grants — one registration step plus one per op — so
/// two symmetric threads explore C(2g, g) schedules, three explore the
/// multinomial. Any drift in these counts means the scheduler's choice
/// points changed, which is exactly what this census exists to notice.
#[test]
fn closed_form_pins() {
    assert_eq!(binomial(4, 2), 6);
    assert_eq!(binomial(6, 2) * binomial(4, 2), 90);
    assert_eq!(binomial(14, 7), 3432);

    let two = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![incr_body(1), incr_body(1)],
        |a| a.load(std::sync::atomic::Ordering::Relaxed),
    );
    assert_eq!(two.executions as u128, binomial(4, 2));

    let three = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![incr_body(1), incr_body(1), incr_body(1)],
        |a| a.load(std::sync::atomic::Ordering::Relaxed),
    );
    assert_eq!(three.executions as u128, binomial(6, 2) * binomial(4, 2));

    let deep = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![incr_body(6), incr_body(6)],
        |a| a.load(std::sync::atomic::Ordering::Relaxed),
    );
    assert_eq!(deep.executions as u128, binomial(14, 7));
}

/// Census entries are well-formed JSON objects with the four expected
/// fields, and failures render as a string, not a structure.
#[test]
fn census_json_shape() {
    let report = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![incr_body(1), incr_body(1)],
        |a| a.load(std::sync::atomic::Ordering::Relaxed),
    );
    let json = report.census_json("two_incr");
    assert_eq!(
        json,
        "{\"scenario\": \"two_incr\", \"executions\": 6, \"distinct_outcomes\": 1, \"failure\": null}"
    );
}

/// Runs the census suite and, when `OISUM_LOOMLITE_OUT` is set, writes
/// the combined JSON array for the benchmark record.
#[test]
fn outcome_census_and_artifact() {
    let mut entries: Vec<String> = Vec::new();

    let two = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![incr_body(1), incr_body(1)],
        |a| a.load(std::sync::atomic::Ordering::Relaxed),
    );
    assert_eq!(two.outcomes.len(), 1);
    entries.push(two.census_json("atomic_two_incr"));

    let deep = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![incr_body(6), incr_body(6)],
        |a| a.load(std::sync::atomic::Ordering::Relaxed),
    );
    entries.push(deep.census_json("atomic_deep_incr"));

    let mutex: Report<u64> = Model::default().check(
        || ModelMutex::new("counter", 0u64),
        vec![
            Box::new(|m: &ModelMutex<u64>| {
                *m.lock() += 1;
            }),
            Box::new(|m: &ModelMutex<u64>| {
                *m.lock() += 1;
            }),
        ],
        |m| *m.lock(),
    );
    assert_eq!(mutex.outcomes.len(), 1);
    entries.push(mutex.census_json("mutex_two_incr"));

    // A deliberately racy read-modify-write: the census records the
    // schedule-dependence (2 outcomes) rather than hiding it.
    let racy = Model::default().check(
        || ModelAtomicU64::new(0),
        vec![
            Box::new(|a: &ModelAtomicU64| {
                let v = a.load(std::sync::atomic::Ordering::SeqCst);
                a.store(v + 1, std::sync::atomic::Ordering::SeqCst);
            }),
            Box::new(|a: &ModelAtomicU64| {
                let v = a.load(std::sync::atomic::Ordering::SeqCst);
                a.store(v + 1, std::sync::atomic::Ordering::SeqCst);
            }),
        ],
        |a| a.load(std::sync::atomic::Ordering::SeqCst),
    );
    assert_eq!(racy.outcomes.len(), 2, "lost update must appear as a second outcome");
    entries.push(racy.census_json("racy_rmw"));

    // The WAL scenarios (asserted in wal_model.rs): how many bounded
    // schedules each proof covers.
    for (name, scenario) in support::WAL_SCENARIOS {
        let wal = scenario();
        assert_eq!(wal.outcomes.len(), 1, "{name}");
        entries.push(wal.census_json(name));
    }

    if let Ok(path) = std::env::var("OISUM_LOOMLITE_OUT") {
        let body = format!("[\n  {}\n]\n", entries.join(",\n  "));
        std::fs::write(&path, body).expect("write census artifact");
    }
}
