//! Runs every workload briefly, untraced and traced, and checks that
//! the run emits exactly the metrics `BENCHMARK.json` declares, with
//! their units, and that the correctness checks fire.

use oisbench::{run, Report, RunConfig, Workload};
use std::path::PathBuf;
use std::time::Duration;

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`. The
/// file keeps one entry per line, so a line scan suffices.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_owned())
    };
    let body = text
        .split(&format!("\"{list}\": ["))
        .nth(1)
        .expect("list present");
    body.split(']')
        .next()
        .expect("list closes")
        .lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn config(workload: Workload, trace: bool, tag: &str) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        length: Duration::from_millis(800),
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{tag}", workload.name())),
        corrupt_one_read: false,
        fail_one_add: false,
    }
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

fn check(workload: Workload) {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!(e2e.len(), 6, "six end-to-end metrics declared");
    assert!(layers.len() > 30, "per-layer rows declared");

    let report = run(&config(workload, false, "e2e")).expect("untraced run");
    assert!(
        report.correct,
        "{}: {:?}",
        workload.name(),
        report.mismatches
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    assert_eq!(
        emitted(&report),
        e2e,
        "{}: end-to-end metrics",
        workload.name()
    );
    assert!(report
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value != 0.0));
    let ok = report
        .metrics
        .iter()
        .find(|m| m.name == "ops_ok_ratio")
        .expect("ratio");
    assert_eq!(ok.value, 1.0);

    let report = run(&config(workload, true, "trace")).expect("traced run");
    assert!(
        report.correct,
        "{}: {:?}",
        workload.name(),
        report.mismatches
    );
    let mut got = emitted(&report);
    let mut want = layers;
    got.sort();
    want.sort();
    assert_eq!(got, want, "{}: per-layer rows", workload.name());
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn bulk_emits_every_metric() {
    check(Workload::Bulk);
}

#[test]
fn durable_emits_every_metric() {
    check(Workload::Durable);
}

#[test]
fn replicated_emits_every_metric() {
    check(Workload::Replicated);
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    for workload in Workload::ALL {
        let cfg = RunConfig {
            corrupt_one_read: true,
            ..config(workload, false, "corrupt")
        };
        let report = run(&cfg).expect("run");
        assert!(
            !report.correct,
            "{}: a flipped expected bit went unnoticed",
            workload.name()
        );
        assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn a_refused_add_is_counted_and_settled() {
    for workload in Workload::ALL {
        let cfg = RunConfig {
            fail_one_add: true,
            ..config(workload, false, "refused")
        };
        let report = run(&cfg).expect("run");
        assert!(
            report.correct,
            "{}: {:?}",
            workload.name(),
            report.mismatches
        );
        assert_eq!(report.failed, 1, "{}", workload.name());
        let ok = report
            .metrics
            .iter()
            .find(|m| m.name == "ops_ok_ratio")
            .expect("ratio");
        assert!(ok.value < 1.0, "{}: {}", workload.name(), ok.value);
    }
}
