//! `oisbench --workload <bulk|durable|replicated> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Appends the
//! run's figures, with the git revision, to `history.jsonl` beside this
//! package's manifest. Exits 1 if the run was incorrect, 2 on bad
//! arguments or when the benchmark could not run.

use oisbench::{metrics_json, run, Report, RunConfig, Workload};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const USAGE: &str =
    "usage: oisbench --workload <bulk|durable|replicated> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        length: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: package_dir().join(".work").join(workload.name()),
        corrupt_one_read: false,
        fail_one_add: false,
    })
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the checkout is at, read from `.git` beside this package
/// without walking further up; "unknown" outside a git checkout.
fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn append_history(cfg: &RunConfig, report: &Report) -> std::io::Result<()> {
    let dir = package_dir();
    let rev = git_rev(dir.parent().unwrap_or(&dir));
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let all: Vec<_> = report
        .metrics
        .iter()
        .chain(&report.extra)
        .cloned()
        .collect();
    let line = format!(
        "{{\"rev\": \"{rev}\", \"unix_s\": {unix_s}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.length.as_secs_f64(),
        u8::from(cfg.trace),
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&all)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?
        .write_all(line.as_bytes())
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("oisbench {}: could not run: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    for m in report.metrics.iter().chain(&report.extra) {
        eprintln!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &report.mismatches {
        eprintln!("MISMATCH {m}");
    }
    if let Err(e) = append_history(&cfg, &report) {
        eprintln!("history.jsonl not appended: {e}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
