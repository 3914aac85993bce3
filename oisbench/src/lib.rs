//! `oisbench`: the benchmark of the oisum summation service.
//!
//! One process drives the real service through its public API with a
//! closed loop of at most two client connections (the reference host has
//! two cores), checks every read bit for bit against the exact sum of the
//! batches it saw ACKed, and reports either the end-to-end metrics
//! (untraced run) or the per-layer rows (traced run). See `README.md`
//! in this directory for the workloads, the thread budget and the
//! history of the protocol.

pub mod inputs;
pub mod layers;
pub mod load;
pub mod measure;
mod workloads;

use measure::float;
use oisum_service::{FsyncPolicy, WalConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large-batch ingest bound by the encode kernel and ledger deposit.
    Bulk,
    /// Small-batch logged ingest over the epoll transport, with reads,
    /// snapshots, a recovery boot and a crash drill.
    Durable,
    /// Mirrored ingest and tree-reduced reads on a 2-node cluster.
    Replicated,
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        match s {
            "bulk" => Ok(Workload::Bulk),
            "durable" => Ok(Workload::Durable),
            "replicated" => Ok(Workload::Replicated),
            other => Err(format!(
                "unknown workload `{other}` (bulk | durable | replicated)"
            )),
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Bulk, Workload::Durable, Workload::Replicated];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Durable => "durable",
            Workload::Replicated => "replicated",
        }
    }

    /// The request mix and sizes of the workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Bulk => Shape {
                values_per_add: 16_384,
                streams: 1,
                connections: 1,
                adds_per_read: 64,
                snapshot_every: None,
                pool_batches: 32,
                wal: false,
                replicated: false,
            },
            Workload::Durable => Shape {
                values_per_add: 64,
                streams: 1024,
                connections: 2,
                adds_per_read: 8,
                snapshot_every: Some(8192),
                pool_batches: 256,
                wal: true,
                replicated: false,
            },
            Workload::Replicated => Shape {
                values_per_add: 2000,
                streams: 1,
                connections: 1,
                adds_per_read: 16,
                snapshot_every: None,
                pool_batches: 64,
                wal: false,
                replicated: true,
            },
        }
    }
}

/// A workload's request mix and sizes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Values in every binary Add.
    pub values_per_add: usize,
    /// Streams written; each connection owns an equal share.
    pub streams: usize,
    /// Client connections, one thread each (at most 2).
    pub connections: usize,
    /// One read per this many Adds, per connection.
    pub adds_per_read: u64,
    /// One `Snapshot` per this many Adds, from connection 0.
    pub snapshot_every: Option<u64>,
    /// Distinct batches the load cycles through.
    pub pool_batches: usize,
    /// Adds are WAL-committed before their ACK.
    pub wal: bool,
    /// Adds are mirrored to a second node before their ACK.
    pub replicated: bool,
}

impl Shape {
    /// The WAL every logged row and the durable server use. `never`
    /// rather than the default `group` policy: the benchmark may write
    /// only inside its checkout, whose disk makes a device fsync take
    /// 0.17 ms at p50 and up to 15 ms, so `group` would measure the disk.
    /// On tmpfs, where `group` costs no device time, the two commit the
    /// same bytes through the same committer.
    pub fn wal_config(&self, dir: &Path) -> WalConfig {
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(dir)
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured load (both phases of a traced run).
    pub length: Duration,
    /// Report the per-layer rows instead of the end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for logs and snapshots; emptied and removed
    /// when the run ends.
    pub work_dir: PathBuf,
    /// Compare one read against a deliberately wrong expectation; the
    /// run must then report itself incorrect.
    pub corrupt_one_read: bool,
    /// Send one Add the program must refuse; the run must count it as
    /// failed, settle it, and stay correct.
    pub fail_one_add: bool,
}

/// The outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// No read, recovery or replica differed from the expected sums.
    pub correct: bool,
    /// Requests sent in the measured load.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics the run reports: end-to-end, or per-layer if traced.
    pub metrics: Vec<Metric>,
    /// Further figures kept in the history only (the end-to-end figures
    /// of a traced run, tails, the host witness).
    pub extra: Vec<Metric>,
    /// Every correctness failure, for the log.
    pub mismatches: Vec<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload. `Err` means the benchmark could not run (a bind
/// or I/O failure); a wrong sum is a `Report` with `correct: false`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let work = WorkDir(cfg.work_dir.clone());
    let witness = || {
        (
            measure::host_ref_ns_per_iter(),
            measure::host_copy_ns_per_kib(),
        )
    };
    let (ref_start, copy_start) = witness();
    measure::reset_peak_rss()?;
    let mut report = workloads::run(cfg, &work.0)?;
    let (ref_end, copy_end) = witness();
    let host = [
        Metric::new("host.ref_ns_per_iter", "ns", ref_start),
        Metric::new("host.ref_ns_per_iter.end", "ns", ref_end),
        Metric::new("host.copy_ns_per_kib", "ns", copy_start),
        Metric::new("host.copy_ns_per_kib.end", "ns", copy_end),
    ];
    if cfg.trace {
        report.metrics.extend(host);
    } else {
        report.extra.extend(host);
    }
    report.correct = report.mismatches.is_empty();
    if let Some(bad) = report
        .metrics
        .iter()
        .chain(&report.extra)
        .find(|m| !m.value.is_finite())
    {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    Ok(report)
}

/// `ops succeeded / ops attempted`, 1.0 for a run that attempted none.
fn ok_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    float(attempted - failed) / float(attempted)
}
