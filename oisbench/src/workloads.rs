//! The three workloads: boot the program (timed, several times,
//! for `setup_s`), run the closed-loop load, check every sum the
//! program holds afterwards, then report.

use crate::inputs::{le_bytes, stream_name, Pool, Rng};
use crate::layers::{self, FromWorkload};
use crate::load::{run_phase, Conn, ConnSpec, Phase, ReadKind};
use crate::measure::{float, median_f64, nanos, peak_rss_mb};
use crate::{ok_ratio, Metric, Report, RunConfig, Shape, Workload};
use oisum_cluster::{mirror_stream_name, start_local_cluster, ClusterNode};
use oisum_service::wal::list_segments;
use oisum_service::{
    recover, serve, serve_with_core, Client, RequestCore, ServerConfig, ServerHandle, ServiceHp,
    ShardedLedger, Transport, Wal,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry identity of connection `k` is `LOAD_CLIENT + k`.
const LOAD_CLIENT: u64 = 0xC11E_0000_0000_0001;
/// Retry identity of the durable workload's pre-written log.
const PREP_CLIENT: u64 = 0x9AE9_0000_0000_0001;
/// Records in the durable workload's pre-written log (~54 MB).
const PREP_RECORDS: u64 = 100_000;
/// Boots timed per run for `setup_s`, which reports their median.
const BOOTS_SERVER: usize = 1001;
const BOOTS_LOG: usize = 21;
const BOOTS_CLUSTER: usize = 7;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn run(cfg: &RunConfig, dir: &Path) -> Result<Report, String> {
    let shape = cfg.workload.shape();
    let pool = Arc::new(Pool::new(
        cfg.seed ^ 0x0B5E_ED00,
        shape.pool_batches,
        shape.values_per_add,
    ));
    match cfg.workload {
        Workload::Bulk => bulk(cfg, &shape, pool, dir),
        Workload::Durable => durable(cfg, &shape, pool, dir),
        Workload::Replicated => replicated(cfg, &shape, pool, dir),
    }
}

/// Median of `boots` timed boots, in seconds.
fn median_setup(
    boots: usize,
    mut boot: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(boots);
    for _ in 0..boots {
        secs.push(boot()?.as_secs_f64());
    }
    Ok(median_f64(&secs))
}

/// Opens the workload's connections; connection `k` owns an equal
/// share of the streams, starting from the sums in `initial`.
fn connect_all(
    addr: SocketAddr,
    read: ReadKind,
    shape: &Shape,
    pool: &Arc<Pool>,
    seed: u64,
    initial: &[ServiceHp],
) -> Result<Vec<Conn>, String> {
    let per = shape.streams / shape.connections;
    (0..shape.connections)
        .map(|k| {
            let spec = ConnSpec {
                client_id: LOAD_CLIENT + k as u64,
                first_stream: k * per,
                streams: per,
                adds_per_read: shape.adds_per_read,
                snapshot_every: if k == 0 { shape.snapshot_every } else { None },
                initial: initial[k * per..(k + 1) * per].to_vec(),
                seed: seed ^ (0xA5A5_0000 + k as u64),
            };
            Conn::connect(addr, read, Arc::clone(pool), spec)
        })
        .collect()
}

/// The measured load: one untraced phase, or an untraced and a traced
/// half when tracing, on the same connections.
fn load(cfg: &RunConfig, conns: &mut [Conn]) -> (Phase, Option<Phase>) {
    conns[0].corrupt_next_read = cfg.corrupt_one_read;
    conns[0].fail_next_add = cfg.fail_one_add;
    if cfg.trace {
        let untraced = run_phase(conns, cfg.length / 2, false);
        let traced = run_phase(conns, cfg.length / 2, true);
        (untraced, Some(traced))
    } else {
        (run_phase(conns, cfg.length, false), None)
    }
}

/// Reads every stream once more through each connection.
fn check_all(conns: &mut [Conn], mismatches: &mut Vec<String>) -> Result<(), String> {
    for conn in conns {
        mismatches.extend(conn.check_all()?);
    }
    Ok(())
}

/// The exact sums every connection expects, in stream order.
fn expected_sums(conns: &[Conn]) -> Vec<ServiceHp> {
    conns
        .iter()
        .flat_map(|c| c.expected().iter().copied())
        .collect()
}

fn stop_server(server: ServerHandle) -> Result<(), String> {
    server.shutdown();
    server.join().map_err(io_err("server shutdown"))
}

fn stop_cluster(nodes: Vec<ClusterNode>) -> Result<(), String> {
    for node in &nodes {
        node.shutdown();
    }
    for node in nodes {
        node.join().map_err(io_err("node shutdown"))?;
    }
    Ok(())
}

/// What a workload hands to [`finish`].
struct Outcome {
    setup_s: f64,
    untraced: Phase,
    traced: Option<Phase>,
    peak_rss_mb: f64,
    mismatches: Vec<String>,
    from: FromWorkload,
}

/// Assembles the report: end-to-end metrics from the untraced phase, or
/// the per-layer rows when tracing.
fn finish(shape: &Shape, pool: &Pool, dir: &Path, mut o: Outcome) -> Result<Report, String> {
    let a = &o.untraced;
    let e2e = vec![
        Metric::new("values_per_s", "values/s", a.values_per_s()),
        Metric::new("add_p50_us", "us", a.adds.quantile_us(0.5)),
        Metric::new("read_p50_us", "us", a.reads.quantile_us(0.5)),
        Metric::new("setup_s", "s", o.setup_s),
        Metric::new("peak_rss_mb", "MB", o.peak_rss_mb),
        Metric::new("ops_ok_ratio", "ratio", ok_ratio(a.ops, a.failed)),
    ];
    let tails = |p: &Phase| {
        vec![
            Metric::new("client.add_p99_us", "us", p.adds.quantile_us(0.99)),
            Metric::new("client.read_p99_us", "us", p.reads.quantile_us(0.99)),
            Metric::new("client.add_samples", "count", float(p.adds.len())),
            Metric::new(
                "client.overall_values_per_s",
                "values/s",
                p.overall_values_per_s(),
            ),
        ]
    };
    if a.adds.is_empty() || a.reads.is_empty() {
        o.mismatches.push(format!(
            "the load completed {} adds and {} reads; it needs both",
            a.adds.len(),
            a.reads.len()
        ));
    }
    let mut report = Report {
        attempted: a.ops,
        failed: a.failed,
        mismatches: a.mismatches.clone(),
        ..Report::default()
    };
    match &o.traced {
        None => {
            report.metrics = e2e;
            report.extra = tails(a);
        }
        Some(b) => {
            report.attempted += b.ops;
            report.failed += b.failed;
            report.mismatches.extend(b.mismatches.iter().cloned());
            report.extra = e2e;
            report.metrics = tails(b);
            let (a50, b50) = (a.adds.quantile_ns(0.5), b.adds.quantile_ns(0.5));
            report.metrics.push(Metric::new(
                "trace.overhead_pct",
                "%",
                100.0 * (b50 - a50) / a50,
            ));
            o.from.add_p50_ns = a50;
            layers::measure(
                shape,
                pool,
                &o.from,
                &dir.join("layers"),
                &mut report.metrics,
            )?;
        }
    }
    report.mismatches.extend(o.mismatches);
    Ok(report)
}

fn bulk(cfg: &RunConfig, shape: &Shape, pool: Arc<Pool>, dir: &Path) -> Result<Report, String> {
    let config = || ServerConfig {
        workers: shape.connections,
        ..ServerConfig::default()
    };
    let setup_s = median_setup(BOOTS_SERVER, || {
        let t0 = Instant::now();
        let server = serve(config()).map_err(io_err("serve"))?;
        let client = Client::connect(server.addr()).map_err(io_err("connect"))?;
        let took = t0.elapsed();
        drop(client);
        stop_server(server)?;
        Ok(took)
    })?;
    let server = serve(config()).map_err(io_err("serve"))?;
    let initial = vec![ServiceHp::ZERO; shape.streams];
    let mut conns = connect_all(
        server.addr(),
        ReadKind::Sum,
        shape,
        &pool,
        cfg.seed,
        &initial,
    )?;
    let (untraced, traced) = load(cfg, &mut conns);
    let mut mismatches = Vec::new();
    check_all(&mut conns, &mut mismatches)?;
    let peak_rss_mb = peak_rss_mb()?;
    drop(conns);
    stop_server(server)?;
    let from = FromWorkload::default();
    finish(
        shape,
        &pool,
        dir,
        Outcome {
            setup_s,
            untraced,
            traced,
            peak_rss_mb,
            mismatches,
            from,
        },
    )
}

fn durable(cfg: &RunConfig, shape: &Shape, pool: Arc<Pool>, dir: &Path) -> Result<Report, String> {
    let wal_dir = dir.join("wal");
    let snapshot_path = dir.join("ledger.snapshot");
    let wal_config = shape.wal_config(&wal_dir);
    let server_config = |snapshot: Option<PathBuf>| ServerConfig {
        workers: shape.connections,
        snapshot_path: snapshot,
        wal: Some(wal_config.clone()),
        transport: Transport::Epoll,
        ..ServerConfig::default()
    };
    let mut mismatches = Vec::new();

    // The pre-written log, through the public append path, untimed.
    // Client sequence numbers start at 1: dedup absorbs seq 0.
    let frames: Vec<Vec<u8>> = pool.batches.iter().map(|b| le_bytes(b)).collect();
    let names: Vec<String> = (0..shape.streams).map(stream_name).collect();
    let mut expected = vec![ServiceHp::ZERO; shape.streams];
    {
        let wal = Wal::open(wal_config.clone()).map_err(|e| format!("wal open: {e}"))?;
        let mut rng = Rng::new(cfg.seed ^ 0x0106);
        for r in 0..PREP_RECORDS {
            let s = (r % shape.streams as u64) as usize;
            let b = rng.below(pool.len() as u64) as usize;
            wal.append(&names[s], PREP_CLIENT, r + 1, &frames[b])
                .map_err(|e| format!("wal append: {e}"))?;
            expected[s] = expected[s].wrapping_add(&pool.sums[b]);
        }
        wal.close().map_err(|e| format!("wal close: {e}"))?;
    }
    // Flush the log to the device now, so its writeback does not run
    // during the timed boots.
    for (_, path) in list_segments(&wal_dir).map_err(io_err("list segments"))? {
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(io_err("sync segment"))?;
    }

    // Every recovered stream must equal the log, before any timing.
    let ledger = ShardedLedger::new(8);
    let t0 = Instant::now();
    let replayed = recover(&wal_dir, &ledger).map_err(|e| format!("recover: {e}"))?;
    let recovery_ns_per_record = float(nanos(t0.elapsed())) / float(replayed.records.max(1));
    if replayed.records != PREP_RECORDS {
        mismatches.push(format!(
            "recovered {} of {PREP_RECORDS} log records",
            replayed.records
        ));
    }
    for (s, want) in expected.iter().enumerate() {
        if ledger.sum(&names[s]) != Some(*want) {
            mismatches.push(format!(
                "{}: recovered sum differs from the written log",
                names[s]
            ));
        }
    }

    // setup_s: boots that recover the log (each adds one empty segment).
    let prepped = list_segments(&wal_dir).map_err(io_err("list segments"))?;
    let setup_s = median_setup(BOOTS_LOG, || {
        let t0 = Instant::now();
        let server = serve(server_config(None)).map_err(io_err("serve"))?;
        let client = Client::connect(server.addr()).map_err(io_err("connect"))?;
        let took = t0.elapsed();
        drop(client);
        stop_server(server)?;
        // Each boot opens one fresh segment; remove it, so every boot
        // recovers the same log and leaves no dirty pages behind.
        for (index, path) in list_segments(&wal_dir).map_err(io_err("list segments"))? {
            if !prepped.iter().any(|(i, _)| *i == index) {
                std::fs::remove_file(&path).map_err(io_err("remove boot segment"))?;
            }
        }
        Ok(took)
    })?;

    // The measured server holds its WAL, so the run can crash it.
    let ledger = Arc::new(ledger);
    let wal = Arc::new(Wal::open(wal_config.clone()).map_err(|e| format!("wal open: {e}"))?);
    let core = RequestCore::new(Arc::clone(&ledger))
        .with_snapshot_path(Some(snapshot_path.clone()))
        .with_wal(Arc::clone(&wal));
    let server = serve_with_core(&server_config(Some(snapshot_path.clone())), Arc::new(core))
        .map_err(io_err("serve_with_core"))?;
    let mut conns = connect_all(
        server.addr(),
        ReadKind::Sum,
        shape,
        &pool,
        cfg.seed,
        &expected,
    )?;
    let (untraced, traced) = load(cfg, &mut conns);
    check_all(&mut conns, &mut mismatches)?;
    let peak_rss_mb = peak_rss_mb()?;
    let expected = expected_sums(&conns);
    let wal_groups = wal.group_stats();
    drop(conns);

    // Crash drill: poison the log, stop, reboot from snapshot + log;
    // every stream must equal the ACKed sums bit for bit.
    wal.crash();
    server.shutdown();
    let _ = server.join();
    drop(wal);
    let rebooted = serve(server_config(Some(snapshot_path))).map_err(io_err("reboot"))?;
    let recovered = rebooted.ledger();
    for (s, want) in expected.iter().enumerate() {
        if recovered.sum(&names[s]) != Some(*want) {
            mismatches.push(format!(
                "{}: differs from the ACKed sum after crash and reboot",
                names[s]
            ));
        }
    }
    stop_server(rebooted)?;

    let from = FromWorkload {
        wal_groups: Some(wal_groups),
        recovery_ns_per_record: Some(recovery_ns_per_record),
        ledger: Some(ledger),
        ..FromWorkload::default()
    };
    finish(
        shape,
        &pool,
        dir,
        Outcome {
            setup_s,
            untraced,
            traced,
            peak_rss_mb,
            mismatches,
            from,
        },
    )
}

fn replicated(
    cfg: &RunConfig,
    shape: &Shape,
    pool: Arc<Pool>,
    dir: &Path,
) -> Result<Report, String> {
    let boot = || {
        start_local_cluster(2, 2, |c| c.workers = shape.connections)
            .map(|(_, nodes)| nodes)
            .map_err(io_err("start_local_cluster"))
    };
    let setup_s = median_setup(BOOTS_CLUSTER, || {
        let t0 = Instant::now();
        let nodes = boot()?;
        let client = Client::connect(nodes[0].client_addr()).map_err(io_err("connect"))?;
        let took = t0.elapsed();
        drop(client);
        stop_cluster(nodes)?;
        Ok(took)
    })?;
    let nodes = boot()?;
    let initial = vec![ServiceHp::ZERO; shape.streams];
    let mut conns = connect_all(
        nodes[0].client_addr(),
        ReadKind::ClusterSum,
        shape,
        &pool,
        cfg.seed,
        &initial,
    )?;
    let (untraced, traced) = load(cfg, &mut conns);
    let mut mismatches = Vec::new();
    check_all(&mut conns, &mut mismatches)?;
    // Every ACKed batch is mirrored: node 1's copy equals the sum.
    let mirrors = nodes[1].mirrors();
    for (s, want) in expected_sums(&conns).iter().enumerate() {
        let name = stream_name(s);
        if mirrors.sum(&mirror_stream_name(0, &name)) != Some(*want) {
            mismatches.push(format!(
                "{name}: node 1's mirror differs from the ACKed sum"
            ));
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    drop(conns);
    stop_cluster(nodes)?;
    let from = FromWorkload::default();
    finish(
        shape,
        &pool,
        dir,
        Outcome {
            setup_s,
            untraced,
            traced,
            peak_rss_mb,
            mismatches,
            from,
        },
    )
}
