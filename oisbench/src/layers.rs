//! Per-layer rows: each one times a public function of one module on
//! the workload's own frame sizes, in this process, with spans recorded
//! by the benchmark around the call. Nothing inside the program is
//! traced.

use crate::inputs::{le_bytes, stream_name, Pool};
use crate::measure::{float, Trace};
use crate::{Metric, Shape};
use oisum_analysis::opcount;
use oisum_cluster::{membership, ClusterNode, ClusterNodeConfig, PeerCallConfig, PeerPool};
use oisum_core::{encode_f64_le_batch, BatchAcc};
use oisum_service::proto::{add_binary_into, frame_into, parse_client_frame, parse_frame_header};
use oisum_service::{recover, snapshot, Client, RequestCore, ServiceHp, ShardedLedger, Wal};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time each row spends calling its function.
const ROW_BUDGET: Duration = Duration::from_millis(150);
/// Batch sizes of the kernel sweep, with their span names: the three
/// workloads' batches, and one (4 MiB) larger than the 2 MiB L2, so it
/// streams from memory.
pub const SWEEP: [(usize, &str); 4] = [
    (64, "kernel.sweep.64"),
    (2000, "kernel.sweep.2000"),
    (16384, "kernel.sweep.16384"),
    (524_288, "kernel.sweep.524288"),
];
/// Value bytes any WAL row may write, so a row on 128 KiB frames stays
/// as small on disk as one on 512-byte frames.
const WAL_ROW_BYTES: usize = 24 << 20;
/// Every eighth ledger deposit is re-sent, as a retry after a lost ACK.
const REPLAY_EVERY: u64 = 8;
/// Retry identity the layer rows deposit under.
const LAYER_CLIENT: u64 = 0x1A7E_0000_0000_0001;

/// Figures the workload run measured on its own path and hands to
/// the layer rows.
#[derive(Debug, Default, Clone)]
pub struct FromWorkload {
    /// Untraced median Add latency, the budget's denominator (ns).
    pub add_p50_ns: f64,
    /// `(records, groups)` from the WAL the workload served with.
    pub wal_groups: Option<(u64, u64)>,
    /// Time to recover the workload's pre-written log, per record (ns).
    pub recovery_ns_per_record: Option<f64>,
    /// The ledger the workload served, for the snapshot row.
    pub ledger: Option<Arc<ShardedLedger>>,
}

/// Calls `f(i)` for `i = 0, 1, ...` until `budget` has passed and at
/// least `min` calls were made, or `max` calls were made.
fn repeat(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < max && (i < min || t0.elapsed() < budget) {
        f(i);
        i += 1;
    }
}

/// Records the rows into `out`. `dir` is an empty scratch directory.
pub fn measure(
    shape: &Shape,
    pool: &Pool,
    from: &FromWorkload,
    dir: &Path,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut trace = Trace::default();
    let frames: Vec<Vec<u8>> = pool.batches.iter().map(|b| le_bytes(b)).collect();
    let names: Vec<String> = (0..shape.streams).map(stream_name).collect();

    // core: the encode kernel on the workload's batches, and the sweep.
    let n = shape.values_per_add;
    repeat(ROW_BUDGET, 16, usize::MAX, |i| {
        let frame = &frames[i % frames.len()];
        trace.span("kernel.encode", || {
            let mut acc = BatchAcc::<6, 3>::new();
            encode_f64_le_batch(&mut acc, black_box(frame));
            black_box(acc.finish());
        });
    });
    let kernel_frame_ns = trace.median_ns("kernel.encode");
    out.push(Metric::new(
        "kernel.ns_per_value",
        "ns",
        kernel_frame_ns / float(n as u64),
    ));
    for (size, span) in SWEEP {
        let values = Pool::new(0x5EE9 ^ size as u64, 1, size).batches.remove(0);
        let bytes = le_bytes(&values);
        repeat(ROW_BUDGET / 2, 3, usize::MAX, |_| {
            trace.span(span, || {
                let mut acc = BatchAcc::<6, 3>::new();
                encode_f64_le_batch(&mut acc, black_box(&bytes));
                black_box(acc.finish());
            });
        });
        out.push(Metric::new(
            &format!("{span}.ns_per_value"),
            "ns",
            trace.median_ns(span) / float(size as u64),
        ));
    }
    // The paper's per-summand model (Eq. 3-6) for the 6-block format.
    let ops = opcount::hp_ops(6);
    out.push(Metric::new(
        "kernel.model_ops_per_value",
        "ops",
        float((ops.fp_mul + ops.fp_add + ops.alu) as u64),
    ));

    // ledger: deposits with dedup (every eighth re-sent), then sums.
    let ledger = ShardedLedger::new(8);
    let mut deposits = 0u64;
    let mut resends = 0u64;
    repeat(ROW_BUDGET, 16, usize::MAX, |i| {
        let seq = i as u64 + 1;
        let name = &names[i % names.len()];
        let frame = &frames[i % frames.len()];
        trace.span("ledger.deposit", || {
            black_box(ledger.add_batch_le_bytes_dedup(name, i, LAYER_CLIENT, seq, frame));
        });
        deposits += 1;
        if seq.is_multiple_of(REPLAY_EVERY) {
            black_box(ledger.add_batch_le_bytes_dedup(name, i, LAYER_CLIENT, seq, frame));
            resends += 1;
        }
    });
    let deposit_ns = trace.median_ns("ledger.deposit");
    out.push(Metric::new("ledger.deposit_ns_per_batch", "ns", deposit_ns));
    let applied: u64 = ledger.stats().streams.iter().map(|s| s.batches).sum();
    let counted_replays = (deposits + resends).saturating_sub(applied);
    if counted_replays != resends {
        return Err(format!(
            "ledger dedup: {resends} re-sent deposits, stats() accounts for {counted_replays}"
        ));
    }
    out.push(Metric::new(
        "ledger.dedup_replays",
        "count",
        float(counted_replays),
    ));
    repeat(ROW_BUDGET / 2, 16, usize::MAX, |i| {
        let name = &names[i % names.len()];
        trace.span("ledger.sum", || black_box(ledger.sum(name)));
    });
    out.push(Metric::new(
        "ledger.sum_ns",
        "ns",
        trace.median_ns("ledger.sum"),
    ));

    // proto + dispatch: the server's per-frame path, one request at a
    // time: encode (client side), parse, dispatch, reply.
    let wal_dir = dir.join("dispatch-wal");
    let core_ledger = Arc::new(ShardedLedger::new(8));
    let mut core = RequestCore::new(Arc::clone(&core_ledger));
    let core_wal = if shape.wal {
        let wal = Arc::new(Wal::open(shape.wal_config(&wal_dir)).map_err(|e| e.to_string())?);
        core = core.with_wal(Arc::clone(&wal));
        Some(wal)
    } else {
        None
    };
    let mut frame_buf = Vec::new();
    let mut reply_json = String::new();
    let mut reply_buf = Vec::new();
    let mut cursor = 0usize;
    let mut frame_failures = 0u64;
    let max_frames = (WAL_ROW_BYTES / (8 * n)).max(16);
    repeat(ROW_BUDGET, 16, max_frames, |i| {
        let seq = i as u64 + 1;
        let name = &names[i % names.len()];
        let values = &pool.batches[i % pool.len()];
        let encoded = trace.span("proto.encode", || {
            add_binary_into(&mut frame_buf, name, LAYER_CLIENT, seq, black_box(values))
        });
        let parse = trace.begin("proto.parse");
        let header: [u8; 8] = frame_buf[..8].try_into().expect("8-byte header");
        let parsed = parse_frame_header(&header)
            .and_then(|(magic, _)| parse_client_frame(magic, &frame_buf[8..]));
        trace.end(parse);
        let reply = match (encoded, parsed) {
            (Ok(()), Ok(view)) => trace.span("dispatch", || core.handle_frame(view, &mut cursor).0),
            _ => {
                frame_failures += 1;
                return;
            }
        };
        if !matches!(
            reply,
            oisum_service::proto::Response::Added { deduped: false, .. }
        ) {
            frame_failures += 1;
        }
        let formatted = trace.span("proto.reply", || {
            frame_into(&reply, &mut reply_json, &mut reply_buf)
        });
        frame_failures += u64::from(formatted.is_err());
    });
    if frame_failures != 0 {
        return Err(format!(
            "{frame_failures} frames failed on the dispatch path"
        ));
    }
    if let Some(wal) = core_wal {
        wal.close().map_err(|e| e.to_string())?;
    }
    let encode_ns = trace.median_ns("proto.encode");
    let parse_ns = trace.median_ns("proto.parse");
    let reply_ns = trace.median_ns("proto.reply");
    out.push(Metric::new("proto.encode_ns_per_frame", "ns", encode_ns));
    out.push(Metric::new("proto.parse_ns_per_frame", "ns", parse_ns));
    out.push(Metric::new("proto.reply_ns_per_frame", "ns", reply_ns));
    let reply_len = reply_buf.len();

    // transport: a benchmark-owned loopback ping-pong with the
    // workload's request and reply frame sizes, the floor under any
    // request the server answers.
    let rtt_ns = loopback_rtt_ns(frame_buf.len(), reply_len, &mut trace)?;
    out.push(Metric::new("transport.loopback_rtt_us", "us", rtt_ns / 1e3));

    // wal: blocking append, then submit until the commit mark covers
    // the ticket; group and size figures; recovery of what was written.
    let wal_dir = dir.join("layer-wal");
    let wal = Wal::open(shape.wal_config(&wal_dir)).map_err(|e| e.to_string())?;
    let mut expected = vec![ServiceHp::ZERO; names.len()];
    let mut seq = 0u64;
    let mut value_bytes = 0usize;
    let mut wal_failures = 0u64;
    let per_row = (WAL_ROW_BYTES / 2 / (8 * n)).max(16);
    repeat(ROW_BUDGET, 16, per_row, |i| {
        seq += 1;
        let s = i % names.len();
        let b = i % frames.len();
        let ok = trace.span("wal.append", || {
            wal.append(&names[s], LAYER_CLIENT, seq, &frames[b])
        });
        if ok.is_ok() {
            expected[s] = expected[s].wrapping_add(&pool.sums[b]);
            value_bytes += frames[b].len();
        } else {
            wal_failures += 1;
        }
    });
    let cancel = AtomicBool::new(false);
    repeat(ROW_BUDGET, 16, per_row, |i| {
        seq += 1;
        let s = i % names.len();
        let b = i % frames.len();
        let span = trace.begin("wal.submit_to_commit");
        match wal.submit(&names[s], LAYER_CLIENT, seq, &frames[b]) {
            Ok(ticket) => {
                let mut mark = wal.commit_mark();
                while mark < ticket && !wal.is_crashed() {
                    mark = wal.wait_mark_beyond(mark, &cancel);
                }
                expected[s] = expected[s].wrapping_add(&pool.sums[b]);
                value_bytes += frames[b].len();
            }
            Err(_) => wal_failures += 1,
        }
        trace.end(span);
    });
    let layer_groups = wal.group_stats();
    wal.close().map_err(|e| e.to_string())?;
    if wal_failures != 0 {
        return Err(format!("{wal_failures} WAL appends failed"));
    }
    let append_ns = trace.median_ns("wal.append");
    let commit_ns = trace.median_ns("wal.submit_to_commit");
    out.push(Metric::new("wal.append_us", "us", append_ns / 1e3));
    out.push(Metric::new(
        "wal.submit_to_commit_us",
        "us",
        commit_ns / 1e3,
    ));
    let (records, groups) = from.wal_groups.unwrap_or(layer_groups);
    out.push(Metric::new(
        "wal.records_per_group",
        "records",
        float(records) / float(groups.max(1)),
    ));
    let segment_bytes: u64 = oisum_service::wal::list_segments(&wal_dir)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(_, path)| std::fs::metadata(path).map_or(0, |m| m.len()))
        .sum();
    out.push(Metric::new(
        "wal.bytes_per_user_byte",
        "ratio",
        float(segment_bytes) / float(value_bytes as u64),
    ));
    let recovery_ns = match from.recovery_ns_per_record {
        Some(ns) => ns,
        None => {
            let recovered = ShardedLedger::new(8);
            let report = trace
                .span("recovery.recover", || recover(&wal_dir, &recovered))
                .map_err(|e| e.to_string())?;
            for (s, want) in expected.iter().enumerate() {
                let got = recovered.sum(&names[s]).unwrap_or(ServiceHp::ZERO);
                if got != *want {
                    return Err(format!(
                        "recovered {} differs from the appended batches",
                        names[s]
                    ));
                }
            }
            trace.median_ns("recovery.recover") / float(report.records.max(1))
        }
    };
    out.push(Metric::new("recovery.ns_per_record", "ns", recovery_ns));

    // snapshot: save the workload's ledger (or this row's, when the
    // workload kept none of its own).
    let snap_ledger = from.ledger.clone().unwrap_or(core_ledger);
    let snap_path = dir.join("layer.snapshot");
    let mut streams = 0usize;
    for _ in 0..5 {
        streams = trace
            .span("snapshot.save", || snapshot::save(&snap_path, &snap_ledger))
            .map_err(|e| e.to_string())?;
    }
    let snap_bytes = std::fs::metadata(&snap_path)
        .map_err(|e| e.to_string())?
        .len();
    out.push(Metric::new(
        "snapshot.save_ms",
        "ms",
        trace.median_ns("snapshot.save") / 1e6,
    ));
    out.push(Metric::new(
        "snapshot.bytes_per_stream",
        "B",
        float(snap_bytes) / float(streams.max(1) as u64),
    ));

    // node + peer: boot a two-node cluster one node at a time, then
    // call the peer RPCs directly and count the sockets a read dials.
    let peer = peer_rows(shape, pool, &frames, &mut trace)?;
    let mirror_ns = trace.median_ns("peer.mirror_add");
    out.push(Metric::new("peer.mirror_add_us", "us", mirror_ns / 1e3));
    out.push(Metric::new(
        "peer.tree_sum_us",
        "us",
        trace.median_ns("peer.tree_sum") / 1e3,
    ));
    out.push(Metric::new(
        "peer.dials_per_read",
        "count",
        peer.dials_per_read,
    ));
    out.push(Metric::new("node.boot_s", "s", peer.boot_s));

    // budget: the layer self times on one Add's path, against the
    // untraced median Add latency.
    let kernel = kernel_frame_ns;
    let ledger_self = (deposit_ns - kernel_frame_ns).max(0.0);
    let proto = encode_ns + parse_ns + reply_ns;
    let wal_on_path = if shape.wal { commit_ns } else { 0.0 };
    let dispatch_self =
        (trace.median_ns("dispatch") - deposit_ns - if shape.wal { append_ns } else { 0.0 })
            .max(0.0);
    out.push(Metric::new(
        "dispatch.self_ns_per_frame",
        "ns",
        dispatch_self,
    ));
    let peer_on_path = if shape.replicated { mirror_ns } else { 0.0 };
    let parts = [
        ("kernel", kernel),
        ("ledger", ledger_self),
        ("proto", proto),
        ("dispatch", dispatch_self),
        ("transport", rtt_ns),
        ("wal", wal_on_path),
        ("peer", peer_on_path),
    ];
    let total = from.add_p50_ns;
    let mut unattributed = total;
    for (module, ns) in parts {
        out.push(Metric::new(
            &format!("budget.{module}_pct"),
            "%",
            100.0 * ns / total,
        ));
        unattributed -= ns;
    }
    out.push(Metric::new(
        "budget.unattributed_us",
        "us",
        unattributed / 1e3,
    ));
    out.push(Metric::new(
        "budget.unattributed_pct",
        "%",
        100.0 * unattributed / total,
    ));
    Ok(())
}

/// Median round trip of `request` bytes out and `reply` bytes back over
/// a loopback TCP connection to a benchmark-owned echo thread (ns).
fn loopback_rtt_ns(request: usize, reply: usize, trace: &mut Trace) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut inbound = vec![0u8; request];
        let outbound = vec![0u8; reply];
        loop {
            match conn.read_exact(&mut inbound) {
                Ok(()) => conn.write_all(&outbound)?,
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    });
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let outbound = vec![0x5Au8; request];
    let mut inbound = vec![0u8; reply];
    let mut failure = None;
    repeat(ROW_BUDGET, 32, usize::MAX, |_| {
        if failure.is_some() {
            return;
        }
        let sent = trace.span("transport.rtt", || {
            conn.write_all(&outbound)
                .and_then(|()| conn.read_exact(&mut inbound))
        });
        failure = sent.err().map(|e| e.to_string());
    });
    drop(conn);
    echo.join()
        .map_err(|_| "echo thread panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    match failure {
        Some(e) => Err(format!("loopback ping-pong: {e}")),
        None => Ok(trace.median_ns("transport.rtt")),
    }
}

struct PeerFigures {
    boot_s: f64,
    dials_per_read: f64,
}

/// Reads issued while counting dials.
const DIAL_READS: usize = 32;

fn peer_rows(
    shape: &Shape,
    pool: &Pool,
    frames: &[Vec<u8>],
    trace: &mut Trace,
) -> Result<PeerFigures, String> {
    let members = Arc::new(membership::loopback(2, 2).map_err(|e| e.to_string())?);
    let mut nodes = Vec::new();
    for id in 0..2 {
        let mut config = ClusterNodeConfig::new(id);
        config.workers = 1;
        let node = trace
            .span("node.boot", || {
                ClusterNode::start(Arc::clone(&members), config)
            })
            .map_err(|e| e.to_string())?;
        nodes.push(node);
    }
    let boot_ns: u64 = trace.durations("node.boot").iter().sum();
    let result = (|| {
        let pool_rpc = PeerPool::new(0, Arc::clone(&members), PeerCallConfig::default());
        let stream = "layer-peer";
        let mut seq = 0u64;
        let mut failures = Vec::new();
        repeat(
            ROW_BUDGET,
            16,
            (WAL_ROW_BYTES / 2 / (8 * shape.values_per_add)).max(16),
            |i| {
                seq += 1;
                let frame = &frames[i % frames.len()];
                let sent = trace.span("peer.mirror_add", || {
                    pool_rpc.mirror_add(1, 0, stream, LAYER_CLIENT, seq, frame)
                });
                failures.extend(sent.err());
            },
        );
        repeat(ROW_BUDGET, 16, usize::MAX, |_| {
            let sum = trace.span("peer.tree_sum", || pool_rpc.tree_sum(1, 0, 1, stream));
            failures.extend(sum.err());
        });
        if let Some(first) = failures.first() {
            return Err(format!(
                "{} peer calls failed, first: {first}",
                failures.len()
            ));
        }

        // Dials per cluster read: sockets to node 1's peer port that
        // appear while node 0 coordinates reads.
        let mut client = Client::connect(nodes[0].client_addr()).map_err(|e| e.to_string())?;
        client
            .add_binary(stream, &pool.batches[0])
            .map_err(|e| e.to_string())?;
        let peer_port = nodes[1].peer_addr().port();
        let before = sockets_to(peer_port)?;
        for _ in 0..DIAL_READS {
            client.cluster_sum(stream).map_err(|e| e.to_string())?;
        }
        let after = sockets_to(peer_port)?;
        let dialed = after.iter().filter(|p| !before.contains(p)).count();
        Ok(float(dialed as u64) / float(DIAL_READS as u64))
    })();
    for node in &nodes {
        node.shutdown();
    }
    for node in nodes {
        node.join().map_err(|e| e.to_string())?;
    }
    Ok(PeerFigures {
        boot_s: float(boot_ns) / 2.0 / 1e9,
        dials_per_read: result?,
    })
}

/// Local ports of every IPv4 socket, in any state, whose remote end is
/// `127.0.0.1:port` (from `/proc/net/tcp`).
fn sockets_to(port: u16) -> Result<Vec<String>, String> {
    let table =
        std::fs::read_to_string("/proc/net/tcp").map_err(|e| format!("/proc/net/tcp: {e}"))?;
    let remote = format!("0100007F:{port:04X}");
    Ok(table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let mut cols = line.split_whitespace().skip(1);
            let local = cols.next()?;
            (cols.next()? == remote).then(|| local.to_owned())
        })
        .collect())
}
