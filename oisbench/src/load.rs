//! The closed-loop load: each connection sends its next request only
//! after the previous reply, from its own thread, and checks every read
//! bit for bit against the exact sum of the batches it saw ACKed.

use crate::inputs::{stream_name, Pool, Rng};
use crate::measure::{float, median_f64, Histogram, Trace};
use oisum_service::proto::ErrorCode;
use oisum_service::{Client, ClientConfig, ClientError, ServiceHp};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// How a connection reads a stream's exact sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `Client::sum` on the connected server.
    Sum,
    /// `Client::cluster_sum`: the connected node coordinates a
    /// tree reduce over the cluster.
    ClusterSum,
}

/// What one connection sends.
#[derive(Debug, Clone)]
pub struct ConnSpec {
    /// Retry identity; must differ from every identity already in the
    /// program's dedup windows.
    pub client_id: u64,
    /// First stream index this connection owns.
    pub first_stream: usize,
    /// Streams it owns. Connections never share a stream, so each one
    /// knows the exact expected sum of every stream it reads.
    pub streams: usize,
    /// One read after this many Adds.
    pub adds_per_read: u64,
    /// One `Snapshot` request after this many Adds, if set.
    pub snapshot_every: Option<u64>,
    /// Stream sums already in the program before the load starts
    /// (`streams` entries).
    pub initial: Vec<ServiceHp>,
    pub seed: u64,
}

/// One connection's client, expected sums and cadence counters; it
/// lives across phases so sequence numbers and sums carry over.
pub struct Conn {
    spec: ConnSpec,
    client: Client,
    read: ReadKind,
    pool: Arc<Pool>,
    names: Vec<String>,
    expected: Vec<ServiceHp>,
    rng: Rng,
    adds: u64,
    /// Compare the next read against a deliberately wrong expectation
    /// (the self-test of the bitwise check).
    pub corrupt_next_read: bool,
    /// Make the next Add fail, with a batch larger than a frame may
    /// carry (the self-test of failure counting).
    pub fail_next_add: bool,
}

/// Values in the self-test's failing Add: one more than a frame holds.
const OVERSIZE_ADD: usize = (oisum_service::proto::MAX_FRAME as usize) / 8 + 1;

/// Width of the windows `values_per_s` takes its median over.
pub const WINDOW: Duration = Duration::from_millis(500);

/// What a connection did in one phase.
#[derive(Debug, Default)]
pub struct ConnPhase {
    /// Values ACKed in each [`WINDOW`] since the phase started.
    pub windows: Vec<u64>,
    pub adds: Histogram,
    pub reads: Histogram,
    pub values: u64,
    pub ops: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub end: Option<Instant>,
    pub trace: Option<Trace>,
}

/// All connections' results for one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Values ACKed by all connections in each [`WINDOW`].
    pub windows: Vec<u64>,
    pub adds: Histogram,
    pub reads: Histogram,
    pub values: u64,
    pub ops: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub elapsed: Duration,
    /// One trace per connection (traced phases only).
    pub traces: Vec<Trace>,
}

impl Phase {
    /// The median over the phase's whole windows of the values ACKed
    /// per second. A stall the program makes in every window lowers
    /// every window; a burst of host load that hits a few windows does
    /// not move the median.
    pub fn values_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|&v| float(v) / WINDOW.as_secs_f64())
            .collect();
        median_f64(&rates)
    }

    /// Values ACKed per second over the whole phase.
    pub fn overall_values_per_s(&self) -> f64 {
        float(self.values) / self.elapsed.as_secs_f64()
    }
}

impl Conn {
    pub fn connect(
        addr: SocketAddr,
        read: ReadKind,
        pool: Arc<Pool>,
        spec: ConnSpec,
    ) -> Result<Conn, String> {
        let config = ClientConfig {
            client_id: Some(spec.client_id),
            ..ClientConfig::default()
        };
        let client =
            Client::connect_with(addr, config).map_err(|e| format!("connect to {addr}: {e}"))?;
        let names = (0..spec.streams)
            .map(|i| stream_name(spec.first_stream + i))
            .collect();
        let expected = spec.initial.clone();
        assert_eq!(
            expected.len(),
            spec.streams,
            "one initial sum per owned stream"
        );
        let rng = Rng::new(spec.seed);
        Ok(Conn {
            spec,
            client,
            read,
            pool,
            names,
            expected,
            rng,
            adds: 0,
            corrupt_next_read: false,
            fail_next_add: false,
        })
    }

    /// The exact sums this connection expects, indexed from its first
    /// stream.
    pub fn expected(&self) -> &[ServiceHp] {
        &self.expected
    }

    /// Reads stream `i` (owned index): its limbs, or `Ok(Err(..))` if
    /// the program reports the sum poisoned. A stream never written
    /// reads as zero.
    fn read_limbs(&mut self, i: usize) -> Result<Result<Vec<u64>, String>, String> {
        let read = match self.read {
            ReadKind::Sum => self
                .client
                .sum(&self.names[i])
                .map(|r| (r.limbs, r.poisoned)),
            ReadKind::ClusterSum => self
                .client
                .cluster_sum(&self.names[i])
                .map(|r| (r.limbs, r.poisoned)),
        };
        let (limbs, poisoned) = match read {
            Ok(read) => read,
            Err(ClientError::Server {
                code: ErrorCode::UnknownStream,
                ..
            }) => (ServiceHp::ZERO.as_limbs().to_vec(), false),
            Err(e) => return Err(e.to_string()),
        };
        Ok(if poisoned {
            Err(format!("{}: poisoned", self.names[i]))
        } else {
            Ok(limbs)
        })
    }

    /// Reads stream `i` (owned index) and compares it bit for bit.
    fn read_and_check(&mut self, i: usize) -> Result<Option<String>, String> {
        let limbs = match self.read_limbs(i)? {
            Ok(limbs) => limbs,
            Err(poisoned) => return Ok(Some(poisoned)),
        };
        let mut want = *self.expected[i].as_limbs();
        if std::mem::take(&mut self.corrupt_next_read) {
            want[want.len() - 1] ^= 1;
        }
        Ok((limbs != want)
            .then(|| format!("{}: read {limbs:x?}, expected {want:x?}", self.names[i])))
    }

    /// After an Add of pool batch `b` to stream `s` returned an error,
    /// reads the stream to learn whether the batch landed, and updates
    /// the expected sum to match. `Err` when the read fails or matches
    /// neither outcome: the connection's expectations are then unknown.
    fn settle_failed_add(&mut self, s: usize, b: usize) -> Result<(), String> {
        let limbs = self.read_limbs(s)??;
        let landed = self.expected[s].wrapping_add(&self.pool.sums[b]);
        if limbs == self.expected[s].as_limbs() {
            Ok(())
        } else if limbs == landed.as_limbs() {
            self.expected[s] = landed;
            Ok(())
        } else {
            Err(format!(
                "{}: after a failed add, read {limbs:x?}, neither with nor without the batch",
                self.names[s]
            ))
        }
    }

    /// Sends until `deadline`, then returns what happened. With a trace,
    /// every request is recorded as a span and its latency is the span's.
    fn drive(&mut self, start: Instant, deadline: Instant, mut trace: Option<Trace>) -> ConnPhase {
        let windows = (deadline - start).as_nanos().div_ceil(WINDOW.as_nanos()) as usize;
        let mut out = ConnPhase {
            windows: vec![0; windows],
            ..ConnPhase::default()
        };
        while Instant::now() < deadline {
            let s = self.rng.below(self.spec.streams as u64) as usize;
            let b = self.rng.below(self.pool.len() as u64) as usize;
            let oversize;
            let batch = if std::mem::take(&mut self.fail_next_add) {
                oversize = vec![0.0; OVERSIZE_ADD];
                &oversize
            } else {
                &self.pool.batches[b]
            };
            out.ops += 1;
            let span = trace.as_mut().map(|t| t.begin("client.add"));
            let t0 = Instant::now();
            let added = self.client.add_binary(&self.names[s], batch);
            let took = t0.elapsed();
            if let (Some(t), Some(id)) = (trace.as_mut(), span) {
                t.end(id);
            }
            match added {
                Ok(n) if n == batch.len() as u64 => {
                    out.adds.record(took);
                    out.values += n;
                    let w = (t0 + took - start).as_nanos() / WINDOW.as_nanos();
                    out.windows[(w as usize).min(windows - 1)] += n;
                    self.expected[s] = self.expected[s].wrapping_add(&self.pool.sums[b]);
                }
                Ok(n) => {
                    out.failed += 1;
                    out.mismatches
                        .push(format!("add acknowledged {n} of {} values", batch.len()));
                    break;
                }
                Err(_) => {
                    // The batch may or may not have landed: a read
                    // settles which, and the load goes on. If it cannot,
                    // no later read of this connection can be checked.
                    out.failed += 1;
                    if let Err(unsettled) = self.settle_failed_add(s, b) {
                        out.mismatches.push(unsettled);
                        break;
                    }
                }
            }
            self.adds += 1;
            if self.adds.is_multiple_of(self.spec.adds_per_read) {
                let r = self.rng.below(self.spec.streams as u64) as usize;
                out.ops += 1;
                let span = trace.as_mut().map(|t| t.begin("client.read"));
                let t0 = Instant::now();
                let checked = self.read_and_check(r);
                let took = t0.elapsed();
                if let (Some(t), Some(id)) = (trace.as_mut(), span) {
                    t.end(id);
                }
                match checked {
                    Ok(None) => out.reads.record(took),
                    Ok(Some(mismatch)) => {
                        out.reads.record(took);
                        out.mismatches.push(mismatch);
                    }
                    Err(_) => out.failed += 1,
                }
            }
            if let Some(every) = self.spec.snapshot_every {
                if self.adds.is_multiple_of(every) {
                    out.ops += 1;
                    let span = trace.as_mut().map(|t| t.begin("client.snapshot"));
                    let saved = self.client.snapshot();
                    if let (Some(t), Some(id)) = (trace.as_mut(), span) {
                        t.end(id);
                    }
                    if saved.is_err() {
                        out.failed += 1;
                    }
                }
            }
        }
        out.end = Some(Instant::now());
        out.trace = trace;
        out
    }

    /// Reads every owned stream once and returns the mismatches; a
    /// final check after the timed phases.
    pub fn check_all(&mut self) -> Result<Vec<String>, String> {
        let mut mismatches = Vec::new();
        for i in 0..self.spec.streams {
            if let Some(m) = self.read_and_check(i)? {
                mismatches.push(m);
            }
        }
        Ok(mismatches)
    }
}

/// Runs every connection on its own thread for `length`, all starting
/// together, and merges their results.
pub fn run_phase(conns: &mut [Conn], length: Duration, traced: bool) -> Phase {
    let barrier = Barrier::new(conns.len());
    // Threads spawn and build their traces before the clock starts.
    let start = OnceLock::new();
    let (start, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || {
                    let trace = traced.then(Trace::default);
                    barrier.wait();
                    let start = *start.get_or_init(Instant::now);
                    conn.drive(start, start + length, trace)
                })
            })
            .collect();
        let results: Vec<ConnPhase> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (
            *start.get().expect("a load thread started the clock"),
            results,
        )
    });
    let mut phase = Phase {
        windows: vec![0; results[0].windows.len()],
        ..Phase::default()
    };
    let mut end = start;
    for r in results {
        match &r.trace {
            // A traced request's latency is its span, so the tracing
            // cost shows in the traced phase's latencies.
            Some(t) => {
                t.durations("client.add")
                    .into_iter()
                    .for_each(|ns| phase.adds.record_ns(ns));
                t.durations("client.read")
                    .into_iter()
                    .for_each(|ns| phase.reads.record_ns(ns));
            }
            None => {
                phase.adds.merge(&r.adds);
                phase.reads.merge(&r.reads);
            }
        }
        phase.values += r.values;
        for (total, v) in phase.windows.iter_mut().zip(&r.windows) {
            *total += v;
        }
        phase.ops += r.ops;
        phase.failed += r.failed;
        phase.mismatches.extend(r.mismatches);
        end = end.max(r.end.unwrap_or(start));
        phase.traces.extend(r.trace);
    }
    phase.elapsed = end.duration_since(start);
    phase
}
