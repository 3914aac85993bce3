//! Measurement plumbing: latency samples, in-memory spans, the host
//! noise witness and peak memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A count or a nanosecond figure as `f64` for reporting (exact below
/// 2^53).
pub fn float(n: u64) -> f64 {
    n as f64
}

/// Nanoseconds in `d`, saturating at `u64::MAX`.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile `q` in `0..=1` of `xs`; 0 for no samples.
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = (q * float(sorted.len() as u64)).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `xs`, the mean of the middle two for an even count.
pub fn median_f64(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Sub-buckets per power of two in [`Histogram`]: 0.1% resolution.
const SUB_BITS: u32 = 10;
/// Buckets cover 0 ns to 2^40 ns (18 minutes).
const BUCKETS: usize = (40 - SUB_BITS as usize + 1) << SUB_BITS;

/// Latencies of one operation kind in a log-linear histogram: a fixed
/// 254 KB however many requests a run makes, so the benchmark's own
/// bookkeeping does not move `peak_rss_mb` with throughput.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// The bucket holding `ns`.
fn bucket(ns: u64) -> usize {
    let ns = ns.min((1u64 << 40) - 1);
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize & ((1 << SUB_BITS) - 1))
}

/// The smallest value in bucket `i`.
fn bucket_floor(i: usize) -> u64 {
    if i < 1 << SUB_BITS {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) - 1;
    (((1 << SUB_BITS) + (i & ((1 << SUB_BITS) - 1))) as u64) << shift
}

impl Histogram {
    pub fn record(&mut self, d: Duration) {
        self.record_ns(nanos(d));
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank quantile `q` in `0..=1`, as the middle of its bucket,
    /// in nanoseconds; 0 for no samples.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * float(self.total)).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return float(bucket_floor(i) + bucket_floor(i + 1) - 1) / 2.0;
            }
        }
        unreachable!("rank is at most the total count")
    }

    /// Quantile `q` in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// One timed call into the program, recorded by the benchmark around a
/// public function: the layer's name and the call's interval relative
/// to the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run and summarised at its end.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Trace {
    /// Opens a span and returns its id for [`Trace::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = nanos(self.origin.elapsed());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = nanos(self.origin.elapsed());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every closed span's duration under `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Median duration of the spans named `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        float(quantile(&self.durations(name), 0.5))
    }
}

/// Iterations of the host witness loop per timing.
const REF_ITERS: u64 = 1 << 20;

/// The host noise witness: a fixed integer loop owned by the benchmark,
/// timed five times and reported as its median ns per iteration. It
/// depends on no code of the program, so when it moves between runs the
/// host moved, not the program. It is never used to normalize anything.
pub fn host_ref_ns_per_iter() -> f64 {
    let mut per_iter = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..REF_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        per_iter.push(float(nanos(t0.elapsed())) / float(REF_ITERS));
    }
    median_f64(&per_iter)
}

/// Bytes the copy witness moves per timing: twice the 2 MiB L2, so the
/// copy runs through the shared cache and memory.
const REF_COPY_BYTES: usize = 4 << 20;

/// The second host witness: the median ns per KiB of copying a 4 MiB
/// buffer, five times. Neighbours that contend for the shared cache or
/// memory slow it while the integer loop runs at full speed.
pub fn host_copy_ns_per_kib() -> f64 {
    let src = vec![0x5Au8; REF_COPY_BYTES];
    let mut dst = vec![0u8; REF_COPY_BYTES];
    let mut per_kib = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        per_kib.push(float(nanos(t0.elapsed())) / float((REF_COPY_BYTES >> 10) as u64));
    }
    median_f64(&per_kib)
}

/// Lowers the peak resident memory of this process to its current
/// resident memory, so the benchmark's own earlier allocations (the
/// copy witness) do not count in [`peak_rss_mb`].
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`] (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(float(kb) / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_exact_below_1024_ns_and_within_a_bucket_above() {
        let mut h = Histogram::default();
        (1..=1000).for_each(|ns| h.record_ns(ns));
        assert_eq!(h.quantile_ns(0.5), 500.0);
        assert_eq!(h.quantile_ns(1.0), 1000.0);

        let mut h = Histogram::default();
        let values: Vec<u64> = (0..10_000).map(|i| 40_000 + 37 * i).collect();
        values.iter().for_each(|&ns| h.record_ns(ns));
        for q in [0.5, 0.9, 0.99] {
            let exact = float(quantile(&values, q));
            assert!((h.quantile_ns(q) - exact).abs() <= exact / 1024.0, "q={q}");
        }
        assert_eq!(h.len(), 10_000);
    }
}
