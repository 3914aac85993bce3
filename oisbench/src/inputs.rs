//! Seeded inputs and their client-side exact sums.
//!
//! The program only ever sees these generated batches; the benchmark
//! keeps the exact HP sum of every ACKed batch on its own side and
//! compares each read with it bit for bit.

use oisum_service::ServiceHp;

/// splitmix64: small, fast, and the same stream for the same seed on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Binades the summands span: `2^-30 ..= 2^29`, so every value and every
/// partial sum stays exactly representable in the service's 6x3 format.
pub const BINADES: u64 = 60;

/// One summand: a random 53-bit significand in `[1, 2)`, a random
/// exponent over [`BINADES`] binades, and a random sign.
pub fn summand(rng: &mut Rng) -> f64 {
    let bits = rng.next_u64();
    let significand = f64::from_bits(0x3FF0_0000_0000_0000 | (bits >> 12));
    let exponent = rng.below(BINADES) as i32 - 30;
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    sign * significand * 2f64.powi(exponent)
}

/// A fixed pool of batches the load cycles through, with the exact sum
/// of each batch precomputed so the expected stream sums cost one limb
/// add per ACK.
#[derive(Debug, Clone)]
pub struct Pool {
    pub batches: Vec<Vec<f64>>,
    pub sums: Vec<ServiceHp>,
}

impl Pool {
    pub fn new(seed: u64, batches: usize, values_per_batch: usize) -> Pool {
        let mut rng = Rng::new(seed);
        let batches: Vec<Vec<f64>> = (0..batches)
            .map(|_| (0..values_per_batch).map(|_| summand(&mut rng)).collect())
            .collect();
        let sums = batches
            .iter()
            .map(|b| ServiceHp::sum_f64_slice(b))
            .collect();
        Pool { batches, sums }
    }

    pub fn len(&self) -> usize {
        self.batches.len()
    }

    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// The little-endian wire bytes of `values`, as a binary Add carries them.
pub fn le_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Stream names used by every workload: `s0000`, `s0001`, ...
pub fn stream_name(i: usize) -> String {
    format!("s{i:04}")
}
