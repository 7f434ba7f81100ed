//! Seeded randomness for the benchmark's inputs.
//!
//! Every input stream (arrival times, request mix, Zipf draws, session
//! edits, nets) is derived from the run's `--seed` and a stream tag, so
//! the same seed always produces the same requests in the same order.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no values");
        self.next_u64() % n
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// The seed of stream `tag`/`index` under the run seed `seed`: distinct
/// tags give unrelated streams, so warm-up inputs never repeat measured
/// ones.
#[must_use]
pub fn stream_seed(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut mix = Rng::new(h ^ seed.rotate_left(17));
    mix.next_u64() ^ Rng::new(index.wrapping_add(0x5eed)).next_u64()
}

/// Zipf(s) over `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` (0-based) has weight `1 / (k + 1)^s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` arrival offsets in `[0, secs)`, sorted: a Poisson process
/// conditioned on its count, so every seed offers exactly the same load.
#[must_use]
pub fn arrivals(rng: &mut Rng, count: usize, secs: f64) -> Vec<f64> {
    let mut t: Vec<f64> = (0..count).map(|_| rng.unit() * secs).collect();
    t.sort_by(f64::total_cmp);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        assert_eq!(stream_seed(7, "a", 1), stream_seed(7, "a", 1));
        assert_ne!(stream_seed(7, "a", 1), stream_seed(7, "b", 1));
        assert_ne!(stream_seed(7, "a", 1), stream_seed(8, "a", 1));
        assert_ne!(stream_seed(7, "a", 1), stream_seed(7, "a", 2));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(2048, 1.0);
        let mut rng = Rng::new(3);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&k| k == 0).count();
        assert!(top > 800 && top < 1500, "rank 0 drawn {top} times");
        assert!(draws.iter().all(|&k| k < 2048));
    }
}
