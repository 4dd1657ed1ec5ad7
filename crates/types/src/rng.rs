//! Deterministic random-number generation and the distributions used by
//! the workload synthesizer.
//!
//! Trace synthesis must be reproducible bit-for-bit from a seed so that
//! every experiment in EXPERIMENTS.md can be regenerated exactly. We
//! implement a small, well-known generator (SplitMix64, Steele et al. 2014)
//! rather than relying on an external crate whose stream may change across
//! versions. The workload crate layers Zipf and log-normal samplers on top.

/// SplitMix64: a tiny, fast, full-period 64-bit generator. Good enough for
/// workload synthesis (not cryptographic). Deterministic across platforms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent
    /// streams for all practical purposes.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    // Truncating a u128 product to its 64-bit halves IS the algorithm.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection method for unbiased bounded ints.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive. Requires `lo <= hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_bounded(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal variate via Box–Muller (polar-free form; uses two
    /// uniforms per call, no caching, keeping the stream position simple).
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal variate with the given parameters of the underlying
    /// normal distribution.
    pub fn next_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.next_gaussian()).exp()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            // The draw is bounded by i + 1, so it always fits a usize.
            let j = usize::try_from(self.next_bounded(i as u64 + 1)).unwrap_or(i);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        // The draw is bounded by len, so it always fits a usize.
        let i = usize::try_from(self.next_bounded(items.len() as u64)).unwrap_or(0);
        &items[i]
    }
}

/// Precomputed Zipf(α) sampler over ranks `0..n` via inverse-CDF binary
/// search. Rank 0 is the most popular item.
///
/// ```
/// use byc_types::{SplitMix64, Zipf};
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = SplitMix64::new(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// assert!(zipf.pmf(0) > zipf.pmf(99));
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `alpha >= 0`.
    /// `alpha == 0` is the uniform distribution.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(alpha >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the sampler has a single rank.
    pub fn is_empty(&self) -> bool {
        false // construction requires n > 0
    }

    /// Sample a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(7) < 7);
        }
        // bound 1 always yields 0
        assert_eq!(rng.next_bounded(1), 0);
    }

    #[test]
    fn range_inclusive() {
        let mut rng = SplitMix64::new(13);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.next_range(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = SplitMix64::new(17);
        let mut counts = [0usize; 10];
        let trials = 100_000;
        for _ in 0..trials {
            counts[rng.next_bounded(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = trials / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::new(23);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.next_gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SplitMix64::new(29);
        for _ in 0..1_000 {
            assert!(rng.next_lognormal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(31);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(37);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left identity");
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_alpha_zero_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_match_pmf() {
        let z = Zipf::new(20, 1.2);
        let mut rng = SplitMix64::new(43);
        let mut counts = [0usize; 20];
        let trials = 200_000;
        for _ in 0..trials {
            counts[z.sample(&mut rng)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let expected = z.pmf(rank) * trials as f64;
            if expected > 500.0 {
                let got = count as f64;
                assert!(
                    (got - expected).abs() / expected < 0.1,
                    "rank {rank}: got {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SplitMix64::new(47);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
    }
}
