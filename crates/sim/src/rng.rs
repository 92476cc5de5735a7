//! Seedable, splittable PRNG for deterministic simulations.

/// A small, fast, seedable PRNG (SplitMix64 core with an xorshift* output
/// path is overkill here; plain SplitMix64 passes the statistical bar for
/// workload generation and policy tie-breaking).
///
/// We deliberately do not depend on the `rand` crate anywhere in the
/// workspace: every stochastic choice in a simulation must derive from an
/// explicit seed, or figures stop being reproducible, and the workspace
/// stays dependency-free. `SimRng` provides the handful of distributions
/// the workload generators need directly.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds ⇒ equal streams.
    pub fn new(seed: u64) -> SimRng {
        // Avoid the all-zero fixed point without changing user-visible
        // behaviour for other seeds.
        SimRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Derive an independent child generator; used to give each module its
    /// own stream so adding a module never perturbs another's randomness.
    #[cfg(test)]
    fn split(&mut self, tag: u64) -> SimRng {
        let s = self.next_u64();
        SimRng::new(s ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift rejection-free mapping (slightly biased for huge n,
        // negligible for simulation workloads).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Exponentially distributed value with the given mean (inverse CDF).
    #[cfg(test)]
    pub(crate) fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit(); // avoid ln(0)
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_streams_are_independent_of_sibling_consumption() {
        let mut root1 = SimRng::new(7);
        let mut c1 = root1.split(0);
        let _ = c1.next_u64(); // consume from child 1
        let c2 = root1.split(1);

        let mut root2 = SimRng::new(7);
        let _c1b = root2.split(0); // do NOT consume
        let c2b = root2.split(1);
        assert_eq!(c2.clone().next_u64(), c2b.clone().next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_mean_is_roughly_half() {
        let mut r = SimRng::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn exp_mean_matches() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn range_inclusive_covers_bounds() {
        let mut r = SimRng::new(19);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range_inclusive(-2, 2);
            assert!((-2..=2).contains(&v));
            saw_lo |= v == -2;
            saw_hi |= v == 2;
        }
        assert!(saw_lo && saw_hi);
    }
}
