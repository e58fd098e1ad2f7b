//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the workspace (finger placement jitter,
//! ridge-pattern synthesis, network adversary scheduling, ...) draws from a
//! [`SimRng`] so a whole experiment replays bit-for-bit from one seed.
//! [`SimRng`] wraps `rand`'s SplitMix64-style state with a few
//! domain-specific helpers (Gaussian sampling, weighted choice).

use std::fmt;

/// A small, fast, seedable PRNG (xoshiro256** core, SplitMix64 seeding).
///
/// `SimRng` intentionally does not implement `rand::RngCore` publicly; the
/// simulation crates use its inherent methods so the dependency surface of
/// their public APIs stays std-only.
///
/// # Example
///
/// ```
/// use btd_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimRng(state: {:#018x}..)", self.s[0])
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator labelled by `stream`.
    ///
    /// Components that need their own randomness (e.g. each simulated user)
    /// should fork a stream rather than share one generator, so adding a
    /// draw in one component does not perturb another.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free-ish: multiply-shift with retry on the
        // biased band. Bias is negligible for simulation, but we reject to
        // keep property tests honest.
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let prod = (x as u128) * (bound as u128);
                ((prod >> 64) as u64, prod as u64)
            };
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_f64() * (hi - lo)
    }

    /// A Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A standard-normal sample (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to
    /// zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights
            .iter()
            .inspect(|&w| {
                assert!(*w >= 0.0, "weights must be non-negative");
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_draw_order() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Different stream labels give different children.
        let mut parent3 = SimRng::seed_from(99);
        let mut c3 = parent3.fork(6);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from(3);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_hits_every_residue() {
        let mut rng = SimRng::seed_from(4);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = SimRng::seed_from(6);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = SimRng::seed_from(8);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..5_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SimRng::seed_from(10);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }

    #[test]
    fn range_helpers_stay_in_range() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..500 {
            let x = rng.range_i64(-3, 4);
            assert!((-3..=4).contains(&x));
            let y = rng.range_f64(2.5, 3.5);
            assert!((2.5..3.5).contains(&y));
        }
    }

    impl SimRng {
        /// Fisher–Yates shuffles `items` in place.
        pub fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                let j = self.below(i as u64 + 1) as usize;
                items.swap(i, j);
            }
        }
    }
}
