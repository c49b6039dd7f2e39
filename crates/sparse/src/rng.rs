//! The workspace's one deterministic PRNG.
//!
//! Matrix generators, [`crate::dense::seeded_vector`], retry jitter, the
//! chaos fault schedule and the tuner's model measurer all draw from it.
//! They need reproducible streams keyed by a `u64` seed, so a
//! dependency-free SplitMix64 (Steele et al., "Fast splittable
//! pseudorandom number generators", OOPSLA'14) is sufficient and keeps the
//! workspace free of external crates. The API mirrors the subset of
//! `rand` the callers use: `seed_from_u64`, `random::<f64>()` and
//! `random_range` over integer and float ranges.

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Samples a value of type `T` from its canonical distribution
    /// (`f64`: uniform in `[0, 1)`).
    pub fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Samples uniformly from a range. Panics on an empty range.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift, without
    /// the modulo bias of a plain remainder.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types with a canonical random distribution.
pub trait Random {
    /// Samples one value.
    fn random(rng: &mut StdRng) -> Self;
}

impl Random for f64 {
    fn random(rng: &mut StdRng) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for u64 {
    fn random(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

/// Ranges [`StdRng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

impl SampleRange<u32> for Range<u32> {
    fn sample(self, rng: &mut StdRng) -> u32 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded_u64((self.end - self.start) as u64) as u32
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample(self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded_u64((self.end - self.start) as u64) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample(self, rng: &mut StdRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.bounded_u64((hi - lo) as u64 + 1) as usize
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.random::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lo_half = 0;
        for _ in 0..1000 {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                lo_half += 1;
            }
        }
        // Crude uniformity check: roughly half below the median.
        assert!((350..=650).contains(&lo_half), "{lo_half}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..500 {
            let v = rng.random_range(3u32..7);
            assert!((3..7).contains(&v));
            let w = rng.random_range(2usize..=4);
            assert!((2..=4).contains(&w));
            seen_lo |= w == 2;
            seen_hi |= w == 4;
            let f = rng.random_range(0.1..1.0);
            assert!((0.1..1.0).contains(&f));
        }
        assert!(seen_lo && seen_hi, "inclusive bounds never sampled");
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(rng.random_range(5usize..=5), 5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.random_range(4u32..4);
    }
}
