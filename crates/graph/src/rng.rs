//! Deterministic pseudo-random number generation.
//!
//! A local SplitMix64 implementation (Steele, Lea & Flood 2014) keeps every
//! generator in the workspace reproducible across platforms and toolchain
//! versions — reproducibility of the benchmark inputs is a correctness
//! requirement for this project, so we do not depend on an external RNG crate
//! whose stream could change between releases.

/// SplitMix64 pseudo-random generator.
///
/// Passes BigCrush when used as a 64-bit generator and is more than adequate
/// for graph generation. Construction from any seed (including 0) is fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 uniformly-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly-random value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire 2019: unbiased bounded generation without division in the
        // common case.
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

    /// Returns a uniformly-random `usize` in `[0, bound)`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly-random `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `\[0, 1\]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// Stateless 64-bit mix of up to three values, used when a deterministic
/// value must be derived from identifiers alone (e.g. consistent undirected
/// edge weights derived from the canonical endpoint pair).
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut g = SplitMix64::new(
        a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.rotate_left(32).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ c.wrapping_mul(0x1656_67B1_9E37_79F9),
    );
    g.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn next_below_in_range() {
        let mut g = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut g = SplitMix64::new(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[g.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut g = SplitMix64::new(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = SplitMix64::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "shuffle left identity");
    }

    #[test]
    fn mix3_deterministic_and_sensitive() {
        assert_eq!(mix3(1, 2, 3), mix3(1, 2, 3));
        assert_ne!(mix3(1, 2, 3), mix3(1, 2, 4));
        assert_ne!(mix3(1, 2, 3), mix3(2, 1, 3));
    }
}
