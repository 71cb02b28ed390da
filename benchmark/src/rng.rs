//! The benchmark's only randomness: a SplitMix64 stream seeded from
//! `--seed`. Every generated input (payload bases, list key orders, task-set
//! seeds, scheduler populations) is drawn from it, so one seed is one set of
//! inputs.

/// SplitMix64 (Steele, Lea, Flood 2014): a full-period 64-bit generator
/// whose streams for nearby seeds are uncorrelated.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input family, independent of how many
    /// values the other families draw.
    pub fn fork(seed: u64, family: u64) -> Self {
        let mut root = Self(seed ^ family.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2⁻⁴⁰
    /// for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |mut r: SplitMix64| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(SplitMix64::fork(7, 0)), draw(SplitMix64::fork(7, 0)));
        assert_ne!(draw(SplitMix64::fork(7, 0)), draw(SplitMix64::fork(8, 0)));
        assert_ne!(draw(SplitMix64::fork(7, 1)), draw(SplitMix64::fork(7, 2)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut keys: Vec<u64> = (0..64).collect();
        SplitMix64::fork(3, 0).shuffle(&mut keys);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(keys, sorted);
    }
}
