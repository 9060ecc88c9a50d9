//! A tiny seeded generator: every input the benchmark makes (design
//! seed, pAVF tables, edit sequence, check samples) derives from the
//! `--seed` argument through this, so the same seed gives the same inputs.

/// SplitMix64: a full-period 64-bit generator with a one-word state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one purpose (`stream`) under one benchmark seed;
    /// distinct streams never share a sequence prefix.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no values");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix64::new(7, 1);
        assert!(a.iter().all(|&v| v == g.next_u64()));
        let mut other = SplitMix64::new(7, 2);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = SplitMix64::new(1, 0);
        assert!((0..1000).all(|_| g.below(13) < 13));
    }
}
