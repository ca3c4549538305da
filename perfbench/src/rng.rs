//! Seeded input generation. SplitMix64 keeps the benchmark free of any
//! dependency outside the repository and gives the same inputs for the same
//! seed on every platform.

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A seeded text of `len` bytes: words of 1 to 9 lowercase letters
/// separated by a space or, one time in eight, a newline.
pub fn text(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let word = 1 + rng.below(9);
        for _ in 0..word {
            out.push(b'a' + rng.below(26) as u8);
        }
        out.push(if rng.below(8) == 0 { b'\n' } else { b' ' });
    }
    out.truncate(len);
    out
}

/// FNV-1a hash of a word.
pub fn fnv(word: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in word {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Splits `0..len` into `parts` contiguous ranges.
pub fn ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    (0..parts)
        .map(|i| (len * i / parts, len * (i + 1) / parts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        assert_eq!(text(7, 1, 4096), text(7, 1, 4096));
        assert_ne!(text(7, 1, 4096), text(8, 1, 4096));
        assert_eq!(text(7, 1, 4096).len(), 4096);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, 2);
        assert!((0..10_000).all(|_| rng.below(13) < 13));
    }
}
