//! Answer digests: exact fingerprints of downloaded results, used to
//! compare answers bit for bit without keeping expected vectors around.

/// Order-sensitive digest of a word stream (FNV-1a over 64-bit words,
/// finished with a length-dependent mix).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorb one word.
    pub fn word(mut self, w: u64) -> Self {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Absorb `u32` values in order.
    pub fn u32s(self, v: &[u32]) -> Self {
        v.iter()
            .fold(self.word(v.len() as u64), |d, &x| d.word(x.into()))
    }

    /// Absorb the bit patterns of `f64` values in order.
    pub fn f64s(self, v: &[f64]) -> Self {
        v.iter()
            .fold(self.word(v.len() as u64), |d, &x| d.word(x.to_bits()))
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        splitmix(self.0)
    }
}

/// Order-insensitive digest of a multiset of words: count plus the
/// wrapping sum of a strong per-element mix.
pub fn multiset(words: impl Iterator<Item = u64>) -> (u64, u64) {
    words.fold((0, 0), |(n, s), w| (n + 1, s.wrapping_add(splitmix(w))))
}

/// The splitmix64 finaliser.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether `v` is in ascending order.
pub fn is_sorted(v: &[u32]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_digest_sees_order_and_bits_multiset_does_not_see_order() {
        let a = Digest::default().u32s(&[1, 2, 3]).finish();
        let b = Digest::default().u32s(&[2, 1, 3]).finish();
        assert_ne!(a, b);
        let z = Digest::default().f64s(&[0.0]).finish();
        let nz = Digest::default().f64s(&[-0.0]).finish();
        assert_ne!(z, nz);
        assert_eq!(
            multiset([1u64, 2, 3].into_iter()),
            multiset([3u64, 1, 2].into_iter())
        );
        assert_ne!(
            multiset([1u64, 1].into_iter()),
            multiset([1u64, 2].into_iter())
        );
        assert!(is_sorted(&[1, 1, 2]) && !is_sorted(&[2, 1]));
    }
}
