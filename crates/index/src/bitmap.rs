//! A packed bitset over `u64` words.
//!
//! All bitmaps in one [`crate::grid::GridIndex`] share a length, so
//! multi-way operations are plain word loops over [`Bitmap::words`]: the
//! index folds a cube's postings word by word, and the brute-force walker
//! ANDs them into its own scratch space.

/// A fixed-length bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero addressable bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for length {}",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for length {}",
            self.len
        );
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of bounds for length {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The packed words, bit `i` at `words[i / 64] >> (i % 64)`. Bits at or
    /// past [`len`](Self::len) are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set-bit indices.
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert_eq!(b.count(), 4);
        assert_eq!(b.words(), &[1 | 1 << 63, 1, 1 << 1]);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        Bitmap::new(10).set(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::new(0).get(0);
    }

    #[test]
    fn iter_ones_sparse_and_dense() {
        let mut b = Bitmap::new(300);
        let expected = vec![0usize, 1, 64, 65, 128, 255, 299];
        for &i in &expected {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), expected);
        let empty = Bitmap::new(300);
        assert_eq!(empty.iter_ones().count(), 0);
        let zero_len = Bitmap::new(0);
        assert_eq!(zero_len.iter_ones().count(), 0);
        assert!(zero_len.is_empty());
        // Random members round-trip through set/iter_ones/count.
        hdoutlier_rng::for_each_case(0xb17a_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            let n = rng.gen_range(0..50);
            let mut members: Vec<usize> = (0..n).map(|_| rng.gen_range(0..200)).collect();
            members.sort_unstable();
            members.dedup();
            let mut b = Bitmap::new(200);
            for &i in &members {
                b.set(i);
            }
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), members);
            assert_eq!(b.count(), members.len());
        });
    }
}
