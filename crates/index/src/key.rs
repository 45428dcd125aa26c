//! Hash maps keyed by a cube's sorted `(dimension, range)` pairs.
//!
//! The evolutionary search looks cubes up by the pair slice it is scoring
//! (the count memo, the tracked best set, the ban list), so the key type is
//! the owned slice, [`CubeKey`], and every map is queried with a borrowed
//! `&[(u32, u16)]`. Keys are grid coordinates bounded by `d · φ`, produced
//! by the search itself, never by a remote party, so the maps hash with
//! [`CubeHasher`], a multiply-rotate hasher of the kind compilers use for
//! small integer keys, rather than the flood-resistant SipHash default
//! (EXPERIMENTS.md "Allocation-free GA scoring" measures the difference).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A cube as a map key: its `(dimension, range)` pairs, ascending by
/// dimension.
pub type CubeKey = Box<[(u32, u16)]>;

/// A map from cubes to `V`, looked up by borrowed pair slices.
pub type CubeMap<V> = HashMap<CubeKey, V, BuildHasherDefault<CubeHasher>>;

/// A set of cubes, looked up by borrowed pair slices.
pub type CubeSet = HashSet<CubeKey, BuildHasherDefault<CubeHasher>>;

/// Multiply-rotate hasher for the short integer sequences of [`CubeKey`]s:
/// each word is XORed into the rotated state, then multiplied by an odd
/// constant.
#[derive(Debug, Default, Clone, Copy)]
pub struct CubeHasher(u64);

impl CubeHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for CubeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_are_looked_up_by_borrowed_slices() {
        let mut map = CubeMap::default();
        map.insert(CubeKey::from([(1, 2), (5, 0)]), 7usize);
        assert_eq!(map.get(&[(1, 2), (5, 0)][..]), Some(&7));
        assert_eq!(map.get(&[(1, 2)][..]), None);
        assert_eq!(map.get(&[(5, 0), (1, 2)][..]), None);
        let mut set = CubeSet::default();
        set.insert(CubeKey::from([(3, 1)]));
        assert!(set.contains(&[(3, 1)][..]));
    }

    #[test]
    fn different_cubes_rarely_share_a_hash() {
        use std::hash::BuildHasher;
        // Every 3-dimensional cube of a 20-dimensional grid at φ = 6.
        let build = BuildHasherDefault::<CubeHasher>::default();
        let mut hashes = HashSet::new();
        let mut cubes = 0usize;
        for a in 0..20u32 {
            for b in a + 1..20 {
                for c in b + 1..20 {
                    for r in 0..216u16 {
                        let key = [(a, r / 36), (b, r / 6 % 6), (c, r % 6)];
                        hashes.insert(build.hash_one(&key[..]));
                        cubes += 1;
                    }
                }
            }
        }
        assert_eq!(hashes.len(), cubes);
    }
}
