//! The k-dimensional cube: a set of dimensions with one grid range each.
//!
//! A cube is the unit the sparsity coefficient scores (paper §1.3): pick k
//! distinct dimensions and one of the φ equi-depth ranges on each. The
//! projection-string representation of the evolutionary algorithm ("\*3\*9")
//! lives in `hdoutlier-core`; this type is its resolved, search-agnostic
//! form shared by all counters.

use std::fmt;

/// A k-dimensional grid cube: `(dimension, range)` pairs, strictly
/// ascending by dimension (canonical form, so equal cubes compare equal).
/// The pair slice is what every [`crate::CubeCounter`] counts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    pairs: Box<[(u32, u16)]>,
}

impl Cube {
    /// Builds a cube from `(dimension, range)` pairs; pairs are sorted by
    /// dimension into canonical form.
    ///
    /// Returns `None` if `pairs` is empty or contains a repeated dimension.
    pub fn new(pairs: impl IntoIterator<Item = (u32, u16)>) -> Option<Self> {
        let mut pairs: Vec<(u32, u16)> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return None;
        }
        pairs.sort_unstable_by_key(|&(d, _)| d);
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(Self {
            pairs: pairs.into_boxed_slice(),
        })
    }

    /// Dimensionality `k` of the cube.
    pub fn k(&self) -> usize {
        self.pairs.len()
    }

    /// The dimensions, ascending.
    pub fn dims(&self) -> impl Iterator<Item = u32> + '_ {
        self.pairs.iter().map(|&(d, _)| d)
    }

    /// The `(dimension, range)` pairs, ascending by dimension.
    pub fn pairs(&self) -> &[(u32, u16)] {
        &self.pairs
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (d, r)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{d}∈r{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_sorts_dims() {
        let a = Cube::new([(5, 2), (1, 7)]).unwrap();
        let b = Cube::new([(1, 7), (5, 2)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.pairs(), &[(1, 7), (5, 2)]);
        assert_eq!(a.k(), 2);
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(Cube::new([]).is_none());
        assert!(Cube::new([(3, 1), (3, 2)]).is_none());
    }

    #[test]
    fn display_is_readable() {
        let c = Cube::new([(0, 1), (4, 2)]).unwrap();
        assert_eq!(c.to_string(), "{d0∈r1, d4∈r2}");
    }

    #[test]
    fn hashable_and_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Cube::new([(1, 1), (2, 2)]).unwrap());
        assert!(set.contains(&Cube::new([(2, 2), (1, 1)]).unwrap()));
        assert!(!set.contains(&Cube::new([(2, 2)]).unwrap()));
    }
}
