//! The projection-string genome (paper §2.2).
//!
//! A solution is a string with one position per dimension; each position
//! holds either a grid range in `1..=φ` or `*` ("don't care"). The paper's
//! example in 4 dimensions with φ = 10 is `*3*9`: ranges fixed on the second
//! and fourth dimensions. A string is **feasible** for a run when exactly
//! `k` positions are non-star.
//!
//! Internally ranges are 0-based `u16` with [`STAR`] as the sentinel;
//! [`std::fmt::Display`] renders the paper's 1-based notation.

use hdoutlier_index::Cube;
use hdoutlier_rng::Rng;
use std::fmt;

/// Sentinel gene value for `*` ("don't care").
pub const STAR: u16 = u16::MAX;

/// A projection string: one gene per dimension.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Projection {
    genes: Vec<u16>,
}

impl Clone for Projection {
    fn clone(&self) -> Self {
        Self {
            genes: self.genes.clone(),
        }
    }

    /// Copies `source`'s genes into this projection's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.genes.clone_from(&source.genes);
    }
}

impl Projection {
    /// Builds a projection from raw genes (`STAR` or a 0-based range).
    pub fn from_genes(genes: Vec<u16>) -> Self {
        Self { genes }
    }

    /// The all-star projection of dimensionality `d` (constrains nothing).
    pub fn all_star(d: usize) -> Self {
        Self {
            genes: vec![STAR; d],
        }
    }

    /// A uniformly random feasible projection: exactly `k` of `d` positions
    /// constrained, each to a uniform range in `0..phi`.
    ///
    /// # Panics
    /// Panics if `k > d` or `phi == 0`.
    pub fn random<R: Rng>(d: usize, k: usize, phi: u32, rng: &mut R) -> Self {
        assert!(k <= d, "k = {k} exceeds dimensionality {d}");
        assert!(phi > 0, "phi must be positive");
        let mut genes = vec![STAR; d];
        // Reservoir-free selection of k distinct positions.
        let mut chosen = 0usize;
        for (pos, gene) in genes.iter_mut().enumerate() {
            let remaining = d - pos;
            let needed = k - chosen;
            if needed > 0 && rng.gen_range(0..remaining) < needed {
                *gene = rng.gen_range(0..phi) as u16;
                chosen += 1;
            }
        }
        Self { genes }
    }

    /// Number of positions (total dimensionality `d`).
    pub fn d(&self) -> usize {
        self.genes.len()
    }

    /// Number of constrained (non-star) positions.
    pub fn k(&self) -> usize {
        self.genes.iter().filter(|&&g| g != STAR).count()
    }

    /// The gene at `pos`: `None` for star, `Some(range)` otherwise.
    #[inline]
    pub fn gene(&self, pos: usize) -> Option<u16> {
        match self.genes[pos] {
            STAR => None,
            r => Some(r),
        }
    }

    /// Sets the gene at `pos` (use [`STAR`] to un-constrain).
    pub fn set_gene(&mut self, pos: usize, gene: u16) {
        self.genes[pos] = gene;
    }

    /// Raw gene slice (`STAR` sentinel included).
    pub fn genes(&self) -> &[u16] {
        &self.genes
    }

    /// The constrained `(position, range)` pairs, ascending by position:
    /// the projection's cube, read off the genes without building one.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u16)> + '_ {
        self.genes
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g != STAR)
            .map(|(i, &g)| (i as u32, g))
    }

    /// Converts to the canonical [`Cube`]; `None` if nothing is constrained.
    pub fn to_cube(&self) -> Option<Cube> {
        Cube::new(self.pairs())
    }

    /// Builds the projection constraining exactly `pairs` (a cube's
    /// `(dimension, range)` pairs) in a `d`-dimensional problem.
    ///
    /// # Panics
    /// Panics if a pair references a dimension `>= d`.
    pub fn from_pairs(pairs: &[(u32, u16)], d: usize) -> Self {
        let mut genes = vec![STAR; d];
        for &(dim, range) in pairs {
            assert!((dim as usize) < d, "cube dimension {dim} out of bounds");
            genes[dim as usize] = range;
        }
        Self { genes }
    }

    /// Whether a discretized record covers this projection: every
    /// constrained position must match the record's cell (a missing cell —
    /// any value ≥ the grid's φ, e.g.
    /// [`hdoutlier_data::discretize::MISSING_CELL`] — never matches, which
    /// is exactly the paper's missing-data semantics).
    pub fn covers(&self, cells: &[u16]) -> bool {
        debug_assert_eq!(cells.len(), self.d());
        self.genes
            .iter()
            .zip(cells)
            .all(|(&g, &c)| g == STAR || g == c)
    }
}

impl fmt::Display for Projection {
    /// The paper's notation: `*` for stars, 1-based range numbers otherwise.
    /// Positions are separated by nothing when every range fits one digit,
    /// by `.` otherwise (φ > 9).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let multi_digit = self.genes.iter().any(|&g| g != STAR && g + 1 > 9);
        for (i, &g) in self.genes.iter().enumerate() {
            if multi_digit && i > 0 {
                write!(f, ".")?;
            }
            match g {
                STAR => write!(f, "*")?,
                r => write!(f, "{}", r + 1)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_rng::rngs::StdRng;
    use hdoutlier_rng::SeedableRng;

    #[test]
    fn paper_notation_example() {
        // *3*9: dims 1 and 3 constrained to 1-based ranges 3 and 9.
        let p = Projection::from_genes(vec![STAR, 2, STAR, 8]);
        assert_eq!(p.to_string(), "*3*9");
        assert_eq!(p.d(), 4);
        assert_eq!(p.k(), 2);
        assert_eq!(p.gene(0), None);
        assert_eq!(p.gene(1), Some(2));
    }

    #[test]
    fn multi_digit_display_uses_separators() {
        let p = Projection::from_genes(vec![STAR, 9, 10]); // ranges 10, 11
        assert_eq!(p.to_string(), "*.10.11");
    }

    #[test]
    fn random_is_feasible_and_in_range() {
        let check = |p: &Projection, d: usize, k: usize, phi: u32| {
            assert_eq!(p.d(), d, "{p}");
            assert_eq!(p.k(), k, "{p}");
            for (_, g) in p.pairs() {
                assert!(g < phi as u16, "{p}");
            }
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            check(&Projection::random(10, 3, 7, &mut rng), 10, 3, 7);
        }
        // Every k from 0 to d, including the all-star and no-star strings.
        hdoutlier_rng::for_each_case(0x9e0b_0001, 64, |rng| {
            let k = rng.gen_range(0..=8);
            check(&Projection::random(8, k, 4, rng), 8, k, 4);
        });
    }

    #[test]
    fn random_positions_are_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            let p = Projection::random(6, 2, 3, &mut rng);
            for (pos, _) in p.pairs() {
                counts[pos as usize] += 1;
            }
        }
        // Each position expected in 1/3 of projections → ~2000.
        for (i, &c) in counts.iter().enumerate() {
            assert!((1800..2200).contains(&c), "position {i}: {c}");
        }
    }

    #[test]
    fn random_edge_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = Projection::random(5, 0, 4, &mut rng);
        assert_eq!(p.k(), 0);
        let p = Projection::random(5, 5, 4, &mut rng);
        assert_eq!(p.k(), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds dimensionality")]
    fn random_k_too_large_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        Projection::random(3, 4, 5, &mut rng);
    }

    #[test]
    fn cube_round_trip() {
        let p = Projection::from_genes(vec![STAR, 2, STAR, 8, STAR]);
        let cube = p.to_cube().unwrap();
        assert_eq!(cube.pairs(), &[(1, 2), (3, 8)]);
        let back = Projection::from_pairs(cube.pairs(), 5);
        assert_eq!(back, p);
        assert!(Projection::all_star(4).to_cube().is_none());
        hdoutlier_rng::for_each_case(0x9e0b_0002, 64, |rng| {
            let p = Projection::random(8, 3, 4, rng);
            let cube = p.to_cube().unwrap();
            assert_eq!(cube.k(), 3, "{p}");
            assert_eq!(Projection::from_pairs(cube.pairs(), 8), p);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_pairs_dimension_overflow_panics() {
        let cube = Cube::new([(9, 0)]).unwrap();
        Projection::from_pairs(cube.pairs(), 5);
    }

    #[test]
    fn covers_semantics() {
        let p = Projection::from_genes(vec![STAR, 2, STAR, 8]);
        assert!(p.covers(&[0, 2, 5, 8]));
        assert!(!p.covers(&[0, 3, 5, 8]));
        // Missing cell never matches a constrained position...
        assert!(!p.covers(&[0, u16::MAX, 5, 8]));
        // ...but is fine on a star position.
        assert!(p.covers(&[u16::MAX, 2, u16::MAX, 8]));
        // All-star covers anything.
        assert!(Projection::all_star(4).covers(&[u16::MAX; 4]));
    }

    #[test]
    fn pairs_list_the_constrained_positions() {
        let p = Projection::from_genes(vec![STAR, 2, STAR, 8]);
        assert_eq!(p.pairs().collect::<Vec<_>>(), vec![(1, 2), (3, 8)]);
        let mut q = p.clone();
        q.set_gene(0, 4);
        q.set_gene(1, STAR);
        assert_eq!(q.pairs().collect::<Vec<_>>(), vec![(0, 4), (3, 8)]);
        assert_eq!(q.k(), 2);
    }

    #[test]
    fn hash_and_eq_for_dedup() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Projection::from_genes(vec![STAR, 1]));
        assert!(set.contains(&Projection::from_genes(vec![STAR, 1])));
        assert!(!set.contains(&Projection::from_genes(vec![1, STAR])));
    }
}
