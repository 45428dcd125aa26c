//! Posting-list index over a discretized dataset.
//!
//! One bitmap per `(dimension, range)` pair, each marking the rows whose
//! value on that dimension falls in that range. Cube occupancy is then a
//! k-way bitmap intersection — `O(k · N / 64)` per cube and cache-friendly,
//! which keeps GA fitness evaluations cheap; brute force at k = 2 and a
//! small φ ANDs pairs of postings directly.
//!
//! Beside the postings the index reads the grid's one column-major code
//! table ([`GridIndex::codes`]), shared with the [`Discretized`] it was
//! built from rather than copied: given the member rows of a partial cube,
//! one pass over a column reads every member's range on that dimension.
//! It is the code table of brute force's task roots: a root groups all rows
//! by range on its dimension with one counting sort over a column, and each
//! child gathers its members' codes from the other columns into a local
//! table of its own (or into a local posting index, one bitmap per
//! dimension and range, ANDed pairwise per leaf); deeper nodes gather from
//! their parent's local table instead.
//!
//! Missing values never appear in any posting and are coded `φ` in the code
//! table — one past the last range — so a record with a missing attribute
//! simply cannot cover cubes constraining that attribute — the semantics
//! §1.2 of the paper requires.

use crate::bitmap::Bitmap;
use crate::cube::Cube;
use hdoutlier_data::discretize::Discretized;
use std::sync::Arc;

/// An inverted index from `(dimension, range)` to the set of matching rows.
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// `postings[dim * phi + range]`.
    postings: Vec<Bitmap>,
    /// The grid's table, [`Discretized::codes`].
    codes: Arc<Vec<u16>>,
    n_rows: usize,
    n_dims: usize,
    phi: u32,
}

impl GridIndex {
    /// Builds the postings from a discretized dataset, one column at a
    /// time, and shares its code table.
    pub fn new(disc: &Discretized) -> Self {
        let n_rows = disc.n_rows();
        let phi = disc.phi() as usize;
        let codes = Arc::clone(disc.codes());
        let mut postings = vec![Bitmap::new(n_rows); disc.n_dims() * phi];
        for (column, dim_postings) in codes
            .chunks_exact(n_rows)
            .zip(postings.chunks_exact_mut(phi))
        {
            for (row, &cell) in column.iter().enumerate() {
                // The missing code φ has no posting.
                if let Some(posting) = dim_postings.get_mut(cell as usize) {
                    posting.set(row);
                }
            }
        }
        Self {
            postings,
            codes,
            n_rows,
            n_dims: disc.n_dims(),
            phi: disc.phi(),
        }
    }

    /// Number of records indexed.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of dimensions indexed.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Grid ranges per dimension.
    pub fn phi(&self) -> u32 {
        self.phi
    }

    /// The posting bitmap of `(dim, range)`.
    ///
    /// # Panics
    /// Panics if `dim` or `range` is out of bounds.
    pub fn posting(&self, dim: u32, range: u16) -> &Bitmap {
        assert!(
            (dim as usize) < self.n_dims,
            "dimension {dim} out of bounds"
        );
        assert!((range as u32) < self.phi, "range {range} out of bounds");
        &self.postings[dim as usize * self.phi as usize + range as usize]
    }

    /// The range of every row on `dim`, indexed by row: `0..φ`, or `φ` for a
    /// missing cell (an overflow bucket no cube covers).
    ///
    /// # Panics
    /// Panics if `dim` is out of bounds.
    pub fn codes(&self, dim: u32) -> &[u16] {
        assert!(
            (dim as usize) < self.n_dims,
            "dimension {dim} out of bounds"
        );
        &self.codes[dim as usize * self.n_rows..][..self.n_rows]
    }

    /// Number of records in the cube given by `pairs`: the popcount of the
    /// intersection of their postings, folded one word at a time without
    /// allocating. `pairs` must name distinct dimensions (a [`Cube`]'s
    /// pairs do); the empty slice constrains nothing and counts every row.
    ///
    /// # Panics
    /// Panics if a dimension or range is out of bounds.
    pub fn count_pairs(&self, pairs: &[(u32, u16)]) -> usize {
        if pairs.is_empty() {
            return self.n_rows;
        }
        self.intersection_words(pairs)
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Row indices of the records in `cube`, ascending.
    pub fn rows(&self, cube: &Cube) -> Vec<usize> {
        let mut rows = Vec::new();
        for (wi, mut w) in self.intersection_words(cube.pairs()).enumerate() {
            while w != 0 {
                rows.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        rows
    }

    /// The words of the intersection of the postings of the (non-empty)
    /// `pairs`. A word stops folding once it reaches zero.
    fn intersection_words<'a>(&'a self, pairs: &'a [(u32, u16)]) -> impl Iterator<Item = u64> + 'a {
        let (&(d0, r0), rest) = pairs.split_first().expect("at least one pair");
        let first = self.posting(d0, r0).words();
        // Bounds-check every pair once; the word loop then only indexes.
        for &(d, r) in rest {
            self.posting(d, r);
        }
        let phi = self.phi as usize;
        first.iter().enumerate().map(move |(wi, &w0)| {
            let mut w = w0;
            for &(d, r) in rest {
                w &= self.postings[d as usize * phi + r as usize].words()[wi];
                if w == 0 {
                    break;
                }
            }
            w
        })
    }

    /// Memory footprint of the postings and the code table they are read
    /// with, in bytes (diagnostics/benches).
    pub fn memory_bytes(&self) -> usize {
        self.postings.len() * self.n_rows.div_ceil(64) * 8
            + self.codes.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::discretize::DiscretizeStrategy;
    use hdoutlier_data::Dataset;

    fn small_grid() -> (Discretized, GridIndex) {
        // 8 rows, 2 dims; values 0..8 so equi-depth with φ=4 puts rows
        // 2i, 2i+1 in range i on dim 0. Dim 1 reversed.
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, (7 - i) as f64]).collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        let index = GridIndex::new(&disc);
        (disc, index)
    }

    #[test]
    fn postings_partition_rows() {
        let (_, index) = small_grid();
        for dim in 0..2u32 {
            let mut seen = [false; 8];
            for range in 0..4u16 {
                for row in index.posting(dim, range).iter_ones() {
                    assert!(!seen[row], "row {row} in two ranges");
                    seen[row] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn cube_counts() {
        let (_, index) = small_grid();
        // Dim0 range 0 = rows {0,1}; dim1 range 3 = rows with value >= 6 on
        // dim1 = rows {0,1}. Intersection = {0,1}.
        let cube = Cube::new([(0, 0), (1, 3)]).unwrap();
        assert_eq!(index.count_pairs(cube.pairs()), 2);
        assert_eq!(index.rows(&cube), vec![0, 1]);
        // Contradictory cube: dim0 range 0 ∧ dim1 range 0 = {0,1} ∧ {6,7} = ∅.
        let cube = Cube::new([(0, 0), (1, 0)]).unwrap();
        assert_eq!(index.count_pairs(cube.pairs()), 0);
        assert!(index.rows(&cube).is_empty());
    }

    #[test]
    fn single_dimension_cube() {
        let (_, index) = small_grid();
        let cube = Cube::new([(1, 2)]).unwrap();
        assert_eq!(index.count_pairs(cube.pairs()), 2);
    }

    #[test]
    fn missing_rows_are_absent_from_postings() {
        let ds = Dataset::from_rows(vec![
            vec![1.0, 1.0],
            vec![f64::NAN, 2.0],
            vec![3.0, f64::NAN],
            vec![4.0, 4.0],
        ])
        .unwrap();
        let disc = Discretized::new(&ds, 2, DiscretizeStrategy::EquiDepth).unwrap();
        let index = GridIndex::new(&disc);
        // Row 1 is missing on dim 0: it appears in no dim-0 posting, and
        // the code table puts it in the overflow bucket φ = 2.
        let in_dim0: usize = (0..2u16).map(|r| index.posting(0, r).count()).sum();
        assert_eq!(in_dim0, 3);
        assert_eq!(index.codes(0), &[0, 2, 0, 1]);
        assert_eq!(index.codes(1), &[0, 0, 2, 1]);
        // And any cube constraining dim 0 cannot contain row 1.
        for r in 0..2u16 {
            let cube = Cube::new([(0, r)]).unwrap();
            assert!(!index.rows(&cube).contains(&1));
        }
    }

    #[test]
    fn codes_agree_with_postings() {
        let (disc, index) = small_grid();
        for dim in 0..2u32 {
            for (row, &code) in index.codes(dim).iter().enumerate() {
                assert_eq!(code, disc.cell(row, dim as usize));
                assert!(index.posting(dim, code).get(row));
            }
        }
    }

    #[test]
    fn codes_are_the_discretized_table() {
        let (disc, index) = small_grid();
        assert!(Arc::ptr_eq(disc.codes(), &index.codes));
    }

    #[test]
    fn accessors_and_validation() {
        let (disc, index) = small_grid();
        assert_eq!(index.n_rows(), disc.n_rows());
        assert_eq!(index.n_dims(), 2);
        assert_eq!(index.phi(), 4);
        // 8 postings of one word each, plus 2 × 8 two-byte codes.
        assert_eq!(index.memory_bytes(), 8 * 8 + 2 * 8 * 2);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn bad_dim_panics() {
        let (_, index) = small_grid();
        index.posting(9, 0);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn bad_range_panics() {
        let (_, index) = small_grid();
        index.posting(0, 9);
    }
}
