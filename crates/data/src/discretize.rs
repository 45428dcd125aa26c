//! Grid discretization (paper §1.3).
//!
//! Each attribute is divided into `φ` ranges. The paper uses **equi-depth**
//! ranges — each holds a fraction `f = 1/φ` of the records — "because
//! different localities of the data have different densities". Equi-width is
//! provided as well, solely so the ablation benches can demonstrate the
//! degradation the paper's choice avoids.
//!
//! An equi-depth range is a run of consecutive ranks, so a column needs
//! only its φ − 1 boundary ranks, not its full order: they are placed by
//! recursive selection in O(N log φ) per column, where sorting the column
//! would cost O(N log N).
//!
//! The grid is one column-major table of `u16` codes, a column per
//! attribute, which the posting index and brute force read in place.
//! Missing values never land in a range: they are coded `φ`, one past the
//! last range, so a record covers a k-dimensional cube only if all k
//! attributes are present and inside the cube's ranges (this is what lets
//! the method mine datasets with missing attributes, §1.2).

use crate::dataset::{DataError, Dataset};
use std::sync::Arc;

/// How attribute values are mapped to the φ grid ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscretizeStrategy {
    /// Rank-based equi-depth: the `n` present values of a dimension,
    /// ranked by value, are split into φ consecutive runs of (near-)equal
    /// length, so every range holds as close to `n/φ` records as integer
    /// arithmetic allows — even in the presence of massive ties. This
    /// matches the `N·f^k` expectation in Eq. 1 as exactly as possible and
    /// is the library default. Range `j` holds ranks `⌈j·n/φ⌉..⌈(j+1)·n/φ⌉`;
    /// only those φ − 1 boundaries are selected, not the whole order, at
    /// O(n log φ) per dimension.
    ///
    /// Ties that straddle a boundary are split deterministically by row
    /// order (the rank of a tie is its row's), trading a little
    /// interpretability for exact depth balance.
    EquiDepth,
    /// Equi-width: the observed `[min, max]` of each dimension is split into
    /// φ equal-length intervals. Kept for the ablation; ranges in dense
    /// localities hold far more than `n/φ` records, which corrupts the
    /// sparsity coefficient's baseline.
    EquiWidth,
}

/// The value interval a grid range occupies, for interpretable reports
/// ("crime rate in [1.2, 8.9]" rather than "range 4").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridRange {
    /// Smallest attribute value assigned to this range (`-inf` if empty).
    pub lo: f64,
    /// Largest attribute value assigned to this range (`+inf` if empty).
    pub hi: f64,
    /// Number of records assigned to this range.
    pub count: usize,
}

/// A discretized dataset: one grid cell per `(row, dim)` plus the metadata
/// to interpret cells back as value intervals.
#[derive(Debug, Clone)]
pub struct Discretized {
    /// `codes[dim * n_rows + row]`: the row's range on `dim`, or `phi` when
    /// the value is missing. Shared, never copied, with the posting index.
    codes: Arc<Vec<u16>>,
    n_rows: usize,
    n_dims: usize,
    phi: u32,
    strategy: DiscretizeStrategy,
    /// `ranges[dim][range]` — value interval + occupancy of each range.
    ranges: Vec<Vec<GridRange>>,
    names: Vec<String>,
}

impl Discretized {
    /// Discretizes a dataset into `phi` ranges per dimension.
    ///
    /// Errors on an empty dataset or a `phi` outside `1..u16::MAX`.
    pub fn new(
        dataset: &Dataset,
        phi: u32,
        strategy: DiscretizeStrategy,
    ) -> Result<Self, DataError> {
        if dataset.n_rows() == 0 || dataset.n_dims() == 0 {
            return Err(DataError::Empty);
        }
        check_phi(phi)?;
        let n_rows = dataset.n_rows();
        let n_dims = dataset.n_dims();
        let mut codes = vec![0; n_rows * n_dims];
        let mut ranges = Vec::with_capacity(n_dims);
        // One column of values and one of sort keys, reused across all the
        // columns; each column's codes go straight into its slice of the
        // table.
        let mut column = Vec::with_capacity(n_rows);
        let mut keys = Vec::new();
        for (dim, cells) in codes.chunks_exact_mut(n_rows).enumerate() {
            column.clear();
            column.extend((0..n_rows).map(|row| dataset.value(row, dim)));
            match strategy {
                DiscretizeStrategy::EquiDepth => equi_depth_assign(&column, phi, &mut keys, cells),
                DiscretizeStrategy::EquiWidth => equi_width_assign(&column, phi, cells),
            }
            let mut dim_ranges = vec![
                GridRange {
                    lo: f64::INFINITY,
                    hi: f64::NEG_INFINITY,
                    count: 0,
                };
                phi as usize
            ];
            // The missing code φ has no range.
            for (&cell, &v) in cells.iter().zip(&column) {
                if let Some(r) = dim_ranges.get_mut(cell as usize) {
                    r.lo = r.lo.min(v);
                    r.hi = r.hi.max(v);
                    r.count += 1;
                }
            }
            ranges.push(dim_ranges);
        }
        Ok(Self {
            codes: Arc::new(codes),
            n_rows,
            n_dims,
            phi,
            strategy,
            ranges,
            names: dataset.names().to_vec(),
        })
    }

    /// Number of records.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Ranges per dimension (`φ`).
    pub fn phi(&self) -> u32 {
        self.phi
    }

    /// The strategy used to build the grid.
    pub fn strategy(&self) -> DiscretizeStrategy {
        self.strategy
    }

    /// The grid cell of `(row, dim)`: `0..phi`, or `phi` when missing.
    #[inline]
    pub fn cell(&self, row: usize, dim: usize) -> u16 {
        debug_assert!(row < self.n_rows && dim < self.n_dims);
        self.codes[dim * self.n_rows + row]
    }

    /// Whether `(row, dim)` was missing in the source data.
    #[inline]
    pub fn is_missing(&self, row: usize, dim: usize) -> bool {
        u32::from(self.cell(row, dim)) == self.phi
    }

    /// The whole grid as one column-major table: `n_dims` columns of
    /// `n_rows` codes, [`Discretized::cell`]'s values. The posting index
    /// holds a clone of this `Arc`, not a copy of the table.
    pub fn codes(&self) -> &Arc<Vec<u16>> {
        &self.codes
    }

    /// Value interval and occupancy of `range` on `dim`.
    pub fn grid_range(&self, dim: usize, range: u16) -> &GridRange {
        &self.ranges[dim][range as usize]
    }

    /// Column names carried over from the source dataset.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Name of dimension `dim`.
    pub fn name(&self, dim: usize) -> &str {
        &self.names[dim]
    }

    /// Count of present (non-missing) values on `dim`.
    pub fn present_count(&self, dim: usize) -> usize {
        self.ranges[dim].iter().map(|r| r.count).sum()
    }
}

/// Checks that `phi` is a grid size the `u16` codes can hold: `1..u16::MAX`,
/// so that the missing code `phi` stays below the projection wildcard
/// `u16::MAX`.
pub(crate) fn check_phi(phi: u32) -> Result<(), DataError> {
    if phi == 0 || phi >= u32::from(u16::MAX) {
        return Err(DataError::Parse(format!(
            "phi must be in 1..{}, got {phi}",
            u16::MAX
        )));
    }
    Ok(())
}

/// Rank-based equi-depth assignment of one column into `cells`, through
/// the reused key buffer `keys`. NaNs get `phi`.
///
/// With `m` present values in `(value, row)` order, range `j` holds ranks
/// `⌈j·m/φ⌉..⌈(j+1)·m/φ⌉`. Only the φ − 1 boundary ranks are placed, by
/// [`split_at_boundaries`]; each range's members are then one contiguous,
/// unordered slice of `keys`.
fn equi_depth_assign(column: &[f64], phi: u32, keys: &mut Vec<u128>, cells: &mut [u16]) {
    keys.clear();
    keys.extend(
        column
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .map(|(row, &v)| rank_key(v, row)),
    );
    let m = keys.len() as u64;
    let bound = |j: u32| ((u64::from(j) * m).div_ceil(u64::from(phi))) as usize;
    split_at_boundaries(keys, 0..phi, &bound);
    cells.fill(phi as u16);
    for j in 0..phi {
        for &key in &keys[bound(j)..bound(j + 1)] {
            cells[key as u64 as usize] = j as u16;
        }
    }
}

/// The sort key of a present value: its order-preserving bits above its
/// row, so that integer order is value order with ties by row. `-0.0` is
/// keyed as `0.0`: the two zeros are one value and must tie like any other.
fn rank_key(v: f64, row: usize) -> u128 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    // Negative values flip every bit, so larger magnitudes sort lower;
    // non-negative ones set the sign bit to sort above them all.
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(ordered) << 64) | row as u128
}

/// Partitions `keys`, which hold exactly the ranks `bound(ranges.start)..
/// bound(ranges.end)`, so that the members of every range in `ranges`
/// occupy its ranks. The middle boundary is placed first by selection, then
/// each side recursively: O(m log φ) for `m` keys and φ ranges, where
/// sorting them costs O(m log m).
fn split_at_boundaries(
    keys: &mut [u128],
    ranges: std::ops::Range<u32>,
    bound: &impl Fn(u32) -> usize,
) {
    if ranges.len() <= 1 || keys.len() <= 1 {
        return;
    }
    let mid = ranges.start + (ranges.end - ranges.start) / 2;
    let at = bound(mid) - bound(ranges.start);
    if 0 < at && at < keys.len() {
        keys.select_nth_unstable(at);
    }
    let (below, above) = keys.split_at_mut(at);
    split_at_boundaries(below, ranges.start..mid, bound);
    split_at_boundaries(above, mid..ranges.end, bound);
}

/// Equal-width assignment over the observed min..max into `cells`. NaNs
/// get `phi`; a constant column puts everything in range 0.
fn equi_width_assign(column: &[f64], phi: u32, cells: &mut [u16]) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in column {
        if !v.is_nan() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let width = (hi - lo) / phi as f64;
    for (cell, &v) in cells.iter_mut().zip(column) {
        *cell = if v.is_nan() {
            phi as u16
        } else if width <= 0.0 || !width.is_finite() {
            0
        } else {
            (((v - lo) / width) as u64).min(phi as u64 - 1) as u16
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_dataset(n: usize, d: usize) -> Dataset {
        // Deterministic pseudo-uniform data without an RNG dependency.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * 2654435761 + j * 40503) % 10007) as f64) / 10007.0)
                    .collect()
            })
            .collect();
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn equi_depth_ranges_are_balanced() {
        let ds = uniform_dataset(1000, 3);
        let disc = Discretized::new(&ds, 10, DiscretizeStrategy::EquiDepth).unwrap();
        for dim in 0..3 {
            for r in 0..10u16 {
                let c = disc.grid_range(dim, r).count;
                assert_eq!(c, 100, "dim {dim} range {r} has {c}");
            }
        }
    }

    #[test]
    fn equi_depth_balanced_even_with_heavy_ties() {
        // 90 % of the column is the same value; equi-depth must still split
        // 10-ways with equal counts.
        let mut rows: Vec<Vec<f64>> = (0..900).map(|_| vec![5.0]).collect();
        rows.extend((0..100).map(|i| vec![i as f64 / 100.0]));
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 10, DiscretizeStrategy::EquiDepth).unwrap();
        for r in 0..10u16 {
            assert_eq!(disc.grid_range(0, r).count, 100);
        }
    }

    #[test]
    fn equi_depth_non_divisible_counts_differ_by_at_most_one() {
        let ds = uniform_dataset(103, 1);
        let disc = Discretized::new(&ds, 10, DiscretizeStrategy::EquiDepth).unwrap();
        let counts: Vec<usize> = (0..10u16).map(|r| disc.grid_range(0, r).count).collect();
        assert_eq!(counts.iter().sum::<usize>(), 103);
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn equi_depth_is_order_preserving() {
        // If value(a) < value(b) then cell(a) <= cell(b).
        let check = |ds: &Dataset, phi: u32| {
            let disc = Discretized::new(ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
            for a in 0..ds.n_rows() {
                for b in 0..ds.n_rows() {
                    if ds.value(a, 0) < ds.value(b, 0) {
                        assert!(disc.cell(a, 0) <= disc.cell(b, 0), "φ={phi} rows {a}, {b}");
                    }
                }
            }
        };
        check(&uniform_dataset(500, 1), 7);
        hdoutlier_rng::for_each_case(0xd15c_0001, 256, |rng| {
            use hdoutlier_rng::Rng;
            let n = rng.gen_range(2..60);
            let values = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            check(&Dataset::new(values, n, 1).unwrap(), rng.gen_range(1..8));
        });
    }

    #[test]
    fn equi_width_splits_range_evenly_by_value() {
        let rows: Vec<Vec<f64>> = (0..=100).map(|i| vec![i as f64]).collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiWidth).unwrap();
        assert_eq!(disc.cell(0, 0), 0);
        assert_eq!(disc.cell(24, 0), 0);
        assert_eq!(disc.cell(25, 0), 1);
        assert_eq!(disc.cell(100, 0), 3); // max value clamps into last range
    }

    #[test]
    fn equi_width_is_unbalanced_on_skewed_data() {
        // The motivating failure: skewed data piles into few ranges.
        let mut rows: Vec<Vec<f64>> = (0..990).map(|i| vec![i as f64 / 1000.0]).collect();
        rows.push(vec![1000.0]); // one far-out point stretches the width
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 10, DiscretizeStrategy::EquiWidth).unwrap();
        assert_eq!(disc.grid_range(0, 0).count, 990);
        let depth = Discretized::new(&ds, 10, DiscretizeStrategy::EquiDepth).unwrap();
        assert!(depth.grid_range(0, 0).count <= 100);
    }

    #[test]
    fn missing_values_get_sentinel_and_do_not_skew_ranges() {
        let ds = Dataset::from_rows(vec![
            vec![1.0],
            vec![f64::NAN],
            vec![2.0],
            vec![3.0],
            vec![4.0],
        ])
        .unwrap();
        let disc = Discretized::new(&ds, 2, DiscretizeStrategy::EquiDepth).unwrap();
        assert!(disc.is_missing(1, 0));
        assert_eq!(disc.cell(1, 0), 2);
        assert_eq!(disc.present_count(0), 4);
        assert_eq!(disc.grid_range(0, 0).count, 2);
        assert_eq!(disc.grid_range(0, 1).count, 2);
    }

    #[test]
    fn all_missing_column_is_tolerated() {
        let ds = Dataset::from_rows(vec![vec![f64::NAN, 1.0], vec![f64::NAN, 2.0]]).unwrap();
        let disc = Discretized::new(&ds, 2, DiscretizeStrategy::EquiDepth).unwrap();
        assert_eq!(disc.present_count(0), 0);
        assert_eq!(disc.present_count(1), 2);
    }

    #[test]
    fn constant_column_equi_width() {
        let ds = Dataset::from_rows(vec![vec![7.0], vec![7.0], vec![7.0]]).unwrap();
        let disc = Discretized::new(&ds, 5, DiscretizeStrategy::EquiWidth).unwrap();
        for i in 0..3 {
            assert_eq!(disc.cell(i, 0), 0);
        }
    }

    #[test]
    fn grid_range_intervals_are_consistent() {
        let ds = uniform_dataset(300, 2);
        let disc = Discretized::new(&ds, 5, DiscretizeStrategy::EquiDepth).unwrap();
        for dim in 0..2 {
            for r in 0..5u16 {
                let g = disc.grid_range(dim, r);
                assert!(g.lo <= g.hi);
                if r > 0 {
                    // Ranges are ordered by value.
                    assert!(disc.grid_range(dim, r - 1).hi <= g.lo + 1e-12);
                }
            }
        }
    }

    #[test]
    fn parameter_validation() {
        let ds = uniform_dataset(10, 2);
        assert!(Discretized::new(&ds, 0, DiscretizeStrategy::EquiDepth).is_err());
        assert!(Discretized::new(&ds, u16::MAX as u32, DiscretizeStrategy::EquiDepth).is_err());
        assert!(Discretized::new(&ds, 65534, DiscretizeStrategy::EquiDepth).is_ok());
    }

    #[test]
    fn phi_larger_than_n() {
        // More ranges than records: some ranges stay empty, none crash.
        let ds = uniform_dataset(3, 1);
        let disc = Discretized::new(&ds, 10, DiscretizeStrategy::EquiDepth).unwrap();
        let total: usize = (0..10u16).map(|r| disc.grid_range(0, r).count).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn names_carry_over() {
        let mut ds = uniform_dataset(10, 2);
        ds.set_names(vec!["alpha", "beta"]).unwrap();
        let disc = Discretized::new(&ds, 2, DiscretizeStrategy::EquiDepth).unwrap();
        assert_eq!(disc.name(0), "alpha");
        assert_eq!(disc.names()[1], "beta");
    }

    #[test]
    fn code_table_is_column_major() {
        let ds = uniform_dataset(20, 4);
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        for (j, column) in disc.codes().chunks_exact(20).enumerate() {
            for (i, &cell) in column.iter().enumerate() {
                assert_eq!(cell, disc.cell(i, j));
            }
        }
    }
}
