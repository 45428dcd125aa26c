//! A reusable grid specification: the fitted cut points of a discretization,
//! detached from the data that produced them.
//!
//! [`crate::discretize::Discretized`] assigns cells to the rows it was built
//! from; a [`GridSpec`] extracted from it can assign cells to *new* records
//! drawn from the same distribution — the train/apply split a production
//! deployment needs (fit the grid and mine the projections offline, score
//! incoming records online).
//!
//! Out-of-sample assignment is by value against the fitted boundaries, so it
//! approximates the rank-based in-sample assignment; ties that the in-sample
//! equi-depth split broke by row order land in the lower of the candidate
//! ranges.

use crate::dataset::DataError;
use crate::discretize::{Discretized, MISSING_CELL};

/// Fitted per-dimension cell boundaries.
///
/// For dimension `j`, `uppers[j]` holds φ−1 ascending upper boundaries; a
/// value `v` lands in the first range whose upper boundary is ≥ `v` (the
/// last range catches everything above).
///
/// ```
/// use hdoutlier_data::{Dataset, DiscretizeStrategy, Discretized, GridSpec};
/// let ds = Dataset::from_rows((0..100).map(|i| vec![i as f64]).collect()).unwrap();
/// let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
/// let spec = GridSpec::from_discretized(&disc);
/// // New values fall into the fitted quartiles.
/// assert_eq!(spec.cell_of(0, -5.0), 0);
/// assert_eq!(spec.cell_of(0, 50.0), 2);
/// assert_eq!(spec.cell_of(0, 1e9), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    uppers: Vec<Vec<f64>>,
    phi: u32,
    names: Vec<String>,
}

impl GridSpec {
    /// Extracts the fitted boundaries from a discretized dataset.
    ///
    /// Boundary `r` of a dimension is the midpoint between range `r`'s
    /// maximum and range `r+1`'s minimum observed value; empty ranges borrow
    /// their neighbors' edge so the boundaries stay ascending.
    pub fn from_discretized(disc: &Discretized) -> Self {
        let phi = disc.phi();
        let uppers = (0..disc.n_dims())
            .map(|dim| {
                let mut bounds = Vec::with_capacity(phi as usize - 1);
                let mut last = f64::NEG_INFINITY;
                for r in 0..(phi - 1) as u16 {
                    let this = disc.grid_range(dim, r);
                    let next = disc.grid_range(dim, r + 1);
                    let hi = if this.count > 0 { this.hi } else { last };
                    let lo = if next.count > 0 { next.lo } else { hi };
                    let mut boundary = (hi + lo) / 2.0;
                    if !boundary.is_finite() {
                        boundary = last;
                    }
                    boundary = boundary.max(last);
                    bounds.push(boundary);
                    last = boundary;
                }
                bounds
            })
            .collect();
        Self {
            uppers,
            phi,
            names: disc.names().to_vec(),
        }
    }

    /// Reassembles a spec from its parts (e.g. loaded from disk).
    ///
    /// # Errors
    /// [`DataError::NameCountMismatch`] if `names` and `uppers` disagree on
    /// dimensionality; [`DataError::Parse`] if any dimension's boundary list
    /// is not `phi − 1` ascending finite values.
    pub fn from_parts(
        uppers: Vec<Vec<f64>>,
        phi: u32,
        names: Vec<String>,
    ) -> Result<Self, DataError> {
        if names.len() != uppers.len() {
            return Err(DataError::NameCountMismatch {
                n_dims: uppers.len(),
                n_names: names.len(),
            });
        }
        if phi == 0 {
            return Err(DataError::Parse("phi must be positive".into()));
        }
        for (dim, bounds) in uppers.iter().enumerate() {
            if bounds.len() != (phi - 1) as usize {
                return Err(DataError::Parse(format!(
                    "dimension {dim}: expected {} boundaries, got {}",
                    phi - 1,
                    bounds.len()
                )));
            }
            if bounds.iter().any(|b| b.is_nan()) || bounds.windows(2).any(|w| w[0] > w[1]) {
                return Err(DataError::Parse(format!(
                    "dimension {dim}: boundaries must be ascending and not NaN"
                )));
            }
        }
        Ok(Self { uppers, phi, names })
    }

    /// The fitted upper boundaries of dimension `dim` (`phi − 1` ascending
    /// values).
    pub fn boundaries(&self, dim: usize) -> &[f64] {
        &self.uppers[dim]
    }

    /// Number of dimensions the spec covers.
    pub fn n_dims(&self) -> usize {
        self.uppers.len()
    }

    /// Ranges per dimension.
    pub fn phi(&self) -> u32 {
        self.phi
    }

    /// Column names carried from the fitting data.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Cell of a single value on dimension `dim` (NaN → [`MISSING_CELL`]).
    pub fn cell_of(&self, dim: usize, value: f64) -> u16 {
        if value.is_nan() {
            return MISSING_CELL;
        }
        self.uppers[dim].partition_point(|&b| b < value) as u16
    }

    /// Cells of one new record.
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] if the record width differs from the
    /// fitted dimensionality.
    pub fn assign_row(&self, row: &[f64]) -> Result<Vec<u16>, DataError> {
        let mut cells = Vec::new();
        self.assign_row_into(row, &mut cells).map(|()| cells)
    }

    /// Cells of one new record, written over `cells`, so a caller scoring
    /// record after record reuses one buffer.
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] if the record width differs from the
    /// fitted dimensionality; `cells` is then left untouched.
    pub fn assign_row_into(&self, row: &[f64], cells: &mut Vec<u16>) -> Result<(), DataError> {
        if row.len() != self.n_dims() {
            return Err(DataError::ShapeMismatch {
                expected: self.n_dims(),
                actual: row.len(),
            });
        }
        cells.clear();
        cells.extend(row.iter().enumerate().map(|(dim, &v)| self.cell_of(dim, v)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::discretize::DiscretizeStrategy;
    use crate::generators::uniform;

    fn fitted() -> (Dataset, Discretized, GridSpec) {
        let ds = uniform(1000, 3, 81);
        let disc = Discretized::new(&ds, 5, DiscretizeStrategy::EquiDepth).unwrap();
        let spec = GridSpec::from_discretized(&disc);
        (ds, disc, spec)
    }

    #[test]
    fn boundaries_are_ascending() {
        let (_, _, spec) = fitted();
        for dim in 0..3 {
            let b = &spec.uppers[dim];
            assert_eq!(b.len(), 4);
            for w in b.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn in_sample_rows_mostly_reproduce_their_cells() {
        // Value-based reassignment agrees with the rank-based original on
        // all but boundary ties (continuous uniform data: no ties at all).
        let (ds, disc, spec) = fitted();
        for row in 0..ds.n_rows() {
            let cells = spec.assign_row(ds.row(row)).unwrap();
            for (dim, &cell) in cells.iter().enumerate() {
                assert_eq!(cell, disc.cell(row, dim), "row {row} dim {dim}");
            }
        }
    }

    #[test]
    fn out_of_sample_extremes_land_in_edge_ranges() {
        let (_, _, spec) = fitted();
        assert_eq!(spec.cell_of(0, -1e9), 0);
        assert_eq!(spec.cell_of(0, 1e9), 4);
        assert_eq!(spec.cell_of(0, f64::NAN), MISSING_CELL);
    }

    #[test]
    fn shape_validation() {
        let (_, _, spec) = fitted();
        assert!(spec.assign_row(&[0.5, 0.5]).is_err());
        assert!(spec.assign_row(&[0.5, 0.5, 0.5]).is_ok());
        let mut cells = vec![7; 3];
        assert!(spec.assign_row_into(&[0.5], &mut cells).is_err());
        assert_eq!(cells, [7, 7, 7], "a rejected row leaves the buffer alone");
    }

    #[test]
    fn constant_range_handling() {
        // Heavy ties: value-based boundaries collapse but stay ascending
        // and assignment stays within range.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i < 90 { 5.0 } else { i as f64 }])
            .collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        let spec = GridSpec::from_discretized(&disc);
        for v in [-1.0, 5.0, 50.0, 200.0] {
            let c = spec.cell_of(0, v);
            assert!(c < 4, "value {v} -> cell {c}");
        }
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (_, _, spec) = fitted();
        let rebuilt = GridSpec::from_parts(
            (0..3).map(|d| spec.boundaries(d).to_vec()).collect(),
            spec.phi(),
            spec.names().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, spec);
        // Validation failures.
        assert!(GridSpec::from_parts(vec![vec![1.0]], 5, vec!["a".into(), "b".into()]).is_err());
        assert!(GridSpec::from_parts(vec![vec![1.0]], 0, vec!["a".into()]).is_err());
        assert!(GridSpec::from_parts(vec![vec![1.0]], 5, vec!["a".into()]).is_err()); // wrong len
        assert!(GridSpec::from_parts(vec![vec![2.0, 1.0]], 3, vec!["a".into()]).is_err()); // order
        assert!(GridSpec::from_parts(vec![vec![f64::NAN, 1.0]], 3, vec!["a".into()]).is_err());
    }

    #[test]
    fn names_carry_over() {
        let mut ds = uniform(50, 2, 3);
        ds.set_names(vec!["p", "q"]).unwrap();
        let disc = Discretized::new(&ds, 3, DiscretizeStrategy::EquiDepth).unwrap();
        let spec = GridSpec::from_discretized(&disc);
        assert_eq!(spec.names(), &["p".to_string(), "q".to_string()]);
    }
}
