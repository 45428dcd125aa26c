//! Grid-staleness detection.
//!
//! The trained grid is equi-depth by construction: on the training
//! distribution, each of the φ ranges of every dimension captures `1/φ` of
//! the records. If the live stream still follows that distribution, arriving
//! records spread uniformly over the ranges; if the distribution has moved,
//! some ranges fill disproportionately. [`DriftMonitor`] accumulates
//! per-dimension range occupancy and runs a χ² goodness-of-fit test against
//! the uniform expectation (`df = φ − 1`, p-value via the regularized
//! incomplete gamma function from `hdoutlier_stats`). A small p-value on
//! any dimension means the boundaries have gone stale and the model should
//! be re-fit — exactly the signal the online scorer surfaces.

use hdoutlier_data::dataset::DataError;
use hdoutlier_stats::gamma::gamma_q;

/// Accumulates per-dimension range occupancy of arriving records and tests
/// it against the equi-depth (uniform) expectation of the trained grid.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    phi: u32,
    /// Occupancy per `(dim, range)`, flattened `dim * phi + range`.
    counts: Vec<u64>,
    /// Non-missing observations per dimension.
    totals: Vec<u64>,
    n_dims: usize,
    records: u64,
}

/// The outcome of a χ² drift check across all dimensions.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// χ² statistic per dimension (`NAN` where too little data).
    pub statistics: Vec<f64>,
    /// Upper-tail p-value per dimension (`1.0` where too little data).
    pub p_values: Vec<f64>,
    /// Dimensions whose p-value fell below the significance level.
    pub drifted_dims: Vec<usize>,
    /// The significance level the report was produced at.
    pub alpha: f64,
}

impl DriftReport {
    /// Whether any dimension drifted at the report's significance level.
    pub fn any_drift(&self) -> bool {
        !self.drifted_dims.is_empty()
    }
}

impl DriftMonitor {
    /// Expected observations per range before a dimension is tested; below
    /// this the χ² approximation is unreliable and the dimension reports
    /// `p = 1.0` (the classic "expected cell count ≥ 5" rule).
    pub const MIN_EXPECTED_PER_RANGE: f64 = 5.0;

    /// Creates a monitor for `n_dims` dimensions over a `phi`-range grid.
    ///
    /// # Errors
    /// [`DataError::Empty`] for zero dimensions; [`DataError::Parse`] for a
    /// `phi` outside `2..u16::MAX` (with a single range there is nothing to
    /// test: `df = 0`).
    pub fn new(n_dims: usize, phi: u32) -> Result<Self, DataError> {
        if n_dims == 0 {
            return Err(DataError::Empty);
        }
        if phi < 2 || phi >= u16::MAX as u32 {
            return Err(DataError::Parse(format!(
                "phi must be in 2..{} for a drift test, got {phi}",
                u16::MAX
            )));
        }
        Ok(Self {
            phi,
            counts: vec![0; n_dims * phi as usize],
            totals: vec![0; n_dims],
            n_dims,
            records: 0,
        })
    }

    /// Ranges per dimension.
    pub fn phi(&self) -> u32 {
        self.phi
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Records observed since construction or the last [`DriftMonitor::reset`].
    pub fn records_observed(&self) -> u64 {
        self.records
    }

    /// Folds in one record already discretized under the *trained* grid
    /// (cells `< phi`, or `phi` for a missing value, which is skipped per
    /// dimension).
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] on a record of the wrong width;
    /// [`DataError::Parse`] on an out-of-range cell.
    pub fn observe_cells(&mut self, cells: &[u16]) -> Result<(), DataError> {
        if cells.len() != self.n_dims {
            return Err(DataError::ShapeMismatch {
                expected: self.n_dims,
                actual: cells.len(),
            });
        }
        for (dim, &c) in cells.iter().enumerate() {
            if u32::from(c) == self.phi {
                continue;
            }
            if u32::from(c) > self.phi {
                return Err(DataError::Parse(format!(
                    "dimension {dim}: cell {c} out of range for phi {}",
                    self.phi
                )));
            }
            self.counts[dim * self.phi as usize + c as usize] += 1;
            self.totals[dim] += 1;
        }
        self.records += 1;
        Ok(())
    }

    /// Raw range occupancy, flattened `dim * phi + range` — the state a
    /// [`crate::checkpoint::Checkpoint`] persists.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Non-missing observations per dimension (checkpoint state).
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Replaces the accumulated occupancy wholesale — the resume half of a
    /// checkpoint round trip.
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] when the vectors do not match this
    /// monitor's `n_dims * phi` / `n_dims` layout.
    pub fn restore(
        &mut self,
        counts: Vec<u64>,
        totals: Vec<u64>,
        records: u64,
    ) -> Result<(), DataError> {
        if counts.len() != self.counts.len() {
            return Err(DataError::ShapeMismatch {
                expected: self.counts.len(),
                actual: counts.len(),
            });
        }
        if totals.len() != self.totals.len() {
            return Err(DataError::ShapeMismatch {
                expected: self.totals.len(),
                actual: totals.len(),
            });
        }
        self.counts = counts;
        self.totals = totals;
        self.records = records;
        Ok(())
    }

    /// Clears all accumulated occupancy — call after re-fitting the model.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.totals.iter_mut().for_each(|t| *t = 0);
        self.records = 0;
    }

    /// χ² statistic and p-value of one dimension against the uniform
    /// equi-depth expectation, or `None` while the dimension has fewer than
    /// `φ ·` [`DriftMonitor::MIN_EXPECTED_PER_RANGE`] observations.
    pub fn check_dim(&self, dim: usize) -> Option<(f64, f64)> {
        let total = self.totals[dim] as f64;
        let phi = self.phi as f64;
        let expected = total / phi;
        if expected < Self::MIN_EXPECTED_PER_RANGE {
            return None;
        }
        let base = dim * self.phi as usize;
        let stat: f64 = self.counts[base..base + self.phi as usize]
            .iter()
            .map(|&obs| {
                let d = obs as f64 - expected;
                d * d / expected
            })
            .sum();
        let df = phi - 1.0;
        Some((stat, gamma_q(df / 2.0, stat / 2.0)))
    }

    /// Tests every dimension at significance level `alpha`.
    pub fn report(&self, alpha: f64) -> DriftReport {
        let mut statistics = Vec::with_capacity(self.n_dims);
        let mut p_values = Vec::with_capacity(self.n_dims);
        let mut drifted_dims = Vec::new();
        for dim in 0..self.n_dims {
            match self.check_dim(dim) {
                Some((stat, p)) => {
                    statistics.push(stat);
                    p_values.push(p);
                    if p < alpha {
                        drifted_dims.push(dim);
                    }
                }
                None => {
                    statistics.push(f64::NAN);
                    p_values.push(1.0);
                }
            }
        }
        DriftReport {
            statistics,
            p_values,
            drifted_dims,
            alpha,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stream_does_not_drift() {
        let mut mon = DriftMonitor::new(2, 4).unwrap();
        for i in 0..4_000u16 {
            mon.observe_cells(&[i % 4, (i / 4) % 4]).unwrap();
        }
        let report = mon.report(0.01);
        assert!(!report.any_drift(), "{report:?}");
        assert!(report.p_values.iter().all(|&p| p > 0.5), "{report:?}");
    }

    #[test]
    fn shifted_stream_drifts_on_the_shifted_dimension_only() {
        let mut mon = DriftMonitor::new(2, 4).unwrap();
        for i in 0..4_000u16 {
            // Dim 0 collapses onto range 0 (hard drift); dim 1 stays uniform.
            mon.observe_cells(&[0, i % 4]).unwrap();
        }
        let report = mon.report(0.01);
        assert_eq!(report.drifted_dims, vec![0], "{report:?}");
        assert!(report.p_values[0] < 1e-6);
        assert!(report.p_values[1] > 0.5);
        assert!(report.any_drift());
    }

    #[test]
    fn too_little_data_reports_no_drift() {
        let mut mon = DriftMonitor::new(1, 4).unwrap();
        for _ in 0..10 {
            mon.observe_cells(&[0]).unwrap(); // wildly skewed but tiny n
        }
        assert!(mon.check_dim(0).is_none());
        let report = mon.report(0.05);
        assert!(!report.any_drift());
        assert!(report.statistics[0].is_nan());
        assert_eq!(report.p_values[0], 1.0);
    }

    #[test]
    fn missing_cells_are_skipped() {
        let mut mon = DriftMonitor::new(2, 4).unwrap();
        for i in 0..100u16 {
            mon.observe_cells(&[4, i % 4]).unwrap();
        }
        assert_eq!(mon.records_observed(), 100);
        assert!(mon.check_dim(0).is_none()); // dim 0 saw nothing
        assert!(mon.check_dim(1).is_some());
    }

    #[test]
    fn reset_clears_state() {
        let mut mon = DriftMonitor::new(1, 4).unwrap();
        for _ in 0..1_000 {
            mon.observe_cells(&[0]).unwrap();
        }
        assert!(mon.report(0.05).any_drift());
        mon.reset();
        assert_eq!(mon.records_observed(), 0);
        assert!(!mon.report(0.05).any_drift());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(DriftMonitor::new(0, 4).is_err());
        assert!(DriftMonitor::new(2, 1).is_err());
        let mut mon = DriftMonitor::new(2, 4).unwrap();
        assert!(mon.observe_cells(&[0]).is_err());
        assert!(mon.observe_cells(&[0, 5]).is_err());
        assert!(mon.observe_cells(&[0, 3]).is_ok());
    }
}
