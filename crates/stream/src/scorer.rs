//! Record-at-a-time scoring with staleness monitoring.
//!
//! [`OnlineScorer`] wraps a trained [`FittedModel`] for deployment against a
//! live stream: each arriving record is discretized under the trained grid,
//! matched against the mined sparse projections, and folded into a
//! [`DriftMonitor`]. Every `check_every` records the drift test runs and its
//! [`DriftReport`] rides along on that record's [`Verdict`], so the caller
//! learns the grid has gone stale in-band, without polling.

use crate::drift::{DriftMonitor, DriftReport};
use hdoutlier_core::FittedModel;
use hdoutlier_data::DataError;
use hdoutlier_obs as obs;
use std::time::Instant;

/// Event target for the streaming pipeline.
const TARGET: &str = "hdoutlier.stream";

/// Metric handles resolved once at scorer construction so the per-record
/// path never touches the registry lock. Counters are shared by name: two
/// scorers in one process feed the same totals.
#[derive(Debug, Clone)]
struct ScorerMetrics {
    records: obs::Counter,
    outliers: obs::Counter,
    drift_checks: obs::Counter,
    drift_alerts: obs::Counter,
    record_latency_us: obs::Histogram,
}

impl ScorerMetrics {
    fn resolve() -> Self {
        let r = obs::registry();
        ScorerMetrics {
            records: r.counter("hdoutlier.stream.records"),
            outliers: r.counter("hdoutlier.stream.outliers"),
            drift_checks: r.counter("hdoutlier.stream.drift_checks"),
            drift_alerts: r.counter("hdoutlier.stream.drift_alerts"),
            record_latency_us: r.histogram("hdoutlier.stream.record_latency_us"),
        }
    }
}

/// The scoring outcome for one arriving record.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// 0-based arrival index of the record.
    pub index: u64,
    /// Whether the record fell into any mined abnormal projection.
    pub outlier: bool,
    /// Most negative sparsity coefficient among matched projections.
    pub score: Option<f64>,
    /// Indices into [`FittedModel::projections`] the record matched.
    pub matched: Vec<usize>,
    /// Present on records where the periodic drift check ran.
    pub drift: Option<DriftReport>,
}

/// A trained model applied record-by-record, with periodic drift checks.
#[derive(Debug, Clone)]
pub struct OnlineScorer {
    model: FittedModel,
    monitor: DriftMonitor,
    alpha: f64,
    check_every: u64,
    scored: u64,
    outliers: u64,
    /// The current record's grid cells, reused from record to record.
    cells: Vec<u16>,
    metrics: ScorerMetrics,
}

impl OnlineScorer {
    /// Default significance level for the periodic drift check.
    pub const DEFAULT_ALPHA: f64 = 0.01;
    /// Default cadence (in records) of the drift check.
    pub const DEFAULT_CHECK_EVERY: u64 = 512;

    /// Wraps a trained model for streaming use.
    ///
    /// # Errors
    /// [`DataError::Parse`] when the model's grid has `phi < 2` (no drift
    /// test is possible on a single range).
    pub fn new(model: FittedModel) -> Result<Self, DataError> {
        let monitor = DriftMonitor::new(model.grid().n_dims(), model.grid().phi())?;
        Ok(Self {
            model,
            monitor,
            alpha: Self::DEFAULT_ALPHA,
            check_every: Self::DEFAULT_CHECK_EVERY,
            scored: 0,
            outliers: 0,
            cells: Vec::new(),
            metrics: ScorerMetrics::resolve(),
        })
    }

    /// Changes the drift-check significance level.
    ///
    /// # Errors
    /// [`DataError::Parse`] unless `0 < alpha < 1`.
    pub fn set_drift_alpha(&mut self, alpha: f64) -> Result<(), DataError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(DataError::Parse(format!(
                "drift alpha must be in (0, 1), got {alpha}"
            )));
        }
        self.alpha = alpha;
        Ok(())
    }

    /// Changes the drift-check cadence (records between checks).
    ///
    /// # Errors
    /// [`DataError::Parse`] on zero.
    pub fn set_check_every(&mut self, every: u64) -> Result<(), DataError> {
        if every == 0 {
            return Err(DataError::Parse("check cadence must be positive".into()));
        }
        self.check_every = every;
        Ok(())
    }

    /// The wrapped model.
    pub fn model(&self) -> &FittedModel {
        &self.model
    }

    /// The accumulated drift state.
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Records scored so far.
    pub fn records_scored(&self) -> u64 {
        self.scored
    }

    /// Records flagged as outliers so far.
    pub fn outliers_flagged(&self) -> u64 {
        self.outliers
    }

    /// The configured drift-check significance level.
    pub fn drift_alpha(&self) -> f64 {
        self.alpha
    }

    /// The configured drift-check cadence.
    pub fn check_every(&self) -> u64 {
        self.check_every
    }

    /// Overwrites the scored/outlier totals and drift occupancy — the
    /// resume half of a [`crate::checkpoint::Checkpoint`] round trip.
    /// Callers go through [`crate::checkpoint::Checkpoint::restore`], which
    /// also validates the grid fingerprint.
    pub(crate) fn restore_state(
        &mut self,
        scored: u64,
        outliers: u64,
        drift_counts: Vec<u64>,
        drift_totals: Vec<u64>,
        drift_records: u64,
    ) -> Result<(), DataError> {
        self.monitor
            .restore(drift_counts, drift_totals, drift_records)?;
        self.scored = scored;
        self.outliers = outliers;
        Ok(())
    }

    /// Clears drift state (e.g. after swapping in a re-fitted model).
    pub fn reset_drift(&mut self) {
        self.monitor.reset();
    }

    /// Scores one arriving record: discretizes it under the trained grid,
    /// matches it against the mined projections, folds its cells into the
    /// drift monitor, runs the periodic drift check, and stamps the arrival
    /// index.
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] on a record of the wrong width; the
    /// scorer state is then left untouched.
    pub fn score_record(&mut self, row: &[f64]) -> Result<Verdict, DataError> {
        // Per-record wall-clock costs two `Instant::now` calls; only spend
        // them when timing was requested (`obs::set_timing`, e.g. via the
        // CLI's `--metrics-out`). The counters below are single relaxed
        // atomic adds and always run.
        let start = if obs::timing_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        // The cells go into the scorer's one buffer, so a record that
        // matches nothing and lands off the drift cadence allocates nothing.
        self.model.grid().assign_row_into(row, &mut self.cells)?;
        let (matched, score) = self.model.match_cells(&self.cells);
        self.monitor.observe_cells(&self.cells)?;
        let index = self.scored;
        self.scored += 1;
        let drift = if self.scored.is_multiple_of(self.check_every) {
            let _span = obs::span(obs::Level::Debug, TARGET, "drift_check");
            self.metrics.drift_checks.inc();
            let report = self.monitor.report(self.alpha);
            if report.any_drift() {
                self.metrics.drift_alerts.inc();
                obs::event(
                    obs::Level::Warn,
                    TARGET,
                    "drift_alert",
                    &[
                        ("record", obs::Value::U64(index)),
                        (
                            "drifted_dims",
                            obs::Value::U64(report.drifted_dims.len() as u64),
                        ),
                    ],
                );
            }
            Some(report)
        } else {
            None
        };
        self.metrics.records.inc();
        if !matched.is_empty() {
            self.outliers += 1;
            self.metrics.outliers.inc();
        }
        if let Some(start) = start {
            self.metrics
                .record_latency_us
                .record(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(Verdict {
            index,
            outlier: !matched.is_empty(),
            score,
            matched,
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_core::{OutlierDetector, SearchMethod};
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig, PlantedOutliers};

    fn fit() -> (FittedModel, PlantedOutliers) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 2000,
            n_dims: 8,
            n_outliers: 5,
            strong_groups: Some(3),
            seed: 17,
            ..PlantedConfig::default()
        });
        let model = OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(8)
            .search(SearchMethod::BruteForce)
            .build()
            .fit(&planted.dataset)
            .unwrap();
        (model, planted)
    }

    #[test]
    fn drift_report_rides_on_the_cadence_record() {
        let (model, planted) = fit();
        let mut scorer = OnlineScorer::new(model).unwrap();
        scorer.set_check_every(50).unwrap();
        for i in 0..120 {
            let v = scorer.score_record(planted.dataset.row(i % 100)).unwrap();
            let expect_report = (i + 1) % 50 == 0;
            assert_eq!(v.drift.is_some(), expect_report, "record {i}");
        }
    }

    #[test]
    fn in_distribution_stream_reports_no_drift() {
        let (model, planted) = fit();
        let mut scorer = OnlineScorer::new(model).unwrap();
        scorer.set_check_every(1000).unwrap();
        let mut last = None;
        for i in 0..2000 {
            let v = scorer.score_record(planted.dataset.row(i)).unwrap();
            if let Some(r) = v.drift {
                last = Some(r);
            }
        }
        let report = last.expect("cadence fired");
        assert!(!report.any_drift(), "{report:?}");
    }

    #[test]
    fn shifted_stream_reports_drift() {
        let (model, planted) = fit();
        let n_dims = planted.dataset.n_dims();
        let mut scorer = OnlineScorer::new(model).unwrap();
        scorer.set_check_every(500).unwrap();
        // Every record far in one tail of dim 0 → that dimension's
        // occupancy collapses onto one range.
        let mut shifted = vec![0.0f64; n_dims];
        shifted[0] = 100.0;
        let mut last = None;
        for _ in 0..500 {
            let v = scorer.score_record(&shifted).unwrap();
            if let Some(r) = v.drift {
                last = Some(r);
            }
        }
        let report = last.expect("cadence fired");
        assert!(report.drifted_dims.contains(&0), "{report:?}");
        scorer.reset_drift();
        assert_eq!(scorer.monitor().records_observed(), 0);
    }

    #[test]
    fn configuration_is_validated() {
        let (model, planted) = fit();
        let mut scorer = OnlineScorer::new(model).unwrap();
        assert!(scorer.set_drift_alpha(0.0).is_err());
        assert!(scorer.set_drift_alpha(1.0).is_err());
        assert!(scorer.set_drift_alpha(0.05).is_ok());
        assert!(scorer.set_check_every(0).is_err());
        assert!(scorer.set_check_every(64).is_ok());
        assert!(scorer.score_record(&[0.0]).is_err()); // wrong width
                                                       // The malformed record consumed no arrival index.
        assert_eq!(scorer.records_scored(), 0);
        assert_eq!(scorer.monitor().records_observed(), 0);
        assert_eq!(
            scorer.score_record(planted.dataset.row(0)).unwrap().index,
            0
        );
    }
}
