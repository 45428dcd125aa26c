//! Detection across several projection dimensionalities at once.
//!
//! §1.1 of the paper lists as a desideratum that "a distance based threshold
//! for an outlier in k-dimensional subspace is not directly comparable to
//! one in (k+1)-dimensional subspace" — and the same holds for the sparsity
//! coefficient itself: `S = −3` at `k = 2` and at `k = 4` correspond to very
//! different tail probabilities because the occupancy laws differ. The
//! housing case study (§3.1) nevertheless mines "3- and 4-dimensional
//! projections" together.
//!
//! This module runs the detector at each `k` in a range and merges the
//! reports on the one scale that *is* comparable across dimensionalities:
//! the **exact significance** `P[Binomial(N, φ^{-k}) ≤ count]` of each
//! projection under the independence null.

use crate::detector::{DetectError, OutlierDetector};
use crate::report::ScoredProjection;
use hdoutlier_data::Dataset;
use hdoutlier_stats::SparsityParams;
use std::collections::BTreeSet;

/// A projection annotated with its dimensionality and exact significance.
#[derive(Debug, Clone)]
pub struct RankedProjection {
    /// The projection with its Eq. 1 score (comparable only within one `k`).
    pub scored: ScoredProjection,
    /// The projection's dimensionality.
    pub k: usize,
    /// Exact significance under the independence null — the cross-`k`
    /// comparable ranking key (smaller = more abnormal).
    pub exact_significance: f64,
}

/// Merged result of a multi-`k` run.
#[derive(Debug, Clone)]
pub struct MultiKReport {
    /// All projections found, ascending by exact significance.
    pub projections: Vec<RankedProjection>,
    /// Union of covered rows, ascending.
    pub outlier_rows: Vec<usize>,
}

impl MultiKReport {
    /// The `m` most significant projections (already sorted).
    pub fn top(&self, m: usize) -> &[RankedProjection] {
        &self.projections[..self.projections.len().min(m)]
    }
}

impl OutlierDetector {
    /// Runs the configured search once per `k` in `ks` and merges the
    /// reports, ranked by exact significance. The detector's own `k`
    /// setting is overridden per run; all other settings (φ, m, search,
    /// seed…) apply to each run unchanged.
    ///
    /// # Errors
    /// Propagates the first per-`k` failure (e.g. a `k` exceeding the
    /// dataset's dimensionality).
    pub fn detect_across_k(
        &self,
        dataset: &Dataset,
        ks: impl IntoIterator<Item = usize>,
    ) -> Result<MultiKReport, DetectError> {
        let disc = self.discretize(dataset)?;
        let phi = disc.phi();
        let n = dataset.n_rows() as u64;

        let mut projections: Vec<RankedProjection> = Vec::new();
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        for k in ks {
            let mut config = self.config().clone();
            config.k = Some(k);
            let detector = OutlierDetector::with_config(config);
            let report = detector.detect_discretized(&disc)?;
            let params = SparsityParams::new(n, phi, k as u32);
            covered.extend(report.outlier_rows.iter().copied());
            for scored in report.projections {
                let exact_significance = params
                    .map(|p| p.exact_significance(scored.count as u64))
                    .unwrap_or(f64::NAN);
                projections.push(RankedProjection {
                    scored,
                    k,
                    exact_significance,
                });
            }
        }
        projections.sort_by(|a, b| {
            a.exact_significance
                .partial_cmp(&b.exact_significance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.scored.projection.genes().cmp(b.scored.projection.genes()))
        });
        Ok(MultiKReport {
            projections,
            outlier_rows: covered.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::SearchMethod;
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    fn detector() -> OutlierDetector {
        OutlierDetector::builder()
            .phi(4)
            .m(8)
            .search(SearchMethod::BruteForce)
            .build()
    }

    fn data() -> hdoutlier_data::generators::PlantedOutliers {
        planted_outliers(&PlantedConfig {
            n_rows: 1500,
            n_dims: 8,
            n_outliers: 4,
            strong_groups: Some(2),
            seed: 55,
            ..PlantedConfig::default()
        })
    }

    #[test]
    fn merges_multiple_k_and_ranks_by_exact_significance() {
        let planted = data();
        let report = detector()
            .detect_across_k(&planted.dataset, [2usize, 3])
            .unwrap();
        // Both dimensionalities contribute.
        let ks: BTreeSet<usize> = report.projections.iter().map(|p| p.k).collect();
        assert_eq!(ks, BTreeSet::from([2, 3]));
        // Sorted by exact significance.
        for w in report.projections.windows(2) {
            assert!(w[0].exact_significance <= w[1].exact_significance);
        }
        // The union equals the per-k unions.
        let mut union = BTreeSet::new();
        for k in [2usize, 3] {
            let mut config = detector().config().clone();
            config.k = Some(k);
            let r = OutlierDetector::with_config(config)
                .detect(&planted.dataset)
                .unwrap();
            union.extend(r.outlier_rows);
        }
        assert_eq!(report.outlier_rows, union.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn exact_significance_beats_raw_s_for_cross_k_comparison() {
        // A 2-d singleton at E=94 is far more surprising than a 3-d
        // singleton at E=23 even if their raw S values suggest otherwise —
        // the ranking must reflect the exact tails.
        let planted = data();
        let report = detector()
            .detect_across_k(&planted.dataset, [2usize, 3])
            .unwrap();
        let best_k2 = report
            .projections
            .iter()
            .find(|p| p.k == 2)
            .expect("k=2 present");
        let best_k3 = report
            .projections
            .iter()
            .find(|p| p.k == 3)
            .expect("k=3 present");
        // Consistency: each entry's significance matches its own law.
        for p in [best_k2, best_k3] {
            let params = SparsityParams::new(1500, 4, p.k as u32).unwrap();
            assert_eq!(
                p.exact_significance,
                params.exact_significance(p.scored.count as u64)
            );
        }
    }

    #[test]
    fn top_truncates() {
        let planted = data();
        let report = detector()
            .detect_across_k(&planted.dataset, [2usize])
            .unwrap();
        assert_eq!(report.top(3).len(), 3.min(report.projections.len()));
        assert!(report.top(10_000).len() <= report.projections.len());
    }

    #[test]
    fn propagates_per_k_errors() {
        let planted = data();
        let err = detector().detect_across_k(&planted.dataset, [2usize, 99]);
        assert!(err.is_err());
    }
}
