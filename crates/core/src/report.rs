//! Post-processing (paper §2.3) and interpretable reporting.
//!
//! "In the postprocessing phase, we find all the sets of data points which
//! contain the abnormal projections reported by the algorithm. These points
//! are the outliers." Beyond the row set 𝒪, the report keeps the projections
//! themselves, because interpretability — *why* a point is an outlier — is
//! one of the paper's desiderata (§1.1).

use crate::fitness::SparsityFitness;
use crate::projection::Projection;
use hdoutlier_data::Discretized;
use hdoutlier_index::CubeCounter;
use hdoutlier_stats::significance_of;
use std::collections::BTreeSet;

/// One projection with its Eq. 1 score and occupancy.
#[derive(Debug, Clone)]
pub struct ScoredProjection {
    /// The projection string.
    pub projection: Projection,
    /// Sparsity coefficient `S(D)` (negative = sparse).
    pub sparsity: f64,
    /// Number of records covering the projection.
    pub count: usize,
}

impl ScoredProjection {
    /// The probabilistic level of significance of this projection under the
    /// normal-approximation reading of §1.3 (`Φ(S)`; smaller = stronger).
    pub fn significance(&self) -> f64 {
        significance_of(self.sparsity)
    }

    /// Exact significance under the independence null:
    /// `P[Binomial(N, f^k) <= count]` — reliable where §1.3's normal-table
    /// reading is not (deep tails, starved cubes).
    pub fn exact_significance(&self, params: hdoutlier_stats::SparsityParams) -> f64 {
        params.exact_significance(self.count as u64)
    }
}

/// The detector's full output.
#[derive(Debug, Clone)]
pub struct OutlierReport {
    /// Best projections, most negative sparsity first.
    pub projections: Vec<ScoredProjection>,
    /// Rows covered per projection (aligned with `projections`).
    pub rows_by_projection: Vec<Vec<usize>>,
    /// The union 𝒪 of all covered rows, ascending.
    pub outlier_rows: Vec<usize>,
    /// Bookkeeping from the search.
    pub stats: SearchStats,
}

/// Search bookkeeping carried into the report.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Complete cubes accounted for (brute force) or fitness evaluations
    /// (evolutionary).
    pub work: u64,
    /// GA generations (0 for brute force).
    pub generations: usize,
    /// Whether the search ran to its natural end rather than hitting a cap:
    /// full coverage for brute force; De Jong convergence, or `m` cubes at
    /// the floor coefficient (no better best m exists), for the GA.
    pub completed: bool,
    /// Wall-clock search time.
    pub elapsed: std::time::Duration,
}

impl OutlierReport {
    /// Builds the report from scored projections (the post-processing phase).
    pub fn from_scored<C: CubeCounter>(
        scored: Vec<ScoredProjection>,
        fitness: &SparsityFitness<'_, C>,
        stats: SearchStats,
    ) -> Self {
        let rows_by_projection: Vec<Vec<usize>> =
            scored.iter().map(|s| fitness.rows(&s.projection)).collect();
        let union: BTreeSet<usize> = rows_by_projection.iter().flatten().copied().collect();
        Self {
            projections: scored,
            rows_by_projection,
            outlier_rows: union.into_iter().collect(),
            stats,
        }
    }

    /// Keeps only projections at or below a sparsity threshold (the §3.1
    /// arrhythmia experiment uses "all the sparse projections … which
    /// correspond to a sparsity coefficient of −3 or less"), recomputing 𝒪.
    pub fn filtered_by_sparsity(&self, threshold: f64) -> OutlierReport {
        let keep: Vec<usize> = (0..self.projections.len())
            .filter(|&i| self.projections[i].sparsity <= threshold)
            .collect();
        let projections = keep.iter().map(|&i| self.projections[i].clone()).collect();
        let rows_by_projection: Vec<Vec<usize>> = keep
            .iter()
            .map(|&i| self.rows_by_projection[i].clone())
            .collect();
        let union: BTreeSet<usize> = rows_by_projection.iter().flatten().copied().collect();
        OutlierReport {
            projections,
            rows_by_projection,
            outlier_rows: union.into_iter().collect(),
            stats: self.stats.clone(),
        }
    }

    /// Mean sparsity of the reported projections — Table 1's "quality"
    /// column ("average sparsity coefficients of the best 20 (non-empty)
    /// projections"). `None` when empty.
    pub fn mean_sparsity(&self) -> Option<f64> {
        if self.projections.is_empty() {
            return None;
        }
        Some(
            self.projections.iter().map(|s| s.sparsity).sum::<f64>()
                / self.projections.len() as f64,
        )
    }

    /// Per-point outlier scores: each outlier row paired with the most
    /// negative sparsity coefficient among the reported projections covering
    /// it, sorted most negative first (row index as the tiebreak).
    ///
    /// This turns the paper's set-valued answer 𝒪 into a ranking, which is
    /// what downstream consumers (alert queues, top-n dashboards) usually
    /// want, and makes the detector comparable point-for-point with the
    /// score-based baselines.
    pub fn ranked_outliers(&self) -> Vec<(usize, f64)> {
        let mut best: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for (s, rows) in self.projections.iter().zip(&self.rows_by_projection) {
            for &row in rows {
                best.entry(row)
                    .and_modify(|v| *v = v.min(s.sparsity))
                    .or_insert(s.sparsity);
            }
        }
        let mut ranked: Vec<(usize, f64)> = best.into_iter().collect();
        ranked.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite sparsity")
                .then(a.0.cmp(&b.0))
        });
        ranked
    }

    /// Human-readable explanation of why `projection_idx` flags its rows,
    /// with attribute names and value intervals from the grid — e.g.
    /// `CRIM in [1.13, 9.97] AND DIS in [1.13, 1.96] (S = -3.42, 1 record)`.
    pub fn explain(&self, projection_idx: usize, disc: &Discretized) -> String {
        let s = &self.projections[projection_idx];
        let mut parts = Vec::new();
        for (dim, range) in s.projection.pairs() {
            let g = disc.grid_range(dim as usize, range);
            parts.push(format!(
                "{} in [{:.4}, {:.4}]",
                disc.name(dim as usize),
                g.lo,
                g.hi
            ));
        }
        format!(
            "{} (S = {:.2}, significance {:.2e}, {} record{})",
            parts.join(" AND "),
            s.sparsity,
            s.significance(),
            s.count,
            if s.count == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::discretize::DiscretizeStrategy;
    use hdoutlier_data::generators::uniform;
    use hdoutlier_index::BitmapCounter;

    fn fixture() -> (Discretized, BitmapCounter) {
        let mut ds = uniform(200, 4, 51);
        ds.set_names(vec!["alpha", "beta", "gamma", "delta"])
            .unwrap();
        let disc = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        (disc, counter)
    }

    fn scored(fitness: &SparsityFitness<'_, BitmapCounter>) -> Vec<ScoredProjection> {
        use crate::projection::STAR;
        [[0u16, 1], [2, 3]]
            .iter()
            .map(|&[r0, r1]| {
                let projection = Projection::from_genes(vec![r0, STAR, r1, STAR]);
                let sparsity = fitness.evaluate(&projection);
                let count = fitness.count(&projection).unwrap();
                ScoredProjection {
                    projection,
                    sparsity,
                    count,
                }
            })
            .collect()
    }

    #[test]
    fn union_of_rows_is_sorted_and_deduplicated() {
        let (_, counter) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let report = OutlierReport::from_scored(scored(&fitness), &fitness, SearchStats::default());
        assert_eq!(report.projections.len(), 2);
        assert_eq!(report.rows_by_projection.len(), 2);
        let total: usize = report.rows_by_projection.iter().map(Vec::len).sum();
        assert!(report.outlier_rows.len() <= total);
        for w in report.outlier_rows.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Every per-projection row is in the union.
        for rows in &report.rows_by_projection {
            for r in rows {
                assert!(report.outlier_rows.binary_search(r).is_ok());
            }
        }
    }

    #[test]
    fn filter_by_sparsity() {
        let (_, counter) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let report = OutlierReport::from_scored(scored(&fitness), &fitness, SearchStats::default());
        // A threshold of −1000 removes everything.
        let none = report.filtered_by_sparsity(-1000.0);
        assert!(none.projections.is_empty());
        assert!(none.outlier_rows.is_empty());
        assert!(none.mean_sparsity().is_none());
        // A threshold of +1000 keeps everything.
        let all = report.filtered_by_sparsity(1000.0);
        assert_eq!(all.projections.len(), 2);
        assert_eq!(all.outlier_rows, report.outlier_rows);
    }

    #[test]
    fn mean_sparsity_is_the_arithmetic_mean() {
        let (_, counter) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let scored = scored(&fitness);
        let want = (scored[0].sparsity + scored[1].sparsity) / 2.0;
        let report = OutlierReport::from_scored(scored, &fitness, SearchStats::default());
        assert!((report.mean_sparsity().unwrap() - want).abs() < 1e-12);
    }

    #[test]
    fn explanation_uses_names_and_intervals() {
        let (disc, counter) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let report = OutlierReport::from_scored(scored(&fitness), &fitness, SearchStats::default());
        let text = report.explain(0, &disc);
        assert!(text.contains("alpha in ["), "{text}");
        assert!(text.contains("gamma in ["), "{text}");
        assert!(text.contains(" AND "), "{text}");
        assert!(text.contains("S = "), "{text}");
    }

    #[test]
    fn ranked_outliers_orders_by_best_covering_sparsity() {
        let (_, counter) = fixture();
        let fitness = SparsityFitness::new(&counter, 2);
        let report = OutlierReport::from_scored(scored(&fitness), &fitness, SearchStats::default());
        let ranked = report.ranked_outliers();
        // One entry per outlier row, all rows accounted for.
        assert_eq!(ranked.len(), report.outlier_rows.len());
        let rows: Vec<usize> = ranked.iter().map(|&(r, _)| r).collect();
        let mut sorted_rows = rows.clone();
        sorted_rows.sort_unstable();
        assert_eq!(sorted_rows, report.outlier_rows);
        // Scores descend in outlyingness (ascend in S) and each equals the
        // minimum sparsity over covering projections.
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for &(row, score) in &ranked {
            let want = report
                .projections
                .iter()
                .zip(&report.rows_by_projection)
                .filter(|(_, rows)| rows.contains(&row))
                .map(|(s, _)| s.sparsity)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(score, want);
        }
    }

    #[test]
    fn significance_is_consistent_with_stats_crate() {
        let s = ScoredProjection {
            projection: Projection::all_star(2),
            sparsity: -3.0,
            count: 0,
        };
        assert!((s.significance() - hdoutlier_stats::significance_of(-3.0)).abs() < 1e-15);
    }

    #[test]
    fn exact_significance_matches_binomial_tail() {
        let params = hdoutlier_stats::SparsityParams::new(1000, 5, 2).unwrap();
        let s = ScoredProjection {
            projection: Projection::all_star(2),
            sparsity: params.sparsity(3),
            count: 3,
        };
        let exact = s.exact_significance(params);
        assert_eq!(exact, params.occupancy_law().cdf(3));
        // E = 40 and a count of 3: a genuinely extreme cube — both the
        // exact and the normal reading put it deep in the tail.
        assert!(exact > 0.0 && exact < 1e-8);
        assert!(s.significance() > 0.0 && s.significance() < 1e-6);
    }
}
