//! §3.1's arrhythmia experiment: do the points covered by abnormally sparse
//! projections over-represent the rare diagnosis classes, and does the
//! subspace method beat the full-dimensional kNN-distance baseline \[25\]?
//!
//! Paper numbers (shape to reproduce, not absolute):
//! - 85 points contained projections with S ≤ −3; **43** of them rare-class;
//! - the baseline's best 85 outliers contained only **28** rare-class
//!   points, and k > 1 nearest neighbors "worsened slightly";
//! - several non-rare hits were recording errors (the 780 cm / 6 kg record).

use crate::table;
use hdoutlier_baselines::{ramaswamy_top_n, Metric};
use hdoutlier_core::crossover::CrossoverKind;
use hdoutlier_core::evolutionary::{multi_restart_search, EvolutionaryConfig, MultiRestartConfig};
use hdoutlier_core::fitness::SparsityFitness;
use hdoutlier_data::clean::{impute_mean, standardize};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::uci_like::{arrhythmia, Arrhythmia, ArrhythmiaConfig};
use hdoutlier_index::{BitmapCounter, CachedCounter};
use std::collections::BTreeSet;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Grid ranges per dimension.
    pub phi: u32,
    /// Projection dimensionality.
    pub k: usize,
    /// Sparsity threshold defining "abnormal" (the paper uses −3).
    pub threshold: f64,
    /// Cap on reported projections: of everything at or below the threshold,
    /// keep the most negative `m_cap`. The paper reports the points covered
    /// by the sparse projections *its GA found* — a best-biased sample of
    /// the eligible cubes, not an exhaustive enumeration.
    pub m_cap: usize,
    /// Number of GA restarts unioned ("find *all* the sparse projections"
    /// needs more coverage than a single converged run provides).
    pub restarts: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Arrhythmia generator knobs.
    pub data: ArrhythmiaConfig,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            phi: 5,
            k: 2,
            threshold: -3.0,
            m_cap: 52,
            restarts: 48,
            seed: 7,
            data: ArrhythmiaConfig::default(),
        }
    }
}

/// Outcome of the comparison.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Points covered by projections with S ≤ threshold.
    pub subspace_outliers: Vec<usize>,
    /// Rare-class points among them.
    pub subspace_rare_hits: usize,
    /// Whether the recording-error row was flagged by the subspace method.
    pub subspace_found_error_row: bool,
    /// Rare-class hits of the 1-NN baseline over the same budget of points.
    pub baseline_rare_hits_1nn: usize,
    /// Rare-class hits of the k-NN (k = 5) baseline.
    pub baseline_rare_hits_knn: usize,
    /// Whether the baseline flagged the recording-error row.
    pub baseline_found_error_row: bool,
    /// Number of distinct sparse projections found.
    pub n_projections: usize,
    /// Rare-class base rate of the dataset (≈ 14.6 %).
    pub rare_base_rate: f64,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Outcome {
    let data = arrhythmia(&config.data);
    let subspace = subspace_outliers(&data, config);
    let subspace_rare_hits = data.rare_hits(&subspace.covered);
    let budget = subspace.covered.len().max(1);

    // The baselines need complete, comparable-scale vectors.
    let for_distance = standardize(&impute_mean(&data.dataset));
    let baseline_1nn: Vec<usize> = ramaswamy_top_n(&for_distance, 1, budget, Metric::Euclidean, 1)
        .expect("complete data")
        .into_iter()
        .map(|o| o.row)
        .collect();
    let baseline_knn: Vec<usize> = ramaswamy_top_n(&for_distance, 5, budget, Metric::Euclidean, 1)
        .expect("complete data")
        .into_iter()
        .map(|o| o.row)
        .collect();

    Outcome {
        subspace_rare_hits,
        subspace_found_error_row: subspace.covered.contains(&data.error_row),
        baseline_rare_hits_1nn: data.rare_hits(&baseline_1nn),
        baseline_rare_hits_knn: data.rare_hits(&baseline_knn),
        baseline_found_error_row: baseline_1nn.contains(&data.error_row),
        n_projections: subspace.n_projections,
        rare_base_rate: data.rare_rows.len() as f64 / data.dataset.n_rows() as f64,
        subspace_outliers: subspace.covered,
    }
}

struct SubspaceResult {
    covered: Vec<usize>,
    n_projections: usize,
}

/// Unions sparse projections across GA restarts, keeps those at or below the
/// threshold, and post-processes to covered points.
fn subspace_outliers(data: &Arrhythmia, config: &Config) -> SubspaceResult {
    let disc = Discretized::new(&data.dataset, config.phi, DiscretizeStrategy::EquiDepth)
        .expect("non-empty");
    let counter = CachedCounter::new(BitmapCounter::new(&disc));
    let fitness = SparsityFitness::new(&counter, config.k);
    // Tabu multi-restart: each restart's finds are banned so the next one
    // hunts elsewhere. At k = 2 there is no partial-fitness gradient toward
    // a hidden pair, so exploration volume (high mutation, many restarts) is
    // what drives discovery.
    let multi = multi_restart_search(
        &fitness,
        &MultiRestartConfig {
            base: EvolutionaryConfig {
                m: 400,
                population: 150,
                crossover: CrossoverKind::Optimized,
                p1: 0.3,
                p2: 0.3,
                max_generations: 150,
                seed: config.seed,
                ..EvolutionaryConfig::default()
            },
            restarts: config.restarts,
            ban_found: true,
            threshold: Some(config.threshold),
        },
    );
    // Keep the m_cap most negative of everything found (already sorted).
    let found = &multi.found[..multi.found.len().min(config.m_cap)];
    let covered: BTreeSet<usize> = found
        .iter()
        .flat_map(|s| fitness.rows(&s.projection))
        .collect();
    SubspaceResult {
        covered: covered.into_iter().collect(),
        n_projections: found.len(),
    }
}

/// Renders the comparison.
pub fn render(o: &Outcome) -> String {
    let n = o.subspace_outliers.len();
    let pct = |hits: usize| {
        if n == 0 {
            0.0
        } else {
            100.0 * hits as f64 / n as f64
        }
    };
    let mut out = table::render(
        &[
            "Method",
            "Outliers",
            "Rare-class hits",
            "Rare %",
            "Error row found",
        ],
        &[
            vec![
                "Sparse projections (S <= -3)".into(),
                n.to_string(),
                o.subspace_rare_hits.to_string(),
                format!("{:.0}%", pct(o.subspace_rare_hits)),
                o.subspace_found_error_row.to_string(),
            ],
            vec![
                "kNN-distance [25], 1-NN".into(),
                n.to_string(),
                o.baseline_rare_hits_1nn.to_string(),
                format!("{:.0}%", pct(o.baseline_rare_hits_1nn)),
                o.baseline_found_error_row.to_string(),
            ],
            vec![
                "kNN-distance [25], 5-NN".into(),
                n.to_string(),
                o.baseline_rare_hits_knn.to_string(),
                format!("{:.0}%", pct(o.baseline_rare_hits_knn)),
                "-".into(),
            ],
        ],
    );
    out.push_str(&format!(
        "\n(base rate: {:.1}% of records are rare-class; {} sparse projections found)\n",
        100.0 * o.rare_base_rate,
        o.n_projections
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Config {
        Config {
            restarts: 24,
            ..Config::default()
        }
    }

    #[test]
    fn subspace_beats_baseline_on_rare_classes() {
        let o = run(&quick_config());
        assert!(
            o.subspace_outliers.len() >= 30,
            "too few subspace outliers: {}",
            o.subspace_outliers.len()
        );
        // The paper's headline: subspace rare-hit rate far above the
        // baseline's and both above the base rate.
        assert!(
            o.subspace_rare_hits > o.baseline_rare_hits_1nn,
            "subspace {} vs baseline {}",
            o.subspace_rare_hits,
            o.baseline_rare_hits_1nn
        );
        let n = o.subspace_outliers.len() as f64;
        assert!(
            o.subspace_rare_hits as f64 / n > 2.0 * o.rare_base_rate,
            "subspace hit rate {:.2} vs base rate {:.2}",
            o.subspace_rare_hits as f64 / n,
            o.rare_base_rate
        );
    }

    #[test]
    fn knn_with_larger_k_does_not_rescue_the_baseline() {
        // "the results did not change significantly (and in fact worsened
        // slightly) when the k-nearest neighbor was used".
        let o = run(&quick_config());
        assert!(o.baseline_rare_hits_knn <= o.baseline_rare_hits_1nn + 3);
    }

    #[test]
    fn render_mentions_both_methods() {
        let o = run(&quick_config());
        let text = render(&o);
        assert!(text.contains("Sparse projections"));
        assert!(text.contains("kNN-distance"));
    }
}
