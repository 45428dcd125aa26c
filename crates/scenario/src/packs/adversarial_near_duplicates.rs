//! **adversarial-near-duplicates** — the hardest case for the distance
//! family: each planted outlier is a **copy of a real inlier** with only
//! one strongly-correlated pair of dimensions rewritten to a contrarian
//! combination (one side pushed up, the other down — each value ordinary
//! on its own). Full-space distances barely move, so kNN, LOF, and even
//! the rank-based CFOF referee score the plants as unremarkable; the
//! sparsity coefficient sees the near-empty joint cell immediately. This
//! is the paper's §1 argument as an executable artifact.

use crate::report::{dataset_json, detect_json, envelope, metrics_json, recall, top_rows};
use crate::synth::factor_row;
use crate::{pipe, Invariant, Outcome, RunConfig, Scenario, ScenarioError};
use hdoutlier_baselines::{cfof_scores, lof_scores, ramaswamy_top_n, Metric};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::standard_normal;
use hdoutlier_data::Dataset;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{Rng, SeedableRng};
use std::time::Instant;

const SEED: u64 = 0xADD5;
const N_INLIERS: usize = 500;
const N_DIMS: usize = 8;
const GROUP_SIZE: usize = 2;
/// Groups 0 and 1 are strongly correlated; the plants rewrite a pair there.
const STRONG_GROUPS: usize = 2;
const N_OUTLIERS: usize = 4;
/// The contrarian magnitude: ~84th percentile per side — each value is
/// ordinary marginally; only the joint combination is contrarian.
const Z: f64 = 1.0;

/// The pack descriptor.
pub fn scenario() -> Scenario {
    Scenario {
        name: "adversarial-near-duplicates",
        summary: "outliers are near-copies of inliers, contrarian only in one correlated pair; kNN/LOF/CFOF are fooled, subspace search is not",
        seed: SEED,
        run,
    }
}

fn synthesize() -> (Dataset, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let strength = |g: usize| if g < STRONG_GROUPS { 0.95 } else { 0.3 };
    let mut rows: Vec<Vec<f64>> = (0..N_INLIERS)
        .map(|_| factor_row(&mut rng, N_DIMS, GROUP_SIZE, strength))
        .collect();
    // Each plant clones a spread-out inlier, then rewrites one strong
    // group's pair to (−Z, +Z): a combination the 0.95 correlation makes
    // ~6 conditional σ unlikely, while every other coordinate stays a
    // byte-exact duplicate of a genuine record.
    let mut planted = Vec::with_capacity(N_OUTLIERS);
    for i in 0..N_OUTLIERS {
        let source = rng.gen_range(0..N_INLIERS);
        let mut row = rows[source].clone();
        let group = i % STRONG_GROUPS;
        let base = group * GROUP_SIZE;
        row[base] = -Z + 0.02 * standard_normal(&mut rng);
        row[base + 1] = Z + 0.02 * standard_normal(&mut rng);
        planted.push(rows.len());
        rows.push(row);
    }
    (Dataset::from_rows(rows).expect("shape"), planted)
}

fn run(config: &RunConfig) -> Result<Outcome, ScenarioError> {
    let start = Instant::now();
    let (ds, truth) = synthesize();

    let detection = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(8)
        .search(SearchMethod::BruteForce)
        .threads(config.threads)
        .build()
        .detect(&ds)
        .map_err(pipe)?;
    let subspace_recall = recall(&truth, &detection.outlier_rows);

    let knn =
        ramaswamy_top_n(&ds, 4, truth.len(), Metric::Euclidean, config.threads).map_err(pipe)?;
    let knn_rows: Vec<usize> = knn.iter().map(|o| o.row).collect();
    let lof = lof_scores(&ds, 10, Metric::Euclidean, config.threads).map_err(pipe)?;
    let lof_rows = top_rows(&lof, truth.len());
    let cfof = cfof_scores(&ds, 0.05, Metric::Euclidean, config.threads).map_err(pipe)?;
    let cfof_rows = top_rows(&cfof, truth.len());

    let knn_recall = recall(&truth, &knn_rows);
    let lof_recall = recall(&truth, &lof_rows);
    let cfof_recall = recall(&truth, &cfof_rows);

    let invariants = vec![
        Invariant::check(
            "subspace-recovers-the-plants",
            subspace_recall >= 0.75,
            format!("brute-force recall {subspace_recall:.2} (floor 0.75) over {} plants", truth.len()),
        ),
        Invariant::check(
            "knn-is-fooled",
            knn_recall <= 0.5,
            format!("kNN top-{} recall {knn_recall:.2} (ceiling 0.50): near-duplicates keep full-space distances ordinary", truth.len()),
        ),
        Invariant::check(
            "lof-is-fooled",
            lof_recall <= 0.5,
            format!("LOF top-{} recall {lof_recall:.2} (ceiling 0.50)", truth.len()),
        ),
        Invariant::check(
            "cfof-referee-is-fooled",
            cfof_recall <= 0.5,
            format!("CFOF top-{} recall {cfof_recall:.2} (ceiling 0.50): rank statistics inherit the same full-space blindness", truth.len()),
        ),
    ];

    let pipelines = Json::object()
        .field("detect_brute", detect_json(&detection))
        .field("baseline_knn", metrics_json(&truth, &knn_rows))
        .field("baseline_lof", metrics_json(&truth, &lof_rows))
        .unwrap();
    let referees = Json::Array(vec![Json::object()
        .field("method", "cfof")
        .field("rho", 0.05)
        .field("verdict", metrics_json(&truth, &cfof_rows))
        .unwrap()]);

    let report = envelope(
        "adversarial-near-duplicates",
        SEED,
        start.elapsed().as_secs_f64() * 1000.0,
        dataset_json(&ds, &truth),
        pipelines,
        referees,
        &invariants,
    );
    Ok(Outcome { report, invariants })
}
