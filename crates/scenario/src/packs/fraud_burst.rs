//! **fraud-burst** — a burst of planted fraudulent transactions:
//! marginally unremarkable rows that are jointly contrarian inside a
//! correlated feature group (amount vs. account-history style). The
//! paper's home turf: both searches must recover them, the kNN baseline
//! is expected to do no better, and CFOF referees the distance family's
//! best rank-based effort.

use crate::report::{dataset_json, detect_json, envelope, metrics_json, recall, top_rows};
use crate::{pipe, Invariant, Outcome, RunConfig, Scenario, ScenarioError};
use hdoutlier_baselines::{cfof_scores, ramaswamy_top_n, Metric};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_json::{FieldChain, Json};
use std::time::Instant;

const SEED: u64 = 0xF4A0D;

/// The pack descriptor.
pub fn scenario() -> Scenario {
    Scenario {
        name: "fraud-burst",
        summary: "planted contrarian transactions; brute + evolutionary recover them, kNN does not beat them, CFOF referees",
        seed: SEED,
        run,
    }
}

fn run(config: &RunConfig) -> Result<Outcome, ScenarioError> {
    let start = Instant::now();
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 600,
        n_dims: 10,
        n_outliers: 5,
        strong_groups: Some(3),
        seed: SEED,
        ..PlantedConfig::default()
    });
    let ds = &planted.dataset;
    let truth = &planted.outlier_rows;

    let brute = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(10)
        .search(SearchMethod::BruteForce)
        .threads(config.threads)
        .build()
        .detect(ds)
        .map_err(pipe)?;
    let evolutionary = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(10)
        .search(SearchMethod::Evolutionary)
        .population(40)
        .max_generations(60)
        .seed(SEED)
        .threads(config.threads)
        .build()
        .detect(ds)
        .map_err(pipe)?;

    let knn =
        ramaswamy_top_n(ds, 5, truth.len(), Metric::Euclidean, config.threads).map_err(pipe)?;
    let knn_rows: Vec<usize> = knn.iter().map(|o| o.row).collect();
    let cfof = cfof_scores(ds, 0.05, Metric::Euclidean, config.threads).map_err(pipe)?;
    let cfof_rows = top_rows(&cfof, truth.len());

    let brute_recall = recall(truth, &brute.outlier_rows);
    let evo_recall = recall(truth, &evolutionary.outlier_rows);
    let knn_recall = recall(truth, &knn_rows);
    let cfof_recall = recall(truth, &cfof_rows);

    let invariants = vec![
        Invariant::check(
            "brute-recovers-planted",
            brute_recall >= 0.8,
            format!("brute-force recall {brute_recall:.2} (floor 0.80) over {} planted rows", truth.len()),
        ),
        Invariant::check(
            "evolutionary-recovers-planted",
            evo_recall >= 0.6,
            format!("evolutionary recall {evo_recall:.2} (floor 0.60)"),
        ),
        Invariant::check(
            "knn-does-not-beat-subspace",
            knn_recall <= brute_recall,
            format!("kNN top-{} recall {knn_recall:.2} vs subspace {brute_recall:.2} — the paper's §3.1 ordering", truth.len()),
        ),
        Invariant::check(
            "cfof-referee-does-not-beat-subspace",
            cfof_recall <= brute_recall,
            format!("CFOF top-{} recall {cfof_recall:.2} vs subspace {brute_recall:.2}", truth.len()),
        ),
    ];

    let pipelines = Json::object()
        .field("detect_brute", detect_json(&brute))
        .field("detect_evolutionary", detect_json(&evolutionary))
        .field("baseline_knn", metrics_json(truth, &knn_rows))
        .unwrap();
    let referees = Json::Array(vec![Json::object()
        .field("method", "cfof")
        .field("rho", 0.05)
        .field("verdict", metrics_json(truth, &cfof_rows))
        .unwrap()]);

    let report = envelope(
        "fraud-burst",
        SEED,
        start.elapsed().as_secs_f64() * 1000.0,
        dataset_json(ds, truth),
        pipelines,
        referees,
        &invariants,
    );
    Ok(Outcome { report, invariants })
}
