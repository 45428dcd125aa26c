//! **network-intrusion** — low-and-slow intrusions planted in a wide
//! telemetry feed: contrarian inside two strongly-correlated feature
//! groups (bytes-in vs. bytes-out, connections vs. distinct ports),
//! invisible marginally. Exercises brute-force detection plus the
//! analyst-facing drill-down (`record_profile` + intensional `explain`),
//! with DOD refereeing from the distance-profile side.

use crate::report::{
    dataset_json, detect_json, envelope, metrics_json, recall, rows_json, top_rows,
};
use crate::{pipe, Invariant, Outcome, RunConfig, Scenario, ScenarioError};
use hdoutlier_baselines::{dod_scores, Metric};
use hdoutlier_core::drill::record_profile;
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_index::BitmapCounter;
use hdoutlier_json::{FieldChain, Json};
use std::time::Instant;

const SEED: u64 = 0x1275;
const PHI: u32 = 4;

/// The pack descriptor.
pub fn scenario() -> Scenario {
    Scenario {
        name: "network-intrusion",
        summary: "planted intrusions in wide telemetry; detection plus record drill-down and intensional explain, DOD referees",
        seed: SEED,
        run,
    }
}

fn run(config: &RunConfig) -> Result<Outcome, ScenarioError> {
    let start = Instant::now();
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 500,
        n_dims: 12,
        n_outliers: 4,
        strong_groups: Some(2),
        seed: SEED,
        ..PlantedConfig::default()
    });
    let ds = &planted.dataset;
    let truth = &planted.outlier_rows;

    let detection = OutlierDetector::builder()
        .phi(PHI)
        .k(2)
        .m(6)
        .search(SearchMethod::BruteForce)
        .threads(config.threads)
        .build()
        .detect(ds)
        .map_err(pipe)?;
    let det_recall = recall(truth, &detection.outlier_rows);

    // Analyst drill-down on the first planted row the detector actually
    // flagged: in which views is *this record* abnormal?
    let disc = Discretized::new(ds, PHI, DiscretizeStrategy::EquiDepth).map_err(pipe)?;
    let counter = BitmapCounter::new(&disc);
    let drilled_row = truth
        .iter()
        .copied()
        .find(|r| detection.outlier_rows.contains(r))
        .unwrap_or(truth[0]);
    let profile = record_profile(&counter, &disc, drilled_row, &[1, 2], config.threads);
    let top_views: Vec<Json> = profile
        .iter()
        .take(3)
        .map(|v| {
            Json::object()
                .field(
                    "dims",
                    Json::Array(v.cube.dims().map(|d| Json::from(d as usize)).collect()),
                )
                .field("count", v.count)
                .field("sparsity", v.sparsity)
                .field("exact_significance", v.exact_significance)
                .unwrap()
        })
        .collect();
    let best_significance = profile.first().map_or(1.0, |v| v.exact_significance);
    let explain_text = if detection.projections.is_empty() {
        String::new()
    } else {
        detection.explain(0, &disc)
    };

    let dod = dod_scores(ds, Metric::Euclidean, config.threads).map_err(pipe)?;
    let dod_rows = top_rows(&dod, truth.len());
    let dod_recall = recall(truth, &dod_rows);

    let invariants = vec![
        Invariant::check(
            "planted-recovered",
            det_recall >= 0.75,
            format!("brute-force recall {det_recall:.2} (floor 0.75) over {} intrusions", truth.len()),
        ),
        Invariant::check(
            "drill-down-isolates-the-intrusion",
            best_significance < 0.05,
            format!(
                "record {drilled_row}'s most abnormal view has exact significance {best_significance:.6} (< 0.05)"
            ),
        ),
        Invariant::check(
            "explain-names-a-projection",
            !explain_text.is_empty(),
            format!("intensional description is {} chars", explain_text.len()),
        ),
        Invariant::check(
            "dod-referee-does-not-beat-subspace",
            dod_recall <= det_recall,
            format!("DOD top-{} recall {dod_recall:.2} vs subspace {det_recall:.2} — locally contrarian rows barely move a full distance profile", truth.len()),
        ),
    ];

    let pipelines = Json::object()
        .field("detect_brute", detect_json(&detection))
        .field(
            "drill_down",
            Json::object()
                .field("row", drilled_row)
                .field("top_views", Json::Array(top_views))
                .unwrap(),
        )
        .field("explain", explain_text)
        .unwrap();
    let referees = Json::Array(vec![Json::object()
        .field("method", "dod")
        .field("verdict", metrics_json(truth, &dod_rows))
        .field("top_rows", rows_json(&dod_rows))
        .unwrap()]);

    let report = envelope(
        "network-intrusion",
        SEED,
        start.elapsed().as_secs_f64() * 1000.0,
        dataset_json(ds, truth),
        pipelines,
        referees,
        &invariants,
    );
    Ok(Outcome { report, invariants })
}
