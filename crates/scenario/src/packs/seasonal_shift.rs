//! **seasonal-shift** — a feed with a known seasonal boundary: season A
//! matches training, then the process legitimately moves (+1.8σ on two
//! dimensions). The operator acknowledges the boundary with a drift reset;
//! the monitor must stay silent through season A, and — because the reset
//! re-bases the occupancy statistics — fire on season B's shifted
//! dimensions from fresh evidence alone. CFOF referees the point-scoring
//! side: a population-level shift produces **no individual outliers**, so
//! rank-based point scores barely move — the complementary claim that
//! drift detection, not outlier scoring, owns this failure mode.

use crate::report::{dataset_json, envelope, fingerprint_text};
use crate::synth::factor_row;
use crate::{pipe, Invariant, Outcome, RunConfig, Scenario, ScenarioError};
use hdoutlier_baselines::{cfof_scores, Metric};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::Dataset;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::SeedableRng;
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::OnlineScorer;
use std::time::Instant;

const SEED: u64 = 0x5EA5;
const N_DIMS: usize = 5;
const TRAIN_ROWS: usize = 400;
const SEASON_ROWS: usize = 150;
const SHIFTED_DIMS: [usize; 2] = [2, 3];
const SHIFT: f64 = 1.8;
const CHECK_EVERY: u64 = 75;

/// The pack descriptor.
pub fn scenario() -> Scenario {
    Scenario {
        name: "seasonal-shift",
        summary: "legitimate seasonal move with an operator drift reset; alarms only in the new season, CFOF shows no point outliers",
        seed: SEED,
        run,
    }
}

fn synthesize() -> (Dataset, Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let strength = |_g: usize| 0.5;
    let mut gen_rows = |n: usize, shifted: bool| -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                let mut row = factor_row(&mut rng, N_DIMS, N_DIMS, strength);
                if shifted {
                    for &d in &SHIFTED_DIMS {
                        row[d] += SHIFT;
                    }
                }
                row
            })
            .collect()
    };
    let train = gen_rows(TRAIN_ROWS, false);
    let season_a = gen_rows(SEASON_ROWS, false);
    let season_b = gen_rows(SEASON_ROWS, true);
    (
        Dataset::from_rows(train).expect("train shape"),
        Dataset::from_rows(season_a).expect("season A shape"),
        Dataset::from_rows(season_b).expect("season B shape"),
    )
}

fn run(config: &RunConfig) -> Result<Outcome, ScenarioError> {
    let start = Instant::now();
    let (train, season_a, season_b) = synthesize();
    let model = OutlierDetector::builder()
        .phi(4)
        .k(2)
        .m(5)
        .search(SearchMethod::BruteForce)
        .threads(config.threads)
        .build()
        .fit(&train)
        .map_err(pipe)?;

    let mut scorer = OnlineScorer::new(model).map_err(pipe)?;
    scorer.set_check_every(CHECK_EVERY).map_err(pipe)?;
    let mut ndjson = String::new();
    let mut checks: Vec<(u64, bool, Vec<usize>, &'static str)> = Vec::new();
    let mut score_season = |scorer: &mut OnlineScorer,
                            season: &Dataset,
                            label: &'static str,
                            ndjson: &mut String|
     -> Result<(), ScenarioError> {
        for i in 0..season.n_rows() {
            let verdict = scorer.score_record(season.row(i)).map_err(pipe)?;
            if let Some(drift) = &verdict.drift {
                checks.push((
                    verdict.index,
                    drift.any_drift(),
                    drift.drifted_dims.clone(),
                    label,
                ));
            }
            ndjson.push_str(&verdict_json(&verdict, scorer).map_err(pipe)?.render());
            ndjson.push('\n');
        }
        Ok(())
    };
    score_season(&mut scorer, &season_a, "A", &mut ndjson)?;
    // The operator knows the season turned: re-base the drift statistics
    // so season B is judged on its own evidence, not blended with A's.
    scorer.reset_drift();
    score_season(&mut scorer, &season_b, "B", &mut ndjson)?;

    let a_checks: Vec<_> = checks.iter().filter(|(_, _, _, s)| *s == "A").collect();
    let b_checks: Vec<_> = checks.iter().filter(|(_, _, _, s)| *s == "B").collect();
    let silent_in_a = a_checks.iter().all(|(_, drifted, _, _)| !drifted);
    let fires_in_b = b_checks
        .iter()
        .any(|(_, drifted, dims, _)| *drifted && SHIFTED_DIMS.iter().any(|d| dims.contains(d)));

    // Referee: CFOF over the combined window. Season B is half the data —
    // a *population*, not outliers — so its per-point ranks stay ordinary.
    let mut combined = season_a.clone();
    combined.append(&season_b).map_err(pipe)?;
    let cfof = cfof_scores(&combined, 0.05, Metric::Euclidean, config.threads).map_err(pipe)?;
    let mean = |range: std::ops::Range<usize>| {
        cfof[range.clone()].iter().sum::<f64>() / range.len() as f64
    };
    let cfof_a = mean(0..SEASON_ROWS);
    let cfof_b = mean(SEASON_ROWS..2 * SEASON_ROWS);
    let cfof_ratio = cfof_b / cfof_a;

    let invariants = vec![
        Invariant::check(
            "silent-through-season-a",
            silent_in_a,
            format!("{} checks in season A, none drifted", a_checks.len()),
        ),
        Invariant::check(
            "fires-in-season-b",
            fires_in_b,
            format!(
                "{} checks in season B; alarm names a shifted dimension from {SHIFTED_DIMS:?}",
                b_checks.len()
            ),
        ),
        Invariant::check(
            "cfof-sees-no-point-outliers",
            cfof_ratio < 1.5,
            format!(
                "mean CFOF season B {cfof_b:.3} vs A {cfof_a:.3} (ratio {cfof_ratio:.2}, ceiling 1.5): a shifted population is not a set of outliers"
            ),
        ),
    ];

    let checks_json: Vec<Json> = checks
        .iter()
        .map(|(record, drifted, dims, season)| {
            Json::object()
                .field("record", *record)
                .field("season", *season)
                .field("drifted", *drifted)
                .field(
                    "drifted_dims",
                    Json::Array(dims.iter().map(|&d| Json::from(d)).collect()),
                )
                .unwrap()
        })
        .collect();
    let pipelines = Json::object()
        .field(
            "stream",
            Json::object()
                .field("records", 2 * SEASON_ROWS)
                .field("reset_after", SEASON_ROWS)
                .field("verdict_fingerprint", fingerprint_text(&ndjson))
                .field("drift_checks", Json::Array(checks_json))
                .unwrap(),
        )
        .unwrap();
    let referees = Json::Array(vec![Json::object()
        .field("method", "cfof")
        .field("rho", 0.05)
        .field("mean_season_a", cfof_a)
        .field("mean_season_b", cfof_b)
        .field("ratio", cfof_ratio)
        .unwrap()]);

    let report = envelope(
        "seasonal-shift",
        SEED,
        start.elapsed().as_secs_f64() * 1000.0,
        dataset_json(&combined, &[]),
        pipelines,
        referees,
        &invariants,
    );
    Ok(Outcome { report, invariants })
}
