//! **sensor-drift** — a fleet sensor feed whose calibration drifts
//! mid-stream: the first half of the window matches the training
//! distribution, then two channels shift by +2σ. Exercises the streaming
//! scorer end to end: drift alarms must stay silent before the drift and
//! fire on the shifted channels after it, and a checkpoint/kill/resume
//! mid-stream must reproduce the uninterrupted verdict stream byte for
//! byte. DOD referees the shifted window from the distance-profile side
//! (a systemic shift is exactly what it sees best).

use crate::report::{dataset_json, envelope, fingerprint_text};
use crate::synth::factor_row;
use crate::{pipe, Invariant, Outcome, RunConfig, Scenario, ScenarioError};
use hdoutlier_baselines::{dod_scores, Metric};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::Dataset;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::SeedableRng;
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::{Checkpoint, OnlineScorer};
use std::time::Instant;

const SEED: u64 = 0x5E50;
const N_DIMS: usize = 6;
const TRAIN_ROWS: usize = 500;
const STREAM_ROWS: usize = 400;
/// First stream record index whose channels are shifted.
const DRIFT_AT: usize = 200;
/// The channels that drift, by +SHIFT each.
const DRIFTED_DIMS: [usize; 2] = [0, 1];
const SHIFT: f64 = 2.0;
const CHECK_EVERY: u64 = 100;
/// Stream record index where the process is killed and resumed.
const KILL_AT: usize = 150;

/// The pack descriptor.
pub fn scenario() -> Scenario {
    Scenario {
        name: "sensor-drift",
        summary: "mid-stream +2σ calibration drift; alarms fire only after it, checkpoint/kill/resume is byte-identical, DOD referees",
        seed: SEED,
        run,
    }
}

fn synthesize() -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let strength = |_g: usize| 0.85;
    let train: Vec<Vec<f64>> = (0..TRAIN_ROWS)
        .map(|_| factor_row(&mut rng, N_DIMS, 2, strength))
        .collect();
    let stream: Vec<Vec<f64>> = (0..STREAM_ROWS)
        .map(|i| {
            let mut row = factor_row(&mut rng, N_DIMS, 2, strength);
            if i >= DRIFT_AT {
                for &d in &DRIFTED_DIMS {
                    row[d] += SHIFT;
                }
            }
            row
        })
        .collect();
    (
        Dataset::from_rows(train).expect("train shape"),
        Dataset::from_rows(stream).expect("stream shape"),
    )
}

fn new_scorer(model: &hdoutlier_core::FittedModel) -> Result<OnlineScorer, ScenarioError> {
    let mut scorer = OnlineScorer::new(model.clone()).map_err(pipe)?;
    scorer.set_check_every(CHECK_EVERY).map_err(pipe)?;
    scorer
        .set_drift_alpha(OnlineScorer::DEFAULT_ALPHA)
        .map_err(pipe)?;
    Ok(scorer)
}

/// Scores `range` of the stream, appending NDJSON verdict lines and
/// recording drift checks as `(record, drifted, drifted_dims)`.
fn score_range(
    scorer: &mut OnlineScorer,
    stream: &Dataset,
    range: std::ops::Range<usize>,
    ndjson: &mut String,
    checks: &mut Vec<(u64, bool, Vec<usize>)>,
) -> Result<u64, ScenarioError> {
    let mut outliers = 0u64;
    for i in range {
        let verdict = scorer.score_record(stream.row(i)).map_err(pipe)?;
        if verdict.outlier {
            outliers += 1;
        }
        if let Some(drift) = &verdict.drift {
            checks.push((verdict.index, drift.any_drift(), drift.drifted_dims.clone()));
        }
        ndjson.push_str(&verdict_json(&verdict, scorer).map_err(pipe)?.render());
        ndjson.push('\n');
    }
    Ok(outliers)
}

fn run(config: &RunConfig) -> Result<Outcome, ScenarioError> {
    let start = Instant::now();
    let (train, stream) = synthesize();
    let model = OutlierDetector::builder()
        .phi(4)
        .k(2)
        .m(5)
        .search(SearchMethod::BruteForce)
        .threads(config.threads)
        .build()
        .fit(&train)
        .map_err(pipe)?;

    // Reference: one uninterrupted scorer over the whole window.
    let mut reference = String::new();
    let mut checks: Vec<(u64, bool, Vec<usize>)> = Vec::new();
    let mut scorer = new_scorer(&model)?;
    let outliers = score_range(
        &mut scorer,
        &stream,
        0..STREAM_ROWS,
        &mut reference,
        &mut checks,
    )?;

    // Kill/resume: score to KILL_AT, checkpoint, "crash", restore into a
    // fresh scorer, finish. The concatenated stream must be byte-identical
    // to the reference — same verdicts, same drift state, same indices.
    let mut resumed = String::new();
    let mut resumed_checks = Vec::new();
    let mut first = new_scorer(&model)?;
    score_range(
        &mut first,
        &stream,
        0..KILL_AT,
        &mut resumed,
        &mut resumed_checks,
    )?;
    // One directory per process and thread: the pack can run in several
    // threads at once (parallel tests), and two saves to one path race on
    // its temp-file rename.
    let ckpt_dir = std::env::temp_dir()
        .join("hdoutlier-scenario")
        .join(format!(
            "sensor-drift-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
    std::fs::create_dir_all(&ckpt_dir).map_err(pipe)?;
    let ckpt_path = ckpt_dir.join("scorer.ckpt.json");
    Checkpoint::capture(&first, 0, 0)
        .save_atomic(&ckpt_path)
        .map_err(pipe)?;
    drop(first); // the "kill"
    let (loaded, _recovered_from) = Checkpoint::load_with_recovery(&ckpt_path).map_err(pipe)?;
    // Best effort: a leftover temp directory changes no result.
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut second = new_scorer(&model)?;
    loaded.restore(&mut second).map_err(pipe)?;
    score_range(
        &mut second,
        &stream,
        KILL_AT..STREAM_ROWS,
        &mut resumed,
        &mut resumed_checks,
    )?;
    let resume_identical = resumed == reference;

    // Referee: DOD over train + stream together, so the drifted rows are a
    // minority (200 of 900) against the healthy consensus profile. Inside
    // the stream window alone they are half the data — their own
    // population — and no profile-deviation score can see them.
    let mut window = train.clone();
    window.append(&stream).map_err(pipe)?;
    let dod = dod_scores(&window, Metric::Euclidean, config.threads).map_err(pipe)?;
    let mean =
        |range: std::ops::Range<usize>| dod[range.clone()].iter().sum::<f64>() / range.len() as f64;
    let dod_pre = mean(0..TRAIN_ROWS + DRIFT_AT);
    let dod_post = mean(TRAIN_ROWS + DRIFT_AT..TRAIN_ROWS + STREAM_ROWS);
    let dod_ratio = dod_post / dod_pre;

    let pre_checks: Vec<_> = checks
        .iter()
        .filter(|(r, _, _)| (*r as usize) < DRIFT_AT)
        .collect();
    let post_checks: Vec<_> = checks
        .iter()
        .filter(|(r, _, _)| (*r as usize) >= DRIFT_AT)
        .collect();
    let silent_before = pre_checks.iter().all(|(_, drifted, _)| !drifted);
    let fires_after = post_checks
        .iter()
        .any(|(_, drifted, dims)| *drifted && DRIFTED_DIMS.iter().any(|d| dims.contains(d)));

    let invariants = vec![
        Invariant::check(
            "drift-silent-before-shift",
            silent_before,
            format!("{} checks before record {DRIFT_AT}, none drifted", pre_checks.len()),
        ),
        Invariant::check(
            "drift-fires-on-shifted-channels",
            fires_after,
            format!(
                "{} checks after record {DRIFT_AT}; alarm names a shifted channel from {DRIFTED_DIMS:?}",
                post_checks.len()
            ),
        ),
        Invariant::check(
            "resume-is-byte-identical",
            resume_identical,
            format!(
                "kill at record {KILL_AT}: resumed stream {} reference ({} bytes)",
                if resume_identical { "matches" } else { "DIFFERS FROM" },
                reference.len()
            ),
        ),
        Invariant::check(
            "dod-referee-sees-the-shift",
            dod_ratio >= 1.2,
            format!("mean DOD {dod_post:.3} after vs {dod_pre:.3} before (ratio {dod_ratio:.2}, floor 1.2)"),
        ),
    ];

    let checks_json: Vec<Json> = checks
        .iter()
        .map(|(record, drifted, dims)| {
            Json::object()
                .field("record", *record)
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
                .field("records", STREAM_ROWS)
                .field("outliers", outliers)
                .field("verdict_fingerprint", fingerprint_text(&reference))
                .field("drift_checks", Json::Array(checks_json))
                .unwrap(),
        )
        .field(
            "resume",
            Json::object()
                .field("kill_at", KILL_AT)
                .field("byte_identical", resume_identical)
                .unwrap(),
        )
        .unwrap();
    let referees = Json::Array(vec![Json::object()
        .field("method", "dod")
        .field("mean_before_shift", dod_pre)
        .field("mean_after_shift", dod_post)
        .field("ratio", dod_ratio)
        .unwrap()]);

    // Ground truth here is the drift window, not planted rows.
    let report = envelope(
        "sensor-drift",
        SEED,
        start.elapsed().as_secs_f64() * 1000.0,
        dataset_json(&stream, &[]),
        pipelines,
        referees,
        &invariants,
    );
    Ok(Outcome { report, invariants })
}
