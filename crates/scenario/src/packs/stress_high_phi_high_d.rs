//! **stress-high-phi-high-d** — the detector far from its defaults: 24
//! dimensions at φ = 8, where brute force's `C(d, k) · φ^k` cube space is
//! the evolutionary search's reason to exist. Ground truth carries two
//! distinct anomaly species: contrarian plants (one correlated pair
//! rewritten — the subspace detector's prey) and **systemic rows** shifted
//! +1.1σ in *every* dimension, which stay locally plausible in each small
//! subspace. DOD referees the split: it must flag the systemic rows the
//! subspace detector is structurally blind to — the honest complement to
//! the paper's claim. The fitted model is then hosted by `serve` over real
//! loopback TCP and its verdict stream must be byte-identical to a direct
//! scorer.

use crate::report::{
    dataset_json, detect_json, envelope, fingerprint_text, metrics_json, recall, rows_json,
    top_rows,
};
use crate::synth::factor_row;
use crate::{http, pipe, Invariant, Outcome, RunConfig, Scenario, ScenarioError};
use hdoutlier_baselines::{dod_scores, Metric};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::standard_normal;
use hdoutlier_data::Dataset;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::SeedableRng;
use hdoutlier_serve::{ServeConfig, ServeHandle};
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::OnlineScorer;
use std::time::Instant;

const SEED: u64 = 0x57E5;
const N_BASE: usize = 700;
const N_DIMS: usize = 24;
const GROUP_SIZE: usize = 3;
const STRONG_GROUPS: usize = 2;
const N_CONTRARIAN: usize = 4;
const N_SYSTEMIC: usize = 3;
const PHI: u32 = 8;
/// Contrarian magnitude (~90th percentile per side).
const Z: f64 = 1.28;
/// The systemic species: every dimension up by this much.
const SYSTEMIC_SHIFT: f64 = 1.1;
/// Rows served over loopback.
const SERVED_ROWS: usize = 100;
/// DOD referee shortlist size.
const DOD_TOP: usize = 5;

/// The pack descriptor.
pub fn scenario() -> Scenario {
    Scenario {
        name: "stress-high-phi-high-d",
        summary: "d=24, phi=8 evolutionary stress with contrarian + systemic species; DOD flags what subspace cannot, serve is byte-identical over TCP",
        seed: SEED,
        run,
    }
}

struct Synth {
    dataset: Dataset,
    contrarian: Vec<usize>,
    systemic: Vec<usize>,
}

fn synthesize() -> Synth {
    let mut rng = StdRng::seed_from_u64(SEED);
    let strength = |g: usize| if g < STRONG_GROUPS { 0.9 } else { 0.4 };
    let mut rows: Vec<Vec<f64>> = (0..N_BASE)
        .map(|_| factor_row(&mut rng, N_DIMS, GROUP_SIZE, strength))
        .collect();
    let mut contrarian = Vec::with_capacity(N_CONTRARIAN);
    for i in 0..N_CONTRARIAN {
        let mut row = factor_row(&mut rng, N_DIMS, GROUP_SIZE, strength);
        let base = (i % STRONG_GROUPS) * GROUP_SIZE;
        row[base] = -Z + 0.02 * standard_normal(&mut rng);
        row[base + 1] = Z + 0.02 * standard_normal(&mut rng);
        contrarian.push(rows.len());
        rows.push(row);
    }
    let mut systemic = Vec::with_capacity(N_SYSTEMIC);
    for _ in 0..N_SYSTEMIC {
        let mut row = factor_row(&mut rng, N_DIMS, GROUP_SIZE, strength);
        for v in row.iter_mut() {
            *v += SYSTEMIC_SHIFT;
        }
        systemic.push(rows.len());
        rows.push(row);
    }
    Synth {
        dataset: Dataset::from_rows(rows).expect("shape"),
        contrarian,
        systemic,
    }
}

/// NDJSON record lines for dataset rows `range`, rendered exactly as the
/// serve tests and CLI do (so floats round-trip identically).
fn ndjson_rows(ds: &Dataset, range: std::ops::Range<usize>) -> String {
    let mut out = String::new();
    for i in range {
        let row = Json::Array(ds.row(i).iter().map(|&v| Json::from(v)).collect());
        out.push_str(&row.render());
        out.push('\n');
    }
    out
}

fn run(config: &RunConfig) -> Result<Outcome, ScenarioError> {
    let start = Instant::now();
    let synth = synthesize();
    let ds = &synth.dataset;

    let detector = OutlierDetector::builder()
        .phi(PHI)
        .k(2)
        .m(16)
        .search(SearchMethod::Evolutionary)
        .population(200)
        .max_generations(300)
        .seed(SEED)
        .threads(config.threads)
        .build();
    let detection = detector.detect(ds).map_err(pipe)?;
    let contrarian_recall = recall(&synth.contrarian, &detection.outlier_rows);
    let systemic_flagged = synth
        .systemic
        .iter()
        .filter(|r| detection.outlier_rows.contains(r))
        .count();

    // DOD referee: the systemic species drags its whole distance profile
    // away from the consensus — exactly what the subspace detector, which
    // only ever sees k dimensions at a time, is structurally blind to.
    let dod = dod_scores(ds, Metric::Euclidean, config.threads).map_err(pipe)?;
    let dod_top = top_rows(&dod, DOD_TOP);
    let systemic_in_dod_top = synth
        .systemic
        .iter()
        .filter(|r| dod_top.contains(r))
        .count();

    // Serve the fitted model over real loopback TCP: session create, two
    // score batches, drain. The served verdicts must be byte-identical to
    // a direct scorer over the same rows.
    let model = detector.fit(ds).map_err(pipe)?;
    let mut reference = String::new();
    let mut scorer = OnlineScorer::new(model.clone()).map_err(pipe)?;
    for i in 0..SERVED_ROWS {
        let verdict = scorer.score_record(ds.row(i)).map_err(pipe)?;
        reference.push_str(&verdict_json(&verdict, &scorer).map_err(pipe)?.render());
        reference.push('\n');
    }
    let handle = ServeHandle::bind("127.0.0.1:0", ServeConfig::default()).map_err(pipe)?;
    let addr = handle.local_addr();
    let model_json = hdoutlier_stream::model_io::to_json(&model)
        .map_err(pipe)?
        .render();
    let (status, body) = http::request(
        addr,
        "POST",
        "/sessions",
        None,
        &format!("{{\"id\": \"stress\", \"model\": {model_json}}}"),
    )
    .map_err(pipe)?;
    if status != 201 {
        return Err(ScenarioError(format!(
            "session create failed ({status}): {body}"
        )));
    }
    let mut served = String::new();
    for (request_id, range) in [
        ("stress-batch-a", 0..40),
        ("stress-batch-b", 40..SERVED_ROWS),
    ] {
        let (status, body) = http::request(
            addr,
            "POST",
            "/sessions/stress/score",
            Some(request_id),
            &ndjson_rows(ds, range),
        )
        .map_err(pipe)?;
        if status != 200 {
            return Err(ScenarioError(format!("score failed ({status}): {body}")));
        }
        served.push_str(&body);
    }
    let drain = handle.drain();
    let serve_identical = served == reference;

    let invariants = vec![
        Invariant::check(
            "evolutionary-recovers-contrarians",
            contrarian_recall >= 0.75,
            format!(
                "evolutionary recall {contrarian_recall:.2} (floor 0.75) over {N_CONTRARIAN} contrarian plants at d={N_DIMS}, phi={PHI}"
            ),
        ),
        Invariant::check(
            "dod-referee-flags-systemic-rows",
            systemic_in_dod_top >= 2,
            format!(
                "{systemic_in_dod_top}/{N_SYSTEMIC} systemic rows in DOD top-{DOD_TOP} (floor 2)"
            ),
        ),
        Invariant::check(
            "subspace-is-blind-to-systemic-rows",
            systemic_flagged <= 1,
            format!(
                "{systemic_flagged}/{N_SYSTEMIC} systemic rows flagged by the subspace detector (ceiling 1): every k-dim view of a uniform shift stays plausible — the honest complement"
            ),
        ),
        Invariant::check(
            "served-verdicts-byte-identical",
            serve_identical,
            format!(
                "{SERVED_ROWS} records over loopback TCP in 2 batches: served stream {} direct scorer ({} bytes)",
                if serve_identical { "matches" } else { "DIFFERS FROM" },
                reference.len()
            ),
        ),
    ];

    let pipelines = Json::object()
        .field("detect_evolutionary", detect_json(&detection))
        .field(
            "detect_vs_species",
            Json::object()
                .field(
                    "contrarian",
                    metrics_json(&synth.contrarian, &detection.outlier_rows),
                )
                .field("systemic_flagged", systemic_flagged)
                .unwrap(),
        )
        .field(
            "serve",
            Json::object()
                .field("records", SERVED_ROWS)
                .field("batches", 2u32)
                .field("byte_identical", serve_identical)
                .field("verdict_fingerprint", fingerprint_text(&served))
                .field("sessions_drained", drain.sessions)
                .unwrap(),
        )
        .unwrap();
    let referees = Json::Array(vec![Json::object()
        .field("method", "dod")
        .field("top_rows", rows_json(&dod_top))
        .field("systemic_rows", rows_json(&synth.systemic))
        .field("systemic_in_top", systemic_in_dod_top)
        .unwrap()]);

    // Planted ground truth = both species, in row order.
    let mut planted = synth.contrarian.clone();
    planted.extend(&synth.systemic);
    let report = envelope(
        "stress-high-phi-high-d",
        SEED,
        start.elapsed().as_secs_f64() * 1000.0,
        dataset_json(ds, &planted),
        pipelines,
        referees,
        &invariants,
    );
    Ok(Outcome { report, invariants })
}
