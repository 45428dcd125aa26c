//! Hostile-input properties for the two documents a scoring process loads
//! from disk or from a client: the fitted model and the streaming
//! checkpoint. Truncated copies of a valid document must be rejected, and
//! copies with one value replaced (wrong type, negative, huge, fractional,
//! or an array of the wrong length) must load as an error or as something
//! that scores and restores without panicking. The record loop's verdict
//! writer must give the bytes of the tree-form reference, `verdict_json`,
//! for any verdict and any error reason. All run on
//! [`hdoutlier_rng::for_each_case`]; a failing case prints the seed that
//! replays it alone.

use hdoutlier_core::{FittedModel, OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_data::Dataset;
use hdoutlier_json::{FieldChain, Json};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};
use hdoutlier_stream::ndjson::{projection_labels, verdict_json, write_error, write_verdict};
use hdoutlier_stream::{model_io, Checkpoint, DriftReport, OnlineScorer, Verdict};

fn fitted() -> (FittedModel, Dataset) {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 400,
        n_dims: 5,
        n_outliers: 3,
        strong_groups: Some(2),
        seed: 5,
        ..PlantedConfig::default()
    });
    let model = OutlierDetector::builder()
        .phi(4)
        .k(2)
        .m(4)
        .search(SearchMethod::BruteForce)
        .build()
        .fit(&planted.dataset)
        .unwrap();
    (model, planted.dataset)
}

/// A checkpoint of a scorer that has seen 120 records.
fn checkpoint(model: &FittedModel, ds: &Dataset) -> Checkpoint {
    let mut scorer = OnlineScorer::new(model.clone()).unwrap();
    scorer.set_check_every(50).unwrap();
    for i in 0..120 {
        scorer.score_record(ds.row(i)).unwrap();
    }
    Checkpoint::capture(&scorer, 2, 1)
}

/// Every value in `doc`, as the child-index path that reaches it.
fn paths(doc: &Json) -> Vec<Vec<usize>> {
    fn walk(value: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(path.clone());
        let children: Vec<&Json> = match value {
            Json::Array(items) => items.iter().collect(),
            Json::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            walk(child, path, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(doc, &mut Vec::new(), &mut out);
    out
}

fn at<'a>(doc: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(doc, |value, &i| match value {
        Json::Array(items) => &mut items[i],
        Json::Object(fields) => &mut fields[i].1,
        _ => unreachable!("paths only lead through containers"),
    })
}

/// `doc` with the value at one random path replaced by a hostile one.
fn mutated(rng: &mut StdRng, doc: &Json) -> Json {
    let all = paths(doc);
    let path = &all[rng.gen_range(0..all.len())];
    let mut copy = doc.clone();
    let target = at(&mut copy, path);
    *target = match (rng.gen_range(0..9), &*target) {
        (0, _) => Json::String("x".into()),
        (1, _) => Json::Bool(true),
        (2, _) => Json::Null,
        (3, _) => Json::object(),
        (4, _) => Json::Number(-rng.gen_range(1.0f64..1e300)),
        (5, _) => Json::Number(if rng.gen_bool(0.5) {
            1e300
        } else {
            2f64.powi(64)
        }),
        (6, _) => Json::Number(rng.gen_range(0u32..1000) as f64 + 0.5),
        // An array of the wrong length: one entry short or one too many.
        (_, Json::Array(items)) if !items.is_empty() && rng.gen_bool(0.5) => {
            Json::Array(items[1..].to_vec())
        }
        (_, Json::Array(items)) => {
            let mut longer = items.clone();
            longer.push(items.first().cloned().unwrap_or(Json::Number(0.0)));
            Json::Array(longer)
        }
        _ => Json::Array(vec![Json::Number(1.0); rng.gen_range(0..4)]),
    };
    copy
}

/// Every strict prefix of `text` that ends on a character boundary.
fn truncations(text: &str) -> impl Iterator<Item = &str> {
    text.char_indices().map(|(cut, _)| &text[..cut])
}

#[test]
fn model_loader_rejects_every_truncation() {
    let (model, _) = fitted();
    let text = model_io::to_json(&model).unwrap().pretty();
    assert!(model_io::from_json_text(&text).is_ok());
    for prefix in truncations(&text) {
        assert!(
            model_io::from_json_text(prefix).is_err(),
            "{} bytes loaded",
            prefix.len()
        );
    }
}

#[test]
fn model_loader_survives_one_mutated_field() {
    let (model, ds) = fitted();
    let doc = model_io::to_json(&model).unwrap();
    for_each_case(0x5e1f_0001, 256, |rng| {
        let text = mutated(rng, &doc).render();
        // Whatever loads must also score; nothing may panic.
        if let Ok(loaded) = model_io::from_json_text(&text) {
            if let Ok(mut scorer) = OnlineScorer::new(loaded) {
                for i in 0..5 {
                    let _ = scorer.score_record(ds.row(i));
                }
            }
        }
    });
}

#[test]
fn checkpoint_loader_rejects_every_truncation() {
    let (model, ds) = fitted();
    let text = checkpoint(&model, &ds).to_json().unwrap().pretty();
    assert!(Checkpoint::from_json_text(&text).is_ok());
    for prefix in truncations(&text) {
        assert!(
            Checkpoint::from_json_text(prefix).is_err(),
            "{} bytes loaded",
            prefix.len()
        );
    }
}

#[test]
fn checkpoint_loader_survives_one_mutated_field() {
    let (model, ds) = fitted();
    let doc = checkpoint(&model, &ds).to_json().unwrap();
    for_each_case(0x5e1f_0002, 256, |rng| {
        let text = mutated(rng, &doc).render();
        // Whatever loads must restore or refuse cleanly, then keep scoring.
        if let Ok(cp) = Checkpoint::from_json_text(&text) {
            let mut scorer = OnlineScorer::new(model.clone()).unwrap();
            if cp.restore(&mut scorer).is_ok() {
                for i in 120..125 {
                    scorer.score_record(ds.row(i)).unwrap();
                }
            }
        }
    });
}

/// A number of the kinds verdicts carry: integral, fractional, tiny, huge,
/// negative, or not finite.
fn number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => f64::from(rng.gen_range(-1000i32..1000)),
        1 => rng.gen_range(-1.0..1.0),
        2 => rng.gen_range(0.0..1.0) * 1e-300,
        3 => rng.gen_range(-1.0..1.0) * 1e20,
        4 => -rng.gen_range(0.0f64..50.0),
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.gen_range(0..4usize)],
    }
}

#[test]
fn verdict_writer_matches_the_tree_render() {
    let (model, _) = fitted();
    let scorer = OnlineScorer::new(model).unwrap();
    let labels = projection_labels(&scorer);
    let n_projections = scorer.model().projections().len();
    let n_dims = scorer.model().grid().n_dims();
    assert!(n_projections >= 3);
    for_each_case(0x5e1f_0003, 256, |rng| {
        let index = match rng.gen_range(0..3) {
            0 => rng.gen_range(0..1000),
            1 => rng.gen_range(0..u64::MAX),
            _ => rng.gen_range(999_999_999_999_000..1_000_000_000_001_000),
        };
        let matched = (0..rng.gen_range(0..=n_projections))
            .map(|_| rng.gen_range(0..n_projections))
            .collect();
        let score = match rng.gen_range(0..3) {
            0 => None,
            1 => Some(-rng.gen_range(0.0f64..20.0)),
            _ => Some(number(rng)),
        };
        let drift = (rng.gen_range(0..2) == 0).then(|| DriftReport {
            statistics: (0..n_dims).map(|_| number(rng)).collect(),
            p_values: (0..n_dims).map(|_| number(rng)).collect(),
            drifted_dims: (0..rng.gen_range(0..=n_dims))
                .map(|_| rng.gen_range(0..n_dims))
                .collect(),
            alpha: number(rng),
        });
        let verdict = Verdict {
            index,
            outlier: rng.gen_range(0..2) == 0,
            score,
            matched,
            drift,
        };
        let want = verdict_json(&verdict, &scorer).unwrap().render();
        let mut got = String::new();
        write_verdict(&mut got, &verdict, &labels);
        assert_eq!(got, want);
    });
}

#[test]
fn error_writer_matches_the_tree_render() {
    let alphabet: Vec<char> = "ab \"\\/\n\r\t\u{0}\u{1}\u{1f}\u{7f}\u{e9}\u{2028}\u{1F600}{}[],:"
        .chars()
        .collect();
    for_each_case(0x5e1f_0004, 256, |rng| {
        let reason: String = (0..rng.gen_range(0..40))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        let bits = rng.gen_range(0..64);
        let line = rng.gen_range(0..u64::MAX >> bits);
        let action = ["skip", "quarantine", "abort"][rng.gen_range(0..3usize)];
        let want = Json::object()
            .field("line", line)
            .field("error", reason.as_str())
            .field("action", action)
            .unwrap()
            .render();
        let mut got = String::new();
        write_error(&mut got, line, &reason, action);
        assert_eq!(got, want, "{reason:?}");
    });
}
