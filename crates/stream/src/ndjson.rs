//! The NDJSON verdict wire format.
//!
//! One rendering, two transports: the `hdoutlier stream` subcommand writes
//! these lines to stdout, and the `hdoutlier serve` scoring server writes
//! the *same* lines into HTTP response bodies. Keeping the renderer here —
//! next to the [`Verdict`] it serializes — is what makes the serve path's
//! "byte-identical to `stream`" guarantee a matter of construction rather
//! than of keeping two copies in sync.
//!
//! [`verdict_json`] builds the line as a [`Json`] tree: the reference form,
//! for callers that check a verdict stream. The record loop writes the same
//! bytes with [`write_verdict`] and [`write_error`], which append to a
//! reused buffer through `hdoutlier-json`'s own number and string writers
//! and allocate nothing.
//!
//! Line shapes:
//!
//! - scoring verdict: `{"record":N,"outlier":bool,"score":x|null,
//!   "projections":[...]}` plus a `"drift"` object on cadence records;
//! - error verdict (skip/quarantine policies): `{"line":N,"error":"...",
//!   "action":"skip|quarantine|abort"}`.

use crate::drift::DriftReport;
use crate::scorer::{OnlineScorer, Verdict};
use hdoutlier_json::{write_escaped, write_number, FieldChain, Json, JsonError};

/// One NDJSON scoring verdict line, as a tree: the reference whose render
/// [`write_verdict`] reproduces byte for byte.
///
/// # Errors
/// [`JsonError`] on builder misuse (not reachable from a well-formed
/// verdict).
pub fn verdict_json(verdict: &Verdict, scorer: &OnlineScorer) -> Result<Json, JsonError> {
    let projections: Vec<Json> = verdict
        .matched
        .iter()
        .map(|&i| Json::from(scorer.model().projections()[i].projection.to_string()))
        .collect();
    let mut j = Json::object()
        .field("record", verdict.index)
        .field("outlier", verdict.outlier)
        .field("score", verdict.score.map_or(Json::Null, Json::Number))
        .field("projections", Json::Array(projections))?;
    if let Some(report) = &verdict.drift {
        j = j.field("drift", drift_json(report)?)?;
    }
    Ok(j)
}

/// The `"drift"` object attached to cadence-record verdicts.
///
/// # Errors
/// [`JsonError`] on builder misuse (not reachable).
pub fn drift_json(report: &DriftReport) -> Result<Json, JsonError> {
    let p_values: Vec<Json> = report.p_values.iter().map(|&p| Json::Number(p)).collect();
    Json::object()
        .field("drifted", report.any_drift())
        .field(
            "drifted_dims",
            report
                .drifted_dims
                .iter()
                .map(|&d| Json::from(d))
                .collect::<Vec<_>>(),
        )
        .field("alpha", report.alpha)
        .field("p_values", Json::Array(p_values))
}

/// The model's projections as JSON string literals, indexed like the
/// model's projection list, so [`write_verdict`] copies each instead of
/// rendering it per verdict.
pub fn projection_labels(scorer: &OnlineScorer) -> Vec<String> {
    scorer
        .model()
        .projections()
        .iter()
        .map(|p| {
            let mut label = String::new();
            write_escaped(&mut label, &p.projection.to_string());
            label
        })
        .collect()
}

/// Appends the line `verdict_json(verdict, scorer).render()` gives, without
/// building the tree; `labels` is [`projection_labels`] of that scorer.
pub fn write_verdict(out: &mut String, verdict: &Verdict, labels: &[String]) {
    out.push_str("{\"record\":");
    write_number(out, verdict.index as f64);
    out.push_str(if verdict.outlier {
        ",\"outlier\":true,\"score\":"
    } else {
        ",\"outlier\":false,\"score\":"
    });
    write_number(out, verdict.score.unwrap_or(f64::NAN));
    out.push_str(",\"projections\":[");
    for (i, &p) in verdict.matched.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&labels[p]);
    }
    out.push(']');
    if let Some(report) = &verdict.drift {
        out.push_str(",\"drift\":{\"drifted\":");
        out.push_str(if report.any_drift() { "true" } else { "false" });
        out.push_str(",\"drifted_dims\":");
        write_numbers(out, report.drifted_dims.iter().map(|&d| d as f64));
        out.push_str(",\"alpha\":");
        write_number(out, report.alpha);
        out.push_str(",\"p_values\":");
        write_numbers(out, report.p_values.iter().copied());
        out.push('}');
    }
    out.push('}');
}

/// Appends one error verdict — what the skip/quarantine policies emit in
/// place of a scoring verdict, so downstream consumers see the gap in-band:
/// `{"line":N,"error":"<reason>","action":"<action>"}`.
pub fn write_error(out: &mut String, line_no: u64, reason: &str, action: &str) {
    out.push_str("{\"line\":");
    write_number(out, line_no as f64);
    out.push_str(",\"error\":");
    write_escaped(out, reason);
    out.push_str(",\"action\":");
    write_escaped(out, action);
    out.push('}');
}

/// Appends a JSON array of numbers.
fn write_numbers(out: &mut String, values: impl Iterator<Item = f64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, v);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_core::{OutlierDetector, SearchMethod};
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    #[test]
    fn verdict_lines_have_the_documented_shape() {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 500,
            n_dims: 6,
            n_outliers: 3,
            strong_groups: Some(2),
            seed: 23,
            ..PlantedConfig::default()
        });
        let model = OutlierDetector::builder()
            .phi(4)
            .k(2)
            .m(5)
            .search(SearchMethod::BruteForce)
            .build()
            .fit(&planted.dataset)
            .unwrap();
        let mut scorer = OnlineScorer::new(model).unwrap();
        scorer.set_check_every(100).unwrap();
        let labels = projection_labels(&scorer);
        let mut saw_drift = false;
        for i in 0..120 {
            let v = scorer.score_record(planted.dataset.row(i)).unwrap();
            let line = verdict_json(&v, &scorer).unwrap().render();
            let mut written = String::new();
            write_verdict(&mut written, &v, &labels);
            assert_eq!(written, line);
            let j = Json::parse(&line).unwrap();
            assert_eq!(j.get("record").and_then(Json::as_number), Some(i as f64));
            assert!(j.get("outlier").is_some(), "{line}");
            assert!(j.get("score").is_some(), "{line}");
            assert!(j.get("projections").and_then(Json::as_array).is_some());
            if j.get("drift").is_some() {
                saw_drift = true;
                let d = j.get("drift").unwrap();
                assert!(d.get("drifted").is_some(), "{line}");
                assert!(d.get("p_values").and_then(Json::as_array).is_some());
            }
        }
        assert!(saw_drift, "cadence record carries a drift object");

        let mut err = String::new();
        write_error(&mut err, 7, "bad row", "skip");
        let j = Json::parse(&err).unwrap();
        assert_eq!(j.get("line").and_then(Json::as_number), Some(7.0));
        assert_eq!(j.get("action").and_then(Json::as_str), Some("skip"));
    }
}
