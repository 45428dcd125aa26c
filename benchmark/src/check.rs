//! Output checks. Every job's output is compared with an in-process
//! reference computed from the same inputs: detect reports against
//! `OutlierDetector::detect` at one thread, `stream` output against an
//! `OnlineScorer` fed the same records and rendered by `verdict_json`,
//! compared by digest.

use crate::spec::{Fit, Search};
use hdoutlier_core::{OutlierDetector, OutlierReport, SearchMethod};
use hdoutlier_data::csv::CsvOptions;
use hdoutlier_json::Json;
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::OnlineScorer;
use std::path::Path;

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The parts of a detect report that must not depend on thread count or
/// timing: each projection with its exact sparsity, count and rows, and
/// the outlier rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectSummary {
    pub projections: Vec<(String, f64, usize, Vec<usize>)>,
    pub outlier_rows: Vec<usize>,
}

impl DetectSummary {
    pub fn from_report(report: &OutlierReport) -> DetectSummary {
        DetectSummary {
            projections: report
                .projections
                .iter()
                .zip(&report.rows_by_projection)
                .map(|(s, rows)| (s.projection.to_string(), s.sparsity, s.count, rows.clone()))
                .collect(),
            outlier_rows: report.outlier_rows.clone(),
        }
    }

    /// Reads a `detect --json` report. Numbers render shortest-round-trip,
    /// so the sparsities parse back to the same bits.
    pub fn from_json(text: &str) -> Result<DetectSummary, String> {
        let json = Json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
        let rows = |j: Option<&Json>| -> Option<Vec<usize>> {
            j?.as_array()?
                .iter()
                .map(|r| r.as_number().map(|n| n as usize))
                .collect()
        };
        let projections = json
            .get("projections")
            .and_then(Json::as_array)
            .ok_or("report has no projections array")?
            .iter()
            .map(|p| {
                Some((
                    p.get("projection")?.as_str()?.to_string(),
                    p.get("sparsity")?.as_number()?,
                    p.get("count")?.as_number()? as usize,
                    rows(p.get("rows"))?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed projection entry")?;
        let outlier_rows = rows(json.get("outlier_rows")).ok_or("malformed outlier_rows")?;
        Ok(DetectSummary {
            projections,
            outlier_rows,
        })
    }
}

/// The detector the binary runs for `fit`, at `threads` workers.
pub fn detector(fit: &Fit, threads: usize) -> OutlierDetector {
    OutlierDetector::builder()
        .phi(fit.phi)
        .k(fit.k)
        .m(fit.m)
        .seed(fit.ga_seed)
        .search(match fit.search {
            Search::Brute => SearchMethod::BruteForce,
            Search::Evolutionary => SearchMethod::Evolutionary,
        })
        .threads(threads)
        .build()
}

/// The reference report for a detect job: the CSV read as the CLI reads
/// it, detected in-process at one thread.
pub fn reference_detect(csv: &Path, fit: &Fit) -> Result<DetectSummary, String> {
    let dataset = hdoutlier_data::csv::read_path(csv, &CsvOptions::default())
        .map_err(|e| format!("cannot read {}: {e}", csv.display()))?;
    let report = detector(fit, 1)
        .detect(&dataset)
        .map_err(|e| format!("reference detect failed: {e}"))?;
    Ok(DetectSummary::from_report(&report))
}

/// Loads a model file written by `detect --save-model`.
pub fn load_model(path: &Path) -> Result<hdoutlier_core::FittedModel, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    hdoutlier_stream::model_io::from_json_text(&text).map_err(|e| format!("bad model: {e}"))
}

/// Scores records one at a time and digests their verdict lines exactly
/// as `stream` writes them (one rendered `verdict_json` plus a newline).
pub struct VerdictStream {
    scorer: OnlineScorer,
    pub digest: Digest,
}

impl VerdictStream {
    pub fn new(model: &hdoutlier_core::FittedModel) -> Result<VerdictStream, String> {
        Ok(VerdictStream {
            scorer: OnlineScorer::new(model.clone()).map_err(|e| e.to_string())?,
            digest: Digest::default(),
        })
    }

    pub fn push(&mut self, row: &[f64]) -> Result<(), String> {
        let verdict = self.scorer.score_record(row).map_err(|e| e.to_string())?;
        let line = verdict_json(&verdict, &self.scorer)
            .map_err(|e| e.to_string())?
            .render();
        self.digest.update(line.as_bytes());
        self.digest.update(b"\n");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use hdoutlier_json::FieldChain;

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        let mut split = Digest::default();
        split.update(b"hello ");
        split.update(b"world");
        let mut whole = Digest::default();
        whole.update(b"hello world");
        assert_eq!(split, whole);
    }

    #[test]
    fn report_summary_survives_the_json_renderer() {
        let data = inputs::records(600, 3);
        let fit = Fit {
            search: Search::Brute,
            phi: 4,
            k: 2,
            m: 5,
            ga_seed: 0,
        };
        let report = detector(&fit, 2).detect(&data).unwrap();
        let summary = DetectSummary::from_report(&report);
        let json = Json::object()
            .field(
                "projections",
                Json::Array(
                    summary
                        .projections
                        .iter()
                        .map(|(p, s, c, rows)| {
                            Json::object()
                                .field("projection", p.as_str())
                                .field("sparsity", *s)
                                .field("count", *c)
                                .field("rows", rows.clone())
                                .unwrap()
                        })
                        .collect(),
                ),
            )
            .unwrap()
            .field("outlier_rows", summary.outlier_rows.clone())
            .unwrap();
        assert_eq!(DetectSummary::from_json(&json.pretty()).unwrap(), summary);
        assert!(DetectSummary::from_json("{\"projections\": 3}").is_err());
    }
}
