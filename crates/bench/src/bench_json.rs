//! Schema-stable benchmark datapoints (`BENCH_*.json`).
//!
//! Every invocation of `stream_throughput --bench-json` or `repro
//! --bench-json` appends one comparable datapoint to the repo's perf
//! trajectory: throughput per stage, latency percentiles, and enough
//! metadata (`git describe`, commit, timestamp) to place the number in
//! history. The schema is versioned (`hdoutlier-bench/1`) and the key
//! order is fixed, so trajectory diffs across PRs stay line-stable.
//!
//! The datapoint is built as an [`hdoutlier_json::Json`] value and rendered
//! with its pretty printer, the same writer every other report uses.

use hdoutlier_json::Json;
use std::process::Command;

/// One timed stage: `records` processed in `elapsed_s` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage label, e.g. `"scorer.score_record"` or `"end-to-end"`.
    pub name: String,
    /// Records pushed through the stage.
    pub records: u64,
    /// Wall-clock seconds for the whole stage.
    pub elapsed_s: f64,
}

/// A histogram summary carried into the datapoint (from
/// `hdoutlier_obs::HistogramSnapshot` or equivalent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// Builder for one `BENCH_*.json` datapoint.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    bench: String,
    config: Vec<(String, f64)>,
    stages: Vec<Stage>,
    latency_us: Option<Percentiles>,
    phases_us: Vec<(String, Percentiles)>,
}

impl BenchReport {
    /// Starts a datapoint for the named bench (`"stream"`, `"detect"`).
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            ..Default::default()
        }
    }

    /// Records one numeric config knob (rows, dims, phi, …).
    pub fn config(&mut self, key: &str, value: f64) -> &mut Self {
        self.config.push((key.to_string(), value));
        self
    }

    /// Records one timed stage.
    pub fn stage(&mut self, name: &str, records: u64, elapsed_s: f64) -> &mut Self {
        self.stages.push(Stage {
            name: name.to_string(),
            records,
            elapsed_s,
        });
        self
    }

    /// Attaches the per-record latency percentiles (stream benches).
    pub fn latency_us(&mut self, p: Percentiles) -> &mut Self {
        self.latency_us = Some(p);
        self
    }

    /// Attaches one phase-duration histogram (detect benches:
    /// `discretize`, `index`, `search`, `postprocess`).
    pub fn phase_us(&mut self, name: &str, p: Percentiles) -> &mut Self {
        self.phases_us.push((name.to_string(), p));
        self
    }

    /// Renders the datapoint. Derived rates (`records_per_sec`,
    /// `us_per_record`) are computed here so every consumer sees the same
    /// arithmetic. Non-finite numbers render as `null` (JSON has no Inf/NaN).
    pub fn to_json(&self) -> String {
        let (describe, commit) = git_metadata();
        let created = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let git_string = |v: Option<String>| v.map_or(Json::Null, Json::String);
        let stages = self
            .stages
            .iter()
            .map(|s| {
                let per_sec = if s.elapsed_s > 0.0 {
                    s.records as f64 / s.elapsed_s
                } else {
                    0.0
                };
                let us_per = if s.records > 0 {
                    s.elapsed_s * 1e6 / s.records as f64
                } else {
                    0.0
                };
                object([
                    ("name", Json::from(s.name.as_str())),
                    ("records", s.records.into()),
                    ("elapsed_s", s.elapsed_s.into()),
                    ("records_per_sec", per_sec.into()),
                    ("us_per_record", us_per.into()),
                ])
            })
            .collect();
        let mut text = object([
            ("schema", "hdoutlier-bench/1".into()),
            ("bench", self.bench.as_str().into()),
            ("created_unix_s", created.into()),
            (
                "git",
                object([
                    ("describe", git_string(describe)),
                    ("commit", git_string(commit)),
                ]),
            ),
            (
                "config",
                Json::Object(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("stages", Json::Array(stages)),
            (
                "latency_us",
                self.latency_us.as_ref().map_or(Json::Null, percentiles),
            ),
            (
                "phases_us",
                Json::Object(
                    self.phases_us
                        .iter()
                        .map(|(name, p)| (name.clone(), percentiles(p)))
                        .collect(),
                ),
            ),
        ])
        .pretty();
        text.push('\n');
        text
    }

    /// Writes [`BenchReport::to_json`] to `path`.
    ///
    /// # Errors
    /// The underlying filesystem error, untouched.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Reads the `us_per_record` of the stage named `stage` from a
/// `BENCH_*.json` datapoint: the baseline an `--assert-against` gate
/// compares a fresh run with.
///
/// # Errors
/// An unreadable or unparsable file, or no such stage.
pub fn baseline_us_per_record(path: &str, stage: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text).map_err(|e| e.to_string())?;
    json.get("stages")
        .and_then(Json::as_array)
        .and_then(|stages| {
            stages
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(stage))
        })
        .and_then(|s| s.get("us_per_record"))
        .and_then(Json::as_number)
        .ok_or_else(|| format!("no {stage} stage with us_per_record"))
}

/// An object with `fields` in order.
fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

fn percentiles(p: &Percentiles) -> Json {
    object([
        ("count", p.count.into()),
        ("p50", p.p50.into()),
        ("p90", p.p90.into()),
        ("p99", p.p99.into()),
        ("max", p.max.into()),
    ])
}

/// `git describe --always --dirty` and the full commit hash, when the bench
/// runs inside a git checkout (both `None` otherwise — the datapoint is
/// still valid, just unplaced).
pub fn git_metadata() -> (Option<String>, Option<String>) {
    let run = |args: &[&str]| -> Option<String> {
        let out = Command::new("git").args(args).output().ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        (!text.is_empty()).then_some(text)
    };
    (
        run(&["describe", "--always", "--dirty"]),
        run(&["rev-parse", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapoint_has_schema_rates_and_fixed_key_order() {
        let mut r = BenchReport::new("stream");
        r.config("n_rows", 1000.0)
            .config("n_dims", 10.0)
            .stage("score", 1000, 0.5)
            .latency_us(Percentiles {
                count: 1000,
                p50: 1.0,
                p90: 2.0,
                p99: 5.0,
                max: 9.5,
            });
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"hdoutlier-bench/1\""), "{json}");
        assert!(json.contains("\"records_per_sec\": 2000"), "{json}");
        assert!(json.contains("\"us_per_record\": 500"), "{json}");
        assert!(json.contains("\"p99\": 5"), "{json}");
        // Key order is part of the schema contract.
        let order = [
            "\"schema\"",
            "\"bench\"",
            "\"created_unix_s\"",
            "\"git\"",
            "\"config\"",
            "\"stages\"",
            "\"latency_us\"",
            "\"phases_us\"",
        ];
        let positions: Vec<usize> = order.iter().map(|k| json.find(k).unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
    }

    #[test]
    fn detect_shape_carries_phase_histograms() {
        let mut r = BenchReport::new("detect");
        r.stage("detect", 5, 1.0).phase_us(
            "search",
            Percentiles {
                count: 5,
                p50: 100.0,
                p90: 200.0,
                p99: 200.0,
                max: 250.0,
            },
        );
        let json = r.to_json();
        assert!(
            json.contains("\"phases_us\": {\n    \"search\": {\n      \"count\": 5"),
            "{json}"
        );
        assert!(json.contains("\"latency_us\": null"), "{json}");
    }

    #[test]
    fn baseline_reads_a_stage_back() {
        let mut r = BenchReport::new("detect");
        r.stage("threads-1", 1000, 0.5)
            .stage("threads-2", 1000, 0.25);
        let path = std::env::temp_dir().join(format!("bench-json-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        r.write(path).unwrap();
        assert_eq!(baseline_us_per_record(path, "threads-2"), Ok(250.0));
        assert!(baseline_us_per_record(path, "threads-8").is_err());
        std::fs::remove_file(path).unwrap();
        assert!(baseline_us_per_record(path, "threads-1").is_err());
    }

    #[test]
    fn hostile_strings_are_escaped_and_zero_division_is_safe() {
        let mut r = BenchReport::new("a\"b\\c");
        r.stage("empty", 0, 0.0);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"a\\\"b\\\\c\""), "{json}");
        assert!(json.contains("\"records_per_sec\": 0"), "{json}");
        assert!(json.contains("\"us_per_record\": 0"), "{json}");
    }
}
