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
//!
//! The same module holds the one perf-gate rule the bench binaries share:
//! [`take_flag`] for their flags, [`fastest_of`] for their timers, and
//! [`assert_against`] for the `--assert-against` verdict.

use hdoutlier_json::Json;
use std::process::Command;

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
    /// `(name, records, elapsed_s)` per timed stage.
    stages: Vec<(String, u64, f64)>,
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
        self.stages.push((name.to_string(), records, elapsed_s));
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
            .map(|(name, records, elapsed_s)| {
                let per_sec = if *elapsed_s > 0.0 {
                    *records as f64 / elapsed_s
                } else {
                    0.0
                };
                let us_per = if *records > 0 {
                    elapsed_s * 1e6 / *records as f64
                } else {
                    0.0
                };
                object([
                    ("name", Json::from(name.as_str())),
                    ("records", (*records).into()),
                    ("elapsed_s", (*elapsed_s).into()),
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

/// Timed repeats per gated stage; the fastest is kept. Host load slows
/// some runs and a code slowdown slows all of them, so the fastest of three
/// keeps the gate steady on shared cores without a wider tolerance.
pub const REPEATS: usize = 3;

/// Calls `run` `repeats` times and returns the least of the seconds it
/// reports. Each call builds fresh state and times only the work.
pub fn fastest_of(repeats: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..repeats).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Removes `flag <value>` from `args` and returns the value. A flag with no
/// value after it is a usage error (exit 2).
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 == args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Exits 2 on any argument left that looks like a flag (a misspelt or
/// retired one, such as `--tolerance`) once the accepted ones are taken.
pub fn reject_unknown_flags(args: &[String]) {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {flag}");
        std::process::exit(2);
    }
}

/// What a gate found: one `regression gate:` line per stage, in order, and
/// one `REGRESSION:` line per stage over its limit.
#[derive(Debug, Default, PartialEq)]
pub struct GateReport {
    /// Every stage's reading, baseline and limit.
    pub checked: Vec<String>,
    /// A line for each stage whose reading exceeds its limit.
    pub regressions: Vec<String>,
}

/// The one perf-gate rule, without printing or exiting: each `(stage,
/// us_per_record)` reading passes at or below `baseline * (1 + tolerance)`,
/// the baseline being that stage in the datapoint at `path`.
///
/// # Errors
/// An unreadable or unparsable baseline, or a stage it lacks — a usage
/// error, found before any stage is compared.
pub fn check_against(
    path: &str,
    tolerance: f64,
    readings: &[(&str, f64)],
) -> Result<GateReport, String> {
    let baselines: Vec<f64> = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|json| {
            let baseline = |&(stage, _): &(&str, f64)| baseline_us_per_record(&json, stage);
            readings.iter().map(baseline).collect()
        })
        .map_err(|e: String| format!("{path}: {e}"))?;
    let mut report = GateReport::default();
    for (&(stage, us), baseline) in readings.iter().zip(baselines) {
        let limit = baseline * (1.0 + tolerance);
        report.checked.push(format!(
            "regression gate: {stage} {us:.4} us/record vs baseline {baseline:.4} \
             (limit {limit:.4}, tolerance {tolerance})"
        ));
        if us > limit {
            report.regressions.push(format!(
                "REGRESSION: {stage} {us:.4} us/record exceeds {limit:.4} \
                 ({baseline:.4} from {path} + {:.0}%)",
                tolerance * 100.0
            ));
        }
    }
    Ok(report)
}

/// Runs [`check_against`] as a binary's `--assert-against` gate: prints
/// every stage's line, then exits 1 on any regression, or 2 when the
/// baseline cannot be read or lacks a stage. Returns when every stage
/// passes.
pub fn assert_against(path: &str, tolerance: f64, readings: &[(&str, f64)]) {
    let report = check_against(path, tolerance, readings).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {e}");
        std::process::exit(2);
    });
    report.checked.iter().for_each(|line| println!("{line}"));
    report
        .regressions
        .iter()
        .for_each(|line| eprintln!("{line}"));
    if !report.regressions.is_empty() {
        std::process::exit(1);
    }
}

/// The `us_per_record` of the stage named `stage` in a parsed datapoint.
fn baseline_us_per_record(json: &Json, stage: &str) -> Result<f64, String> {
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
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(baseline_us_per_record(&json, "threads-2"), Ok(250.0));

        // The limit itself passes; 250 us/record at tolerance 0.5 is 375.
        let at_limit = check_against(path, 0.5, &[("threads-2", 375.0)]).unwrap();
        assert_eq!(
            at_limit.checked,
            [
                "regression gate: threads-2 375.0000 us/record vs baseline 250.0000 \
              (limit 375.0000, tolerance 0.5)"
            ]
        );
        assert!(at_limit.regressions.is_empty());
        // Just above it fails, naming the stage and the limit.
        let above = check_against(path, 0.5, &[("threads-2", 375.001)]).unwrap();
        assert_eq!(
            above.regressions,
            [format!(
                "REGRESSION: threads-2 375.0010 us/record exceeds 375.0000 \
                 (250.0000 from {path} + 50%)"
            )]
        );
        // A regressing first stage does not stop the second being checked.
        let both = check_against(path, 1.0, &[("threads-1", 1001.0), ("threads-2", 9.0)]).unwrap();
        assert_eq!(both.checked.len(), 2);
        assert!(both.checked[1].starts_with("regression gate: threads-2 9.0000"));
        assert_eq!(both.regressions.len(), 1);
        assert!(both.regressions[0].contains("threads-1 1001.0000 us/record exceeds 1000.0000"));

        // A missing stage or file is a usage error, even beside a regression.
        let missing = check_against(path, 0.5, &[("threads-1", 1e9), ("threads-8", 1.0)]);
        assert!(missing.unwrap_err().contains("no threads-8 stage"));
        std::fs::remove_file(path).unwrap();
        assert!(check_against(path, 0.5, &[("threads-1", 1.0)]).is_err());
    }

    #[test]
    fn fastest_of_runs_every_repeat_and_keeps_the_minimum() {
        let readings = [3.0, 1.0, 2.0];
        let mut calls = 0;
        let fastest = fastest_of(REPEATS, || {
            calls += 1;
            readings[calls - 1]
        });
        assert_eq!((calls, fastest), (REPEATS, 1.0));
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
