//! `hdoutlier stream` — score CSV records arriving on stdin, one NDJSON
//! verdict per record, using a model saved by `detect --save-model`.
//!
//! This is the long-running deployment surface, so it carries the fault
//! tolerance the one-shot commands do not need: a bad-record policy
//! (`--on-error abort|skip|quarantine:<path>`) with a consecutive-failure
//! circuit breaker, and atomic checkpoint/resume of the scorer state
//! (`--checkpoint`/`--resume`) so a crash or redeploy does not silently
//! reset the drift statistics or the record index.

use super::parse_or_usage;
use crate::args::Parsed;
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_stream::model_io;
use hdoutlier_stream::{
    ErrorPolicy, OnlineScorer, OpenError, Pipeline, RecordFormat, RecoveredFrom, Settings, Sink,
    Stop,
};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Per-command help.
pub const HELP: &str = "\
hdoutlier stream — score records from stdin as they arrive

Reads CSV rows from stdin (same column order the model was fitted on) and
writes one NDJSON verdict per record to stdout. Every --drift-every records
a chi-square drift check of the arriving distribution against the trained
equi-depth grid is run and attached to that record's verdict; a drifted
dimension means the grid has gone stale and the model should be re-fit.

USAGE:
    hdoutlier stream --model <model.json> [OPTIONS] < records.csv

OPTIONS:
    --model <path>       model file (required)
    --delimiter <c>      field separator (default ',')
    --no-header          first line is data, not column names
    --outliers-only      emit verdicts only for flagged records
                         (error verdicts are still emitted)
    --drift-alpha <a>    drift-test significance level (default 0.01)
    --drift-every <n>    records between drift checks (default 512)
    --batch <n>          score records in bounded batches of <n>, computing
                         the model lookups on --threads pool workers; the
                         verdicts (indices, scores, drift reports) are
                         byte-identical to record-at-a-time scoring
                         (default 1 = no batching)
    --threads <n>        worker threads for --batch scoring (default:
                         available cores)
    --on-error <p>       bad-record policy: abort | skip | quarantine:<path>
                         (default abort). skip/quarantine emit an NDJSON
                         error verdict (line number + reason) and keep
                         scoring; quarantine also appends the raw line to
                         <path>
    --max-consecutive-errors <n>
                         circuit breaker: abort regardless of policy after
                         <n> consecutive bad records (default 100)
    --checkpoint <path>  persist scorer state (record index, drift
                         occupancy, totals) to <path> atomically every
                         --checkpoint-every records and at EOF
    --checkpoint-every <n>
                         records between checkpoints (default 1000)
    --resume <path>      restore state from a checkpoint before scoring; it
                         must match the model's grid fingerprint. Feed the
                         remaining records (headerless, with --no-header)
    --log-level <l>      emit pipeline events on stderr (error|warn|info|debug|trace)
    --log-json           render events as NDJSON instead of human-readable text
    --metrics-out <p>    enable per-record latency metrics, snapshot to <p> at EOF
    --trace-out <p>      profile spans, write Chrome trace-event JSON to <p> at EOF
    --profile-out <p>    sample span stacks, write folded flamegraph stacks to <p>
    --profile-hz <n>     sampling rate for --profile-out (default 99)
    --serve-metrics <a>  serve /metrics, /healthz, /snapshot over HTTP on <a>
                         while the stream runs (e.g. 127.0.0.1:9184)
";

/// Runs the subcommand against real stdin, writing each verdict to stdout
/// as soon as it is computed (flushed per record, so `tail -f | hdoutlier
/// stream` pipelines see verdicts immediately rather than at EOF).
pub fn run(argv: &[String]) -> (i32, String) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_streaming(argv, stdin.lock(), &mut stdout.lock())
}

/// Runs the subcommand against any line source, collecting verdicts and any
/// trailing error into one string (tests feed strings and assert on both).
pub fn run_with_input(argv: &[String], input: impl BufRead) -> (i32, String) {
    let mut sink = Vec::new();
    let (code, err) = run_streaming(argv, input, &mut sink);
    let mut out = String::from_utf8(sink).expect("verdicts are valid UTF-8");
    out.push_str(&err);
    (code, out)
}

/// The streaming core: verdicts go to `sink` record by record; the returned
/// string carries only usage/runtime error text (empty on success).
///
/// Exposed to the fault-injection integration tests, which drive it with
/// readers and writers that fail at scripted points.
pub fn run_streaming(argv: &[String], input: impl BufRead, sink: &mut impl Write) -> (i32, String) {
    let spec = obs_setup::spec_with(
        &[
            "model",
            "delimiter",
            "drift-alpha",
            "drift-every",
            "batch",
            "threads",
            "on-error",
            "max-consecutive-errors",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "serve-metrics",
        ],
        &["no-header", "outliers-only"],
    );
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    // Everything past session init funnels through one exit point so the
    // telemetry exports (`--metrics-out`/`--trace-out`) are flushed on
    // *every* path, error exits included.
    let (code, out) = stream_under_session(&parsed, input, sink);
    match session.finish() {
        Ok(()) => (code, out),
        Err(e) if code == exit::OK => (exit::RUNTIME, e),
        // Best-effort on failure paths: report the flush failure without
        // masking the original error.
        Err(e) => (code, format!("{out}\n(telemetry flush also failed: {e})")),
    }
}

/// The post-session-init half of the command: flag validation, model load,
/// resume, and the scoring loop.
fn stream_under_session(
    parsed: &Parsed,
    input: impl BufRead,
    sink: &mut impl Write,
) -> (i32, String) {
    if let Some(path) = parsed.positional().first() {
        return (
            exit::USAGE,
            format!("unexpected argument {path:?}: records are read from stdin\n\n{HELP}"),
        );
    }
    let Some(model_path) = parsed.get("model") else {
        return (exit::USAGE, format!("--model is required\n\n{HELP}"));
    };
    let settings = match settings(parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    let scorer = std::fs::read_to_string(model_path)
        .map_err(|e| format!("failed to read {model_path}: {e}"))
        .and_then(|text| {
            model_io::from_json_text(&text).map_err(|e| format!("failed to load model: {e}"))
        })
        .and_then(|model| {
            OnlineScorer::new(model).map_err(|e| format!("model unusable for streaming: {e}"))
        });
    let scorer = match scorer {
        Ok(s) => s,
        Err(e) => return (exit::RUNTIME, e),
    };
    let resume = parsed.get("resume").unwrap_or_default();
    let (mut pipeline, recovered) =
        match Pipeline::open(scorer, settings, parsed.get("resume").map(Path::new)) {
            Ok(opened) => opened,
            Err(OpenError::Load(e) | OpenError::Restore(e)) => {
                return (exit::RUNTIME, format!("cannot resume from {resume}: {e}"))
            }
            Err(OpenError::Drift(e)) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
            Err(OpenError::Quarantine(e)) => return (exit::RUNTIME, e),
        };
    // The primary was corrupt or missing; say so loudly — the resumed run
    // is one checkpoint generation behind.
    match recovered {
        Some(RecoveredFrom::Previous {
            quarantined: Some(corrupt),
        }) => eprintln!(
            "stream: checkpoint {resume} was unreadable (quarantined to {}); \
             resumed from its .prev generation",
            corrupt.display()
        ),
        Some(RecoveredFrom::Previous { quarantined: None }) => {
            eprintln!("stream: checkpoint {resume} was missing; resumed from its .prev generation")
        }
        _ => {}
    }

    let lines = input
        .lines()
        .map(|line| line.map_err(|e| format!("stdin read failed: {e}")));
    if let Err(stop) = pipeline.run(lines, &mut Stdout(sink)) {
        let message = match stop {
            Stop::Abort { line, reason } => format!("line {line}: {reason}"),
            Stop::Breaker {
                line,
                reason,
                count,
                limit,
            } => format!(
                "line {line}: {reason} ({count} consecutive bad records exceed \
                 --max-consecutive-errors {limit}; aborting)"
            ),
            Stop::Fatal(message) => message,
        };
        return (exit::RUNTIME, message);
    }
    // A final checkpoint at EOF (or consumer hang-up) so a clean restart
    // resumes from the last record, not the last cadence boundary.
    match pipeline.checkpoint() {
        Ok(_) => (exit::OK, String::new()),
        Err(e) => (exit::RUNTIME, e),
    }
}

/// The pipeline settings the flags ask for; `Err` is the usage message.
fn settings(parsed: &Parsed) -> Result<Settings, String> {
    let policy = ErrorPolicy::parse(parsed.get("on-error").unwrap_or("abort"))
        .map_err(|e| format!("--on-error {e}"))?;
    let positive = |flag: &str, default: u64, zero: &str| -> Result<u64, String> {
        match parsed.or(flag, "integer", default) {
            Ok(0) => Err(format!("--{flag} {zero}")),
            Ok(n) => Ok(n),
            Err(e) => Err(e.to_string()),
        }
    };
    let batch = positive("batch", 1, "must be >= 1")? as usize;
    let threads = hdoutlier_pool::default_threads() as u64;
    let threads = positive("threads", threads, "must be >= 1")? as usize;
    let max_consecutive = positive("max-consecutive-errors", 100, "must be positive")?;
    let checkpoint_every = positive("checkpoint-every", 1000, "must be positive")?;
    let checkpoint = parsed.get("checkpoint").map(PathBuf::from);
    if checkpoint.is_none() && parsed.get("checkpoint-every").is_some() {
        return Err("--checkpoint-every requires --checkpoint <path>".into());
    }
    Ok(Settings {
        format: RecordFormat::Csv {
            delimiter: super::delimiter(parsed)?,
            header: !parsed.has("no-header"),
        },
        batch,
        threads,
        outliers_only: parsed.has("outliers-only"),
        policy,
        max_consecutive,
        checkpoint,
        checkpoint_every,
        drift_alpha: parsed
            .opt("drift-alpha", "number")
            .map_err(|e| e.to_string())?,
        drift_every: parsed
            .opt("drift-every", "integer")
            .map_err(|e| e.to_string())?,
    })
}

/// Stdout as a verdict sink: each line is flushed as it is written, and a
/// closed pipe (`| head`) is a normal way to stop, not an error.
struct Stdout<'a, W>(&'a mut W);

impl<W: Write> Sink for Stdout<'_, W> {
    fn emit(&mut self, line: &str) -> Result<bool, String> {
        match writeln!(self.0, "{line}").and_then(|()| self.0.flush()) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
            Err(e) => Err(format!("stdout write failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::planted_csv;
    use crate::exit;
    use hdoutlier_json::Json;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Trains a model from a planted CSV and returns (csv text, model path,
    /// planted row indices).
    fn trained(name: &str) -> (String, std::path::PathBuf, Vec<usize>) {
        let (csv, planted_rows) = planted_csv(name);
        let model_path = csv.with_extension("model.json");
        let (code, out) = crate::commands::detect::run_captured(&argv(&[
            "--phi=4",
            "--k=2",
            "--m=6",
            "--search=brute",
            "--save-model",
            model_path.to_str().unwrap(),
            csv.to_str().unwrap(),
        ]));
        assert_eq!(code, exit::OK, "{out}");
        let text = std::fs::read_to_string(&csv).unwrap();
        (text, model_path, planted_rows)
    }

    #[test]
    fn emits_one_ndjson_verdict_per_record() {
        let (csv_text, model_path, planted_rows) = trained("stream-basic");
        let n_records = csv_text.lines().count() - 1; // header
        let (code, out) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap()]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), n_records);
        // Every line is valid JSON with the expected shape, indexed in order.
        for (i, line) in lines.iter().enumerate() {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
            assert_eq!(j.get("record").and_then(Json::as_number), Some(i as f64));
            assert!(j.get("outlier").is_some());
            assert!(j.get("score").is_some());
        }
        // The planted outliers are flagged on their own lines.
        let flagged: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("\"outlier\":true"))
            .map(|(i, _)| i)
            .collect();
        assert!(
            planted_rows.iter().any(|r| flagged.contains(r)),
            "planted {planted_rows:?}, flagged {flagged:?}"
        );
        // Flagged records carry the matched projection string.
        let sample = lines[flagged[0]];
        assert!(sample.contains("\"projections\":[\""), "{sample}");
    }

    #[test]
    fn outliers_only_filters_inliers() {
        let (csv_text, model_path, _) = trained("stream-filter");
        let (code, all) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap()]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK);
        let (code, some) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap(), "--outliers-only"]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK);
        assert!(some.lines().count() < all.lines().count());
        assert!(some.lines().all(|l| l.contains("\"outlier\":true")));
    }

    #[test]
    fn drift_report_attaches_on_cadence() {
        let (csv_text, model_path, _) = trained("stream-drift");
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--drift-every",
                "100",
            ]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let with_drift: Vec<usize> = out
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("\"drift\":"))
            .map(|(i, _)| i)
            .collect();
        // 400 records, cadence 100 → checks at records 99, 199, 299, 399.
        assert_eq!(with_drift, vec![99, 199, 299, 399], "{with_drift:?}");
        // Replaying the training data: the equi-depth grid fits, no drift.
        for (_, line) in out.lines().enumerate().filter(|(i, _)| *i == 399) {
            assert!(line.contains("\"drifted\":false"), "{line}");
        }
    }

    #[test]
    fn drifted_stream_is_reported() {
        let (csv_text, model_path, _) = trained("stream-drifted");
        // Shift every value of the first column far into one tail.
        let mut lines = csv_text.lines();
        let header = lines.next().unwrap().to_string();
        let mut shifted = header + "\n";
        for line in lines {
            let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
            fields[0] = "1e6".to_string();
            shifted.push_str(&fields.join(","));
            shifted.push('\n');
        }
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--drift-every",
                "400",
            ]),
            shifted.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let report_line = out
            .lines()
            .find(|l| l.contains("\"drift\":"))
            .expect("cadence fired");
        assert!(report_line.contains("\"drifted\":true"), "{report_line}");
        let j = Json::parse(report_line).unwrap();
        let dims = j
            .get("drift")
            .and_then(|d| d.get("drifted_dims"))
            .and_then(Json::as_array)
            .unwrap();
        assert!(
            dims.iter().any(|d| d.as_number() == Some(0.0)),
            "{report_line}"
        );
    }

    #[test]
    fn metrics_out_writes_parseable_ndjson() {
        let (csv_text, model_path, _) = trained("stream-metrics");
        let metrics_path = model_path.with_extension("metrics.ndjson");
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--metrics-out",
                metrics_path.to_str().unwrap(),
            ]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let snapshot = std::fs::read_to_string(&metrics_path).unwrap();
        let mut names = Vec::new();
        for line in snapshot.lines() {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
            names.push(
                j.get("metric")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string(),
            );
            assert!(j.get("type").is_some(), "{line}");
        }
        // The stream counters show up; totals are process-global, so only
        // assert presence (other in-process tests also stream records).
        assert!(
            names.iter().any(|n| n == "hdoutlier.stream.records"),
            "{names:?}"
        );
        assert!(
            names
                .iter()
                .any(|n| n == "hdoutlier.stream.record_latency_us"),
            "{names:?}"
        );
    }

    #[test]
    fn metrics_out_is_flushed_on_error_exits_too() {
        let (_, model_path, _) = trained("stream-metrics-err");
        let metrics_path = model_path.with_extension("err-metrics.ndjson");
        let _ = std::fs::remove_file(&metrics_path);
        // Default abort policy dies on the malformed line...
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--metrics-out",
                metrics_path.to_str().unwrap(),
            ]),
            "1,2,3\n".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME, "{out}");
        // ...but the snapshot is still written.
        let snapshot = std::fs::read_to_string(&metrics_path).expect("snapshot flushed");
        assert!(snapshot.contains("hdoutlier.stream.records"), "{snapshot}");
    }

    #[test]
    fn missing_values_and_no_header_are_handled() {
        let (_, model_path, _) = trained("stream-missing");
        // Two headerless records with missing markers in several columns.
        let input = "0,0,?,0,NaN,0\n1,1,1,1,1,1\n";
        let (code, out) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap(), "--no-header"]),
            input.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn skip_policy_keeps_scoring_past_bad_lines() {
        let (_, model_path, _) = trained("stream-skip");
        let input = "1,2,3\n0,0,0,0,0,0\n1,2,3,4,5,banana\n1,1,1,1,1,1\n";
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--on-error",
                "skip",
            ]),
            input.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Bad lines 1 and 3 become error verdicts; good records keep a
        // contiguous index.
        let j = Json::parse(lines[0]).unwrap();
        assert_eq!(j.get("line").and_then(Json::as_number), Some(1.0));
        assert_eq!(j.get("action").and_then(Json::as_str), Some("skip"));
        assert!(j.get("error").is_some());
        assert!(lines[1].contains("\"record\":0"), "{}", lines[1]);
        assert!(lines[2].contains("\"action\":\"skip\""), "{}", lines[2]);
        assert!(lines[2].contains("banana"), "{}", lines[2]);
        assert!(lines[3].contains("\"record\":1"), "{}", lines[3]);
    }

    #[test]
    fn circuit_breaker_halts_runaway_garbage() {
        let (_, model_path, _) = trained("stream-breaker");
        let garbage = "x\n".repeat(10);
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--on-error",
                "skip",
                "--max-consecutive-errors",
                "3",
            ]),
            garbage.as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("consecutive"), "{out}");
        // 3 error verdicts got out before the 4th tripped the breaker.
        assert_eq!(
            out.lines().filter(|l| l.starts_with('{')).count(),
            3,
            "{out}"
        );
        // A good record in between resets the count.
        let mixed = "x\nx\nx\n0,0,0,0,0,0\nx\nx\nx\n";
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--no-header",
                "--on-error",
                "skip",
                "--max-consecutive-errors",
                "3",
            ]),
            mixed.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{out}");
        assert_eq!(out.lines().count(), 7);
    }

    #[test]
    fn batch_scoring_output_is_byte_identical_to_record_at_a_time() {
        let (csv_text, model_path, _) = trained("stream-batch");
        let (code, serial) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap()]),
            csv_text.as_bytes(),
        );
        assert_eq!(code, exit::OK, "{serial}");
        assert!(!serial.is_empty());
        // Batch sizes that divide the stream unevenly, several thread counts.
        for (batch, threads) in [("1", "2"), ("7", "2"), ("7", "8"), ("64", "4")] {
            let (code, batched) = super::run_with_input(
                &argv(&[
                    "--model",
                    model_path.to_str().unwrap(),
                    "--batch",
                    batch,
                    "--threads",
                    threads,
                ]),
                csv_text.as_bytes(),
            );
            assert_eq!(code, exit::OK, "{batched}");
            assert_eq!(batched, serial, "--batch {batch} --threads {threads}");
        }
    }

    #[test]
    fn batched_error_verdicts_keep_arrival_order() {
        let (_, model_path, _) = trained("stream-batch-err");
        let input = "1,2,3\n0,0,0,0,0,0\n1,2,3,4,5,banana\n1,1,1,1,1,1\n";
        let base = argv(&[
            "--model",
            model_path.to_str().unwrap(),
            "--no-header",
            "--on-error",
            "skip",
        ]);
        let (code, serial) = super::run_with_input(&base, input.as_bytes());
        assert_eq!(code, exit::OK, "{serial}");
        let mut batched_args = base.clone();
        batched_args.extend(argv(&["--batch", "3", "--threads", "2"]));
        let (code, batched) = super::run_with_input(&batched_args, input.as_bytes());
        assert_eq!(code, exit::OK, "{batched}");
        assert_eq!(batched, serial);
    }

    #[test]
    fn batch_and_threads_reject_zero() {
        let (_, model_path, _) = trained("stream-batch-usage");
        for flag in ["--batch=0", "--threads=0"] {
            let (code, out) = super::run_with_input(
                &argv(&["--model", model_path.to_str().unwrap(), flag]),
                b"" as &[u8],
            );
            assert_eq!(code, exit::USAGE, "{flag}");
            assert!(out.contains("must be >= 1"), "{out}");
        }
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        let (_, model_path, _) = trained("stream-errors");
        // Wrong field count.
        let (code, out) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap(), "--no-header"]),
            "1,2,3\n".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("line 1"), "{out}");
        assert!(out.contains("expected 6 fields"), "{out}");
        // Unparseable number.
        let (code, out) = super::run_with_input(
            &argv(&["--model", model_path.to_str().unwrap(), "--no-header"]),
            "1,2,3,4,5,banana\n".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("banana"), "{out}");
        // Usage errors.
        let (code, out) = super::run_with_input(&argv(&[]), "".as_bytes());
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("--model is required"));
        let (code, out) = super::run_with_input(
            &argv(&["--model", "x.json", "positional.csv"]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("read from stdin"), "{out}");
        let (code, _) =
            super::run_with_input(&argv(&["--model", "/nope/missing.json"]), "".as_bytes());
        assert_eq!(code, exit::RUNTIME);
        // Bad drift flags.
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--drift-alpha",
                "7",
            ]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::USAGE);
        assert!(out.contains("alpha"), "{out}");
        // Bad fault-tolerance flags.
        for bad in [
            vec!["--model", "m.json", "--on-error", "explode"],
            vec!["--model", "m.json", "--on-error", "quarantine:"],
            vec!["--model", "m.json", "--max-consecutive-errors", "0"],
            vec!["--model", "m.json", "--checkpoint-every", "50"],
            vec![
                "--model",
                "m.json",
                "--checkpoint",
                "c.json",
                "--checkpoint-every",
                "0",
            ],
        ] {
            let (code, out) = super::run_with_input(&argv(&bad), "".as_bytes());
            assert_eq!(code, exit::USAGE, "{bad:?}: {out}");
        }
        // Resume from a missing checkpoint is a runtime error.
        let (code, out) = super::run_with_input(
            &argv(&[
                "--model",
                model_path.to_str().unwrap(),
                "--resume",
                "/nope/missing.ckpt",
            ]),
            "".as_bytes(),
        );
        assert_eq!(code, exit::RUNTIME);
        assert!(out.contains("cannot resume"), "{out}");
    }
}
