//! The per-record loop behind both deployment surfaces: `hdoutlier stream`
//! (CSV lines from stdin) and `hdoutlier serve` (NDJSON arrays posted to a
//! session).
//!
//! A [`Pipeline`] owns everything between a raw input line and a rendered
//! verdict line: the line counter, the blank-line and header skips, the
//! record parser ([`RecordFormat`]), the order-preserving batch buffer, the
//! bad-record [`ErrorPolicy`] with its consecutive-failure breaker and
//! skip/quarantine totals, the quarantine file, and the checkpoint cadence.
//! The front ends only move bytes: they hand lines to [`Pipeline::run`],
//! receive verdict lines through a [`Sink`], and word a [`Stop`] in their
//! own terms. One loop is what makes a session's verdict stream
//! byte-identical to `hdoutlier stream` over the same records.

use crate::checkpoint::{Checkpoint, CheckpointError, RecoveredFrom};
use crate::ndjson::{error_json, verdict_json};
use crate::scorer::{OnlineScorer, Verdict};
use hdoutlier_data::DataError;
use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_obs as obs;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Event and span target for the pipeline.
const TARGET: &str = "hdoutlier.stream";

/// What to do with a record that cannot be parsed or scored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Stop on the first bad record (the default).
    Abort,
    /// Emit an NDJSON error verdict and keep scoring.
    Skip,
    /// Like skip, and also append the raw line to the file at this path.
    Quarantine(String),
}

impl ErrorPolicy {
    /// Parses a policy spec: `abort`, `skip` or `quarantine:<path>`.
    ///
    /// # Errors
    /// `must be abort|skip|quarantine:<path>, got "<spec>"`; callers
    /// prefix the name of the flag or field that carried it.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "abort" => Ok(ErrorPolicy::Abort),
            "skip" => Ok(ErrorPolicy::Skip),
            other => match other.strip_prefix("quarantine:") {
                Some(path) if !path.is_empty() => Ok(ErrorPolicy::Quarantine(path.to_string())),
                _ => Err(format!(
                    "must be abort|skip|quarantine:<path>, got {spec:?}"
                )),
            },
        }
    }

    /// The `action` string written into error verdicts.
    pub fn action(&self) -> &'static str {
        match self {
            ErrorPolicy::Abort => "abort",
            ErrorPolicy::Skip => "skip",
            ErrorPolicy::Quarantine(_) => "quarantine",
        }
    }
}

/// How input lines encode records.
#[derive(Debug, Clone)]
pub enum RecordFormat {
    /// CSV lines split on `delimiter`, the default missing markers read as
    /// NaN; `header` skips the first non-blank line.
    Csv {
        /// Field separator.
        delimiter: char,
        /// Whether the first non-blank line holds column names.
        header: bool,
    },
    /// One JSON array of numbers per line, `null` standing for missing.
    Ndjson,
}

/// Everything a pipeline is configured with.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input line encoding.
    pub format: RecordFormat,
    /// Records per pooled `score_batch` call (`1` = record-at-a-time).
    pub batch: usize,
    /// Pool workers for batched scoring.
    pub threads: usize,
    /// Emit only outlier (and cadence-drift) verdicts.
    pub outliers_only: bool,
    /// Bad-record policy.
    pub policy: ErrorPolicy,
    /// Consecutive bad records tolerated before the breaker stops the run.
    pub max_consecutive: u64,
    /// Checkpoint file, when state is persisted.
    pub checkpoint: Option<PathBuf>,
    /// Records between automatic checkpoints.
    pub checkpoint_every: u64,
    /// Drift-test significance override, applied after any resume.
    pub drift_alpha: Option<f64>,
    /// Drift-check cadence override, applied after any resume.
    pub drift_every: Option<u64>,
}

/// Where verdict lines go.
pub trait Sink {
    /// Writes one verdict line (without its newline). `Ok(false)` means the
    /// consumer has gone away: stop reading, which is not an error.
    ///
    /// # Errors
    /// A message naming the failed write; it ends the run as
    /// [`Stop::Fatal`].
    fn emit(&mut self, line: &str) -> Result<bool, String>;
}

impl Sink for String {
    fn emit(&mut self, line: &str) -> Result<bool, String> {
        self.push_str(line);
        self.push('\n');
        Ok(true)
    }
}

/// Why [`Pipeline::run`] stopped before the end of its input. Each front
/// end words the first two in its own terms.
#[derive(Debug)]
pub enum Stop {
    /// The abort policy met a bad record.
    Abort {
        /// Input line of the bad record.
        line: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A run of bad records exceeded [`Settings::max_consecutive`].
    Breaker {
        /// Input line of the record that tripped the breaker.
        line: u64,
        /// What was wrong with it.
        reason: String,
        /// Consecutive bad records, that one included.
        count: u64,
        /// The configured limit.
        limit: u64,
    },
    /// An environmental failure: a verdict, quarantine or checkpoint write.
    Fatal(String),
}

/// Why [`Pipeline::open`] failed.
#[derive(Debug)]
pub enum OpenError {
    /// Neither checkpoint generation could be read.
    Load(CheckpointError),
    /// The checkpoint does not fit the model.
    Restore(CheckpointError),
    /// A drift override is out of range.
    Drift(DataError),
    /// The quarantine file cannot be opened.
    Quarantine(String),
}

/// The scoring loop over one record stream.
pub struct Pipeline {
    scorer: OnlineScorer,
    settings: Settings,
    n_dims: usize,
    missing: Vec<String>,
    header_pending: bool,
    /// 1-based number of the last line read.
    line_no: u64,
    consecutive_errors: u64,
    skipped: u64,
    quarantined: u64,
    quarantine: Option<File>,
    /// Line number and raw text of each record in `rows`.
    pending: Vec<(u64, String)>,
    /// Parsed records waiting for one pooled `score_batch` call (only ever
    /// non-empty when `batch > 1`).
    rows: Vec<Vec<f64>>,
    /// `hdoutlier.stream.*` counters, resolved once so the per-record path
    /// never takes the registry lock.
    skipped_ctr: obs::Counter,
    quarantined_ctr: obs::Counter,
    checkpoints_ctr: obs::Counter,
}

impl Pipeline {
    /// Builds a pipeline around `scorer`: restores `resume` when given
    /// (with the `.prev` fallback of [`Checkpoint::load_with_recovery`]),
    /// then applies the drift overrides, so an explicit setting beats the
    /// checkpointed one, then opens the quarantine file, so a bad path
    /// fails before any record is consumed. Returns which checkpoint
    /// generation was restored.
    ///
    /// # Errors
    /// [`OpenError`] naming the step that failed.
    pub fn open(
        mut scorer: OnlineScorer,
        settings: Settings,
        resume: Option<&Path>,
    ) -> Result<(Pipeline, Option<RecoveredFrom>), OpenError> {
        let (mut skipped, mut quarantined, mut recovered) = (0, 0, None);
        if let Some(path) = resume {
            let (cp, from) = Checkpoint::load_with_recovery(path).map_err(OpenError::Load)?;
            if let RecoveredFrom::Previous { quarantined } = &from {
                obs::event(
                    obs::Level::Warn,
                    TARGET,
                    "checkpoint_recovered",
                    &[
                        ("from", obs::Value::Str("prev")),
                        ("quarantined", obs::Value::Bool(quarantined.is_some())),
                    ],
                );
            }
            cp.restore(&mut scorer).map_err(OpenError::Restore)?;
            skipped = cp.skipped;
            quarantined = cp.quarantined;
            recovered = Some(from);
            obs::event(
                obs::Level::Info,
                TARGET,
                "resumed",
                &[
                    ("record", obs::Value::U64(cp.records_scored)),
                    ("skipped", obs::Value::U64(cp.skipped)),
                    ("quarantined", obs::Value::U64(cp.quarantined)),
                ],
            );
        }
        if let Some(alpha) = settings.drift_alpha {
            scorer.set_drift_alpha(alpha).map_err(OpenError::Drift)?;
        }
        if let Some(every) = settings.drift_every {
            scorer.set_check_every(every).map_err(OpenError::Drift)?;
        }
        // Appends, so restarts accumulate evidence.
        let quarantine = match &settings.policy {
            ErrorPolicy::Quarantine(path) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| {
                        OpenError::Quarantine(format!("cannot open quarantine file {path}: {e}"))
                    })?,
            ),
            _ => None,
        };
        let registry = obs::registry();
        let pipeline = Pipeline {
            n_dims: scorer.model().grid().n_dims(),
            missing: hdoutlier_data::csv::CsvOptions::default().missing_markers,
            header_pending: matches!(settings.format, RecordFormat::Csv { header: true, .. }),
            line_no: 0,
            consecutive_errors: 0,
            skipped,
            quarantined,
            quarantine,
            pending: Vec::new(),
            rows: Vec::with_capacity(settings.batch),
            skipped_ctr: registry.counter("hdoutlier.stream.skipped"),
            quarantined_ctr: registry.counter("hdoutlier.stream.quarantined"),
            checkpoints_ctr: registry.counter("hdoutlier.stream.checkpoints"),
            scorer,
            settings,
        };
        Ok((pipeline, recovered))
    }

    /// The wrapped scorer.
    pub fn scorer(&self) -> &OnlineScorer {
        &self.scorer
    }

    /// The settings the pipeline was opened with.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// Bad records skipped so far (checkpointed totals included).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Bad records quarantined so far (checkpointed totals included).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Number of the last line read (`0` before any).
    pub fn line_no(&self) -> u64 {
        self.line_no
    }

    /// Continues line numbering after `line_no`, for a caller whose input
    /// carries on from an earlier run.
    pub fn set_line_no(&mut self, line_no: u64) {
        self.line_no = line_no;
    }

    /// Feeds `lines` through the pipeline, writing verdict lines to `sink`
    /// in arrival order, and scores any partial batch at the end. An `Err`
    /// item is a failed read: a bad record without raw text, the message
    /// its reason. Returns `Ok` at the end of the input or when the sink
    /// reports its consumer gone.
    ///
    /// # Errors
    /// The [`Stop`] that ended the run early; the verdicts before it have
    /// been written.
    pub fn run<L: AsRef<str> + Into<String>>(
        &mut self,
        lines: impl IntoIterator<Item = Result<L, String>>,
        sink: &mut impl Sink,
    ) -> Result<(), Stop> {
        for line in lines {
            self.line_no += 1;
            if !self.push(line, sink)? {
                break;
            }
        }
        // Also after a hang-up: the records were accepted and belong in
        // the scorer state a checkpoint captures.
        self.flush(sink).map(drop)
    }

    /// Writes a checkpoint now. `Ok(None)` when none is configured.
    ///
    /// # Errors
    /// `failed to checkpoint to <path>: <cause>`.
    pub fn checkpoint(&self) -> Result<Option<&Path>, String> {
        let Some(path) = self.settings.checkpoint.as_deref() else {
            return Ok(None);
        };
        Checkpoint::capture(&self.scorer, self.skipped, self.quarantined)
            .save_atomic(path)
            .map_err(|e| format!("failed to checkpoint to {}: {e}", path.display()))?;
        self.checkpoints_ctr.inc();
        Ok(Some(path))
    }

    /// One input line. `Ok(false)` when the consumer hung up.
    fn push<L: AsRef<str> + Into<String>>(
        &mut self,
        line: Result<L, String>,
        sink: &mut impl Sink,
    ) -> Result<bool, Stop> {
        let line = match line {
            Ok(line) => line,
            // Drain buffered records first so the error verdict lands at
            // its arrival position in the output.
            Err(reason) => {
                return Ok(self.flush(sink)? && self.bad_record(self.line_no, reason, None, sink)?)
            }
        };
        let text = line.as_ref();
        if text.trim().is_empty() {
            return Ok(true);
        }
        if self.header_pending {
            self.header_pending = false;
            return Ok(true);
        }
        let parsed = match self.settings.format {
            RecordFormat::Csv { delimiter, .. } => {
                parse_row(text, delimiter, &self.missing, self.n_dims)
            }
            RecordFormat::Ndjson => parse_record_line(text, self.n_dims),
        };
        let row = match parsed {
            Ok(row) => row,
            Err(reason) => {
                return Ok(
                    self.flush(sink)? && self.bad_record(self.line_no, reason, Some(text), sink)?
                )
            }
        };
        if self.settings.batch > 1 {
            self.pending.push((self.line_no, line.into()));
            self.rows.push(row);
            return if self.rows.len() >= self.settings.batch {
                self.flush(sink)
            } else {
                Ok(true)
            };
        }
        let result = {
            let _span = obs::span(obs::Level::Trace, TARGET, "score_record");
            self.scorer.score_record(&row)
        };
        self.settle(self.line_no, result, text, sink)
    }

    /// Scores the buffered records with one pooled call, then settles them
    /// in arrival order. `Ok(false)` when the consumer hung up; the rest of
    /// the batch is then dropped unsettled.
    fn flush(&mut self, sink: &mut impl Sink) -> Result<bool, Stop> {
        if self.rows.is_empty() {
            return Ok(true);
        }
        let results = {
            let _span = obs::span(obs::Level::Trace, TARGET, "score_batch");
            self.scorer.score_batch(&self.rows, self.settings.threads)
        };
        self.rows.clear();
        let mut pending = std::mem::take(&mut self.pending);
        let mut open = true;
        for ((line, raw), result) in pending.drain(..).zip(results) {
            open = self.settle(line, result, &raw, sink)?;
            if !open {
                break;
            }
        }
        self.pending = pending;
        Ok(open)
    }

    /// Emits the verdict of the record read at `line`, or runs the policy
    /// ladder on its scoring error.
    fn settle(
        &mut self,
        line: u64,
        result: Result<Verdict, DataError>,
        raw: &str,
        sink: &mut impl Sink,
    ) -> Result<bool, Stop> {
        let verdict = match result {
            Ok(verdict) => verdict,
            Err(e) => return self.bad_record(line, e.to_string(), Some(raw), sink),
        };
        self.consecutive_errors = 0;
        if !(self.settings.outliers_only && !verdict.outlier && verdict.drift.is_none()) {
            let rendered = verdict_json(&verdict, &self.scorer)
                .map_err(|e| Stop::Fatal(format!("line {line}: {e}")))?
                .render();
            if !sink.emit(&rendered).map_err(Stop::Fatal)? {
                return Ok(false);
            }
        }
        if self.settings.checkpoint.is_some()
            && self
                .scorer
                .records_scored()
                .is_multiple_of(self.settings.checkpoint_every)
        {
            self.checkpoint().map_err(Stop::Fatal)?;
        }
        Ok(true)
    }

    /// The skip/quarantine/abort ladder for the bad record read at `line`;
    /// `raw` is `None` for a failed read.
    fn bad_record(
        &mut self,
        line: u64,
        reason: String,
        raw: Option<&str>,
        sink: &mut impl Sink,
    ) -> Result<bool, Stop> {
        self.consecutive_errors += 1;
        if self.settings.policy == ErrorPolicy::Abort {
            return Err(Stop::Abort { line, reason });
        }
        if self.consecutive_errors > self.settings.max_consecutive {
            return Err(Stop::Breaker {
                line,
                reason,
                count: self.consecutive_errors,
                limit: self.settings.max_consecutive,
            });
        }
        let action = self.settings.policy.action();
        obs::event(
            obs::Level::Warn,
            TARGET,
            "record_error",
            &[
                ("line", obs::Value::U64(line)),
                ("action", obs::Value::Str(action)),
            ],
        );
        if let (Some(file), ErrorPolicy::Quarantine(path)) =
            (&mut self.quarantine, &self.settings.policy)
        {
            if let Some(raw) = raw {
                // Under a request context (serve) each entry is a JSON
                // envelope naming the request that carried the line;
                // without one (the CLI) it is the raw line, so the file
                // stays replayable as-is.
                let written = match obs::current_request_ctx() {
                    None => writeln!(file, "{raw}"),
                    Some(ctx) => {
                        let entry = quarantine_envelope(&ctx, line, raw)
                            .map_err(|e| Stop::Fatal(format!("line {line}: {e}")))?;
                        writeln!(file, "{entry}")
                    }
                };
                written.map_err(|e| {
                    Stop::Fatal(format!("failed to quarantine line {line} to {path}: {e}"))
                })?;
            }
            self.quarantined_ctr.inc();
            self.quarantined += 1;
        } else {
            self.skipped_ctr.inc();
            self.skipped += 1;
        }
        let rendered = error_json(line as usize, &reason, action)
            .map_err(|e| Stop::Fatal(format!("line {line}: {e}")))?
            .render();
        sink.emit(&rendered).map_err(Stop::Fatal)
    }
}

/// The quarantine entry under a request context: the raw record plus the
/// request identity that delivered it, so a bad line in a quarantine file
/// can be traced back through the access log.
fn quarantine_envelope(
    ctx: &obs::RequestCtx,
    line_no: u64,
    raw: &str,
) -> Result<String, JsonError> {
    Ok(Json::object()
        .field("request_id", ctx.request_id())
        .field(
            "session_id",
            ctx.session_id()
                .map_or(Json::Null, |s| Json::String(s.to_string())),
        )
        .field("line", line_no)
        .field("raw", raw)?
        .render())
}

/// Splits one CSV line into `n_dims` numbers (missing markers become NaN).
fn parse_row(
    line: &str,
    delimiter: char,
    missing: &[String],
    n_dims: usize,
) -> Result<Vec<f64>, String> {
    let records = hdoutlier_data::csv::parse_records(line, delimiter)
        .map_err(|e| format!("malformed CSV: {e}"))?;
    let fields = match records.as_slice() {
        [one] => one,
        _ => return Err("expected exactly one record".to_string()),
    };
    check_arity(fields.len(), n_dims)?;
    fields
        .iter()
        .map(|f| {
            let f = f.trim();
            if missing.iter().any(|m| m == f) {
                Ok(f64::NAN)
            } else {
                f.parse::<f64>()
                    .map_err(|_| format!("cannot parse {f:?} as a number"))
            }
        })
        .collect()
}

/// Parses one NDJSON record line — a JSON array of `n_dims` numbers, with
/// `null` standing for a missing value (NaN), mirroring the CSV reader's
/// missing markers.
fn parse_record_line(line: &str, n_dims: usize) -> Result<Vec<f64>, String> {
    let json = Json::parse(line).map_err(|e| format!("malformed record: {e}"))?;
    let fields = json
        .as_array()
        .ok_or("record must be a JSON array of numbers")?;
    check_arity(fields.len(), n_dims)?;
    fields
        .iter()
        .map(|f| match f {
            Json::Null => Ok(f64::NAN),
            other => other
                .as_number()
                .ok_or_else(|| format!("record fields must be numbers or null, got {other:?}")),
        })
        .collect()
}

/// The one wrong-arity message both parsers give.
fn check_arity(fields: usize, n_dims: usize) -> Result<(), String> {
    if fields == n_dims {
        return Ok(());
    }
    Err(format!(
        "expected {n_dims} fields (the model's dimensionality), got {fields}"
    ))
}

#[cfg(test)]
mod tests {
    use super::parse_row;

    fn markers() -> Vec<String> {
        hdoutlier_data::csv::CsvOptions::default().missing_markers
    }

    #[test]
    fn parse_row_missing_markers_tolerate_surrounding_whitespace() {
        let row = parse_row(" ? , NA ,  NaN , 1.5", ',', &markers(), 4).unwrap();
        assert!(row[0].is_nan());
        assert!(row[1].is_nan());
        assert!(row[2].is_nan());
        assert_eq!(row[3], 1.5);
        // An entirely blank field is the empty-string marker after trimming.
        let row = parse_row("1,   ,3", ',', &markers(), 3).unwrap();
        assert!(row[1].is_nan());
    }

    #[test]
    fn parse_row_wrong_delimiter_is_a_field_count_error() {
        // Semicolon data split on commas collapses into one un-parseable
        // field — report the count mismatch, not a panic.
        let err = parse_row("1;2;3", ',', &markers(), 3).unwrap_err();
        assert!(err.contains("expected 3 fields"), "{err}");
        // The right delimiter parses.
        let row = parse_row("1;2;3", ';', &markers(), 3).unwrap();
        assert_eq!(row, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parse_row_field_count_mismatches() {
        let err = parse_row("1,2", ',', &markers(), 3).unwrap_err();
        assert!(err.contains("expected 3 fields"), "{err}");
        assert!(err.contains("got 2"), "{err}");
        let err = parse_row("1,2,3,4", ',', &markers(), 3).unwrap_err();
        assert!(err.contains("got 4"), "{err}");
    }

    #[test]
    fn parse_row_quoted_fields_and_utf8() {
        // Quoted numeric fields parse; quoted text (UTF-8 included) is a
        // per-field error naming the offending content.
        let row = parse_row("\"1.5\",2", ',', &markers(), 2).unwrap();
        assert_eq!(row, vec![1.5, 2.0]);
        let err = parse_row("\"héllo, wörld\",2", ',', &markers(), 2).unwrap_err();
        assert!(err.contains("héllo, wörld"), "{err}");
        // A quoted missing marker still reads as missing.
        let row = parse_row("\"?\",2", ',', &markers(), 2).unwrap();
        assert!(row[0].is_nan());
        // An unterminated quote is malformed CSV, not a panic.
        let err = parse_row("\"1,2", ',', &markers(), 2).unwrap_err();
        assert!(err.contains("malformed CSV"), "{err}");
    }

    #[test]
    fn parse_row_inf_and_nan_literals() {
        // Rust's f64 parser accepts inf/-inf/infinity case-insensitively;
        // they flow through as infinities (the grid clamps them to the
        // outermost ranges), while NaN spellings hit the missing-marker
        // list first and become missing.
        let row = parse_row("inf,-inf,Infinity", ',', &markers(), 3).unwrap();
        assert_eq!(row[0], f64::INFINITY);
        assert_eq!(row[1], f64::NEG_INFINITY);
        assert_eq!(row[2], f64::INFINITY);
        let row = parse_row("NaN,nan", ',', &markers(), 2).unwrap();
        assert!(row[0].is_nan()); // marker
        assert!(row[1].is_nan()); // f64 parse of "nan"
    }
}
