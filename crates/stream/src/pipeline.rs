//! The per-record loop behind both deployment surfaces: `hdoutlier stream`
//! (CSV lines from stdin) and `hdoutlier serve` (NDJSON arrays posted to a
//! session).
//!
//! A [`Pipeline`] owns everything between a raw input line and a rendered
//! verdict line: the line counter, the blank-line and header skips, the
//! record parser ([`RecordFormat`]), the scorer call, the bad-record
//! [`ErrorPolicy`] with its consecutive-failure breaker and
//! skip/quarantine totals, the quarantine file, and the checkpoint cadence.
//! The front ends only move bytes: they hand a reader to [`Pipeline::run`],
//! receive verdict lines through a [`Sink`], and word a [`Stop`] in their
//! own terms. One loop is what makes a session's verdict stream
//! byte-identical to `hdoutlier stream` over the same records.
//!
//! In steady state the loop allocates nothing of its own: lines are split
//! in place out of the reader's buffer, each record is parsed into one
//! reused row, and each verdict is written into one reused line buffer.
//! The sink may buffer those lines; the pipeline flushes it before every
//! read that may block, so no verdict waits on future input.

use crate::checkpoint::{Checkpoint, CheckpointError, RecoveredFrom};
use crate::ndjson::{projection_labels, write_error, write_verdict};
use crate::scorer::OnlineScorer;
use hdoutlier_data::DataError;
use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_obs as obs;
use std::fs::File;
use std::io::{BufRead, ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Event and span target for the pipeline.
const TARGET: &str = "hdoutlier.stream";

/// How a failed read, or a line that is not UTF-8, is reported. Only the
/// CLI's stdin can fail: a serve session reads a request body in memory.
const READ_FAILED: &str = "stdin read failed";

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

    /// Hands every line emitted so far to the consumer. The pipeline calls
    /// it before each read of its input, before each checkpoint and when a
    /// run ends, so a sink may buffer lines between calls. `Ok(false)` as
    /// for [`Sink::emit`].
    ///
    /// # Errors
    /// As for [`Sink::emit`].
    fn flush(&mut self) -> Result<bool, String>;
}

impl Sink for String {
    fn emit(&mut self, line: &str) -> Result<bool, String> {
        self.push_str(line);
        self.push('\n');
        Ok(true)
    }

    fn flush(&mut self) -> Result<bool, String> {
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
    /// The model's projections, rendered once for [`write_verdict`].
    labels: Vec<String>,
    /// The record being parsed, reused from line to line.
    row: Vec<f64>,
    /// The start of a line cut by the end of a read, carried to the next.
    partial: Vec<u8>,
    /// The verdict line being written, reused from verdict to verdict.
    out: String,
    /// Whether lines were emitted since the sink was last flushed.
    unflushed: bool,
    /// `hdoutlier.stream.*` counters, resolved once so the per-record path
    /// never takes the registry lock.
    skipped_ctr: obs::Counter,
    quarantined_ctr: obs::Counter,
    checkpoints_ctr: obs::Counter,
    flushes_ctr: obs::Counter,
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
            labels: projection_labels(&scorer),
            row: Vec::new(),
            partial: Vec::new(),
            out: String::new(),
            unflushed: false,
            skipped_ctr: registry.counter("hdoutlier.stream.skipped"),
            quarantined_ctr: registry.counter("hdoutlier.stream.quarantined"),
            checkpoints_ctr: registry.counter("hdoutlier.stream.checkpoints"),
            flushes_ctr: registry.counter("hdoutlier.stream.flushes"),
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

    /// Feeds the lines of `input` through the pipeline, writing verdict
    /// lines to `sink` in arrival order. Lines end at `\n` (a `\r` before
    /// it is dropped), and the last one may lack it. A failed read, or a
    /// line that is not UTF-8, is a bad record without raw text whose
    /// reason reads `stdin read failed: <cause>`; a read that fails
    /// mid-line drops the start of that line, and its tail comes back as a
    /// line of its own. Returns `Ok` at the end of the input or when the
    /// sink reports its consumer gone.
    ///
    /// The sink is flushed before every read of `input`, before every
    /// checkpoint, and on every way out, errors included.
    ///
    /// # Errors
    /// The [`Stop`] that ended the run early; the verdicts before it have
    /// been written and flushed.
    pub fn run(&mut self, mut input: impl BufRead, sink: &mut impl Sink) -> Result<(), Stop> {
        let mut partial = std::mem::take(&mut self.partial);
        partial.clear();
        let read = self.read(&mut input, &mut partial, sink);
        self.partial = partial;
        let flushed = self.flush_sink(sink);
        read.and(flushed.map(drop))
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

    /// Splits `input` into lines until it ends or the consumer hangs up.
    /// `partial` holds the start of a line cut by the end of a read.
    fn read(
        &mut self,
        input: &mut impl BufRead,
        partial: &mut Vec<u8>,
        sink: &mut impl Sink,
    ) -> Result<(), Stop> {
        loop {
            // No verdict waits on future input.
            if !self.flush_sink(sink)? {
                return Ok(());
            }
            let chunk = match input.fill_buf() {
                Ok([]) => break,
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // As `BufRead::lines` has it: the cut line is dropped, the
                // failure takes its place, and its tail is a line of its own.
                Err(e) => {
                    partial.clear();
                    self.line_no += 1;
                    if !self.push(Err(format!("{READ_FAILED}: {e}")), sink)? {
                        return Ok(());
                    }
                    continue;
                }
            };
            let len = chunk.len();
            let mut rest = chunk;
            while let Some(end) = line_len(rest) {
                let (line, tail) = rest.split_at(end);
                rest = tail;
                let open = if partial.is_empty() {
                    self.line(line, sink)?
                } else {
                    partial.extend_from_slice(line);
                    let open = self.line(partial, sink)?;
                    partial.clear();
                    open
                };
                if !open {
                    return Ok(());
                }
            }
            partial.extend_from_slice(rest);
            input.consume(len);
        }
        if !partial.is_empty() {
            self.line(partial, sink)?;
        }
        Ok(())
    }

    /// One raw input line, its `\n` or `\r\n` included when it has one.
    /// `Ok(false)` when the consumer hung up.
    fn line(&mut self, raw: &[u8], sink: &mut impl Sink) -> Result<bool, Stop> {
        self.line_no += 1;
        let raw = match raw.strip_suffix(b"\n") {
            Some(raw) => raw.strip_suffix(b"\r").unwrap_or(raw),
            None => raw,
        };
        let text = std::str::from_utf8(raw)
            .map_err(|_| format!("{READ_FAILED}: stream did not contain valid UTF-8"));
        self.push(text, sink)
    }

    /// One decoded input line, or the reason it could not be read: parses
    /// and scores the record, emits its verdict, and checkpoints on the
    /// cadence. `Ok(false)` when the consumer hung up.
    fn push(&mut self, line: Result<&str, String>, sink: &mut impl Sink) -> Result<bool, Stop> {
        let text = match line {
            Ok(text) => text,
            Err(reason) => return self.bad_record(reason, None, sink),
        };
        if text.trim().is_empty() {
            return Ok(true);
        }
        if self.header_pending {
            self.header_pending = false;
            return Ok(true);
        }
        let parsed = match self.settings.format {
            RecordFormat::Csv { delimiter, .. } => {
                parse_row(text, delimiter, &self.missing, self.n_dims, &mut self.row)
            }
            RecordFormat::Ndjson => parse_record_line(text, self.n_dims, &mut self.row),
        };
        if let Err(reason) = parsed {
            return self.bad_record(reason, Some(text), sink);
        }
        let scored = {
            let _span = obs::span(obs::Level::Trace, TARGET, "score_record");
            self.scorer.score_record(&self.row)
        };
        let verdict = match scored {
            Ok(verdict) => verdict,
            Err(e) => return self.bad_record(e.to_string(), Some(text), sink),
        };
        self.consecutive_errors = 0;
        if !(self.settings.outliers_only && !verdict.outlier && verdict.drift.is_none()) {
            self.out.clear();
            write_verdict(&mut self.out, &verdict, &self.labels);
            if !self.emit(sink)? {
                return Ok(false);
            }
        }
        if self.settings.checkpoint.is_some()
            && self
                .scorer
                .records_scored()
                .is_multiple_of(self.settings.checkpoint_every)
        {
            // No checkpoint covers a verdict the consumer has not been sent.
            if !self.flush_sink(sink)? {
                return Ok(false);
            }
            self.checkpoint().map_err(Stop::Fatal)?;
        }
        Ok(true)
    }

    /// Emits the line in `out`.
    fn emit(&mut self, sink: &mut impl Sink) -> Result<bool, Stop> {
        self.unflushed = true;
        sink.emit(&self.out).map_err(Stop::Fatal)
    }

    /// Flushes the sink when lines were emitted since the last flush.
    fn flush_sink(&mut self, sink: &mut impl Sink) -> Result<bool, Stop> {
        if !self.unflushed {
            return Ok(true);
        }
        self.unflushed = false;
        self.flushes_ctr.inc();
        sink.flush().map_err(Stop::Fatal)
    }

    /// The skip/quarantine/abort ladder for the bad record on the line just
    /// read; `raw` is `None` for a failed read.
    fn bad_record(
        &mut self,
        reason: String,
        raw: Option<&str>,
        sink: &mut impl Sink,
    ) -> Result<bool, Stop> {
        let line = self.line_no;
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
        self.out.clear();
        write_error(&mut self.out, line, &reason, action);
        self.emit(sink)
    }
}

/// The length of `bytes` through its first `\n`; `None` when there is
/// none.
fn line_len(bytes: &[u8]) -> Option<usize> {
    // `BufRead` on a slice looks for the byte with the platform's
    // `memchr`, several times faster than a byte-at-a-time search.
    let mut unread = bytes;
    let len = unread
        .skip_until(b'\n')
        .expect("reading a slice cannot fail");
    bytes[..len].ends_with(b"\n").then_some(len)
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

/// Splits one CSV line into `n_dims` numbers in `row` (missing markers
/// become NaN).
///
/// The fields are parsed as the tokenizer yields them, so a well-formed
/// line allocates nothing once `row` has grown to `n_dims`. Errors keep
/// their precedence: malformed CSV anywhere in the line, then anything but
/// one record, then the field count, then the first field that is not a
/// number.
fn parse_row(
    line: &str,
    delimiter: char,
    missing: &[String],
    n_dims: usize,
    row: &mut Vec<f64>,
) -> Result<(), String> {
    let malformed = |e| format!("malformed CSV: {e}");
    let mut tokens = hdoutlier_data::csv::Tokenizer::new(line, delimiter);
    row.clear();
    let mut unparsable = None;
    let fields = tokens
        .next_record(|j, f| {
            if j >= n_dims || unparsable.is_some() {
                return;
            }
            match hdoutlier_data::csv::parse_field(f, missing) {
                Ok(v) => row.push(v),
                Err(f) => unparsable = Some(format!("cannot parse {f:?} as a number")),
            }
        })
        .map_err(malformed)?;
    let mut more = false;
    while tokens.next_record(|_, _| {}).map_err(malformed)?.is_some() {
        more = true;
    }
    let fields = match fields {
        Some(n) if !more => n,
        _ => return Err("expected exactly one record".to_string()),
    };
    check_arity(fields, n_dims)?;
    match unparsable {
        Some(reason) => Err(reason),
        None => Ok(()),
    }
}

/// Parses one NDJSON record line into `row` — a JSON array of `n_dims`
/// numbers, with `null` standing for a missing value (NaN), mirroring the
/// CSV reader's missing markers.
fn parse_record_line(line: &str, n_dims: usize, row: &mut Vec<f64>) -> Result<(), String> {
    let json = Json::parse(line).map_err(|e| format!("malformed record: {e}"))?;
    let fields = json
        .as_array()
        .ok_or("record must be a JSON array of numbers")?;
    check_arity(fields.len(), n_dims)?;
    row.clear();
    for f in fields {
        row.push(match f {
            Json::Null => f64::NAN,
            other => other
                .as_number()
                .ok_or_else(|| format!("record fields must be numbers or null, got {other:?}"))?,
        });
    }
    Ok(())
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
    use hdoutlier_rng::rngs::StdRng;
    use hdoutlier_rng::{for_each_case, Rng};

    fn parse_row(
        line: &str,
        delimiter: char,
        missing: &[String],
        n: usize,
    ) -> Result<Vec<f64>, String> {
        let mut row = vec![f64::NAN; 3];
        super::parse_row(line, delimiter, missing, n, &mut row).map(|()| row)
    }

    fn parse_record_line(line: &str, n_dims: usize) -> Result<Vec<f64>, String> {
        let mut row = vec![f64::NAN; 3];
        super::parse_record_line(line, n_dims, &mut row).map(|()| row)
    }

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

    /// A line of fewer than 80 characters that mean something to the CSV
    /// and JSON readers, plus a NUL and multi-byte characters: `©` and the
    /// no-break space share the `§` delimiter's first byte, and the
    /// no-break and ideographic spaces are whitespace to `str::trim`.
    fn hostile_line(rng: &mut StdRng) -> String {
        let alphabet: Vec<char> =
            ",;\"[]{} \t\r-+.e019nulif?NA\u{e9}\u{0}\u{1F600}§©\u{a0}\u{3000}"
                .chars()
                .collect();
        let len = rng.gen_range(0..80);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    /// `n` comma-separated numbers (or missing markers), as CSV and as an
    /// NDJSON array.
    fn record(rng: &mut StdRng, n: usize) -> (String, String) {
        let fields: Vec<(String, String)> = (0..n)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    ("?".into(), "null".into())
                } else {
                    let v = rng.gen_range(-1e6f64..1e6).to_string();
                    (v.clone(), v)
                }
            })
            .collect();
        let csv: Vec<&str> = fields.iter().map(|(c, _)| c.as_str()).collect();
        let json: Vec<&str> = fields.iter().map(|(_, j)| j.as_str()).collect();
        (csv.join(","), format!("[{}]", json.join(",")))
    }

    /// The reference for `parse_row`: the whole line collected as string
    /// records by `parse_records`, then checked and converted.
    fn reference_parse_row(line: &str, delimiter: char, n_dims: usize) -> Result<Vec<f64>, String> {
        let records = hdoutlier_data::csv::parse_records(line, delimiter)
            .map_err(|e| format!("malformed CSV: {e}"))?;
        let fields = match records.as_slice() {
            [one] => one,
            _ => return Err("expected exactly one record".to_string()),
        };
        super::check_arity(fields.len(), n_dims)?;
        fields
            .iter()
            .map(|f| {
                let f = f.trim();
                if markers().iter().any(|m| m == f) {
                    Ok(f64::NAN)
                } else {
                    f.parse::<f64>()
                        .map_err(|_| format!("cannot parse {f:?} as a number"))
                }
            })
            .collect()
    }

    #[test]
    fn parsers_never_panic_on_random_lines() {
        // 20 KB of `[`: deep enough to overflow the stack of a parser that
        // recursed without a depth limit.
        let err = parse_record_line(&"[".repeat(20_000), 3).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // A literal beyond the f64 range is refused, not read as infinity.
        let err = parse_record_line("[9e999, 1]", 2).unwrap_err();
        assert!(err.contains("number out of range"), "{err}");
        for_each_case(0x9a25_0001, 256, |rng| {
            let line = hostile_line(rng);
            let n_dims = rng.gen_range(1..6);
            for delimiter in [',', ';', '§'] {
                let got = parse_row(&line, delimiter, &markers(), n_dims);
                let want = reference_parse_row(&line, delimiter, n_dims);
                match (&got, &want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.len(), n_dims, "{line:?}");
                        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(want), "{line:?}");
                    }
                    _ => assert_eq!(got.err(), want.err(), "{line:?}"),
                }
            }
            if let Ok(row) = parse_record_line(&line, n_dims) {
                assert_eq!(row.len(), n_dims, "{line:?}");
            }
        });
    }

    #[test]
    fn parsers_accept_the_right_arity_and_reject_every_other() {
        for_each_case(0x9a25_0002, 256, |rng| {
            let n_dims = rng.gen_range(1..8);
            let n = rng.gen_range(1..10);
            let (csv, json) = record(rng, n);
            let csv_row = parse_row(&csv, ',', &markers(), n_dims);
            let json_row = parse_record_line(&json, n_dims);
            if n == n_dims {
                let (csv_row, json_row) = (csv_row.unwrap(), json_row.unwrap());
                assert_eq!(csv_row.len(), n_dims);
                // Both readers agree value for value, missing for missing.
                for (a, b) in csv_row.iter().zip(&json_row) {
                    assert!(a == b || (a.is_nan() && b.is_nan()), "{csv:?} vs {json:?}");
                }
            } else {
                let want =
                    format!("expected {n_dims} fields (the model's dimensionality), got {n}");
                assert_eq!(csv_row.unwrap_err(), want, "{csv:?}");
                assert_eq!(json_row.unwrap_err(), want, "{json:?}");
            }
        });
    }
}
