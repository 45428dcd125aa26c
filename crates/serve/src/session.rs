//! One scoring session: an id, a record pipeline, its replay cache and
//! its status document.
//!
//! Everything between a posted record line and its verdict line — parsing,
//! scoring, the error policy and its consecutive-failure breaker, skip and
//! quarantine totals, the checkpoint cadence — is the
//! [`hdoutlier_stream::Pipeline`] that `hdoutlier stream` also runs, so a
//! session's verdict stream is byte-identical to `hdoutlier stream` over
//! the same records. The session adds only what is specific to serving:
//! NDJSON input, line numbers that continue across requests and restarts,
//! the trip state, and request idempotency. Nothing here is shared between
//! sessions — a tripped breaker, a drifted grid, or a checkpoint failure in
//! one session is invisible to every other.

use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_stream::checkpoint::prev_path;
use hdoutlier_stream::{
    CheckpointError, ErrorPolicy, OnlineScorer, OpenError, Pipeline, RecordFormat, Settings, Stop,
};
use std::collections::VecDeque;
use std::path::Path;

/// Validated configuration for one session, parsed from the
/// `POST /sessions` body by [`SessionConfig::from_json`].
pub struct SessionConfig {
    /// Session identifier (path segment, checkpoint filename stem).
    pub id: String,
    /// The fitted model this session scores against.
    pub model: hdoutlier_core::FittedModel,
    /// The record pipeline's settings. The checkpoint path is filled in by
    /// [`Session::create`] from the server's checkpoint directory.
    pub settings: Settings,
    /// Restore state from an existing checkpoint file when one is present.
    pub resume: bool,
}

impl SessionConfig {
    /// Parses and validates a `POST /sessions` body. `default_id` is used
    /// when the body does not name the session; `read_model_path` loads
    /// `model_path` references (injected so tests can run hermetically).
    pub fn from_json(
        body: &Json,
        default_id: String,
        read_model_path: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<Self, String> {
        let id = match body.get("id") {
            None => default_id,
            Some(j) => j
                .as_str()
                .map(str::to_string)
                .ok_or("id must be a string")?,
        };
        if id.is_empty()
            || id.len() > 64
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "id must be 1-64 characters of [A-Za-z0-9_-], got {id:?}"
            ));
        }
        let model = match (body.get("model"), body.get("model_path")) {
            (Some(inline), None) => {
                hdoutlier_stream::model_io::from_json(inline).map_err(|e| format!("model: {e}"))?
            }
            (None, Some(path)) => {
                let path = path.as_str().ok_or("model_path must be a string")?;
                let text = read_model_path(path)?;
                hdoutlier_stream::model_io::from_json_text(&text)
                    .map_err(|e| format!("model_path {path}: {e}"))?
            }
            (Some(_), Some(_)) => return Err("give model or model_path, not both".into()),
            (None, None) => return Err("a model is required (model or model_path)".into()),
        };
        let number = |key: &str| -> Result<Option<f64>, String> {
            match body.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_number()
                    .map(Some)
                    .ok_or(format!("{key} must be a number")),
            }
        };
        let count = |key: &str| -> Result<Option<u64>, String> {
            match number(key)? {
                None => Ok(None),
                Some(v) if v >= 1.0 && v.fract() == 0.0 => Ok(Some(v as u64)),
                Some(v) => Err(format!("{key} must be a positive integer, got {v}")),
            }
        };
        let flag = |key: &str| -> Result<bool, String> {
            match body.get(key) {
                None => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("{key} must be a boolean")),
            }
        };
        let policy = match body.get("on_error") {
            None => ErrorPolicy::Abort,
            Some(j) => ErrorPolicy::parse(j.as_str().ok_or("on_error must be a string")?)
                .map_err(|e| format!("on_error {e}"))?,
        };
        Ok(SessionConfig {
            id,
            model,
            settings: Settings {
                format: RecordFormat::Ndjson,
                outliers_only: flag("outliers_only")?,
                policy,
                max_consecutive: count("max_consecutive_errors")?.unwrap_or(100),
                checkpoint: None,
                checkpoint_every: count("checkpoint_every")?.unwrap_or(1000),
                drift_alpha: number("drift_alpha")?,
                drift_every: count("drift_every")?,
            },
            resume: flag("resume")?,
        })
    }
}

/// Why creating a session failed, mapped to an HTTP status by the router.
#[derive(Debug)]
pub enum CreateError {
    /// The configuration is invalid (`400`).
    Config(String),
    /// A checkpoint exists but does not fit the model (`409`).
    Resume(String),
    /// Filesystem failure reading state (`500`).
    Io(String),
}

impl std::fmt::Display for CreateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreateError::Config(m) | CreateError::Resume(m) | CreateError::Io(m) => {
                write!(f, "{m}")
            }
        }
    }
}

/// How one `score_lines` call ended.
pub struct ScoreOutcome {
    /// The NDJSON verdict stream (possibly partial when `tripped`).
    pub ndjson: String,
    /// Records scored by this call (metrics fodder).
    pub records: u64,
    /// Records this call flagged as outliers.
    pub outliers: u64,
    /// Bad records this call skipped or quarantined.
    pub errors: u64,
    /// Set when the abort policy or the breaker tripped mid-request; the
    /// session refuses further scoring until deleted.
    pub tripped: Option<String>,
    /// Set on an environmental failure (checkpoint write, quarantine
    /// append); the session stays usable.
    pub fatal: Option<String>,
}

/// What the replay cache knows about a request id.
pub enum ReplayLookup {
    /// Never seen (or evicted): score normally.
    Miss,
    /// Seen with the same body: return the cached response verbatim, do
    /// not touch the scorer.
    Hit {
        /// The original response status.
        status: u16,
        /// The original response body.
        body: String,
        /// Whether the original was a JSON error document (vs NDJSON
        /// verdicts).
        json_error: bool,
    },
    /// Seen with a *different* body: the client reused a request id for a
    /// new logical request — refuse rather than replay the wrong verdicts.
    Conflict,
}

/// One remembered score response.
struct ReplayEntry {
    request_id: String,
    body_hash: u64,
    status: u16,
    body: String,
    json_error: bool,
}

/// A bounded FIFO of recent score responses keyed on client-supplied
/// `X-Request-Id`, making score POSTs idempotent under retry: a client
/// that resends the same request id (after a timeout, a shed `503`, a torn
/// connection) gets the original verdict batch back instead of mutating
/// the scorer twice. Guarded by the session mutex, so a lookup is atomic
/// with the scoring it guards against.
struct ReplayCache {
    capacity: usize,
    entries: VecDeque<ReplayEntry>,
}

impl ReplayCache {
    fn new(capacity: usize) -> ReplayCache {
        ReplayCache {
            capacity,
            entries: VecDeque::new(),
        }
    }

    fn lookup(&self, request_id: &str, body: &str) -> ReplayLookup {
        let Some(entry) = self.entries.iter().find(|e| e.request_id == request_id) else {
            return ReplayLookup::Miss;
        };
        if entry.body_hash != fnv1a(body.as_bytes()) {
            return ReplayLookup::Conflict;
        }
        ReplayLookup::Hit {
            status: entry.status,
            body: entry.body.clone(),
            json_error: entry.json_error,
        }
    }

    fn store(
        &mut self,
        request_id: &str,
        body: &str,
        status: u16,
        response: &str,
        json_error: bool,
    ) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(ReplayEntry {
            request_id: request_id.to_string(),
            body_hash: fnv1a(body.as_bytes()),
            status,
            body: response.to_string(),
            json_error,
        });
    }
}

/// FNV-1a over bytes — fingerprints a request body so an id reused with
/// different records is detected instead of silently replayed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One live scoring session.
pub struct Session {
    id: String,
    pipeline: Pipeline,
    tripped: Option<String>,
    resumed: bool,
    replay: ReplayCache,
}

impl Session {
    /// Builds a session from validated config, restoring checkpointed state
    /// when `resume` is set and `<dir>/<id>.ckpt.json` (or its rotated
    /// `.prev` generation) exists. `replay_capacity` bounds the per-session
    /// idempotency cache (`0` disables it).
    pub fn create(
        config: SessionConfig,
        checkpoint_dir: Option<&Path>,
        replay_capacity: usize,
    ) -> Result<Session, CreateError> {
        let scorer = OnlineScorer::new(config.model)
            .map_err(|e| CreateError::Config(format!("model unusable for streaming: {e}")))?;
        let mut settings = config.settings;
        settings.checkpoint = checkpoint_dir.map(|d| d.join(format!("{}.ckpt.json", config.id)));
        // The primary may be absent while a rotated generation exists (a
        // crash inside save_atomic's rename window) — recovery must still
        // run then.
        let resume = settings
            .checkpoint
            .clone()
            .filter(|p| config.resume && (p.exists() || prev_path(p).exists()));
        let cannot_resume = |e: CheckpointError| {
            let path = resume.as_deref().unwrap_or(Path::new(""));
            format!("cannot resume from {}: {e}", path.display())
        };
        let (mut pipeline, recovered) = Pipeline::open(scorer, settings, resume.as_deref())
            .map_err(|e| match e {
                OpenError::Load(e) => CreateError::Io(cannot_resume(e)),
                OpenError::Restore(e) => CreateError::Resume(cannot_resume(e)),
                OpenError::Drift(e) => CreateError::Config(e.to_string()),
                OpenError::Quarantine(e) => CreateError::Io(e),
            })?;
        // Lines continue from the checkpointed totals, exactly as one
        // continuous `stream` run would number them.
        let lines_read =
            pipeline.scorer().records_scored() + pipeline.skipped() + pipeline.quarantined();
        pipeline.set_line_no(lines_read);
        Ok(Session {
            id: config.id,
            pipeline,
            tripped: None,
            resumed: recovered.is_some(),
            replay: ReplayCache::new(replay_capacity),
        })
    }

    /// Consults the idempotency cache for a client-supplied request id.
    pub fn replay_lookup(&self, request_id: &str, body: &str) -> ReplayLookup {
        self.replay.lookup(request_id, body)
    }

    /// Remembers a score response so a retry of `request_id` replays it.
    pub fn replay_store(
        &mut self,
        request_id: &str,
        body: &str,
        status: u16,
        response: &str,
        json_error: bool,
    ) {
        self.replay
            .store(request_id, body, status, response, json_error);
    }

    /// The trip reason, when the abort policy or breaker fired.
    pub fn tripped(&self) -> Option<&str> {
        self.tripped.as_deref()
    }

    /// Records scored over the session's lifetime (including resumed state).
    pub fn records_scored(&self) -> u64 {
        self.pipeline.scorer().records_scored()
    }

    /// Scores one request body of NDJSON records (one JSON array of
    /// numbers/nulls per line; `null` is a missing value). Verdicts are
    /// appended to the outcome in arrival order — the same order, and the
    /// same bytes, as `hdoutlier stream` would write for these records.
    pub fn score_lines(&mut self, body: &str) -> ScoreOutcome {
        let errors = |p: &Pipeline| p.skipped() + p.quarantined();
        let records_before = self.records_scored();
        let outliers_before = self.pipeline.scorer().outliers_flagged();
        let errors_before = errors(&self.pipeline);
        let mut ndjson = String::new();
        let result = self.pipeline.run(body.as_bytes(), &mut ndjson);
        let (tripped, fatal) = match result {
            Ok(()) => (None, None),
            Err(Stop::Abort { line, reason }) => (Some(format!("line {line}: {reason}")), None),
            Err(Stop::Breaker {
                line,
                reason,
                count,
                limit,
            }) => (
                Some(format!(
                    "line {line}: {reason} ({count} consecutive bad records exceed \
                     max_consecutive_errors {limit}; session tripped)"
                )),
                None,
            ),
            Err(Stop::Fatal(reason)) => (None, Some(reason)),
        };
        if tripped.is_some() {
            self.tripped.clone_from(&tripped);
        }
        ScoreOutcome {
            ndjson,
            records: self.records_scored() - records_before,
            outliers: self.pipeline.scorer().outliers_flagged() - outliers_before,
            errors: errors(&self.pipeline) - errors_before,
            tripped,
            fatal,
        }
    }

    /// Writes a checkpoint now, returning the path written; `Ok(None)`
    /// when the server has no checkpoint directory.
    ///
    /// # Errors
    /// A message when the write fails.
    pub fn checkpoint(&self) -> Result<Option<&Path>, String> {
        self.pipeline.checkpoint()
    }

    /// The session's status document (`GET /sessions/{id}`).
    ///
    /// # Errors
    /// [`JsonError`] on builder misuse (not reachable).
    pub fn status_json(&self) -> Result<Json, JsonError> {
        let scorer = self.pipeline.scorer();
        let settings = self.pipeline.settings();
        Json::object()
            .field("id", self.id.as_str())
            .field("records_scored", scorer.records_scored())
            .field("outliers", scorer.outliers_flagged())
            .field("skipped", self.pipeline.skipped())
            .field("quarantined", self.pipeline.quarantined())
            .field("line_no", self.pipeline.line_no())
            .field(
                "tripped",
                self.tripped
                    .as_deref()
                    .map_or(Json::Null, |r| Json::String(r.to_string())),
            )
            .field("resumed", self.resumed)
            .field("outliers_only", settings.outliers_only)
            .field("on_error", settings.policy.action())
            .field(
                "drift",
                Json::object()
                    .field("alpha", scorer.drift_alpha())
                    .field("check_every", scorer.check_every())
                    .field("records_observed", scorer.monitor().records_observed())?,
            )
            .field(
                "checkpoint",
                match &settings.checkpoint {
                    None => Json::Null,
                    Some(path) => Json::object()
                        .field("path", path.display().to_string())
                        .field("every", settings.checkpoint_every)?,
                },
            )
    }
}
