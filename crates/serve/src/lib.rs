#![warn(missing_docs)]

//! `hdoutlier serve` — a long-running network scoring server hosting many
//! concurrent sessions, each running the record pipeline
//! ([`hdoutlier_stream::Pipeline`]) one `hdoutlier stream` process runs.
//!
//! The HTTP surface (over [`hdoutlier_net`]):
//!
//! - `POST /sessions` — create a session from a JSON config (inline model
//!   or `model_path`, drift settings, batch size, error policy, checkpoint
//!   cadence, `resume`); responds `201` with the session status document;
//! - `POST /sessions/{id}/score` — NDJSON records in (one JSON array per
//!   line, `null` = missing), NDJSON verdicts out, byte-identical to
//!   `hdoutlier stream` over the same records because both transports call
//!   the renderers in [`hdoutlier_stream::ndjson`] and the same
//!   order-preserving `score_batch` discipline;
//! - `GET /sessions` / `GET /sessions/{id}` — status documents;
//! - `POST /sessions/{id}/checkpoint` — force an atomic checkpoint now;
//! - `DELETE /sessions/{id}` — final checkpoint, then remove;
//! - `POST /shutdown` — request a graceful drain (same effect as SIGTERM);
//! - `GET /metrics` / `/healthz` / `/snapshot` / `/status` / `/profile` —
//!   the shared telemetry responder from [`hdoutlier_obs`]; `/status`
//!   renders the SLO engine's live verdict, `/healthz` turns `503` when it
//!   is unhealthy, and `/profile?seconds=N&format=folded|svg|json` runs a
//!   live span-stack sampling session against the scoring traffic.
//!
//! Every request is identified: the `X-Request-Id` assigned by
//! [`hdoutlier_net`] (client-supplied or generated) is installed as the
//! thread's [`obs::RequestCtx`] for the length of the request, so events,
//! spans, and quarantine lines written while handling it carry
//! `request_id` (and `session_id` when the path names a session). Each
//! request also ends with one wide `access` event — route template,
//! status, byte counts, scoring activity, duration — the NDJSON access
//! log. Metrics are labeled by bounded route *templates*
//! (`/sessions/{id}/score`, not the raw path), and per-session record
//! counters are labeled by session id.
//!
//! Sessions are isolated: each lives behind its own mutex, so concurrent
//! score requests to different sessions proceed in parallel across the
//! server's connection workers, and a tripped breaker, drift alert, or
//! checkpoint failure in one session never leaks into another. Checkpoints
//! use the stream crate's [`Checkpoint`](hdoutlier_stream::Checkpoint)
//! file format, so a session checkpoint is also resumable by
//! `hdoutlier stream --resume`.
//!
//! Graceful drain ([`ServeHandle::drain`]) stops accepting new work,
//! lets in-flight requests finish (their batches flush through the normal
//! request path), writes a final checkpoint for every session, and only
//! then returns — the listener is closed before the process exits.

pub mod session;
pub mod signal;

use hdoutlier_json::Json;
use hdoutlier_net::{Request, Response, Server, ServerConfig};
use hdoutlier_obs as obs;
use session::{CreateError, Session, SessionConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Event target for the serve subsystem.
const TARGET: &str = "hdoutlier.serve";

/// Tuning knobs for a scoring server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cap on live sessions; creates beyond it are refused with `503`.
    pub max_sessions: usize,
    /// Pool threads for each session's batched scoring.
    pub threads: usize,
    /// Directory for per-session checkpoint files (`<id>.ckpt.json`);
    /// `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// HTTP server tuning (workers, queue depth, body caps, timeouts).
    pub http: ServerConfig,
    /// SLO error-rate budget: the tolerated fraction of failing units
    /// (5xx requests per route, bad records per session) inside the
    /// rolling window before a key degrades.
    pub slo_error_rate: f64,
    /// SLO latency budget: the tolerated per-route p99 request duration,
    /// in milliseconds.
    pub slo_p99_ms: f64,
    /// The rolling window the SLO engine evaluates over.
    pub slo_window: Duration,
    /// Shed score POSTs while the SLO engine's overall verdict is
    /// unhealthy (probes and DELETEs are always admitted).
    pub shed_on_unhealthy: bool,
    /// Cap on concurrently-executing score POSTs; requests beyond it are
    /// shed with `503`. `0` disables the cap (the HTTP worker pool is then
    /// the only bound).
    pub shed_max_inflight: usize,
    /// The `Retry-After` delay attached to every shed/draining/over-cap
    /// `503`.
    pub shed_retry_after: Duration,
    /// Per-session idempotency cache entries (score responses remembered
    /// by client-supplied `X-Request-Id`); `0` disables replay.
    pub replay_cache: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 16,
            threads: hdoutlier_pool::default_threads(),
            checkpoint_dir: None,
            http: ServerConfig::default(),
            slo_error_rate: 0.05,
            slo_p99_ms: 250.0,
            slo_window: Duration::from_secs(60),
            shed_on_unhealthy: true,
            shed_max_inflight: 0,
            shed_retry_after: Duration::from_secs(1),
            replay_cache: 64,
        }
    }
}

/// How long an admission-control SLO verdict is reused before the engine
/// is re-consulted. Sampling the metrics registry per score request would
/// cost more than the scoring; a quarter second is far inside the SLO
/// window, so shedding still reacts promptly when health flips.
const SLO_VERDICT_TTL: Duration = Duration::from_millis(250);

/// Metric handles resolved once at construction. Label values are bounded:
/// `route` is always a template from [`route_of`] and `status` one of the
/// handful of codes the router produces; only `session` grows with use,
/// capped by `max_sessions` at any moment.
struct ServeMetrics {
    sessions: obs::Gauge,
    requests: obs::CounterVec,
    request_duration_us: obs::HistogramVec,
    records: obs::CounterVec,
    record_errors: obs::CounterVec,
    drains: obs::Counter,
    shed: obs::CounterVec,
    replay_hits: obs::Counter,
    drain_errors: obs::Counter,
}

impl ServeMetrics {
    fn resolve() -> Self {
        let r = obs::registry();
        ServeMetrics {
            sessions: r.gauge("hdoutlier.serve.sessions"),
            requests: r.counter_vec("hdoutlier.serve.requests", &["route", "status"]),
            request_duration_us: r.histogram_vec("hdoutlier.serve.request_duration_us", &["route"]),
            records: r.counter_vec("hdoutlier.serve.records", &["session"]),
            record_errors: r.counter_vec("hdoutlier.serve.record_errors", &["session"]),
            drains: r.counter("hdoutlier.serve.drains"),
            shed: r.counter_vec("hdoutlier.serve.shed", &["reason"]),
            replay_hits: r.counter("hdoutlier.serve.replay_hits"),
            drain_errors: r.counter("hdoutlier.serve.drain_errors"),
        }
    }
}

/// Collapses a request path to its route template so metric and SLO label
/// cardinality stays bounded — session ids never become route labels.
fn route_of(path: &str) -> &'static str {
    match path {
        "/sessions" | "/sessions/" => "/sessions",
        "/shutdown" => "/shutdown",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/snapshot" => "/snapshot",
        "/status" => "/status",
        "/profile" => "/profile",
        _ => match path.strip_prefix("/sessions/") {
            None => "other",
            Some(rest) => match rest.split_once('/') {
                None => "/sessions/{id}",
                Some((_, "score")) => "/sessions/{id}/score",
                Some((_, "checkpoint")) => "/sessions/{id}/checkpoint",
                Some(_) => "other",
            },
        },
    }
}

/// The session id a path addresses, when it names one.
fn session_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/sessions/")?;
    let id = rest.split('/').next().unwrap_or(rest);
    (!id.is_empty()).then_some(id)
}

/// Scoring activity accumulated while routing one request, folded into the
/// trailing `access` event.
#[derive(Default)]
struct Activity {
    records: u64,
    outliers: u64,
    errors: u64,
    /// The request was refused by admission control before reaching its
    /// handler. Shed refusals are accounted by `hdoutlier.serve.shed` and
    /// kept out of `requests`/`request_duration_us` — those two feed the
    /// SLO engine, and a shed 503 counting as a route error would make the
    /// admission controller's own refusals hold the verdict unhealthy
    /// forever under steady client retries.
    shed: bool,
}

/// The session registry and request router — everything about the scoring
/// server except the TCP listener (which [`ServeHandle`] adds).
pub struct ServeApp {
    config: ServeConfig,
    sessions: Mutex<BTreeMap<String, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    metrics: ServeMetrics,
    slo: obs::SloEngine,
    /// Score POSTs currently executing (admission-control signal).
    inflight_scores: AtomicU64,
    /// The admission controller's cached SLO verdict and when it was
    /// computed (refreshed every [`SLO_VERDICT_TTL`]).
    slo_verdict: Mutex<Option<(Instant, obs::SloVerdict)>>,
}

impl ServeApp {
    /// Builds an app over a validated configuration.
    pub fn new(config: ServeConfig) -> Arc<ServeApp> {
        let slo = obs::SloEngine::new(
            obs::SloThresholds {
                max_error_rate: config.slo_error_rate,
                max_p99_us: config.slo_p99_ms * 1_000.0,
            },
            config.slo_window,
        );
        let app = Arc::new(ServeApp {
            config,
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            metrics: ServeMetrics::resolve(),
            slo,
            inflight_scores: AtomicU64::new(0),
            slo_verdict: Mutex::new(None),
        });
        // Establish a baseline SLO sample now, so every later evaluation
        // deltas against *this server's* start rather than a zero origin —
        // the process-global metrics registry may carry history from an
        // earlier server in the same process (tests, embedding), and that
        // history must not feed the admission controller.
        app.sample_slo();
        app
    }

    /// The configuration the app was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The SLO engine judging this server (powers `/status`).
    pub fn slo(&self) -> &obs::SloEngine {
        &self.slo
    }

    /// Whether a drain has been requested (`POST /shutdown` or
    /// [`ServeApp::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: new sessions and score requests are
    /// refused with `503` from this moment; the owner (the serve command's
    /// wait loop) observes the flag and runs [`ServeHandle::drain`].
    pub fn request_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Writes a final checkpoint for every session that has one configured.
    /// Returns `(sessions, checkpointed, errors)`; write failures are
    /// collected rather than aborting the drain (the other sessions still
    /// deserve their checkpoints).
    pub fn checkpoint_all(&self) -> (usize, usize, Vec<String>) {
        let sessions: Vec<Arc<Mutex<Session>>> = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .values()
            .cloned()
            .collect();
        let total = sessions.len();
        let mut checkpointed = 0usize;
        let mut errors = Vec::new();
        for session in sessions {
            let session = session.lock().expect("session poisoned");
            match session.checkpoint() {
                Ok(Some(_)) => checkpointed += 1,
                Ok(None) => {}
                Err(e) => errors.push(format!("session {}: {e}", session.id())),
            }
        }
        (total, checkpointed, errors)
    }

    /// Handles one request. This is the [`hdoutlier_net::Handler`] body:
    /// it installs the request identity, routes, then settles the
    /// request-scoped telemetry — labeled metrics and the `access` event.
    pub fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        let route = route_of(&request.path);
        // The context guard is declared before the span so the span drops
        // (capturing its trace args) while the identity is still installed.
        let ctx = match session_of(&request.path) {
            Some(id) => obs::RequestCtx::with_session(&request.request_id, id),
            None => obs::RequestCtx::new(&request.request_id),
        };
        let _ctx = obs::set_request_ctx(ctx);
        let mut activity = Activity::default();
        let response = {
            let _span = obs::span(obs::Level::Debug, TARGET, "request");
            self.route(request, &mut activity)
        };
        let duration = start.elapsed();
        let status = response.status.to_string();
        // Shed refusals never reached a handler: they are counted under
        // `shed{reason}` only (see [`Activity::shed`]), so admission
        // control's 503s cannot feed the SLO verdict it sheds on.
        if !activity.shed {
            self.metrics.requests.with(&[route, &status]).inc();
            self.metrics
                .request_duration_us
                .with(&[route])
                .record_duration(duration);
        }
        obs::event(
            obs::Level::Info,
            TARGET,
            "access",
            &[
                ("route", obs::Value::Str(route)),
                ("status", obs::Value::U64(u64::from(response.status))),
                ("bytes_in", obs::Value::U64(request.body.len() as u64)),
                ("bytes_out", obs::Value::U64(response.body.len() as u64)),
                ("records", obs::Value::U64(activity.records)),
                ("outliers", obs::Value::U64(activity.outliers)),
                ("errors", obs::Value::U64(activity.errors)),
                ("duration_us", obs::Value::U64(duration.as_micros() as u64)),
                ("shed", obs::Value::Bool(activity.shed)),
            ],
        );
        response
    }

    /// Routes one request to its endpoint.
    fn route(&self, request: &Request, activity: &mut Activity) -> Response {
        let path = request.path.as_str();
        let method = request.method.as_str();
        if let Some(rest) = path.strip_prefix("/sessions") {
            return match (method, rest) {
                ("POST", "" | "/") => self.create_session(request, activity),
                ("GET", "" | "/") => self.list_sessions(),
                _ => {
                    let Some(rest) = rest.strip_prefix('/') else {
                        return error_response(404, &format!("no route for {method} {path}"));
                    };
                    let (id, action) = match rest.split_once('/') {
                        None => (rest, None),
                        Some((id, action)) => (id, Some(action)),
                    };
                    match (method, action) {
                        ("POST", Some("score")) => self.score(id, request, activity),
                        ("POST", Some("checkpoint")) => self.checkpoint(id),
                        ("GET", None) => self.status(id),
                        ("DELETE", None) => self.delete(id),
                        _ => error_response(404, &format!("no route for {method} {path}")),
                    }
                }
            };
        }
        if path == "/shutdown" {
            if method != "POST" {
                return error_response(405, "use POST /shutdown");
            }
            self.request_shutdown();
            obs::event(obs::Level::Info, TARGET, "shutdown_requested", &[]);
            return Response::json(200, r#"{"draining":true}"#);
        }
        // Probes drive the SLO sampling cadence: each `/status` or
        // `/healthz` hit feeds the engine a fresh cumulative reading
        // before the shared responder evaluates it.
        if method == "GET" && matches!(path, "/status" | "/healthz") {
            self.sample_slo();
        }
        match obs::telemetry_response(request, obs::registry(), Some(&self.slo)) {
            Some(response) => response,
            None => error_response(404, &format!("no route for {method} {path}")),
        }
    }

    /// Feeds the SLO engine one cumulative reading per key, derived from
    /// the live metrics registry: per-route request totals, 5xx errors,
    /// and latency buckets; per-session record totals and bad-record
    /// errors.
    fn sample_slo(&self) {
        let mut routes: BTreeMap<String, obs::SloSample> = BTreeMap::new();
        let mut sessions: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for metric in obs::registry().snapshot() {
            let label = |key: &str| {
                metric
                    .labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            match (metric.name.as_str(), &metric.value) {
                ("hdoutlier.serve.requests", obs::SnapshotValue::Counter(n)) => {
                    let (Some(route), Some(status)) = (label("route"), label("status")) else {
                        continue;
                    };
                    let entry = routes.entry(route).or_default();
                    entry.total += n;
                    if status.starts_with('5') {
                        entry.errors += n;
                    }
                }
                ("hdoutlier.serve.request_duration_us", obs::SnapshotValue::Histogram(h)) => {
                    let Some(route) = label("route") else {
                        continue;
                    };
                    routes.entry(route).or_default().buckets = h.buckets.clone();
                }
                ("hdoutlier.serve.records", obs::SnapshotValue::Counter(n)) => {
                    let Some(id) = label("session") else { continue };
                    sessions.entry(id).or_default().0 += n;
                }
                ("hdoutlier.serve.record_errors", obs::SnapshotValue::Counter(n)) => {
                    let Some(id) = label("session") else { continue };
                    sessions.entry(id).or_default().1 += n;
                }
                _ => {}
            }
        }
        for (route, sample) in routes {
            self.slo.observe(&format!("route:{route}"), sample);
        }
        for (id, (records, errors)) in sessions {
            self.slo.observe(
                &format!("session:{id}"),
                obs::SloSample {
                    total: records + errors,
                    errors,
                    buckets: Vec::new(),
                },
            );
        }
    }

    /// `POST /sessions`.
    fn create_session(&self, request: &Request, activity: &mut Activity) -> Response {
        if self.shutdown_requested() {
            return self.shed(
                "draining",
                activity,
                error_response(503, "server is draining"),
            );
        }
        let body = match request.body_utf8() {
            Ok(b) => b,
            Err(e) => return error_response(400, e),
        };
        let json = match Json::parse(body) {
            Ok(j) => j,
            Err(e) => return error_response(400, &format!("body is not valid JSON: {e}")),
        };
        let default_id = format!("s{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let read_model = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read model_path {path}: {e}"))
        };
        let mut config = match SessionConfig::from_json(&json, default_id, &read_model) {
            Ok(c) => c,
            Err(e) => return error_response(400, &e),
        };
        config.settings.threads = self.config.threads;
        let id = config.id.clone();
        // Hold the registry lock across create so two concurrent creates of
        // the same id cannot both pass the duplicate check; session
        // construction is quick (the model is already parsed).
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        if sessions.len() >= self.config.max_sessions {
            return error_response(
                503,
                &format!("session limit reached ({})", self.config.max_sessions),
            )
            .with_retry_after(self.config.shed_retry_after);
        }
        if sessions.contains_key(&id) {
            return error_response(409, &format!("session {id:?} already exists"));
        }
        let session = match Session::create(
            config,
            self.config.checkpoint_dir.as_deref(),
            self.config.replay_cache,
        ) {
            Ok(s) => s,
            Err(CreateError::Config(e)) => return error_response(400, &e),
            Err(CreateError::Resume(e)) => return error_response(409, &e),
            Err(CreateError::Io(e)) => return error_response(500, &e),
        };
        let status = match session.status_json() {
            Ok(j) => j.render(),
            Err(e) => return error_response(500, &e.to_string()),
        };
        obs::event(
            obs::Level::Info,
            TARGET,
            "session_created",
            &[
                ("records", obs::Value::U64(session.records_scored())),
                ("sessions", obs::Value::U64(sessions.len() as u64 + 1)),
            ],
        );
        sessions.insert(id, Arc::new(Mutex::new(session)));
        self.metrics.sessions.set(sessions.len() as i64);
        Response::json(201, status)
    }

    /// `GET /sessions`.
    fn list_sessions(&self) -> Response {
        let sessions: Vec<Arc<Mutex<Session>>> = self
            .sessions
            .lock()
            .expect("session registry poisoned")
            .values()
            .cloned()
            .collect();
        let mut items = Vec::with_capacity(sessions.len());
        for session in sessions {
            match session.lock().expect("session poisoned").status_json() {
                Ok(j) => items.push(j),
                Err(e) => return error_response(500, &e.to_string()),
            }
        }
        match Json::object().field("sessions", Json::Array(items)) {
            Ok(j) => Response::json(200, j.render()),
            Err(e) => error_response(500, &e.to_string()),
        }
    }

    /// Clones the handle for one session, or `None`.
    fn session(&self, id: &str) -> Option<Arc<Mutex<Session>>> {
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .get(id)
            .cloned()
    }

    /// Marks a refused request as shed: counts it under its reason, emits
    /// the `shed` Warn event, flags the [`Activity`] so request-scoped
    /// telemetry keeps the refusal out of the SLO-feeding metrics, and
    /// stamps the response with `Retry-After` so well-behaved clients back
    /// off instead of hammering.
    fn shed(&self, reason: &'static str, activity: &mut Activity, response: Response) -> Response {
        activity.shed = true;
        self.metrics.shed.with(&[reason]).inc();
        obs::event(
            obs::Level::Warn,
            TARGET,
            "shed",
            &[("reason", obs::Value::Str(reason))],
        );
        response.with_retry_after(self.config.shed_retry_after)
    }

    /// The SLO verdict the admission controller acts on — re-sampled from
    /// the live registry at most once per [`SLO_VERDICT_TTL`].
    ///
    /// Only the *score route's* key is consulted: per-session keys turn
    /// unhealthy when a client sends bad records, which is that client's
    /// data-quality problem and no reason to refuse everyone else, and
    /// other routes' health does not indicate scoring overload.
    fn admission_verdict(&self) -> obs::SloVerdict {
        let mut cached = self.slo_verdict.lock().expect("slo verdict poisoned");
        let now = Instant::now();
        if let Some((at, verdict)) = *cached {
            if now.duration_since(at) < SLO_VERDICT_TTL {
                return verdict;
            }
        }
        self.sample_slo();
        let verdict = self
            .slo
            .evaluate()
            .keys
            .iter()
            .find(|k| k.key == "route:/sessions/{id}/score")
            .map_or(obs::SloVerdict::Healthy, |k| k.verdict);
        *cached = Some((now, verdict));
        verdict
    }

    /// The admission decision for one score POST: the in-flight slot the
    /// admitted request holds for its whole execution, or the shed `503`
    /// (in-flight cap reached, SLO unhealthy). Probe routes, session
    /// management, and DELETE never pass through here — only scoring is
    /// load-shed.
    fn admit_score(&self, activity: &mut Activity) -> Result<InflightGuard<'_>, Response> {
        // Claim the slot *before* checking the cap: a load-then-increment
        // window would let every worker at cap-1 pass at once. The guard's
        // prior count is the atomic admission test; on shed it drops here,
        // releasing the claim.
        let guard = InflightGuard::enter(&self.inflight_scores);
        let cap = self.config.shed_max_inflight as u64;
        if cap > 0 && guard.prior >= cap {
            return Err(self.shed(
                "inflight",
                activity,
                error_response(503, &format!("score concurrency cap reached ({cap})")),
            ));
        }
        if self.config.shed_on_unhealthy && self.admission_verdict() == obs::SloVerdict::Unhealthy {
            return Err(self.shed(
                "slo",
                activity,
                error_response(503, "shedding load: SLO verdict is unhealthy"),
            ));
        }
        Ok(guard)
    }

    /// `POST /sessions/{id}/score`.
    fn score(&self, id: &str, request: &Request, activity: &mut Activity) -> Response {
        if self.shutdown_requested() {
            return self.shed(
                "draining",
                activity,
                error_response(503, "server is draining"),
            );
        }
        let Some(session) = self.session(id) else {
            return error_response(404, &format!("no session {id:?}"));
        };
        let _inflight = match self.admit_score(activity) {
            Ok(guard) => guard,
            Err(refused) => return refused,
        };
        let body = match request.body_utf8() {
            Ok(b) => b,
            Err(e) => return error_response(400, e),
        };
        // Only a *client-supplied* request id keys the replay cache:
        // server-generated ids are unique per request, so caching under
        // them could never hit and would only evict real entries.
        let replay_key = request
            .header("x-request-id")
            .filter(|sent| *sent == request.request_id);
        // The session lock is held for the whole request: scoring is
        // stateful and order-defining. Other sessions are untouched — their
        // requests run concurrently on other connection workers.
        let mut session = session.lock().expect("session poisoned");
        if let Some(key) = replay_key {
            match session.replay_lookup(key, body) {
                session::ReplayLookup::Miss => {}
                session::ReplayLookup::Conflict => {
                    return error_response(
                        409,
                        "X-Request-Id was already used for a different body; \
                         retries must resend the original request unchanged",
                    );
                }
                session::ReplayLookup::Hit {
                    status,
                    body,
                    json_error,
                } => {
                    self.metrics.replay_hits.inc();
                    obs::event(obs::Level::Info, TARGET, "replay_hit", &[]);
                    return if json_error {
                        Response::json(status, body)
                    } else {
                        Response::ndjson(status, body)
                    };
                }
            }
        }
        if let Some(reason) = session.tripped() {
            return error_response(409, &format!("session tripped: {reason}"));
        }
        let outcome = session.score_lines(body);
        activity.records = outcome.records;
        activity.outliers = outcome.outliers;
        activity.errors = outcome.errors;
        self.metrics.records.with(&[id]).add(outcome.records);
        self.metrics.record_errors.with(&[id]).add(outcome.errors);
        // Whatever the outcome, the scorer has advanced — remember the
        // response under the client's id so a retry replays instead of
        // double-scoring.
        let remember = |session: &mut Session, status: u16, text: &str, json_error: bool| {
            if let Some(key) = replay_key {
                session.replay_store(key, body, status, text, json_error);
            }
        };
        if let Some(fatal) = outcome.fatal {
            let response = error_response(500, &fatal);
            let text = String::from_utf8_lossy(&response.body).into_owned();
            remember(&mut session, 500, &text, true);
            return response;
        }
        if outcome.tripped.is_some() {
            obs::event(
                obs::Level::Warn,
                TARGET,
                "session_tripped",
                &[("records", obs::Value::U64(session.records_scored()))],
            );
            // The verdicts computed before the trip are still delivered —
            // they are exactly what `stream` would have written before
            // aborting — under a conflict status so the client knows the
            // stream ended early. The reason rides in the status document.
            remember(&mut session, 409, &outcome.ndjson, false);
            return Response::ndjson(409, outcome.ndjson);
        }
        remember(&mut session, 200, &outcome.ndjson, false);
        Response::ndjson(200, outcome.ndjson)
    }

    /// `GET /sessions/{id}`.
    fn status(&self, id: &str) -> Response {
        let Some(session) = self.session(id) else {
            return error_response(404, &format!("no session {id:?}"));
        };
        let session = session.lock().expect("session poisoned");
        match session.status_json() {
            Ok(j) => Response::json(200, j.render()),
            Err(e) => error_response(500, &e.to_string()),
        }
    }

    /// `POST /sessions/{id}/checkpoint`.
    fn checkpoint(&self, id: &str) -> Response {
        let Some(session) = self.session(id) else {
            return error_response(404, &format!("no session {id:?}"));
        };
        let session = session.lock().expect("session poisoned");
        match session.checkpoint() {
            Ok(None) => {
                error_response(400, "server has no checkpoint directory (--checkpoint-dir)")
            }
            Err(e) => error_response(500, &e),
            Ok(Some(path)) => {
                let body = Json::object()
                    .field("checkpoint", path.display().to_string())
                    .and_then(|j| j.field("records_scored", session.records_scored()));
                match body {
                    Ok(j) => Response::json(200, j.render()),
                    Err(e) => error_response(500, &e.to_string()),
                }
            }
        }
    }

    /// `DELETE /sessions/{id}` — final checkpoint, then removal.
    fn delete(&self, id: &str) -> Response {
        let Some(session) = self.session(id) else {
            return error_response(404, &format!("no session {id:?}"));
        };
        {
            let session = session.lock().expect("session poisoned");
            if let Err(e) = session.checkpoint() {
                return error_response(500, &e);
            }
        }
        let mut sessions = self.sessions.lock().expect("session registry poisoned");
        sessions.remove(id);
        self.metrics.sessions.set(sessions.len() as i64);
        drop(sessions);
        let session = session.lock().expect("session poisoned");
        match session.status_json() {
            Ok(j) => Response::json(200, j.render()),
            Err(e) => error_response(500, &e.to_string()),
        }
    }
}

/// RAII in-flight counter: admitted score requests hold one for their
/// whole execution, so the admission controller sees a live concurrency
/// reading even when a handler exits early. `prior` is the count observed
/// by the claiming `fetch_add` — the admission controller's atomic
/// cap test (claim first, shed and release when over).
struct InflightGuard<'a> {
    counter: &'a AtomicU64,
    prior: u64,
}

impl<'a> InflightGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> InflightGuard<'a> {
        let prior = counter.fetch_add(1, Ordering::SeqCst);
        InflightGuard { counter, prior }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a graceful drain accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// Sessions live at drain time.
    pub sessions: usize,
    /// Sessions that wrote a final checkpoint.
    pub checkpointed: usize,
    /// Checkpoint failures (the drain completes regardless).
    pub errors: Vec<String>,
}

/// A running scoring server: the app plus its TCP listener.
pub struct ServeHandle {
    server: Server,
    app: Arc<ServeApp>,
}

impl ServeHandle {
    /// Binds the server and starts accepting. `addr` may use port `0` for
    /// an ephemeral port; read it back with [`ServeHandle::local_addr`].
    ///
    /// # Errors
    /// [`std::io::Error`] when the bind fails.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<ServeHandle> {
        let http = config.http.clone();
        let app = ServeApp::new(config);
        let handler_app = Arc::clone(&app);
        let server = Server::bind(
            addr,
            http,
            Arc::new(move |request: &Request| handler_app.handle(request)),
        )?;
        obs::event(
            obs::Level::Info,
            TARGET,
            "listening",
            &[("sessions", obs::Value::U64(0))],
        );
        Ok(ServeHandle { server, app })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The session registry/router, shared with the running server.
    pub fn app(&self) -> &Arc<ServeApp> {
        &self.app
    }

    /// Graceful drain: refuse new work, close the listener, let in-flight
    /// requests finish (flushing their batches through the normal request
    /// path), then write a final checkpoint for every session. Only after
    /// all of that does this return — the caller exits with the listener
    /// already closed and every session durable.
    pub fn drain(self) -> DrainReport {
        self.app.request_shutdown();
        // Stops accepting first (the listener closes), then joins the
        // connection workers — in-flight score requests complete and their
        // responses are written before this returns.
        self.server.shutdown();
        let (sessions, checkpointed, errors) = self.app.checkpoint_all();
        self.app.metrics.drains.inc();
        // A drain-time checkpoint failure is the last chance to notice
        // state loss before the process exits: each one gets its own Error
        // event and counter tick (the CLI also exits non-zero on any).
        for error in &errors {
            self.app.metrics.drain_errors.inc();
            obs::event(
                obs::Level::Error,
                TARGET,
                "drain_error",
                &[("error", obs::Value::Str(error))],
            );
        }
        obs::event(
            obs::Level::Info,
            TARGET,
            "drained",
            &[
                ("sessions", obs::Value::U64(sessions as u64)),
                ("checkpointed", obs::Value::U64(checkpointed as u64)),
            ],
        );
        DrainReport {
            sessions,
            checkpointed,
            errors,
        }
    }
}

/// An error document: `{"error": "<msg>"}` with the given status.
fn error_response(status: u16, message: &str) -> Response {
    let body = Json::object()
        .field("error", message)
        .map(|j| j.render())
        .unwrap_or_else(|_| r#"{"error":"internal error"}"#.to_string());
    Response::json(status, body)
}
