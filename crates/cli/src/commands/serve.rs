//! `hdoutlier serve` — host many concurrent scoring sessions over HTTP.
//!
//! The long-running sibling of `stream`: instead of one model and one stdin
//! pipe, the server holds a registry of sessions, each with its own model,
//! drift monitor, error policy, and checkpoint cadence, and scores NDJSON
//! records POSTed to `/sessions/{id}/score`. All the machinery lives in
//! [`hdoutlier_serve`]; this command parses flags, binds, prints the
//! address banner, and waits for a drain request (SIGTERM, SIGINT, or
//! `POST /shutdown`) before draining gracefully.

use super::parse_or_usage;
use crate::args::Parsed;
use crate::exit;
use crate::obs_setup::{self, ObsSession};
use hdoutlier_net::ServerConfig;
use hdoutlier_serve::{signal, ServeConfig, ServeHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Per-command help.
pub const HELP: &str = "\
hdoutlier serve — a multi-session network scoring server

Hosts many concurrent scoring sessions over HTTP/1.1, each the serve-side
twin of one `hdoutlier stream` process: its own model, drift monitor,
error policy, and checkpoint cadence. Records go in as NDJSON (one JSON
array per line, null = missing value); verdicts come back as the same
NDJSON lines `stream` writes, byte for byte.

ROUTES:
    POST   /sessions                create a session (JSON config body)
    GET    /sessions                list sessions
    POST   /sessions/{id}/score     NDJSON records in, NDJSON verdicts out
    GET    /sessions/{id}           session status document
    POST   /sessions/{id}/checkpoint  force an atomic checkpoint now
    DELETE /sessions/{id}           final checkpoint, then remove
    POST   /shutdown                graceful drain (same as SIGTERM)
    GET    /status                  live SLO verdict per route and session
                                    (?format=text for the human rendering)
    GET    /metrics | /healthz | /snapshot   telemetry; /healthz answers
                                    503 while the SLO verdict is unhealthy

Every response carries an X-Request-Id header: the client's value when it
sent a well-formed one, a generated id otherwise. Events, trace spans, and
quarantine lines produced while handling the request carry the same id.

USAGE:
    hdoutlier serve [OPTIONS]

OPTIONS:
    --addr <a>           listen address (default 127.0.0.1:0; port 0 picks
                         an ephemeral port, echoed on stderr)
    --checkpoint-dir <d> directory for per-session checkpoint files
                         (<id>.ckpt.json, atomic temp+rename; also enables
                         resume on session create with \"resume\": true)
    --max-sessions <n>   refuse session creates beyond <n> live sessions
                         (default 16)
    --workers <n>        HTTP connection workers (default 4)
    --queue-depth <n>    accepted connections that may wait for a worker
                         before new ones get 503 (default 32)
    --max-body-bytes <n> request body cap; larger bodies get 413
                         (default 8388608)
    --slo-error-rate <f> tolerated error fraction per SLO key inside the
                         rolling window: 5xx responses per route, bad
                         records per session (default 0.05)
    --slo-p99-ms <ms>    tolerated per-route p99 request latency in
                         milliseconds (default 250)
    --request-deadline-ms <ms>  wall-clock budget for receiving a request
                         head and, separately, its body; a client that
                         trickles bytes past it gets 408 and the connection
                         closes (defaults: head 10000, body 30000)
    --no-slo-shed        do not shed score requests while the score route's
                         SLO verdict is unhealthy (shedding is on by default)
    --shed-max-inflight <n>  also shed score requests beyond <n> executing
                         concurrently (default 0 = no cap)
    --shed-retry-after-ms <ms>  Retry-After delay stamped on shed/draining
                         503 responses (default 1000)
    --replay-cache <n>   per-session idempotency cache entries: score
                         responses remembered by client-supplied
                         X-Request-Id so retries replay instead of
                         re-scoring (default 64; 0 disables)
    --log-level <l>      emit pipeline events on stderr (error|warn|info|debug|trace)
    --log-json           render events as NDJSON instead of human-readable text
    --metrics-out <p>    enable timing metrics, snapshot to <p> after drain
    --trace-out <p>      profile spans, write Chrome trace JSON after drain
    --profile-out <p>    sample span stacks, write folded flamegraph stacks to <p>
    --profile-hz <n>     sampling rate for --profile-out (default 99)

On SIGTERM/SIGINT or POST /shutdown the server stops accepting, finishes
in-flight requests, writes a final checkpoint for every session, and exits.
";

/// Poll cadence of the drain-flag wait loop.
const WAIT_TICK: Duration = Duration::from_millis(25);

/// Runs the subcommand: binds, banners, and blocks until drained.
pub fn run(argv: &[String]) -> (i32, String) {
    run_with_ready(argv, |_| {})
}

/// Like [`run`], with a callback invoked once the listener is bound (the
/// in-process tests use it to learn the ephemeral port and drive requests;
/// the binary passes a no-op).
pub fn run_with_ready(argv: &[String], on_ready: impl FnOnce(SocketAddr) + Send) -> (i32, String) {
    let spec = obs_setup::spec_with(
        &[
            "addr",
            "checkpoint-dir",
            "max-sessions",
            "workers",
            "queue-depth",
            "max-body-bytes",
            "slo-error-rate",
            "slo-p99-ms",
            "request-deadline-ms",
            "shed-max-inflight",
            "shed-retry-after-ms",
            "replay-cache",
        ],
        &["no-slo-shed"],
    );
    let parsed = match parse_or_usage(&spec, argv, HELP) {
        Ok(p) => p,
        Err(out) => return out,
    };
    let mut session = match ObsSession::init(&parsed) {
        Ok(s) => s,
        Err(e) => return (exit::USAGE, format!("{e}\n\n{HELP}")),
    };
    let (code, out) = serve_under_session(&parsed, on_ready);
    match session.finish() {
        Ok(()) => (code, out),
        Err(e) if code == exit::OK => (exit::RUNTIME, e),
        Err(e) => (code, format!("{out}\n(telemetry flush also failed: {e})")),
    }
}

/// Flag validation, bind, wait loop, and drain.
fn serve_under_session(parsed: &Parsed, on_ready: impl FnOnce(SocketAddr) + Send) -> (i32, String) {
    if let Some(extra) = parsed.positional().first() {
        return (
            exit::USAGE,
            format!("unexpected argument {extra:?}\n\n{HELP}"),
        );
    }
    let mut config = ServeConfig::default();
    match parsed.opt::<usize>("max-sessions", "integer") {
        Ok(Some(0)) => {
            return (
                exit::USAGE,
                format!("--max-sessions must be >= 1\n\n{HELP}"),
            )
        }
        Ok(Some(n)) => config.max_sessions = n,
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    let mut http = ServerConfig::default();
    match parsed.opt::<usize>("workers", "integer") {
        Ok(Some(0)) => return (exit::USAGE, format!("--workers must be >= 1\n\n{HELP}")),
        Ok(Some(n)) => http.workers = n,
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    match parsed.opt::<usize>("queue-depth", "integer") {
        Ok(Some(n)) => http.queue_depth = n,
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    match parsed.opt::<usize>("max-body-bytes", "integer") {
        Ok(Some(0)) => {
            return (
                exit::USAGE,
                format!("--max-body-bytes must be >= 1\n\n{HELP}"),
            )
        }
        Ok(Some(n)) => http.max_body_bytes = n,
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    config.http = http;
    match parsed.opt::<f64>("slo-error-rate", "number") {
        Ok(Some(f)) if (0.0..=1.0).contains(&f) => config.slo_error_rate = f,
        Ok(Some(f)) => {
            return (
                exit::USAGE,
                format!("--slo-error-rate must be in [0, 1], got {f}\n\n{HELP}"),
            )
        }
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    match parsed.opt::<f64>("slo-p99-ms", "number") {
        Ok(Some(ms)) if ms > 0.0 && ms.is_finite() => config.slo_p99_ms = ms,
        Ok(Some(ms)) => {
            return (
                exit::USAGE,
                format!("--slo-p99-ms must be a positive number, got {ms}\n\n{HELP}"),
            )
        }
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    match parsed.opt::<u64>("request-deadline-ms", "integer") {
        Ok(Some(0)) => {
            return (
                exit::USAGE,
                format!("--request-deadline-ms must be >= 1\n\n{HELP}"),
            )
        }
        Ok(Some(ms)) => {
            config.http.head_deadline = Duration::from_millis(ms);
            config.http.body_deadline = Duration::from_millis(ms);
        }
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    config.shed_on_unhealthy = !parsed.has("no-slo-shed");
    match parsed.opt::<usize>("shed-max-inflight", "integer") {
        Ok(Some(n)) => config.shed_max_inflight = n,
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    match parsed.opt::<u64>("shed-retry-after-ms", "integer") {
        Ok(Some(ms)) => {
            config.shed_retry_after = Duration::from_millis(ms);
            // The net layer's own 503s (connection budget) advertise the
            // same back-off.
            config.http.retry_after = Duration::from_millis(ms);
        }
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    match parsed.opt::<usize>("replay-cache", "integer") {
        Ok(Some(n)) => config.replay_cache = n,
        Ok(None) => {}
        Err(e) => return super::usage_err(e, HELP),
    }
    if let Some(dir) = parsed.get("checkpoint-dir") {
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return (
                exit::RUNTIME,
                format!("cannot create checkpoint dir {}: {e}", dir.display()),
            );
        }
        config.checkpoint_dir = Some(dir);
    }
    let addr = parsed.get("addr").unwrap_or("127.0.0.1:0");

    signal::install_termination_flag();
    let handle = match ServeHandle::bind(addr, config) {
        Ok(h) => h,
        Err(e) => return (exit::RUNTIME, format!("cannot bind {addr}: {e}")),
    };
    let local = handle.local_addr();
    // The banner is the contract with scripts and tests: the bound address
    // (port 0 resolves here) on stderr, before any request is served.
    eprintln!("serve: listening on http://{local} (drain with SIGTERM or POST /shutdown)");
    on_ready(local);

    while !signal::termination_requested() && !handle.app().shutdown_requested() {
        std::thread::sleep(WAIT_TICK);
    }

    let report = handle.drain();
    eprintln!(
        "serve: drained ({} sessions, {} checkpointed)",
        report.sessions, report.checkpointed
    );
    if report.errors.is_empty() {
        (exit::OK, String::new())
    } else {
        (
            exit::RUNTIME,
            format!("drain checkpoint failures:\n{}", report.errors.join("\n")),
        )
    }
}
