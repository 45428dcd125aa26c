//! End-to-end tests for the serve subsystem at the [`ServeApp`] level:
//! session lifecycle, byte-identity of served verdicts with a direct
//! [`OnlineScorer`] stream, per-session isolation, the error-policy trip
//! ladder, checkpoint/resume round trips, and graceful drain.
//!
//! These drive the same `handle(&Request)` entry point the HTTP workers
//! call, so everything but the TCP framing (covered by `hdoutlier-net`'s
//! own tests and the CLI e2e) is exercised hermetically and fast.

use hdoutlier_core::{FittedModel, OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_data::Dataset;
use hdoutlier_json::Json;
use hdoutlier_net::{Request, Response};
use hdoutlier_serve::{ServeApp, ServeConfig, ServeHandle};
use hdoutlier_stream::ndjson::verdict_json;
use hdoutlier_stream::{Checkpoint, OnlineScorer};
use std::path::PathBuf;
use std::sync::Arc;

/// Fits a small model on planted data; returns it with the dataset whose
/// rows the tests then stream as records.
fn fitted(seed: u64) -> (FittedModel, Dataset) {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 600,
        n_dims: 5,
        n_outliers: 4,
        strong_groups: Some(2),
        seed,
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
    (model, planted.dataset)
}

/// A synthetic request, exactly as the HTTP layer would deliver it.
fn req(method: &str, path: &str, body: impl Into<Vec<u8>>) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        headers: Vec::new(),
        body: body.into(),
        http1_0: false,
        request_id: "test-req".to_string(),
    }
}

/// The create body for a session: inline model plus extra config fields
/// (rendered JSON object text, e.g. `"id": "a", "batch": 3`).
fn create_body(model: &FittedModel, extra: &str) -> String {
    let model_json = hdoutlier_stream::model_io::to_json(model).unwrap().render();
    if extra.is_empty() {
        format!("{{\"model\": {model_json}}}")
    } else {
        format!("{{{extra}, \"model\": {model_json}}}")
    }
}

/// Renders dataset rows `range` as NDJSON record lines.
fn ndjson_rows(ds: &Dataset, range: std::ops::Range<usize>) -> String {
    let mut out = String::new();
    for i in range {
        let row = Json::Array(ds.row(i).iter().map(|&v| Json::from(v)).collect());
        out.push_str(&row.render());
        out.push('\n');
    }
    out
}

/// The NDJSON a direct [`OnlineScorer`] produces for rows `range` — the
/// reference the served output must match byte for byte.
fn reference_stream(model: &FittedModel, ds: &Dataset, range: std::ops::Range<usize>) -> String {
    let mut scorer = OnlineScorer::new(model.clone()).unwrap();
    let mut out = String::new();
    for i in range {
        let verdict = scorer.score_record(ds.row(i)).unwrap();
        out.push_str(&verdict_json(&verdict, &scorer).unwrap().render());
        out.push('\n');
    }
    out
}

fn body_text(response: &Response) -> &str {
    std::str::from_utf8(&response.body).unwrap()
}

fn body_json(response: &Response) -> Json {
    Json::parse(body_text(response)).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hdoutlier-serve-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn served_verdicts_are_byte_identical_to_a_direct_scorer_stream() {
    let (model, ds) = fitted(71);
    let app = ServeApp::new(ServeConfig::default());

    let created = app.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"a\""),
    ));
    assert_eq!(created.status, 201, "{}", body_text(&created));

    // Two requests, split mid-stream: the session must carry scorer state
    // across requests exactly as one continuous stream run would.
    let mut served = String::new();
    for range in [0..37, 37..120] {
        let response = app.handle(&req("POST", "/sessions/a/score", ndjson_rows(&ds, range)));
        assert_eq!(response.status, 200, "{}", body_text(&response));
        served.push_str(body_text(&response));
    }
    assert_eq!(served, reference_stream(&model, &ds, 0..120));

    let status = body_json(&app.handle(&req("GET", "/sessions/a", "")));
    assert_eq!(
        status.get("records_scored").unwrap().as_number(),
        Some(120.0)
    );
    assert_eq!(status.get("line_no").unwrap().as_number(), Some(120.0));
    assert!(matches!(status.get("tripped"), Some(Json::Null)));
}

#[test]
fn batched_scoring_matches_record_at_a_time_byte_for_byte() {
    let (model, ds) = fitted(73);
    let app = ServeApp::new(ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    });
    // A batch size that does not divide the request's record count, so the
    // final partial batch path runs too.
    let created = app.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"b\", \"batch\": 7"),
    ));
    assert_eq!(created.status, 201, "{}", body_text(&created));
    let response = app.handle(&req("POST", "/sessions/b/score", ndjson_rows(&ds, 0..90)));
    assert_eq!(response.status, 200);
    assert_eq!(body_text(&response), reference_stream(&model, &ds, 0..90));
}

#[test]
fn sessions_are_isolated_from_each_other() {
    let (model_a, ds_a) = fitted(79);
    let (model_b, ds_b) = fitted(83);
    let app = ServeApp::new(ServeConfig::default());

    for (id, model, extra) in [
        ("alpha", &model_a, "\"id\": \"alpha\""),
        (
            "beta",
            &model_b,
            "\"id\": \"beta\", \"batch\": 4, \"on_error\": \"skip\"",
        ),
    ] {
        let created = app.handle(&req("POST", "/sessions", create_body(model, extra)));
        assert_eq!(created.status, 201, "create {id}: {}", body_text(&created));
    }

    // Interleave requests between the two sessions; each must produce the
    // same bytes as its own dedicated stream, unaffected by the other.
    let mut out_a = String::new();
    let mut out_b = String::new();
    for chunk in 0..4 {
        let range = chunk * 25..(chunk + 1) * 25;
        let ra = app.handle(&req(
            "POST",
            "/sessions/alpha/score",
            ndjson_rows(&ds_a, range.clone()),
        ));
        let rb = app.handle(&req(
            "POST",
            "/sessions/beta/score",
            ndjson_rows(&ds_b, range),
        ));
        assert_eq!(ra.status, 200);
        assert_eq!(rb.status, 200);
        out_a.push_str(body_text(&ra));
        out_b.push_str(body_text(&rb));
    }
    assert_eq!(out_a, reference_stream(&model_a, &ds_a, 0..100));
    assert_eq!(out_b, reference_stream(&model_b, &ds_b, 0..100));

    // A malformed record trips alpha (abort policy) — beta keeps scoring.
    let tripped = app.handle(&req("POST", "/sessions/alpha/score", "[1, 2]\n"));
    assert_eq!(tripped.status, 409);
    let rb = app.handle(&req(
        "POST",
        "/sessions/beta/score",
        ndjson_rows(&ds_b, 100..110),
    ));
    assert_eq!(rb.status, 200);
    let tail: String = reference_stream(&model_b, &ds_b, 0..110)
        .lines()
        .skip(100)
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(body_text(&rb), tail);
}

#[test]
fn abort_policy_trips_the_session_and_it_refuses_further_scoring() {
    let (model, ds) = fitted(89);
    let app = ServeApp::new(ServeConfig::default());
    app.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"t\""),
    ));

    // Good records, then a bad one mid-request: the response carries the
    // verdicts scored before the trip (partial NDJSON) with status 409.
    let mut body = ndjson_rows(&ds, 0..5);
    body.push_str("not json\n");
    body.push_str(&ndjson_rows(&ds, 5..10));
    let response = app.handle(&req("POST", "/sessions/t/score", body));
    assert_eq!(response.status, 409);
    assert_eq!(body_text(&response), reference_stream(&model, &ds, 0..5));

    // The trip is sticky: later requests get a JSON error, not verdicts.
    let refused = app.handle(&req("POST", "/sessions/t/score", ndjson_rows(&ds, 10..12)));
    assert_eq!(refused.status, 409);
    let error = body_json(&refused);
    let message = error.get("error").unwrap().as_str().unwrap();
    assert!(message.contains("session tripped"), "{message}");
    assert!(message.contains("line 6"), "{message}");

    let status = body_json(&app.handle(&req("GET", "/sessions/t", "")));
    assert!(status.get("tripped").unwrap().as_str().is_some());
    assert_eq!(status.get("records_scored").unwrap().as_number(), Some(5.0));

    // Deleting a tripped session frees its slot.
    assert_eq!(app.handle(&req("DELETE", "/sessions/t", "")).status, 200);
    assert_eq!(app.handle(&req("GET", "/sessions/t", "")).status, 404);
}

#[test]
fn skip_policy_emits_error_lines_and_the_breaker_trips_on_a_run_of_failures() {
    let (model, ds) = fitted(97);
    let app = ServeApp::new(ServeConfig::default());
    app.handle(&req(
        "POST",
        "/sessions",
        create_body(
            &model,
            "\"id\": \"s\", \"on_error\": \"skip\", \"max_consecutive_errors\": 2",
        ),
    ));

    // One bad record between good ones: an error verdict in place, scoring
    // continues, and the line numbering stays aligned with the input.
    let mut body = ndjson_rows(&ds, 0..3);
    body.push_str("[\"oops\"]\n");
    body.push_str(&ndjson_rows(&ds, 3..6));
    let response = app.handle(&req("POST", "/sessions/s/score", body));
    assert_eq!(response.status, 200);
    let lines: Vec<&str> = body_text(&response).lines().collect();
    assert_eq!(lines.len(), 7);
    let error_line = Json::parse(lines[3]).unwrap();
    assert_eq!(error_line.get("line").unwrap().as_number(), Some(4.0));
    assert_eq!(error_line.get("action").unwrap().as_str(), Some("skip"));

    // Three consecutive bad records exceed max_consecutive_errors=2: the
    // first two are skipped with error verdicts, the third trips.
    let junk = "nope\nnope\nnope\n";
    let tripped = app.handle(&req("POST", "/sessions/s/score", junk));
    assert_eq!(tripped.status, 409);
    assert_eq!(body_text(&tripped).lines().count(), 2);

    let status = body_json(&app.handle(&req("GET", "/sessions/s", "")));
    assert_eq!(status.get("skipped").unwrap().as_number(), Some(3.0));
    let reason = status.get("tripped").unwrap().as_str().unwrap();
    assert!(reason.contains("max_consecutive_errors 2"), "{reason}");
}

#[test]
fn quarantine_policy_files_a_request_envelope_and_a_bad_path_refuses_the_session() {
    let (model, ds) = fitted(99);
    let dir = temp_dir("quarantine");
    let app = ServeApp::new(ServeConfig::default());
    let create = |id: &str, path: &std::path::Path| {
        let extra = format!(
            "\"id\": \"{id}\", \"on_error\": \"quarantine:{}\"",
            path.display()
        );
        app.handle(&req("POST", "/sessions", create_body(&model, &extra)))
    };
    let qpath = dir.join("bad.ndjson");
    let created = create("q", &qpath);
    assert_eq!(created.status, 201, "{}", body_text(&created));

    let body = ndjson_rows(&ds, 0..2) + "[1, 2]\n" + &ndjson_rows(&ds, 2..3);
    let response = app.handle(&req_with_id("POST", "/sessions/q/score", "req-q1", body));
    assert_eq!(response.status, 200, "{}", body_text(&response));
    assert!(body_text(&response).contains("\"action\":\"quarantine\""));

    // One envelope naming the request, the session and the line.
    let filed = std::fs::read_to_string(&qpath).unwrap();
    let entries: Vec<&str> = filed.lines().collect();
    assert_eq!(entries.len(), 1, "{filed}");
    let entry = Json::parse(entries[0]).unwrap();
    assert_eq!(entry.get("request_id").unwrap().as_str(), Some("req-q1"));
    assert_eq!(entry.get("session_id").unwrap().as_str(), Some("q"));
    assert_eq!(entry.get("line").unwrap().as_number(), Some(3.0));
    assert_eq!(entry.get("raw").unwrap().as_str(), Some("[1, 2]"));

    // A quarantine file that cannot be opened refuses the session up front.
    let refused = create("q2", &dir.join("missing-dir").join("bad.ndjson"));
    assert_eq!(refused.status, 500, "{}", body_text(&refused));
    assert!(body_text(&refused).contains("cannot open quarantine file"));
    assert_eq!(app.handle(&req("GET", "/sessions/q2", "")).status, 404);
}

#[test]
fn checkpoint_resume_round_trip_continues_the_exact_stream() {
    let (model, ds) = fitted(101);
    let dir = temp_dir("resume");

    // First server lifetime: score 40 records with a checkpoint cadence,
    // then delete (which writes a final checkpoint).
    let first = ServeApp::new(ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let created = first.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"r\", \"checkpoint_every\": 10"),
    ));
    assert_eq!(created.status, 201, "{}", body_text(&created));
    let response = first.handle(&req("POST", "/sessions/r/score", ndjson_rows(&ds, 0..40)));
    assert_eq!(response.status, 200);
    assert_eq!(first.handle(&req("DELETE", "/sessions/r", "")).status, 200);

    let ckpt_path = dir.join("r.ckpt.json");
    let checkpoint = Checkpoint::load(&ckpt_path).unwrap();
    assert_eq!(checkpoint.records_scored, 40);

    // Second server lifetime: resume and keep scoring. The continuation
    // must be byte-identical to the tail of one uninterrupted stream.
    let second = ServeApp::new(ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let resumed = second.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"r\", \"resume\": true"),
    ));
    assert_eq!(resumed.status, 201, "{}", body_text(&resumed));
    let status = body_json(&resumed);
    assert_eq!(
        status.get("records_scored").unwrap().as_number(),
        Some(40.0)
    );
    assert!(matches!(status.get("resumed"), Some(Json::Bool(true))));

    let response = second.handle(&req("POST", "/sessions/r/score", ndjson_rows(&ds, 40..100)));
    assert_eq!(response.status, 200);
    let full = reference_stream(&model, &ds, 0..100);
    let tail: String = full.lines().skip(40).map(|l| format!("{l}\n")).collect();
    assert_eq!(body_text(&response), tail);

    // Without the resume flag, the same id starts fresh instead.
    assert_eq!(second.handle(&req("DELETE", "/sessions/r", "")).status, 200);
    let fresh = second.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"r\""),
    ));
    let status = body_json(&fresh);
    assert_eq!(status.get("records_scored").unwrap().as_number(), Some(0.0));
}

#[test]
fn forced_checkpoints_need_a_directory_and_write_atomically() {
    let (model, ds) = fitted(103);

    // No checkpoint directory configured: the route answers 400.
    let bare = ServeApp::new(ServeConfig::default());
    bare.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"c\""),
    ));
    let refused = bare.handle(&req("POST", "/sessions/c/checkpoint", ""));
    assert_eq!(refused.status, 400, "{}", body_text(&refused));

    // With one: the route writes and reports the path.
    let dir = temp_dir("forced");
    let app = ServeApp::new(ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    app.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"c\""),
    ));
    app.handle(&req("POST", "/sessions/c/score", ndjson_rows(&ds, 0..13)));
    let response = app.handle(&req("POST", "/sessions/c/checkpoint", ""));
    assert_eq!(response.status, 200);
    let doc = body_json(&response);
    assert_eq!(doc.get("records_scored").unwrap().as_number(), Some(13.0));
    let loaded = Checkpoint::load(&dir.join("c.ckpt.json")).unwrap();
    assert_eq!(loaded.records_scored, 13);
}

#[test]
fn router_rejects_what_it_should() {
    let (model, _ds) = fitted(107);
    let app = ServeApp::new(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });

    assert_eq!(app.handle(&req("GET", "/nowhere", "")).status, 404);
    assert_eq!(
        app.handle(&req("POST", "/sessions/ghost/score", "[]"))
            .status,
        404
    );
    assert_eq!(app.handle(&req("PATCH", "/sessions/ghost", "")).status, 404);
    assert_eq!(app.handle(&req("GET", "/shutdown", "")).status, 405);
    assert_eq!(
        app.handle(&req("POST", "/sessions", "{\"id\": 3}")).status,
        400
    );
    assert_eq!(
        app.handle(&req("POST", "/sessions", "not json")).status,
        400
    );
    assert_eq!(
        app.handle(&req("POST", "/sessions", "{\"id\": \"no-model\"}"))
            .status,
        400
    );

    // Duplicate ids conflict; the session cap answers 503.
    let body = create_body(&model, "\"id\": \"one\"");
    assert_eq!(
        app.handle(&req("POST", "/sessions", body.clone())).status,
        201
    );
    assert_eq!(app.handle(&req("POST", "/sessions", body)).status, 409);
    assert_eq!(
        app.handle(&req(
            "POST",
            "/sessions",
            create_body(&model, "\"id\": \"two\"")
        ))
        .status,
        201
    );
    assert_eq!(
        app.handle(&req(
            "POST",
            "/sessions",
            create_body(&model, "\"id\": \"three\"")
        ))
        .status,
        503
    );

    // The list endpoint names the live sessions.
    let listed = body_json(&app.handle(&req("GET", "/sessions", "")));
    let ids: Vec<&str> = listed
        .get("sessions")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(ids, ["one", "two"]);

    // Telemetry routes answer on the same app. The deliberately provoked
    // 503 above burned SLO error budget, so /healthz may legitimately
    // answer 503 here — what matters is that the routes respond and the
    // SLO report names the route that took the traffic.
    let health = app.handle(&req("GET", "/healthz", "")).status;
    assert!(health == 200 || health == 503, "unexpected status {health}");
    assert_eq!(app.handle(&req("GET", "/metrics", "")).status, 200);
    let status = app.handle(&req("GET", "/status", ""));
    assert_eq!(status.status, 200);
    let body = String::from_utf8(status.body).unwrap();
    assert!(body.contains("\"key\":\"route:/sessions\""), "{body}");
}

#[test]
fn profile_endpoint_renders_svg_and_folded_under_live_scoring() {
    let (model, ds) = fitted(223);
    let app = ServeApp::new(ServeConfig::default());
    assert_eq!(
        app.handle(&req(
            "POST",
            "/sessions",
            create_body(&model, "\"id\": \"p\"")
        ))
        .status,
        201
    );

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (svg, folded) = std::thread::scope(|scope| {
        // Keep the scoring route hot so the sampling window observes the
        // serve request span stack.
        scope.spawn(|| {
            let rows = ndjson_rows(&ds, 0..50);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let response = app.handle(&req("POST", "/sessions/p/score", rows.clone()));
                assert_eq!(response.status, 200);
            }
        });
        let svg = app.handle(&Request {
            query: Some("seconds=0.4&hz=500&format=svg".to_string()),
            ..req("GET", "/profile", "")
        });
        let folded = app.handle(&Request {
            query: Some("seconds=0.3&hz=500".to_string()),
            ..req("GET", "/profile", "")
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (svg, folded)
    });

    assert_eq!(svg.status, 200);
    assert_eq!(svg.content_type, "image/svg+xml");
    let svg_body = String::from_utf8(svg.body).unwrap();
    assert!(svg_body.starts_with("<?xml"), "{svg_body}");
    assert!(svg_body.contains("<svg xmlns="), "{svg_body}");
    assert!(svg_body.trim_end().ends_with("</svg>"), "{svg_body}");

    assert_eq!(folded.status, 200);
    let folded_body = String::from_utf8(folded.body).unwrap();
    assert!(
        folded_body.contains("hdoutlier.serve.request"),
        "no serve frame in folded output:\n{folded_body}"
    );

    // A bad format is a 400, not a silent default.
    let bad = app.handle(&Request {
        query: Some("format=gif".to_string()),
        ..req("GET", "/profile", "")
    });
    assert_eq!(bad.status, 400);
}

#[test]
fn drain_checkpoints_every_session_and_closes_the_listener() {
    let (model, ds) = fitted(109);
    let dir = temp_dir("drain");
    let handle = ServeHandle::bind(
        "127.0.0.1:0",
        ServeConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    let app = Arc::clone(handle.app());

    for id in ["d1", "d2"] {
        let created = app.handle(&req(
            "POST",
            "/sessions",
            create_body(&model, &format!("\"id\": \"{id}\"")),
        ));
        assert_eq!(created.status, 201);
        let scored = app.handle(&req(
            "POST",
            &format!("/sessions/{id}/score"),
            ndjson_rows(&ds, 0..17),
        ));
        assert_eq!(scored.status, 200);
    }

    // While draining, new sessions and new scoring are refused.
    app.request_shutdown();
    assert_eq!(
        app.handle(&req(
            "POST",
            "/sessions",
            create_body(&model, "\"id\": \"late\"")
        ))
        .status,
        503
    );
    assert_eq!(
        app.handle(&req("POST", "/sessions/d1/score", ndjson_rows(&ds, 17..18)))
            .status,
        503
    );

    let report = handle.drain();
    assert_eq!(report.sessions, 2);
    assert_eq!(report.checkpointed, 2);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    for id in ["d1", "d2"] {
        let loaded = Checkpoint::load(&dir.join(format!("{id}.ckpt.json"))).unwrap();
        assert_eq!(loaded.records_scored, 17);
    }
    // The listener is gone: connecting now fails.
    assert!(std::net::TcpStream::connect(addr).is_err());
}

/// A request carrying a client-supplied `X-Request-Id`: header and
/// connection id agree, which is the condition that keys the replay cache.
fn req_with_id(method: &str, path: &str, id: &str, body: impl Into<Vec<u8>>) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        headers: vec![("x-request-id".to_string(), id.to_string())],
        body: body.into(),
        http1_0: false,
        request_id: id.to_string(),
    }
}

#[test]
fn replay_cache_evicts_fifo_at_the_capacity_boundary() {
    let (model, ds) = fitted(83);
    let app = ServeApp::new(ServeConfig {
        replay_cache: 2,
        ..ServeConfig::default()
    });
    let created = app.handle(&req(
        "POST",
        "/sessions",
        create_body(&model, "\"id\": \"r\""),
    ));
    assert_eq!(created.status, 201, "{}", body_text(&created));

    let records_scored = || {
        body_json(&app.handle(&req("GET", "/sessions/r", "")))
            .get("records_scored")
            .unwrap()
            .as_number()
            .unwrap()
    };

    // Fill the cache exactly to capacity: r1 then r2.
    let body1 = ndjson_rows(&ds, 0..3);
    let body2 = ndjson_rows(&ds, 3..6);
    let body3 = ndjson_rows(&ds, 6..9);
    let resp1 = app.handle(&req_with_id(
        "POST",
        "/sessions/r/score",
        "r1",
        body1.clone(),
    ));
    let resp2 = app.handle(&req_with_id(
        "POST",
        "/sessions/r/score",
        "r2",
        body2.clone(),
    ));
    assert_eq!(resp1.status, 200);
    assert_eq!(resp2.status, 200);
    assert_eq!(records_scored(), 6.0);

    // At capacity, a cached id replays byte-identically without advancing
    // the scorer.
    let replayed = app.handle(&req_with_id(
        "POST",
        "/sessions/r/score",
        "r2",
        body2.clone(),
    ));
    assert_eq!(replayed.body, resp2.body, "replay must be byte-identical");
    assert_eq!(records_scored(), 6.0, "replay must not re-score");

    // The (N+1)th distinct id crosses the boundary and evicts the OLDEST
    // entry (r1) — insertion-order FIFO, unmoved by r2's recent hit.
    let resp3 = app.handle(&req_with_id(
        "POST",
        "/sessions/r/score",
        "r3",
        body3.clone(),
    ));
    assert_eq!(resp3.status, 200);
    assert_eq!(records_scored(), 9.0);

    // Survivors r2 and r3 still replay...
    let replayed = app.handle(&req_with_id("POST", "/sessions/r/score", "r3", body3));
    assert_eq!(replayed.body, resp3.body);
    let replayed = app.handle(&req_with_id("POST", "/sessions/r/score", "r2", body2));
    assert_eq!(replayed.body, resp2.body);
    assert_eq!(records_scored(), 9.0, "hits never advance the scorer");

    // ...but the evicted r1 misses and RE-SCORES: same input rows, scored
    // at the stream's current position, so the verdict indices differ from
    // the original response.
    let rescored = app.handle(&req_with_id("POST", "/sessions/r/score", "r1", body1));
    assert_eq!(rescored.status, 200);
    assert_eq!(records_scored(), 12.0, "an evicted id re-scores");
    assert_ne!(
        rescored.body, resp1.body,
        "re-scored batch carries advanced stream indices"
    );
    // Exactly what a continuous scorer would emit for rows 0..9 then 0..3.
    let mut scorer = OnlineScorer::new(model.clone()).unwrap();
    let mut expected = String::new();
    for i in (0..9).chain(0..3) {
        let verdict = scorer.score_record(ds.row(i)).unwrap();
        expected.push_str(&verdict_json(&verdict, &scorer).unwrap().render());
        expected.push('\n');
    }
    assert_eq!(
        body_text(&rescored),
        &expected[expected.len() - rescored.body.len()..]
    );
}
