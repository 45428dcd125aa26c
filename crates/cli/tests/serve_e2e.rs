//! End-to-end tests of `hdoutlier serve` against the compiled binary over
//! real TCP: concurrent sessions whose verdict streams must be
//! byte-identical to `hdoutlier stream`, a kill -9 / restart / resume
//! round trip whose continuation must match an uninterrupted run, and
//! graceful drain on SIGTERM and on `POST /shutdown`.

use hdoutlier_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdoutlier"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hdoutlier-serve-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Plants a dataset, fits a model with the real binary, and renders every
/// row once: the same field strings feed both the CSV reference run and
/// the NDJSON served requests, so the two paths parse identical floats.
struct Fixture {
    model: std::path::PathBuf,
    rows: Vec<Vec<String>>,
}

fn fixture(dir: &std::path::Path, seed: u64) -> Fixture {
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 300,
        n_dims: 5,
        n_outliers: 3,
        strong_groups: Some(2),
        seed,
        ..PlantedConfig::default()
    });
    let csv = dir.join("train.csv");
    hdoutlier_data::csv::write_path(&planted.dataset, &csv).expect("writable");
    let model = dir.join("model.json");
    let out = binary()
        .args([
            "detect",
            "--phi=4",
            "--k=2",
            "--m=5",
            "--search=brute",
            "--save-model",
            model.to_str().unwrap(),
            "--quiet",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("spawn detect");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows = (0..planted.dataset.n_rows())
        .map(|i| {
            planted
                .dataset
                .row(i)
                .iter()
                .map(|&v| Json::from(v).render())
                .collect()
        })
        .collect();
    Fixture { model, rows }
}

impl Fixture {
    fn csv_lines(&self, range: std::ops::Range<usize>) -> String {
        self.rows[range]
            .iter()
            .map(|r| format!("{}\n", r.join(",")))
            .collect()
    }

    fn ndjson_lines(&self, range: std::ops::Range<usize>) -> String {
        self.rows[range]
            .iter()
            .map(|r| format!("[{}]\n", r.join(",")))
            .collect()
    }

    /// The reference: `hdoutlier stream` over CSV rows `range`, stdout
    /// captured. Serve responses must reproduce these bytes exactly.
    fn stream_reference(&self, range: std::ops::Range<usize>) -> String {
        let mut child = binary()
            .args([
                "stream",
                "--model",
                self.model.to_str().unwrap(),
                "--no-header",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn stream");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(self.csv_lines(range).as_bytes())
            .expect("feed stream");
        let out = child.wait_with_output().expect("stream run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 verdicts")
    }
}

/// A running `hdoutlier serve` child plus the address from its banner.
struct ServeProc {
    child: Child,
    addr: String,
    stderr_rest: Option<std::thread::JoinHandle<String>>,
}

fn spawn_serve(extra_args: &[&str]) -> ServeProc {
    let mut args = vec!["serve", "--addr", "127.0.0.1:0"];
    args.extend_from_slice(extra_args);
    let mut child = binary()
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // The banner is written before any request is served; under
    // `--log-level info` event lines (e.g. `listening`) may precede it,
    // so scan until the line carrying the address.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let addr = loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("banner line");
        assert!(n > 0, "stderr closed before the serve banner");
        if let Some(addr) = line
            .split("serve: listening on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
        {
            break addr.to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe; the
    // collected text (event log under --log-json) is joinable after exit.
    let stderr_rest = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = stderr.read_to_string(&mut rest);
        rest
    });
    ServeProc {
        child,
        addr,
        stderr_rest: Some(stderr_rest),
    }
}

impl ServeProc {
    fn wait_for_exit(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "serve did not exit in time");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Everything the child wrote to stderr after the banner. Call after
    /// [`ServeProc::wait_for_exit`] — joins the drain thread.
    fn stderr_text(&mut self) -> String {
        self.stderr_rest
            .take()
            .expect("stderr already taken")
            .join()
            .expect("stderr drain thread")
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One close-delimited HTTP request; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http_with_id(addr, method, path, None, body);
    (status, body)
}

/// Like [`http`], optionally sending an `X-Request-Id` header; also
/// returns the `X-Request-Id` the response echoed.
fn http_with_id(
    addr: &str,
    method: &str,
    path: &str,
    request_id: Option<&str>,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let id_header = request_id.map_or(String::new(), |id| format!("X-Request-Id: {id}\r\n"));
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\
                 {id_header}Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("framed response");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let echoed = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-request-id")
                .then(|| value.trim().to_string())
        })
        .unwrap_or_else(|| panic!("no X-Request-Id header in {head:?}"));
    (status, echoed, payload.to_string())
}

fn create_session(addr: &str, model: &std::path::Path, extra: &str) -> (u16, String) {
    let body = format!(
        "{{{extra}\"model_path\": {}}}",
        Json::from(model.to_str().unwrap()).render()
    );
    http(addr, "POST", "/sessions", &body)
}

#[test]
fn concurrent_sessions_match_stream_byte_for_byte() {
    let dir = temp_dir("concurrent");
    let fx = fixture(&dir, 47);
    let serve = spawn_serve(&[]);

    // Two sessions on one server, fed the same records in different chunk
    // sizes.
    let (status, body) = create_session(&serve.addr, &fx.model, "\"id\": \"a\", ");
    assert_eq!(status, 201, "{body}");
    let (status, body) = create_session(&serve.addr, &fx.model, "\"id\": \"b\", ");
    assert_eq!(status, 201, "{body}");

    // Interleaved requests: a and b advance through the same records in
    // different chunk sizes, each oblivious to the other.
    let mut out_a = String::new();
    let mut out_b = String::new();
    let mut fed_b = 0;
    for start in (0..120).step_by(40) {
        let (status, chunk) = http(
            &serve.addr,
            "POST",
            "/sessions/a/score",
            &fx.ndjson_lines(start..start + 40),
        );
        assert_eq!(status, 200, "{chunk}");
        out_a.push_str(&chunk);
        if fed_b < 120 {
            let (status, chunk) = http(
                &serve.addr,
                "POST",
                "/sessions/b/score",
                &fx.ndjson_lines(fed_b..fed_b + 60),
            );
            assert_eq!(status, 200, "{chunk}");
            out_b.push_str(&chunk);
            fed_b += 60;
        }
    }
    let reference = fx.stream_reference(0..120);
    assert_eq!(out_a, reference, "session a diverged from stream");
    assert_eq!(out_b, reference, "session b diverged from stream");

    // The status documents see two isolated sessions at the same offset.
    for id in ["a", "b"] {
        let (status, body) = http(&serve.addr, "GET", &format!("/sessions/{id}"), "");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("records_scored").unwrap().as_number(), Some(120.0));
    }
}

#[test]
fn kill_nine_restart_resume_continues_the_exact_stream() {
    let dir = temp_dir("kill9");
    let fx = fixture(&dir, 53);
    let ckpt_dir = dir.join("ckpts");
    let ckpt_flag = ckpt_dir.to_str().unwrap().to_string();

    // First lifetime: checkpoint every 50 records, requests of exactly 50,
    // so every request boundary is also a checkpoint boundary.
    let mut serve = spawn_serve(&["--checkpoint-dir", &ckpt_flag]);
    let (status, body) = create_session(
        &serve.addr,
        &fx.model,
        "\"id\": \"k\", \"checkpoint_every\": 50, ",
    );
    assert_eq!(status, 201, "{body}");
    let mut first_half = String::new();
    for start in (0..200).step_by(50) {
        let (status, chunk) = http(
            &serve.addr,
            "POST",
            "/sessions/k/score",
            &fx.ndjson_lines(start..start + 50),
        );
        assert_eq!(status, 200, "{chunk}");
        first_half.push_str(&chunk);
    }

    // kill -9: no drain, no final checkpoint, no goodbye.
    serve.child.kill().expect("kill -9");
    serve.child.wait().expect("reap");

    // The durable state is the last cadence checkpoint.
    let ckpt_path = ckpt_dir.join("k.ckpt.json");
    let ckpt = std::fs::read_to_string(&ckpt_path).expect("checkpoint survived the kill");
    let recorded = Json::parse(&ckpt)
        .unwrap()
        .get("scorer")
        .unwrap()
        .get("records_scored")
        .unwrap()
        .as_number()
        .unwrap() as usize;
    assert!(recorded > 0 && recorded <= 200, "recorded={recorded}");
    assert_eq!(recorded, 200, "requests align with the checkpoint cadence");

    // Second lifetime: resume from the checkpoint and finish the stream.
    let serve = spawn_serve(&["--checkpoint-dir", &ckpt_flag]);
    let (status, body) = create_session(
        &serve.addr,
        &fx.model,
        "\"id\": \"k\", \"resume\": true, \"checkpoint_every\": 50, ",
    );
    assert_eq!(status, 201, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("records_scored").unwrap().as_number(), Some(200.0));
    let (status, second_half) = http(
        &serve.addr,
        "POST",
        "/sessions/k/score",
        &fx.ndjson_lines(200..300),
    );
    assert_eq!(status, 200, "{second_half}");

    // Continuation equivalence: interrupted + resumed == uninterrupted.
    let reference = fx.stream_reference(0..300);
    assert_eq!(format!("{first_half}{second_half}"), reference);
}

#[test]
fn sigterm_drains_gracefully_with_final_checkpoints() {
    let dir = temp_dir("sigterm");
    let fx = fixture(&dir, 59);
    let ckpt_dir = dir.join("ckpts");
    let ckpt_flag = ckpt_dir.to_str().unwrap().to_string();

    let mut serve = spawn_serve(&["--checkpoint-dir", &ckpt_flag]);
    let (status, body) = create_session(&serve.addr, &fx.model, "\"id\": \"g\", ");
    assert_eq!(status, 201, "{body}");
    let (status, _) = http(
        &serve.addr,
        "POST",
        "/sessions/g/score",
        &fx.ndjson_lines(0..30),
    );
    assert_eq!(status, 200);

    // SIGTERM (what an orchestrator sends): exit 0 after a full drain.
    let term = Command::new("kill")
        .args(["-TERM", &serve.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let exit = serve.wait_for_exit();
    assert_eq!(exit.code(), Some(0), "drain must exit cleanly");

    // The drain wrote a final checkpoint at the full offset (30 is not on
    // any cadence boundary, so only the drain could have written it).
    let ckpt = std::fs::read_to_string(ckpt_dir.join("g.ckpt.json")).expect("final checkpoint");
    let recorded = Json::parse(&ckpt)
        .unwrap()
        .get("scorer")
        .unwrap()
        .get("records_scored")
        .unwrap()
        .as_number();
    assert_eq!(recorded, Some(30.0));

    // And the listener is gone.
    assert!(TcpStream::connect(&serve.addr).is_err());
}

/// The ci.sh observability smoke: serve boots with `--trace-out` and SLO
/// flags, one session scores one request carrying a client `X-Request-Id`,
/// and the identity threads everywhere it should — echoed on the response,
/// in the NDJSON access-log event, and in the Chrome trace span args —
/// while the verdict body stays byte-identical to `hdoutlier stream`.
/// After drain, `/status` reported healthy and the trace file parses as
/// Chrome trace JSON with per-request spans.
#[test]
fn request_id_threads_through_response_access_log_and_trace() {
    let dir = temp_dir("request-id");
    let fx = fixture(&dir, 67);
    let trace_path = dir.join("trace.json");
    let mut serve = spawn_serve(&[
        "--log-json",
        "--log-level",
        "info",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--slo-error-rate",
        "0.5",
        "--slo-p99-ms",
        "5000",
    ]);

    let (status, body) = create_session(&serve.addr, &fx.model, "\"id\": \"t\", ");
    assert_eq!(status, 201, "{body}");

    // A client-supplied id is echoed verbatim, and the verdict stream is
    // still byte-for-byte what `stream` writes for these records.
    let (status, echoed, verdicts) = http_with_id(
        &serve.addr,
        "POST",
        "/sessions/t/score",
        Some("e2e-req-42"),
        &fx.ndjson_lines(0..40),
    );
    assert_eq!(status, 200, "{verdicts}");
    assert_eq!(echoed, "e2e-req-42");
    assert_eq!(verdicts, fx.stream_reference(0..40));

    // The SLO engine judges the traffic so far (all 2xx, fast) healthy.
    let (status, status_body) = http(&serve.addr, "GET", "/status", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&status_body).expect("status json");
    assert_eq!(doc.get("status").unwrap().as_str(), Some("healthy"));
    let keys: Vec<&str> = doc
        .get("keys")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|k| k.get("key").unwrap().as_str().unwrap())
        .collect();
    assert!(
        keys.contains(&"route:/sessions/{id}/score") && keys.contains(&"session:t"),
        "{keys:?}"
    );
    let (status, health) = http(&serve.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");

    let (status, _) = http(&serve.addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let exit = serve.wait_for_exit();
    assert_eq!(exit.code(), Some(0));

    // The access log (NDJSON events on stderr) has the wide per-request
    // event for the scoring request, tagged with the client's id.
    let stderr = serve.stderr_text();
    let access = stderr
        .lines()
        .find(|l| l.contains("\"event\":\"access\"") && l.contains("\"e2e-req-42\""))
        .unwrap_or_else(|| panic!("no access event for e2e-req-42 in:\n{stderr}"));
    for needle in [
        "\"route\":\"/sessions/{id}/score\"",
        "\"status\":200",
        "\"records\":40",
        "\"request_id\":\"e2e-req-42\"",
        "\"session_id\":\"t\"",
    ] {
        assert!(access.contains(needle), "{needle} missing in {access}");
    }

    // The trace file is valid Chrome JSON whose request spans carry the
    // same identity in their args.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    let trace_json = Json::parse(&trace).expect("valid chrome trace json");
    let events = trace_json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let tagged = events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("request")
            && e.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_str)
                == Some("e2e-req-42")
    });
    assert!(tagged, "no request span with args.request_id in {trace}");
}

/// Requests without a client id get server-generated ones — unique across
/// concurrent connections to different sessions.
#[test]
fn generated_request_ids_are_unique_across_concurrent_sessions() {
    let dir = temp_dir("generated-ids");
    let fx = fixture(&dir, 71);
    let serve = spawn_serve(&[]);
    for id in ["u1", "u2", "u3"] {
        let (status, body) = create_session(&serve.addr, &fx.model, &format!("\"id\": \"{id}\", "));
        assert_eq!(status, 201, "{body}");
    }

    let handles: Vec<_> = ["u1", "u2", "u3"]
        .into_iter()
        .map(|id| {
            let addr = serve.addr.clone();
            let lines = fx.ndjson_lines(0..10);
            std::thread::spawn(move || {
                (0..4)
                    .map(|_| {
                        let (status, echoed, body) = http_with_id(
                            &addr,
                            "POST",
                            &format!("/sessions/{id}/score"),
                            None,
                            &lines,
                        );
                        assert_eq!(status, 200, "{body}");
                        echoed
                    })
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    let ids: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("scoring thread"))
        .collect();
    assert_eq!(ids.len(), 12);
    for id in &ids {
        assert_eq!(id.len(), 32, "generated id {id:?} is not 32 hex chars");
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "{id:?}");
    }
    let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate generated ids: {ids:?}");
}

#[test]
fn post_shutdown_drains_like_sigterm() {
    let dir = temp_dir("shutdown");
    let fx = fixture(&dir, 61);
    let mut serve = spawn_serve(&[]);
    let (status, body) = create_session(&serve.addr, &fx.model, "");
    assert_eq!(status, 201, "{body}");

    let (status, body) = http(&serve.addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    let exit = serve.wait_for_exit();
    assert_eq!(exit.code(), Some(0));
}
