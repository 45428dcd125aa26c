//! Talking to `hdoutlier serve` from a client: create a session, stream
//! NDJSON records at it with idempotent retries, read verdicts back,
//! checkpoint, and drain.
//!
//! ```text
//! cargo run --example serve_client
//! ```
//!
//! The example is self-contained: it fits a small model, boots the serving
//! stack in-process on an ephemeral loopback port, and then speaks to it
//! the way any external client would — plain HTTP/1.1 over TCP, no client
//! library. Point the same code at a real `hdoutlier serve` process and it
//! works unchanged.
//!
//! The score POSTs demonstrate the client discipline for a server that
//! sheds load: each logical request gets one `X-Request-Id`, and on a
//! `503` the client waits out the server's `Retry-After` and resends under
//! the *same* id, a fixed number of times at most — the server's
//! per-session replay cache guarantees a retry that raced a delivered
//! response replays the original verdicts instead of scoring the records
//! twice.

use hdoutlier::core::{OutlierDetector, SearchMethod};
use hdoutlier::data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_json::Json;
use hdoutlier_serve::{ServeConfig, ServeHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn main() {
    // --- Server side (normally: `hdoutlier serve --addr 127.0.0.1:8787`).
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 500,
        n_dims: 5,
        n_outliers: 3,
        strong_groups: Some(2),
        seed: 7,
        ..PlantedConfig::default()
    });
    let model = OutlierDetector::builder()
        .phi(4)
        .k(2)
        .m(5)
        .search(SearchMethod::BruteForce)
        .build()
        .fit(&planted.dataset)
        .expect("fit");
    let handle = ServeHandle::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = handle.local_addr().to_string();
    println!("serving on http://{addr}");

    // --- Client side: create a session with the model inline.
    let model_json = hdoutlier::stream::model_io::to_json(&model)
        .expect("render model")
        .render();
    let (status, _, body) = http(
        &addr,
        "POST",
        "/sessions",
        &format!("{{\"id\": \"demo\", \"model\": {model_json}}}"),
        None,
    );
    assert_eq!(status, 201, "{body}");
    println!("created session: {body}");

    // Score fifty records: one JSON array per line, null = missing value.
    let mut records = String::new();
    for i in 0..50 {
        let row = Json::Array(
            planted
                .dataset
                .row(i)
                .iter()
                .map(|&v| Json::from(v))
                .collect(),
        );
        records.push_str(&row.render());
        records.push('\n');
    }
    let (status, verdicts) =
        score_with_retry(&addr, "/sessions/demo/score", &records, "demo-req-1");
    assert_eq!(status, 200, "{verdicts}");
    let outliers = verdicts
        .lines()
        .filter(|l| l.contains("\"outlier\":true"))
        .count();
    println!(
        "scored {} records, {outliers} flagged; first verdict: {}",
        verdicts.lines().count(),
        verdicts.lines().next().unwrap_or("")
    );

    // The status document shows the session's running totals.
    let (status, _, doc) = http(&addr, "GET", "/sessions/demo", "", None);
    assert_eq!(status, 200);
    println!("status: {doc}");

    // --- Drain: in production, SIGTERM or `POST /shutdown` does this.
    let report = handle.drain();
    println!(
        "drained: {} session(s), {} checkpointed",
        report.sessions, report.checkpointed
    );
}

/// Attempts per score POST before the client gives up on a shedding
/// server.
const MAX_ATTEMPTS: u32 = 5;

/// A score POST with the retry discipline: one `X-Request-Id` per logical
/// request, reused verbatim across retries, and on every `503` a wait of
/// the server's `Retry-After` (one second when it sends none).
fn score_with_retry(addr: &str, path: &str, records: &str, request_id: &str) -> (u16, String) {
    let mut attempt = 1;
    loop {
        let (status, retry_after, body) = http(addr, "POST", path, records, Some(request_id));
        if status != 503 || attempt == MAX_ATTEMPTS {
            return (status, body);
        }
        let delay = retry_after.unwrap_or(Duration::from_secs(1));
        println!("server shedding ({body:?}); retrying {request_id} in {delay:?}");
        std::thread::sleep(delay);
        attempt += 1;
    }
}

/// One close-delimited HTTP/1.1 request over a fresh connection. Returns
/// the status, the `Retry-After` hint in whole seconds (if any), and the
/// body.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    request_id: Option<&str>,
) -> (u16, Option<Duration>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let id_header = request_id
        .map(|id| format!("X-Request-Id: {id}\r\n"))
        .unwrap_or_default();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n{id_header}\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("framed response");
    let status = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let retry_after = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok().map(Duration::from_secs))
            .flatten()
    });
    (status, retry_after, payload.to_string())
}
