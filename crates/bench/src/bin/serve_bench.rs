//! Serving-path bench: time per record through `hdoutlier serve`'s request
//! handler, in process and over loopback TCP.
//!
//! ```text
//! cargo run -p hdoutlier-bench --release --bin serve_bench -- \
//!     [--bench-json <path>] [--assert-against <BENCH_serve.json>]
//! ```
//!
//! Both stages score 200-record NDJSON requests against one session, each
//! the fastest of [`REPEATS`] sweeps that start from a fresh app and
//! session and send one untimed warm-up request:
//! - `serve.handle`: 2,000 requests through [`ServeApp::handle`] in process
//!   — routing, request context, labeled metrics, admission, NDJSON parse,
//!   scoring, NDJSON render — with no socket. This is the gated stage: on
//!   2 shared cores it reads steadily, where a loopback round trip mostly
//!   measures the host's load.
//! - `serve.socket`: 100 requests on one keep-alive loopback connection to
//!   a [`ServeHandle`], adding HTTP framing and the TCP round trip. It is
//!   recorded, not gated, and its request round-trip percentiles (over
//!   every sweep) are the datapoint's `latency_us`.
//!
//! With `--assert-against <BENCH_serve.json>` the `serve.handle` us/record
//! goes through [`assert_against`] against the baseline datapoint.

use hdoutlier_bench::bench_json::{
    assert_against, fastest_of, take_flag, BenchReport, Percentiles, REPEATS,
};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_json::Json;
use hdoutlier_net::{Request, ServerConfig};
use hdoutlier_serve::{ServeApp, ServeConfig, ServeHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The serve gate's tolerance: generous because absolute wall-clock varies
/// across machines; the gate catches order-of-magnitude slips in the
/// serving hot path, e.g. per-request allocation storms or lock convoys in
/// the labeled-metrics layer.
const TOLERANCE: f64 = 0.5;
/// Records per score request.
const PER_REQUEST: usize = 200;
/// Score requests per `serve.handle` sweep.
const HANDLE_REQUESTS: usize = 2_000;
/// Score requests per `serve.socket` sweep.
const SOCKET_REQUESTS: usize = 100;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_json = take_flag(&mut args, "--bench-json");
    let baseline = take_flag(&mut args, "--assert-against");
    if !args.is_empty() {
        eprintln!("usage: serve_bench [--bench-json <path>] [--assert-against <BENCH_serve.json>]");
        std::process::exit(2);
    }

    // A modest model: the bench measures the serving stack, not the search.
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 2_000,
        n_dims: 8,
        n_outliers: 5,
        strong_groups: Some(2),
        seed: 127,
        ..PlantedConfig::default()
    });
    let model = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(8)
        .search(SearchMethod::BruteForce)
        .build()
        .fit(&planted.dataset)
        .unwrap();
    let model_json = hdoutlier_stream::model_io::to_json(&model)
        .unwrap()
        .render();
    let create = format!("{{\"id\": \"bench\", \"model\": {model_json}}}");

    // Pre-render the request bodies so the timed loops measure the server,
    // not the client's formatter. Request r scores the next PER_REQUEST
    // rows, cycling through the dataset, so these bodies repeat in order.
    let n_rows = planted.dataset.n_rows();
    let bodies: Vec<String> = (0..n_rows / PER_REQUEST)
        .map(|r| {
            let mut body = String::with_capacity(PER_REQUEST * 16 * 8);
            for row in r * PER_REQUEST..(r + 1) * PER_REQUEST {
                let line = planted.dataset.row(row).iter().map(|&v| Json::from(v));
                body.push_str(&Json::Array(line.collect()).render());
                body.push('\n');
            }
            body
        })
        .collect();

    let create_request = in_process("/sessions", &create);
    let score_requests: Vec<Request> = bodies
        .iter()
        .map(|body| in_process("/sessions/bench/score", body))
        .collect();
    let handle_s = fastest_of(REPEATS, || {
        let app = ServeApp::new(ServeConfig::default());
        assert_eq!(app.handle(&create_request).status, 201);
        assert_eq!(app.handle(&score_requests[0]).status, 200);
        let t = Instant::now();
        for r in 0..HANDLE_REQUESTS {
            let response = app.handle(&score_requests[r % score_requests.len()]);
            assert_eq!(response.status, 200, "scoring request failed");
        }
        t.elapsed().as_secs_f64()
    });

    let mut latencies_us = Vec::with_capacity(REPEATS * SOCKET_REQUESTS);
    let socket_s = fastest_of(REPEATS, || {
        socket_sweep(&create, &bodies, &mut latencies_us)
    });
    latencies_us.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies_us[((latencies_us.len() - 1) as f64 * q) as usize];
    let percentiles = Percentiles {
        count: latencies_us.len() as u64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        max: pct(1.0),
    };

    let handle_records = (HANDLE_REQUESTS * PER_REQUEST) as u64;
    let socket_records = (SOCKET_REQUESTS * PER_REQUEST) as u64;
    let handle_us = handle_s * 1e6 / handle_records as f64;
    println!(
        "serve_bench: serve.handle {handle_records} records in {handle_s:.3}s \
         ({handle_us:.3} us/record); serve.socket {socket_records} records in {socket_s:.3}s \
         ({:.3} us/record; request p50 {:.0}us p99 {:.0}us)",
        socket_s * 1e6 / socket_records as f64,
        percentiles.p50,
        percentiles.p99
    );

    if let Some(path) = bench_json {
        let mut bench = BenchReport::new("serve");
        bench
            .config("records_per_request", PER_REQUEST as f64)
            .config("handle_requests", HANDLE_REQUESTS as f64)
            .config("socket_requests", SOCKET_REQUESTS as f64)
            .config("repeats", REPEATS as f64)
            .stage("serve.handle", handle_records, handle_s)
            .stage("serve.socket", socket_records, socket_s)
            .latency_us(percentiles);
        bench.write(&path).expect("write bench json");
        eprintln!("bench datapoint written to {path}");
    }

    if let Some(path) = baseline {
        assert_against(&path, TOLERANCE, &[("serve.handle", handle_us)]);
    }
}

/// A `POST` as the server's parser hands it to the app when the client
/// sent no `X-Request-Id`.
fn in_process(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        http1_0: false,
        request_id: "bench".to_string(),
    }
}

/// One `serve.socket` sweep on a fresh server: creates the session, sends
/// one untimed warm-up request, then times `SOCKET_REQUESTS` score round
/// trips on one keep-alive connection, pushing each one's latency.
fn socket_sweep(create: &str, bodies: &[String], latencies_us: &mut Vec<f64>) -> f64 {
    let handle = ServeHandle::bind(
        "127.0.0.1:0",
        ServeConfig {
            http: ServerConfig {
                // Keep the bench's single connection alive for the whole run.
                max_requests_per_connection: SOCKET_REQUESTS + 8,
                ..ServerConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut conn = TcpStream::connect(handle.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(post(&mut conn, "/sessions", create, "bench-create"), 201);
    let score_path = "/sessions/bench/score";
    assert_eq!(post(&mut conn, score_path, &bodies[0], "bench-warmup"), 200);

    let started = Instant::now();
    for r in 0..SOCKET_REQUESTS {
        let t0 = Instant::now();
        let status = post(
            &mut conn,
            score_path,
            &bodies[r % bodies.len()],
            &format!("bench-{r}"),
        );
        assert_eq!(status, 200, "scoring request failed");
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(conn);
    let report = handle.drain();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    elapsed
}

/// One keep-alive HTTP POST under `request_id`; returns the status.
fn post(conn: &mut TcpStream, path: &str, body: &str, request_id: &str) -> u16 {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all((head + body).as_bytes())
        .expect("request write");
    // Head, byte-wise to the blank line; then exactly Content-Length bytes.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(conn.read(&mut byte).expect("head read"), 1, "early EOF");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric length"))
        })
        .expect("content-length header");
    conn.read_exact(&mut vec![0u8; length]).expect("body read");
    let status = head.split_whitespace().nth(1).expect("status code");
    status.parse().expect("numeric status")
}
