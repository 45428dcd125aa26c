//! Serving-path bench: records/second and request latency through the
//! whole `hdoutlier serve` stack — HTTP framing, session registry, NDJSON
//! parse, pooled scoring, NDJSON render — over real loopback TCP.
//!
//! ```text
//! cargo run -p hdoutlier-bench --release --bin serve_bench -- \
//!     [n_records] [records_per_request] [--bench-json <path>] \
//!     [--assert-against <BENCH_serve.json> [--tolerance <frac>]]
//! ```
//!
//! One session is created on an in-process [`ServeHandle`]; the client
//! then POSTs `n_records / records_per_request` scoring requests on a
//! single keep-alive connection and times each round trip. The datapoint
//! (`BENCH_serve.json`, schema `hdoutlier-bench/1`) records the end-to-end
//! throughput and the per-request latency percentiles — the `latency_us`
//! block is request round-trip time here, not per-record time.
//!
//! With `--assert-against <BENCH_serve.json>` the run becomes a regression
//! gate: the `serve.score` us/record is compared to the baseline datapoint
//! and the process exits 1 when it exceeds `baseline * (1 + --tolerance)`
//! (default 0.5 — generous because absolute wall-clock varies across
//! machines; the gate catches order-of-magnitude slips in the serving hot
//! path, e.g. per-request allocation storms or accidental lock convoys in
//! the labeled-metrics layer).

use hdoutlier_bench::bench_json::{baseline_us_per_record, BenchReport, Percentiles};
use hdoutlier_core::{OutlierDetector, SearchMethod};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_json::Json;
use hdoutlier_net::retry::{Backoff, RetryPolicy};
use hdoutlier_net::ServerConfig;
use hdoutlier_serve::{ServeConfig, ServeHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_path = |flag: &str| match args.iter().position(|a| a == flag) {
        Some(i) if i + 1 < args.len() => {
            let path = args.remove(i + 1);
            args.remove(i);
            Some(path)
        }
        Some(_) => {
            eprintln!("{flag} requires a path");
            std::process::exit(2);
        }
        None => None,
    };
    let bench_json = take_path("--bench-json");
    let assert_against = take_path("--assert-against");
    let tolerance: f64 = match take_path("--tolerance") {
        None => 0.5,
        Some(raw) => match raw.parse() {
            Ok(t) if t > 0.0 => t,
            _ => {
                eprintln!("--tolerance must be a positive fraction, got {raw:?}");
                std::process::exit(2);
            }
        },
    };
    let n_records: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let per_request: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let n_requests = n_records / per_request;
    assert!(n_requests >= 1, "need at least one full request");

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

    // Pre-render every request body so the timed loop measures the server,
    // not the client's formatter. Records cycle through the dataset.
    let bodies: Vec<String> = (0..n_requests)
        .map(|r| {
            let mut body = String::with_capacity(per_request * 16 * 8);
            for i in 0..per_request {
                let row = planted
                    .dataset
                    .row((r * per_request + i) % planted.dataset.n_rows());
                let line = Json::Array(row.iter().map(|&v| Json::from(v)).collect());
                body.push_str(&line.render());
                body.push('\n');
            }
            body
        })
        .collect();

    let handle = ServeHandle::bind(
        "127.0.0.1:0",
        ServeConfig {
            http: ServerConfig {
                // Keep the bench's single connection alive for the whole run.
                max_requests_per_connection: n_requests + 8,
                ..ServerConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let create = format!("{{\"id\": \"bench\", \"batch\": 64, \"model\": {model_json}}}");
    let (status, _, _) = request(&mut conn, "POST", "/sessions", &create, None);
    assert_eq!(status, 201, "session create failed");

    // Warm-up request (connection, page faults, lazy init), untimed.
    let (status, _) = score(&mut conn, &bodies[0], "bench-warmup");
    assert_eq!(status, 200);

    let mut latencies_us: Vec<f64> = Vec::with_capacity(n_requests);
    let started = Instant::now();
    for (r, body) in bodies.iter().enumerate() {
        let t0 = Instant::now();
        // A fresh X-Request-Id per logical request; shed 503s are retried
        // under the same id, so the time a shedding server costs the
        // client (backoff included) lands in this request's latency.
        let (status, _) = score(&mut conn, body, &format!("bench-{r}"));
        assert_eq!(status, 200, "scoring request failed");
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let scored = (n_requests * per_request) as u64;

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| latencies_us[((latencies_us.len() - 1) as f64 * q) as usize];
    let percentiles = Percentiles {
        count: latencies_us.len() as u64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        max: *latencies_us.last().unwrap(),
    };

    println!(
        "serve_bench: {scored} records in {elapsed:.3}s over {n_requests} requests \
         ({:.0} records/s; request p50 {:.0}us p99 {:.0}us)",
        scored as f64 / elapsed,
        percentiles.p50,
        percentiles.p99
    );

    let report = handle.drain();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    if let Some(path) = bench_json {
        let mut bench = BenchReport::new("serve");
        bench
            .config("n_records", scored as f64)
            .config("records_per_request", per_request as f64)
            .config("n_requests", n_requests as f64)
            .config("batch", 64.0)
            .stage("serve.score", scored, elapsed)
            .latency_us(percentiles);
        std::fs::write(&path, bench.to_json()).expect("write bench json");
        eprintln!("bench datapoint written to {path}");
    }

    if let Some(path) = assert_against {
        let us_per_record = elapsed * 1e6 / scored as f64;
        let baseline = baseline_us_per_record(&path, "serve.score").unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let limit = baseline * (1.0 + tolerance);
        println!(
            "regression gate: serve.score {us_per_record:.3} us/record vs baseline \
             {baseline:.3} (limit {limit:.3}, tolerance {tolerance})"
        );
        if us_per_record > limit {
            eprintln!(
                "REGRESSION: serve.score {us_per_record:.3} us/record exceeds \
                 {limit:.3} ({baseline:.3} from {path} + {:.0}%)",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// One score POST with the idempotent-retry discipline: the request id is
/// reused verbatim across retries, and each `503`'s `Retry-After` floors a
/// decorrelated backoff delay. On a healthy server this is one request.
fn score(conn: &mut TcpStream, body: &str, request_id: &str) -> (u16, String) {
    let seed = request_id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut backoff = Backoff::new(RetryPolicy::default(), seed);
    loop {
        let (status, retry_after, payload) = request(
            conn,
            "POST",
            "/sessions/bench/score",
            body,
            Some(request_id),
        );
        if status != 503 {
            return (status, payload);
        }
        match backoff.next_delay(retry_after) {
            Some(delay) => std::thread::sleep(delay),
            None => return (status, payload),
        }
    }
}

/// One keep-alive HTTP request; returns `(status, retry_after, body)`.
fn request(
    conn: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    request_id: Option<&str>,
) -> (u16, Option<Duration>, String) {
    let id_header = request_id
        .map(|id| format!("X-Request-Id: {id}\r\n"))
        .unwrap_or_default();
    conn.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\n{id_header}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("request write");
    // Head, byte-wise to the blank line; then exactly Content-Length bytes.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(conn.read(&mut byte).expect("head read"), 1, "early EOF");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric length"))
        })
        .expect("content-length header");
    let retry_after = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| hdoutlier_net::retry::parse_retry_after(value))
            .flatten()
    });
    let mut payload = vec![0u8; length];
    conn.read_exact(&mut payload).expect("body read");
    (
        status,
        retry_after,
        String::from_utf8(payload).expect("utf8 body"),
    )
}
