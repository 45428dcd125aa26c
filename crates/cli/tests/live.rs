//! End-to-end tests of the live telemetry surface against the compiled
//! binary: scrape a running `stream --serve-metrics` over real TCP, and
//! validate `--trace-out` output with the in-tree JSON parser.

use hdoutlier_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdoutlier"))
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hdoutlier-live-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A planted CSV plus a model fitted on it by the real binary.
fn fitted_model(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 300,
        n_dims: 6,
        n_outliers: 3,
        strong_groups: Some(2),
        seed: 47,
        ..PlantedConfig::default()
    });
    let csv = temp_dir().join(format!("{name}.csv"));
    hdoutlier_data::csv::write_path(&planted.dataset, &csv).expect("writable");
    let model = temp_dir().join(format!("{name}.model.json"));
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
    (csv, model)
}

/// One bounded HTTP GET against the scraped endpoint.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: live\r\n\r\n").as_bytes())
        .expect("request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("response");
    out
}

#[test]
fn stream_serve_metrics_is_scrapable_while_running() {
    let (csv, model) = fitted_model("live-stream");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    let n_records = csv_text.lines().count() - 1;

    let mut child = binary()
        .args([
            "stream",
            "--model",
            model.to_str().unwrap(),
            "--serve-metrics",
            "127.0.0.1:0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stream");

    // The server's bound address is echoed on stderr before any verdict.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("banner line");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split("/metrics").next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    // Feed every record and wait for all verdicts, so the scrape observes a
    // known record count while the process is still alive.
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(csv_text.as_bytes()).expect("feed records");
    stdin.flush().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut verdicts = 0usize;
    let mut line = String::new();
    while verdicts < n_records {
        line.clear();
        let n = stdout.read_line(&mut line).expect("verdict line");
        assert_ne!(n, 0, "stream exited after {verdicts} verdicts");
        verdicts += 1;
    }

    let health = http_get(&addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
    // The acceptance counter, with at least this run's records in it.
    let records_line = metrics
        .lines()
        .find(|l| l.starts_with("hdoutlier_stream_records_total "))
        .unwrap_or_else(|| panic!("no records counter in:\n{metrics}"));
    let total: u64 = records_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(total >= n_records as u64, "{records_line}");
    // Serving implies timing: the latency histogram has populated buckets.
    assert!(
        metrics.contains("hdoutlier_stream_record_latency_us_bucket{le=\""),
        "{metrics}"
    );
    let latency_count = metrics
        .lines()
        .find(|l| l.starts_with("hdoutlier_stream_record_latency_us_count "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("latency count sample");
    assert!(latency_count >= n_records as u64, "{metrics}");
    // Process metrics ride along on every scrape.
    assert!(
        metrics.contains("hdoutlier_process_uptime_seconds"),
        "{metrics}"
    );
    assert!(
        metrics.contains("hdoutlier_process_start_ts_us_total"),
        "{metrics}"
    );

    let snapshot = http_get(&addr, "/snapshot");
    let body = snapshot.split("\r\n\r\n").nth(1).expect("snapshot body");
    let hist_line = body
        .lines()
        .find(|l| l.contains("\"metric\":\"hdoutlier.stream.record_latency_us\""))
        .unwrap_or_else(|| panic!("no latency histogram in:\n{body}"));
    let j = Json::parse(hist_line).expect("snapshot line parses");
    assert!(j.get("buckets").is_some(), "{hist_line}");

    // EOF on stdin ends the stream; the server joins and the exit is clean.
    drop(stdin);
    let status = child.wait().expect("wait");
    assert!(status.success(), "{status:?}");
}

#[test]
fn trace_out_from_the_binary_is_valid_chrome_trace() {
    let (csv, _model) = fitted_model("live-trace");
    let trace = temp_dir().join("live-trace.trace.json");
    let out = binary()
        .args([
            "detect",
            "--phi=4",
            "--k=2",
            "--m=5",
            "--search=brute",
            "--quiet",
            "--trace-out",
            trace.to_str().unwrap(),
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("spawn detect");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let j = Json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let events = j
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // The detector's phases appear as begin/end pairs with the Chrome
    // trace-event fields Perfetto requires.
    assert!(!events.is_empty(), "{text}");
    assert_eq!(events.len() % 2, 0, "unpaired events: {text}");
    for e in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "missing {key} in {text}");
        }
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"search"), "{names:?}");
    assert!(names.contains(&"discretize"), "{names:?}");
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert_eq!(
        phases.iter().filter(|&&p| p == "B").count(),
        phases.iter().filter(|&&p| p == "E").count(),
        "{phases:?}"
    );
}
