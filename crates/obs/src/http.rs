//! Live telemetry serving, riding on the shared [`hdoutlier_net`] HTTP
//! server.
//!
//! Endpoints:
//!
//! - `GET /metrics`  — Prometheus text exposition ([`crate::render_prometheus`])
//! - `GET /healthz`  — `200 ok`, for liveness probes; `503 unhealthy` when
//!   an [`SloEngine`] reports [`crate::SloVerdict::Unhealthy`]
//! - `GET /snapshot` — the registry's NDJSON snapshot (same dialect as
//!   `--metrics-out`)
//! - `GET /status`   — the SLO report ([`crate::SloReport::to_json`];
//!   `?format=text` for the human rendering)
//! - `GET /profile`  — runs a span-stack sampling session
//!   ([`crate::profile_for`]) and returns it; `?seconds=N` (default 2,
//!   capped at 30), `?hz=N` (default 99, capped at 1000), and
//!   `?format=folded|svg|json` select the window, rate, and rendering
//!
//! `/profile` blocks its worker for the whole sampling window by design —
//! the pool has a second worker, so scrapes keep being answered beside a
//! running profile.
//!
//! The HTTP mechanics (bounded request parsing, connection budget, worker
//! threads, graceful drain) live in `hdoutlier-net`; this module is only
//! the telemetry *routes*. [`telemetry_response`] is public so other
//! servers — the `hdoutlier serve` scoring API — can mount the same
//! endpoints on their own listener and get `/metrics` for free. Callers
//! without an SLO engine pass `None` and get an always-healthy `/status`.
//!
//! Connections are handled on a small worker pool with a bounded budget,
//! so one slow or stuck client occupies one worker instead of wedging the
//! accept loop: scrapes keep being answered beside it. Each response
//! closes its connection (`max_requests_per_connection = 1`) — scrape
//! clients open fresh connections per poll, and close-after-response keeps
//! plain `read_to_string` consumers working.

use crate::metrics::{refresh_process_metrics, Registry};
use crate::sink::render_listing;
use crate::slo::{SloEngine, SloVerdict};
use hdoutlier_json::Json;
use hdoutlier_net::{Request, Response, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Routes one request against the telemetry endpoints. Returns `None` for
/// paths this module does not own, so composing servers can try their own
/// routes first and fall back here (or vice versa). `slo` powers `/status`
/// and the `/healthz` verdict; pass `None` to serve both without SLO
/// evaluation (always healthy).
pub fn telemetry_response(
    request: &Request,
    registry: &Registry,
    slo: Option<&SloEngine>,
) -> Option<Response> {
    if !matches!(
        request.path.as_str(),
        "/metrics" | "/healthz" | "/snapshot" | "/status" | "/profile"
    ) {
        return None;
    }
    if request.method != "GET" {
        return Some(Response::text(405, "only GET is supported\n"));
    }
    Some(match request.path.as_str() {
        "/profile" => return Some(profile_response(request.query.as_deref())),
        "/metrics" => {
            refresh_process_metrics();
            Response::text(200, registry.render_prometheus())
                .with_content_type("text/plain; version=0.0.4; charset=utf-8")
        }
        "/healthz" => match slo.map(|engine| engine.evaluate().overall) {
            Some(SloVerdict::Unhealthy) => Response::text(503, "unhealthy\n"),
            _ => Response::text(200, "ok\n"),
        },
        "/status" => {
            let text = request.query.as_deref() == Some("format=text");
            match slo {
                Some(engine) => {
                    let report = engine.evaluate();
                    if text {
                        Response::text(200, report.to_text())
                    } else {
                        Response::json(200, report.to_json().render() + "\n")
                    }
                }
                // No engine: a fixed healthy document, so probes work the
                // same against servers that never configured SLOs.
                None if text => Response::text(200, "status: healthy\n"),
                None => {
                    let healthy = Json::Object(vec![
                        ("status".to_string(), "healthy".into()),
                        ("keys".to_string(), Json::Array(Vec::new())),
                    ]);
                    Response::json(200, healthy.render() + "\n")
                }
            }
        }
        _ => {
            refresh_process_metrics();
            Response::ndjson(200, registry.snapshot_ndjson())
        }
    })
}

/// Handles `GET /profile`: parses the query, runs a blocking sampling
/// session, and renders it. Unknown query keys are ignored (probe
/// forgiveness); malformed values and unknown formats are a 400 so a typo
/// doesn't silently profile with defaults.
fn profile_response(query: Option<&str>) -> Response {
    let mut seconds = 2.0f64;
    let mut hz = 99u32;
    let mut format = "folded";
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s.min(30.0),
                _ => return Response::text(400, "seconds must be a positive number (max 30)\n"),
            },
            "hz" => match value.parse::<u32>() {
                Ok(h) if h > 0 => hz = h.min(1000),
                _ => return Response::text(400, "hz must be a positive integer (max 1000)\n"),
            },
            "format" => match value {
                "folded" | "svg" | "json" => format = value,
                _ => return Response::text(400, "format must be folded, svg, or json\n"),
            },
            _ => {}
        }
    }
    let report = crate::profile::profile_for(Duration::from_secs_f64(seconds), hz);
    match format {
        "svg" => Response::text(200, report.to_svg()).with_content_type("image/svg+xml"),
        "json" => Response::json(200, render_listing(report.to_json())),
        _ => Response::text(200, report.to_folded()),
    }
}

/// The [`ServerConfig`] the telemetry endpoint uses: a couple of workers,
/// a small connection budget, tight limits (scrape requests are tiny), and
/// no keep-alive.
pub fn telemetry_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 16,
        max_head_bytes: 8 * 1024,
        max_body_bytes: 8 * 1024,
        io_timeout: Duration::from_secs(2),
        max_requests_per_connection: 1,
        head_deadline: Duration::from_secs(5),
        body_deadline: Duration::from_secs(5),
        connection_lifetime: Duration::from_secs(30),
        retry_after: Duration::from_secs(1),
    }
}

/// A running telemetry server. Dropping (or calling
/// [`MetricsServer::shutdown`]) stops the worker threads and joins them.
#[derive(Debug)]
pub struct MetricsServer {
    server: Option<Server>,
    addr: SocketAddr,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port `0` picks an ephemeral
    /// port — read it back from [`MetricsServer::local_addr`]) and starts
    /// serving `registry` on background threads.
    ///
    /// # Errors
    /// The bind or thread-spawn failure, untouched.
    pub fn serve(addr: &str, registry: &'static Registry) -> std::io::Result<Self> {
        let handler = Arc::new(move |request: &Request| {
            telemetry_response(request, registry, None).unwrap_or_else(|| {
                Response::text(404, "try /metrics, /healthz, /snapshot, or /status\n")
            })
        });
        let server = Server::bind(addr, telemetry_config(), handler)?;
        let addr = server.local_addr();
        Ok(MetricsServer {
            server: Some(server),
            addr,
        })
    }

    /// The bound address (the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight scrapes, and joins the threads.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// A private registry with `'static` lifetime for the serving thread.
    static TEST_REGISTRY: Registry = Registry::new();

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("response");
        out
    }

    #[test]
    fn serves_metrics_healthz_snapshot_and_errors() {
        TEST_REGISTRY.counter("http.test.hits").add(5);
        TEST_REGISTRY.histogram_with_bounds("http.test.lat", &[1.0]);
        let server = MetricsServer::serve("127.0.0.1:0", &TEST_REGISTRY).expect("bind");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.contains("http_test_hits_total 5"), "{metrics}");
        assert!(
            metrics.contains("http_test_lat_bucket{le=\"+Inf\"} 0"),
            "{metrics}"
        );

        let health = get(addr, "/healthz");
        assert!(health.ends_with("ok\n"), "{health}");

        let snapshot = get(addr, "/snapshot");
        assert!(snapshot.contains("application/x-ndjson"), "{snapshot}");
        assert!(
            snapshot.contains("{\"metric\":\"http.test.hits\",\"type\":\"counter\",\"value\":5}"),
            "{snapshot}"
        );

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let query = get(addr, "/healthz?probe=1");
        assert!(query.starts_with("HTTP/1.1 200"), "{query}");

        // Non-GET is rejected without wedging the server.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");

        server.shutdown();
        // The port is released: a fresh bind to the same address works.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok());
    }

    #[test]
    fn drop_joins_the_serving_thread() {
        let server = MetricsServer::serve("127.0.0.1:0", &TEST_REGISTRY).expect("bind");
        let addr = server.local_addr();
        drop(server);
        // After drop the listener is gone; connects are refused (or time
        // out) rather than being accepted.
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        assert!(refused.is_err(), "listener still accepting after drop");
    }

    #[test]
    fn a_stalled_connection_does_not_block_scrapes() {
        // Open a connection and send nothing: under the old serial-accept
        // server this wedged every scrape behind the 2 s read timeout.
        // With pooled workers the concurrent scrape answers immediately.
        let server = MetricsServer::serve("127.0.0.1:0", &TEST_REGISTRY).expect("bind");
        let addr = server.local_addr();
        let _stalled = TcpStream::connect(addr).expect("stalled connect");
        let start = std::time::Instant::now();
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "scrape waited {:?} behind a stalled connection",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn telemetry_response_composes_for_foreign_paths() {
        let request = Request {
            method: "GET".to_string(),
            path: "/sessions".to_string(),
            query: None,
            headers: vec![],
            body: vec![],
            http1_0: false,
            request_id: "test".to_string(),
        };
        assert!(telemetry_response(&request, &TEST_REGISTRY, None).is_none());
        let request = Request {
            path: "/healthz".to_string(),
            ..request
        };
        let response = telemetry_response(&request, &TEST_REGISTRY, None).expect("owned path");
        assert_eq!(response.status, 200);
    }

    #[test]
    fn profile_endpoint_samples_and_renders_each_format() {
        let request = |query: Option<&str>| Request {
            method: "GET".to_string(),
            path: "/profile".to_string(),
            query: query.map(|q| q.to_string()),
            headers: vec![],
            body: vec![],
            http1_0: false,
            request_id: "test".to_string(),
        };
        // Keep a span alive on a worker so the sample window sees a stack.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let worker_stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            while !worker_stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _g = crate::profile_span("hdoutlier.httptest", "busy");
                std::thread::sleep(Duration::from_millis(1));
            }
        });

        let folded =
            telemetry_response(&request(Some("seconds=0.15&hz=500")), &TEST_REGISTRY, None)
                .unwrap();
        assert_eq!(folded.status, 200);
        let folded_body = String::from_utf8(folded.body).unwrap();
        assert!(
            folded_body.contains("hdoutlier.httptest.busy"),
            "{folded_body}"
        );

        let svg = telemetry_response(
            &request(Some("seconds=0.15&hz=500&format=svg")),
            &TEST_REGISTRY,
            None,
        )
        .unwrap();
        assert_eq!(svg.content_type, "image/svg+xml");
        let svg_body = String::from_utf8(svg.body).unwrap();
        assert!(svg_body.starts_with("<?xml"), "{svg_body}");
        assert!(svg_body.trim_end().ends_with("</svg>"), "{svg_body}");

        let json = telemetry_response(
            &request(Some("format=json&seconds=0.1&hz=500")),
            &TEST_REGISTRY,
            None,
        )
        .unwrap();
        assert_eq!(json.content_type, "application/json");
        assert!(String::from_utf8(json.body).unwrap().contains("\"hz\":500"));

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        worker.join().unwrap();

        for bad in ["format=gif", "seconds=-1", "seconds=forever", "hz=0"] {
            let response = telemetry_response(&request(Some(bad)), &TEST_REGISTRY, None).unwrap();
            assert_eq!(response.status, 400, "query {bad:?}");
        }
    }

    #[test]
    fn status_and_healthz_follow_the_slo_engine() {
        use crate::slo::{SloSample, SloThresholds};
        let request = |path: &str, query: Option<&str>| Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query.map(|q| q.to_string()),
            headers: vec![],
            body: vec![],
            http1_0: false,
            request_id: "test".to_string(),
        };
        // Engine-less servers stay healthy with a fixed document.
        let none = telemetry_response(&request("/status", None), &TEST_REGISTRY, None).unwrap();
        assert_eq!(none.status, 200);
        assert_eq!(
            String::from_utf8(none.body).unwrap(),
            "{\"status\":\"healthy\",\"keys\":[]}\n"
        );

        let engine = SloEngine::new(
            SloThresholds {
                max_error_rate: 0.05,
                max_p99_us: 1e12,
            },
            Duration::from_secs(60),
        );
        engine.observe_at(
            "route:/score",
            SloSample {
                total: 100,
                errors: 50,
                buckets: vec![],
            },
            1_000_000,
        );
        let status =
            telemetry_response(&request("/status", None), &TEST_REGISTRY, Some(&engine)).unwrap();
        assert_eq!(status.status, 200);
        let body = String::from_utf8(status.body).unwrap();
        assert!(body.contains("\"status\":\"unhealthy\""), "{body}");
        assert!(body.ends_with("]}\n"), "{body}");
        assert!(body.contains("\"key\":\"route:/score\""), "{body}");

        let health =
            telemetry_response(&request("/healthz", None), &TEST_REGISTRY, Some(&engine)).unwrap();
        assert_eq!(health.status, 503);

        let text = telemetry_response(
            &request("/status", Some("format=text")),
            &TEST_REGISTRY,
            Some(&engine),
        )
        .unwrap();
        assert!(String::from_utf8(text.body)
            .unwrap()
            .starts_with("status: unhealthy\n"));
    }
}
