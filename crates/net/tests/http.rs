//! Wire-level tests for the HTTP server: fragmentation tolerance, bounded
//! heads and bodies, keep-alive semantics, the connection budget, and the
//! drain race (a slow in-flight request finishing while shutdown runs).
//!
//! Everything here talks raw TCP — no client library — because the edge
//! cases under test (split reads, oversized declarations, malformed lines)
//! are exactly the ones a well-behaved client would never send.

use hdoutlier_net::{Request, Response, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An echo server: responds with `method path` and the body length, so
/// assertions can see exactly what was parsed.
fn echo_server(config: ServerConfig) -> Server {
    Server::bind(
        "127.0.0.1:0",
        config,
        Arc::new(|request: &Request| {
            Response::text(
                200,
                format!(
                    "{} {} body={}",
                    request.method,
                    request.path,
                    request.body.len()
                ),
            )
        }),
    )
    .expect("bind")
}

/// One parsed client-side response: status line, headers, body.
struct ClientResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl ClientResponse {
    fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf8 body")
    }
}

/// Reads exactly one framed response off the stream (Content-Length based,
/// which is how this server always frames), leaving the connection usable
/// for the next request.
fn read_response(stream: &mut TcpStream) -> ClientResponse {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Read the head byte-by-byte until the blank line; fine for tests.
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("head read"), 1, "early EOF");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("numeric length"))
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("body read");
    ClientResponse {
        status,
        headers,
        body,
    }
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

#[test]
fn requests_survive_any_fragmentation() {
    let server = echo_server(ServerConfig::default());
    let request = b"POST /sessions/a/score HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world";
    // Split the byte stream at every position in turn, with a pause between
    // the halves, so head/body boundaries land mid-token, mid-CRLF, and
    // mid-body. The parser must reassemble every variant identically.
    for split in [1, 17, 33, request.len() - 12, request.len() - 1] {
        let mut stream = connect(&server);
        stream.write_all(&request[..split]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(&request[split..]).unwrap();
        let response = read_response(&mut stream);
        assert_eq!(response.status, 200, "split at {split}");
        assert_eq!(
            response.body_text(),
            "POST /sessions/a/score body=11",
            "split at {split}"
        );
    }
    // Absurdly fragmented: one byte at a time.
    let mut stream = connect(&server);
    for &b in request.iter() {
        stream.write_all(&[b]).unwrap();
    }
    let response = read_response(&mut stream);
    assert_eq!(response.status, 200);
    server.shutdown();
}

#[test]
fn oversized_bodies_get_413_and_oversized_heads_431() {
    let config = ServerConfig {
        max_body_bytes: 64,
        max_head_bytes: 256,
        ..ServerConfig::default()
    };
    let server = echo_server(config);

    // Declared body beyond the cap: refused up front, connection closed.
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n")
        .unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 413);

    // At the cap: accepted.
    let mut stream = connect(&server);
    let body = vec![b'y'; 64];
    stream
        .write_all(format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).as_bytes())
        .unwrap();
    stream.write_all(&body).unwrap();
    assert_eq!(read_response(&mut stream).status, 200);

    // A head that never ends within the cap: 431. Sent as ONE write, sized
    // just past the cap: the server consumes every byte before rejecting,
    // so its close is a clean FIN — writing more after the server has
    // already closed would race an EPIPE/RST against reading the response.
    let mut stream = connect(&server);
    let head = format!("GET /x HTTP/1.1\r\nX-Padding: {}\r\n", "p".repeat(260));
    stream.write_all(head.as_bytes()).unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 431);

    assert_eq!(server.stats().bad_requests.load(Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn complete_heads_over_the_cap_get_431() {
    let server = echo_server(ServerConfig {
        max_head_bytes: 256,
        ..ServerConfig::default()
    });
    // A whole 300-byte head, blank line included, in one write: the server
    // reads it in a single chunk and finds its end at once, which must not
    // let it past the cap.
    let prefix = "GET /x HTTP/1.1\r\nX-Padding: ";
    let head = format!("{prefix}{}\r\n\r\n", "p".repeat(300 - prefix.len() - 4));
    assert_eq!(head.len(), 300);
    let mut stream = connect(&server);
    stream.write_all(head.as_bytes()).unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 431);
    let id = response.header("x-request-id").expect("431 carries an id");
    assert!(!id.is_empty());
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_and_chunked_gets_411() {
    let server = echo_server(ServerConfig::default());
    // (raw request bytes, expected status)
    let cases: [(&[u8], u16); 5] = [
        (b"NONSENSE\r\n\r\n", 400),                       // no path/version
        (b"GET /x SMTP/3\r\n\r\n", 400),                  // not HTTP
        (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400), // malformed header
        (b"POST /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n", 400), // bad length
        (
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            411,
        ), // unsupported framing
    ];
    for (raw, expected) in cases {
        let mut stream = connect(&server);
        stream.write_all(raw).unwrap();
        let response = read_response(&mut stream);
        assert_eq!(
            response.status,
            expected,
            "request {:?}",
            String::from_utf8_lossy(raw)
        );
    }
    server.shutdown();
}

#[test]
fn early_rejects_echo_request_ids() {
    let config = ServerConfig {
        max_body_bytes: 64,
        max_head_bytes: 256,
        ..ServerConfig::default()
    };
    let server = echo_server(config);

    // Rejects decided after the headers parse echo the client's own id:
    // the 413 body cap, the 411 unsupported framing, and a body-framing 400.
    let echoed: [(&str, u16); 3] = [
        (
            "POST /x HTTP/1.1\r\nX-Request-Id: req-413\r\nContent-Length: 65\r\n\r\n",
            413,
        ),
        (
            "POST /x HTTP/1.1\r\nX-Request-Id: req-411\r\nTransfer-Encoding: chunked\r\n\r\n",
            411,
        ),
        (
            "POST /x HTTP/1.1\r\nX-Request-Id: req-400\r\nContent-Length: twelve\r\n\r\n",
            400,
        ),
    ];
    for (raw, expected) in echoed {
        let mut stream = connect(&server);
        stream.write_all(raw.as_bytes()).unwrap();
        let response = read_response(&mut stream);
        assert_eq!(response.status, expected, "request {raw:?}");
        assert_eq!(
            response.header("x-request-id"),
            Some(format!("req-{expected}").as_str()),
            "a {expected} should echo the client's X-Request-Id"
        );
    }

    // A 431 rejects before the head parses, so the client id is
    // unreachable — but the response still carries a generated one.
    let mut stream = connect(&server);
    let head = format!(
        "GET /x HTTP/1.1\r\nX-Request-Id: req-431\r\nX-Padding: {}\r\n",
        "p".repeat(260)
    );
    stream.write_all(head.as_bytes()).unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 431);
    let id = response.header("x-request-id").expect("431 carries an id");
    assert!(!id.is_empty());
    assert_ne!(id, "req-431", "unparsed heads cannot echo the client id");
    server.shutdown();
}

#[test]
fn keep_alive_reuses_and_close_closes() {
    let server = echo_server(ServerConfig::default());

    // HTTP/1.1 default: keep-alive. Three requests over one connection.
    let mut stream = connect(&server);
    for n in 0..3 {
        stream
            .write_all(format!("GET /req{n} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let response = read_response(&mut stream);
        assert_eq!(response.status, 200);
        assert_eq!(response.body_text(), format!("GET /req{n} body=0"));
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    let connections_so_far = server.stats().connections.load(Ordering::Relaxed);
    assert_eq!(connections_so_far, 1, "one connection served all three");

    // Connection: close is honored — the server answers then hangs up.
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /bye HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.header("connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());

    // HTTP/1.0 defaults to close...
    let mut stream = connect(&server);
    stream.write_all(b"GET /old HTTP/1.0\r\n\r\n").unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.header("connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());

    // ...unless it asks for keep-alive explicitly.
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.header("connection"), Some("keep-alive"));
    stream.write_all(b"GET /old2 HTTP/1.0\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut stream).status, 200);

    server.shutdown();
}

#[test]
fn per_connection_request_cap_closes_after_limit() {
    let config = ServerConfig {
        max_requests_per_connection: 2,
        ..ServerConfig::default()
    };
    let server = echo_server(config);
    let mut stream = connect(&server);
    stream.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(
        read_response(&mut stream).header("connection"),
        Some("keep-alive")
    );
    stream.write_all(b"GET /b HTTP/1.1\r\n\r\n").unwrap();
    // Second request hits the cap: announced close, then EOF.
    assert_eq!(
        read_response(&mut stream).header("connection"),
        Some("close")
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn connection_budget_refuses_with_503() {
    // One worker, one queue slot, and a handler that blocks until released:
    // the third concurrent connection must be refused inline with 503.
    let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let entered = Arc::new(AtomicU64::new(0));
    let handler_gate = Arc::clone(&gate);
    let handler_entered = Arc::clone(&entered);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
        Arc::new(move |_request: &Request| {
            handler_entered.fetch_add(1, Ordering::SeqCst);
            let (lock, cvar) = &*handler_gate;
            let mut released = lock.lock().unwrap();
            while !*released {
                released = cvar.wait(released).unwrap();
            }
            Response::text(200, "finally")
        }),
    )
    .expect("bind");

    // If an assertion below fails with the gate still closed, the worker
    // would block in the handler forever and `Server::drop` would never
    // join it — so the gate opens on unwind, not just on the happy path.
    struct OpenOnDrop(Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>);
    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            let (lock, cvar) = &*self.0;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
    }
    let opener = OpenOnDrop(Arc::clone(&gate));

    // First connection occupies the worker. `Connection: close` everywhere
    // so the worker moves on the moment a response is written instead of
    // lingering in a keep-alive read. Wait until the handler is actually
    // entered: only then is the first connection out of the queue, so the
    // second lands in the queue slot rather than racing for a 503.
    let mut blocked = connect(&server);
    blocked
        .write_all(b"GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...second sits in the queue...
    let mut queued = connect(&server);
    queued
        .write_all(b"GET /queued HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    // Give the accept thread time to enqueue it.
    std::thread::sleep(Duration::from_millis(100));
    // ...third is over budget: 503, immediately, from the accept thread.
    let mut refused = connect(&server);
    refused.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let response = read_response(&mut refused);
    assert_eq!(response.status, 503);
    // Even the inline refusal carries a request id (generated — the head
    // was never read), so the client can pin the 503 to this attempt.
    assert!(
        response
            .header("x-request-id")
            .is_some_and(|v| !v.is_empty()),
        "503 should carry X-Request-Id"
    );

    // Release the gate: the blocked and queued requests now finish.
    drop(opener);
    assert_eq!(read_response(&mut blocked).status, 200);
    assert_eq!(read_response(&mut queued).status, 200);
    assert_eq!(server.stats().rejected.load(Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn expect_100_continue_is_answered() {
    let server = echo_server(ServerConfig::default());
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n")
        .unwrap();
    // The interim 100 must arrive before we send the body.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1);
        head.push(byte[0]);
    }
    assert!(
        head.starts_with(b"HTTP/1.1 100"),
        "{}",
        String::from_utf8_lossy(&head)
    );
    stream.write_all(b"hello").unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_text(), "POST /x body=5");
    server.shutdown();
}

#[test]
fn slow_in_flight_request_completes_while_drain_proceeds() {
    // The scrape-during-drain race: a request is mid-handler when shutdown
    // starts. The drain must (a) close the listener to new connections and
    // (b) still deliver the in-flight response in full.
    let entered = Arc::new(AtomicU64::new(0));
    let handler_entered = Arc::clone(&entered);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(move |_request: &Request| {
            handler_entered.fetch_add(1, Ordering::SeqCst);
            // Slow enough that shutdown certainly overlaps.
            std::thread::sleep(Duration::from_millis(300));
            Response::text(200, "made it through the drain")
        }),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut in_flight = connect(&server);
    in_flight
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    // Wait until the handler is actually running, then drain concurrently.
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let drainer = std::thread::spawn(move || server.shutdown());

    // The in-flight response arrives complete despite the ongoing drain.
    let response = read_response(&mut in_flight);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_text(), "made it through the drain");

    drainer.join().expect("drain finishes");
    // After the drain, the port is closed: connects are refused (or reset),
    // never accepted-and-ignored.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn stop_flag_forces_close_on_kept_alive_connections() {
    // A kept-alive connection that is idle when the drain starts must not
    // hold the shutdown hostage for the full io_timeout window.
    let server = echo_server(ServerConfig {
        io_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = connect(&server);
    stream.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut stream).status, 200);
    // Connection now idles in read_request. Shutdown must return promptly
    // (bounded by the io_timeout, not hang forever).
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain took {:?}",
        start.elapsed()
    );
}

#[test]
fn stalled_head_gets_408_and_connection_close() {
    // A client that starts a request head and then goes silent: the
    // stalled read expires it with 408 rather than holding the worker for
    // an unbounded sequence of per-read timeouts.
    let server = echo_server(ServerConfig {
        io_timeout: Duration::from_millis(200),
        head_deadline: Duration::from_millis(600),
        ..ServerConfig::default()
    });
    let mut stream = connect(&server);
    stream.write_all(b"GET /slow HTTP/1.1\r\nHos").unwrap();
    let start = std::time::Instant::now();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 408);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "worker held for {:?}",
        start.elapsed()
    );
}

#[test]
fn one_byte_per_tick_head_trickle_cannot_outlive_the_head_deadline() {
    // The slowloris defense proper: each byte lands inside the per-read
    // io_timeout (so the old per-read logic alone would wait forever), but
    // the wall-clock head deadline ends the request anyway.
    let server = echo_server(ServerConfig {
        io_timeout: Duration::from_millis(400),
        head_deadline: Duration::from_millis(500),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stream = connect(&server);
    let head = b"GET /trickle HTTP/1.1\r\nHost: x\r\nX-Filler: aaaaaaaaaa\r\n\r\n";
    let start = std::time::Instant::now();
    // Trickle for well past the deadline; once the server expires the
    // request the writes start failing (or the later read sees the 408) —
    // both are acceptable client-side views of the same server decision.
    for &b in head.iter() {
        if stream
            .write_all(&[b])
            .and_then(|()| stream.flush())
            .is_err()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        if start.elapsed() > Duration::from_millis(1200) {
            break;
        }
    }
    // Whatever the trickle's fate, the single worker must be free again:
    // a well-behaved request on a fresh connection gets served promptly.
    let mut fresh = connect(&server);
    fresh
        .write_all(b"GET /after HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let response = read_response(&mut fresh);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_text(), "GET /after body=0");
}

#[test]
fn body_stall_after_content_length_promise_gets_408() {
    // The head arrives promptly, promises 64 body bytes, delivers 10, and
    // stalls. The body deadline frees the worker with a 408.
    let server = echo_server(ServerConfig {
        io_timeout: Duration::from_millis(200),
        body_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /stall HTTP/1.1\r\nContent-Length: 64\r\n\r\n0123456789")
        .unwrap();
    let start = std::time::Instant::now();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 408);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(
        response.body_text().contains("body deadline"),
        "{}",
        response.body_text()
    );
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "worker held for {:?}",
        start.elapsed()
    );
}

#[test]
fn client_disconnect_mid_request_frees_the_worker() {
    // A client that promises a body and vanishes entirely (FIN, not a
    // stall) must not pin the single worker either.
    let server = echo_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    {
        let mut dead = connect(&server);
        dead.write_all(b"POST /gone HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
        // Dropping closes the socket: the server sees EOF mid-body.
    }
    let mut fresh = connect(&server);
    fresh
        .write_all(b"GET /next HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(read_response(&mut fresh).status, 200);
}

#[test]
fn connection_lifetime_caps_keep_alive_reuse() {
    // Keep-alive works freely inside the lifetime; once the cap passes,
    // the server closes instead of parking another read cycle on the
    // connection.
    let server = echo_server(ServerConfig {
        io_timeout: Duration::from_secs(5),
        connection_lifetime: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let mut stream = connect(&server);
    stream.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut stream).status, 200);
    stream.write_all(b"GET /b HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut stream).status, 200);

    // Outlive the connection budget, then try a third request: the server
    // has closed (or closes on sight) rather than serving it.
    std::thread::sleep(Duration::from_millis(600));
    let _ = stream.write_all(b"GET /c HTTP/1.1\r\n\r\n");
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}  // clean EOF: the lifetime cap closed the socket
        Err(_) => {} // reset: same decision seen later
        Ok(_) => panic!("request served past the connection lifetime"),
    }
}

#[test]
fn a_panicking_handler_answers_500_and_keeps_its_worker() {
    // One worker: if the panic ended it, the next request would never be
    // answered.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::new(|request: &Request| {
            assert_ne!(request.path, "/panic", "handler bug");
            Response::text(200, "fine")
        }),
    )
    .expect("bind");
    let mut stream = connect(&server);
    stream.write_all(b"GET /panic HTTP/1.1\r\n\r\n").unwrap();
    let response = read_response(&mut stream);
    assert_eq!(response.status, 500);
    assert_eq!(response.header("connection"), Some("close"));
    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).unwrap_or(0), 0, "connection closed");

    let mut next = connect(&server);
    next.write_all(b"GET /next HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let response = read_response(&mut next);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_text(), "fine");
    assert_eq!(server.stats().handler_panics.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats().requests.load(Ordering::Relaxed), 1);
    server.shutdown();
}
