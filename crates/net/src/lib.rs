#![warn(missing_docs)]

//! A std-only HTTP/1.1 server shared by the hdoutlier serving surfaces.
//!
//! This crate hoists the network substrate out of the telemetry layer so
//! serving *traffic* (the `hdoutlier serve` scoring API) is no longer
//! coupled to serving *telemetry* (`/metrics` scrapes): both ride on the
//! same [`Server`], each with its own handler. The workspace is hermetic —
//! no crates.io — so everything here is `std::net` plus threads.
//!
//! What the server provides, and what its callers lean on:
//!
//! - **Bounded request parsing** ([`Request`]): request line, headers, and
//!   an optional `Content-Length` body are read incrementally, tolerating
//!   arbitrary packet boundaries (a client dribbling one byte at a time
//!   parses identically to one that sends the whole request in one write).
//!   Heads over [`ServerConfig::max_head_bytes`] answer `431`, bodies over
//!   [`ServerConfig::max_body_bytes`] answer `413`, a body without a
//!   length answers `411`, and anything malformed answers `400` — all
//!   without allocating proportional to the hostile input.
//! - **Wall-clock deadlines.** The per-read [`ServerConfig::io_timeout`]
//!   only bounds *silence*; a slowloris client that dribbles one byte per
//!   read resets it forever. So each phase also has a deadline — a head
//!   must finish arriving within [`ServerConfig::head_deadline`] of its
//!   first byte, a declared body within [`ServerConfig::body_deadline`] of
//!   the head completing, and a whole connection is capped at
//!   [`ServerConfig::connection_lifetime`]. Expiry answers `408` with
//!   `Connection: close` (idle keep-alive connections are closed silently),
//!   so no client can pin a worker past its budget.
//! - **A bounded connection budget.** One accept thread pushes connections
//!   onto a queue of depth [`ServerConfig::queue_depth`] drained by
//!   [`ServerConfig::workers`] handler threads. A slow or stuck client
//!   occupies one worker, not the listener: other connections keep being
//!   answered. When every worker is busy *and* the queue is full, new
//!   connections are refused with `503` instead of piling up unboundedly.
//! - **Keep-alive semantics.** HTTP/1.1 connections persist by default
//!   (`Connection: close` honored, `HTTP/1.0` closes unless asked to keep
//!   alive), capped at [`ServerConfig::max_requests_per_connection`].
//!   Telemetry callers set the cap to 1 to preserve scrape-and-close
//!   behavior.
//! - **Handler panics stay in their request.** A handler that panics
//!   answers `500` with `Connection: close` and is counted in
//!   [`ServerStats::handler_panics`]; the worker goes on to its next
//!   connection, so a panicking route cannot shrink the pool.
//! - **Graceful drain.** [`Server::shutdown`] stops accepting (closing the
//!   listener first), then lets in-flight and already-queued connections
//!   finish their current request — with `Connection: close` forced on the
//!   response — before joining every thread. Nothing in flight is dropped.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Write budget for connection-budget `503` refusals. These are written
/// inline on the single accept thread (there is no free worker to hand
/// them to — that is why they are being refused), so they get a short
/// dedicated timeout instead of [`ServerConfig::io_timeout`]: a rejected
/// peer that stalls its receive window must not pause all accepts for the
/// full I/O timeout at exactly the moment the server is saturated.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path with the query string stripped (`/sessions/a/score`).
    pub path: String,
    /// The query string after `?`, when one was sent (without the `?`).
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names are lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the request was `HTTP/1.0` (keep-alive defaults off).
    pub http1_0: bool,
    /// The request's identity: a client-supplied `X-Request-Id` header
    /// (when well-formed — see [`is_valid_request_id`]) or a server-
    /// generated hex id. Echoed back as `X-Request-Id` on the response.
    pub request_id: String,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    /// A short message when the body is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, &'static str> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8")
    }
}

/// One HTTP response: status, content type, body, optional extra headers.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, …). The reason phrase is derived.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers beyond the framing set (`Retry-After`, …). Names and
    /// values are written verbatim into the response head; callers must not
    /// include CR/LF. [`Response::with_header`] enforces this — prefer it
    /// over pushing here directly.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain".to_string(),
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json".to_string(),
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// An `application/x-ndjson` response.
    pub fn ndjson(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/x-ndjson".to_string(),
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Overrides the `Content-Type` (builder style), for media types the
    /// [`Response::text`]/[`Response::json`]/[`Response::ndjson`]
    /// constructors don't cover.
    #[must_use]
    pub fn with_content_type(mut self, content_type: impl Into<String>) -> Self {
        self.content_type = content_type.into();
        self
    }

    /// Adds an extra response header (builder style).
    ///
    /// Header names and values are written verbatim into the response
    /// head, so a CR/LF smuggled in (e.g. from a client-derived value)
    /// would become header or response injection. Each CR/LF is replaced
    /// with a space here, making the wire framing unbreakable by any
    /// header content a handler passes.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let sanitize = |s: String| {
            if s.contains(['\r', '\n']) {
                s.replace(['\r', '\n'], " ")
            } else {
                s
            }
        };
        self.headers
            .push((sanitize(name.into()), sanitize(value.into())));
        self
    }

    /// Adds a `Retry-After: <seconds>` header — the contract every shedding
    /// or over-budget `503` honors so a retrying client knows how long to
    /// stay away.
    #[must_use]
    pub fn with_retry_after(self, delay: Duration) -> Self {
        self.with_header("Retry-After", delay.as_secs().max(1).to_string())
    }

    /// The canonical reason phrase for a status code.
    pub fn reason(status: u16) -> &'static str {
        match status {
            100 => "Continue",
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler threads (each serves one connection at a time).
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before new
    /// ones are refused with `503`.
    pub queue_depth: usize,
    /// Cap on request-head bytes (request line + headers); `431` beyond.
    pub max_head_bytes: usize,
    /// Cap on declared `Content-Length`; `413` beyond.
    pub max_body_bytes: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Requests served per connection before it is closed; `1` disables
    /// keep-alive entirely (scrape-and-close behavior).
    pub max_requests_per_connection: usize,
    /// Wall-clock budget for reading one request head. Unlike
    /// [`ServerConfig::io_timeout`] — which a slow-trickle client resets
    /// with every byte — this is a deadline: when the head has not finished
    /// arriving within it, the request is answered `408` and the connection
    /// closed (or, when no byte ever arrived, the idle connection is simply
    /// closed).
    pub head_deadline: Duration,
    /// Wall-clock budget for reading the declared body once the head is
    /// complete; `408` on expiry.
    pub body_deadline: Duration,
    /// Cap on one connection's total lifetime across keep-alive requests.
    /// A connection past it is closed after the in-flight response (or
    /// immediately when idle) — no single peer can hold a worker's socket
    /// forever.
    pub connection_lifetime: Duration,
    /// The `Retry-After` hint attached to connection-budget `503` refusals
    /// (rounded up to whole seconds, minimum 1).
    pub retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 32,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            max_requests_per_connection: 256,
            head_deadline: Duration::from_secs(10),
            body_deadline: Duration::from_secs(30),
            connection_lifetime: Duration::from_secs(600),
            retry_after: Duration::from_secs(1),
        }
    }
}

/// Monotonic totals over a server's lifetime, readable while it runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later refused with `503`).
    pub connections: AtomicU64,
    /// Requests answered by the handler.
    pub requests: AtomicU64,
    /// Connections refused with `503` because the budget was exhausted.
    pub rejected: AtomicU64,
    /// Requests answered with a parse-level error (`400`/`411`/`413`/`431`).
    pub bad_requests: AtomicU64,
    /// Requests answered `408` because a wall-clock deadline expired
    /// (head or body still incomplete at its budget).
    pub deadline_expired: AtomicU64,
    /// Requests whose handler panicked, answered `500` with the connection
    /// closed.
    pub handler_panics: AtomicU64,
}

/// The handler a [`Server`] routes every parsed request through.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// Whether a client-supplied `X-Request-Id` is acceptable for echoing:
/// 1–128 visible ASCII characters (no spaces, no controls — the id goes
/// back out in a response header and into log lines verbatim).
pub fn is_valid_request_id(id: &str) -> bool {
    !id.is_empty() && id.len() <= 128 && id.bytes().all(|b| b.is_ascii_graphic())
}

/// Generates a server-assigned request id: 32 hex characters (128 random
/// bits) from a process-wide generator seeded once from the wall clock and
/// pid, so concurrent servers in one test process still diverge.
fn generate_request_id() -> String {
    use hdoutlier_rng::{RngCore, SeedableRng, Xoshiro256PlusPlus};
    use std::sync::OnceLock;
    static RNG: OnceLock<Mutex<Xoshiro256PlusPlus>> = OnceLock::new();
    let rng = RNG.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Mutex::new(Xoshiro256PlusPlus::seed_from_u64(
            nanos ^ ((std::process::id() as u64) << 32),
        ))
    });
    let (hi, lo) = {
        let mut rng = rng.lock().expect("request-id rng lock");
        (rng.next_u64(), rng.next_u64())
    };
    format!("{hi:016x}{lo:016x}")
}

/// Shared accept-queue state between the accept thread and the workers.
struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    stop: AtomicBool,
    config: ServerConfig,
    handler: Arc<Handler>,
    stats: Arc<ServerStats>,
}

/// A running HTTP server. [`Server::shutdown`] (or drop) drains and joins.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.worker_handles.len())
            .finish()
    }
}

impl Server {
    /// Binds `addr` (port `0` picks an ephemeral port — read it back from
    /// [`Server::local_addr`]) and starts accepting on a background thread,
    /// handling connections on `config.workers` worker threads.
    ///
    /// # Errors
    /// The bind or thread-spawn failure, untouched.
    pub fn bind(addr: &str, config: ServerConfig, handler: Arc<Handler>) -> std::io::Result<Self> {
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(
            config.max_requests_per_connection >= 1,
            "a connection must be allowed at least one request"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            config,
            handler,
            stats: Arc::new(ServerStats::default()),
        });
        let mut worker_handles = Vec::with_capacity(shared.config.workers);
        for n in 0..shared.config.workers {
            let worker_shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("net-worker-{n}"))
                    .spawn(move || worker_loop(&worker_shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("net-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime totals (connections, requests, rejections).
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Graceful drain: closes the listener (no new connections), finishes
    /// every in-flight and already-queued request, then joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept_handle) = self.accept_handle.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a connection to ourselves. When the
        // listener was bound to a wildcard address, connect via loopback.
        let wake_ip = match self.addr.ip() {
            ip if ip.is_unspecified() && ip.is_ipv4() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            ip if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let _ = TcpStream::connect_timeout(
            &SocketAddr::new(wake_ip, self.addr.port()),
            Duration::from_secs(2),
        );
        // The accept thread exits first, dropping the listener: the port is
        // closed to new connections *before* in-flight work finishes —
        // exactly the drain ordering the serve e2e asserts.
        let _ = accept_handle.join();
        self.shared.available.notify_all();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts connections and enqueues them within the budget.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Request/response traffic is latency-bound, not bandwidth-bound:
        // leave Nagle off so a response segment never waits for an ACK.
        let _ = stream.set_nodelay(true);
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            // Refuse in-line rather than queueing unboundedly; the write is
            // best-effort (a client that already gave up is not our problem).
            // This runs on the single accept thread, so a stalling rejected
            // peer must never hold it for the full io_timeout — a short
            // dedicated budget keeps accepts moving exactly when the server
            // is already saturated.
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let refusal_timeout = shared.config.io_timeout.min(REFUSAL_WRITE_TIMEOUT);
            let _ = stream.set_write_timeout(Some(refusal_timeout));
            let _ = write_response(
                &mut stream,
                &Response::text(503, "server is at its connection budget; retry\n")
                    .with_retry_after(shared.config.retry_after),
                false,
                // The head was never read, so there is no client id to echo;
                // a generated one still lets the client pin the refusal to
                // its logs of this connection attempt.
                Some(&generate_request_id()),
            );
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.available.notify_one();
    }
}

/// One worker: pops connections and serves them until stop + empty queue.
fn worker_loop(shared: &Shared) {
    loop {
        let mut queue = shared.queue.lock().expect("queue lock");
        let stream = loop {
            if let Some(stream) = queue.pop_front() {
                break stream;
            }
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            // Timed wait so a notify racing the lock never strands a worker.
            let (guard, _) = shared
                .available
                .wait_timeout(queue, Duration::from_millis(200))
                .expect("queue lock");
            queue = guard;
        };
        drop(queue);
        let mut stream = stream;
        let _ = serve_connection(&mut stream, shared);
    }
}

/// Outcome of reading one request off a connection.
enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean EOF before any request byte arrived (keep-alive close).
    Closed,
    /// The request was rejected at the parse level; answer with this
    /// status/message and close the connection. Carries the request id to
    /// echo — the client's own `X-Request-Id` when the headers got far
    /// enough to parse, a generated one otherwise — so rejected requests
    /// stay correlatable in client logs.
    Reject(u16, &'static str, String),
    /// I/O failed (timeout, reset); close silently.
    Io,
}

/// Serves requests on one connection until close/limit/lifetime/stop.
fn serve_connection(stream: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_write_timeout(Some(shared.config.io_timeout))?;
    let opened = Instant::now();
    let lifetime_over =
        |at: Instant| at.duration_since(opened) >= shared.config.connection_lifetime;
    let mut served = 0usize;
    loop {
        match read_request(stream, &shared.config, opened) {
            ReadOutcome::Request(request) => {
                served += 1;
                // The handler runs on this worker's thread, so a panic in it
                // would end the worker for good: the pool never replaces
                // one. It ends this connection instead, after a `500`.
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (shared.handler)(&request)
                }));
                let Ok(response) = handled else {
                    shared.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                    let response = Response::text(500, "internal error: the handler panicked\n");
                    return write_response(stream, &response, false, Some(&request.request_id));
                };
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                // Keep-alive only when the client allows it, the per-
                // connection budget and lifetime have room, and the server
                // is not draining.
                let keep_alive = wants_keep_alive(&request)
                    && served < shared.config.max_requests_per_connection
                    && !lifetime_over(Instant::now())
                    && !shared.stop.load(Ordering::SeqCst);
                write_response(stream, &response, keep_alive, Some(&request.request_id))?;
                if !keep_alive {
                    return Ok(());
                }
            }
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Reject(status, message, request_id) => {
                if status == 408 {
                    shared
                        .stats
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                }
                let body = format!("{message}\n");
                return write_response(
                    stream,
                    &Response::text(status, body),
                    false,
                    Some(&request_id),
                );
            }
            ReadOutcome::Io => return Ok(()),
        }
    }
}

/// Whether the request's HTTP version + `Connection` header ask for
/// keep-alive (HTTP/1.1 defaults on, HTTP/1.0 defaults off).
fn wants_keep_alive(request: &Request) -> bool {
    let connection = request
        .header("connection")
        .map(str::to_ascii_lowercase)
        .unwrap_or_default();
    if connection.split(',').any(|t| t.trim() == "close") {
        return false;
    }
    if connection.split(',').any(|t| t.trim() == "keep-alive") {
        return true;
    }
    // No Connection header: the version decides.
    !request.http1_0
}

/// How one deadline-bounded read ended.
enum DeadlineRead {
    /// Bytes arrived.
    Bytes(usize),
    /// Clean EOF.
    Eof,
    /// The wall-clock deadline (or one `io_timeout` of total silence)
    /// expired with the read still incomplete.
    Stalled,
    /// A non-timeout I/O failure (reset, shutdown race).
    Failed,
}

/// One read bounded by both the per-read `io_timeout` and an absolute
/// `deadline`: the socket timeout is re-armed to whichever expires first,
/// so a client trickling one byte per read can reset the io_timeout as
/// often as it likes and still runs out of wall clock.
fn read_with_deadline(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
    io_timeout: Duration,
) -> DeadlineRead {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return DeadlineRead::Stalled;
    }
    if stream
        .set_read_timeout(Some(remaining.min(io_timeout)))
        .is_err()
    {
        return DeadlineRead::Failed;
    }
    match stream.read(chunk) {
        Ok(0) => DeadlineRead::Eof,
        Ok(n) => DeadlineRead::Bytes(n),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) =>
        {
            DeadlineRead::Stalled
        }
        Err(_) => DeadlineRead::Failed,
    }
}

/// Incrementally reads one request (head + optional body) off the stream.
/// Tolerates any packet fragmentation: reads repeat until the head's blank
/// line, then until `Content-Length` bytes of body have arrived — but each
/// phase is bounded by a wall-clock deadline ([`ServerConfig::head_deadline`]
/// from the first head byte, [`ServerConfig::body_deadline`] from the end of
/// the head, both capped by the connection lifetime remaining since
/// `opened`), answering `408` on expiry.
fn read_request(stream: &mut TcpStream, config: &ServerConfig, opened: Instant) -> ReadOutcome {
    let conn_deadline = opened + config.connection_lifetime;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // --- Head: read until CRLFCRLF (or LFLF), bounded in bytes and time.
    // The head deadline arms at the first byte, not at call time, so a
    // connection idling between keep-alive requests spends io_timeout (not
    // head budget) waiting — but once a request starts arriving, it must
    // finish arriving inside the budget no matter how it trickles.
    let mut head_deadline: Option<Instant> = None;
    let head_end = loop {
        let found = find_head_end(&buf);
        // A head that ends inside the last read can still be over the cap.
        if found.as_ref().map_or(buf.len(), |end| end.text_end) > config.max_head_bytes {
            return ReadOutcome::Reject(
                431,
                "request head exceeds the configured limit",
                generate_request_id(),
            );
        }
        if let Some(end) = found {
            break end;
        }
        let deadline = head_deadline.map_or(conn_deadline, |d| d.min(conn_deadline));
        match read_with_deadline(stream, &mut chunk, deadline, config.io_timeout) {
            DeadlineRead::Eof => {
                if buf.is_empty() {
                    return ReadOutcome::Closed;
                }
                return ReadOutcome::Reject(
                    400,
                    "connection closed mid-request-head",
                    generate_request_id(),
                );
            }
            DeadlineRead::Bytes(n) => {
                if head_deadline.is_none() {
                    head_deadline = Some(Instant::now() + config.head_deadline);
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            DeadlineRead::Stalled => {
                // An idle keep-alive connection (no request byte yet) is
                // closed silently; a half-sent head gets the 408.
                return if buf.is_empty() {
                    ReadOutcome::Io
                } else {
                    ReadOutcome::Reject(
                        408,
                        "request head deadline exceeded",
                        generate_request_id(),
                    )
                };
            }
            DeadlineRead::Failed => {
                return if buf.is_empty() {
                    ReadOutcome::Io
                } else {
                    ReadOutcome::Reject(400, "I/O failure mid-request-head", generate_request_id())
                }
            }
        }
    };
    let (head_bytes, rest) = buf.split_at(head_end.text_end);
    let Ok(head) = std::str::from_utf8(head_bytes) else {
        return ReadOutcome::Reject(
            400,
            "request head is not valid UTF-8",
            generate_request_id(),
        );
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ReadOutcome::Reject(400, "malformed request line", generate_request_id());
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return ReadOutcome::Reject(400, "malformed request line", generate_request_id());
    }
    let http1_0 = version == "HTTP/1.0";
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Reject(400, "malformed header line", generate_request_id());
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    // Settle the request identity as soon as the headers are in: propagate
    // a well-formed client id, assign one otherwise. Every later outcome —
    // including the body-cap rejects below — echoes the same id, so a
    // client can pin a 411/413 straight to the request it sent.
    let request_id = match header("x-request-id") {
        Some(id) if is_valid_request_id(id) => id.to_string(),
        _ => generate_request_id(),
    };
    // --- Body: Content-Length bytes, bounded; chunked is not supported. ---
    if header("transfer-encoding").is_some() {
        return ReadOutcome::Reject(
            411,
            "chunked transfer encoding is not supported; send Content-Length",
            request_id,
        );
    }
    let content_length = match header("content-length") {
        None => 0usize,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return ReadOutcome::Reject(400, "Content-Length is not a number", request_id)
            }
        },
    };
    if content_length > config.max_body_bytes {
        return ReadOutcome::Reject(413, "request body exceeds the configured limit", request_id);
    }
    // A client that sent `Expect: 100-continue` (curl does for large
    // bodies) is waiting for the go-ahead before transmitting the body.
    if header("expect").map(str::to_ascii_lowercase).as_deref() == Some("100-continue")
        && stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return ReadOutcome::Io;
    }
    let mut body: Vec<u8> = rest[head_end.skip..].to_vec();
    // The body budget starts once the head is complete: a client that
    // promised Content-Length bytes must deliver them all inside it.
    let body_deadline = (Instant::now() + config.body_deadline).min(conn_deadline);
    while body.len() < content_length {
        match read_with_deadline(stream, &mut chunk, body_deadline, config.io_timeout) {
            DeadlineRead::Eof => {
                return ReadOutcome::Reject(400, "connection closed mid-body", request_id)
            }
            DeadlineRead::Bytes(n) => body.extend_from_slice(&chunk[..n]),
            DeadlineRead::Stalled => {
                return ReadOutcome::Reject(408, "request body deadline exceeded", request_id)
            }
            DeadlineRead::Failed => {
                return ReadOutcome::Reject(400, "I/O failure mid-body", request_id)
            }
        }
    }
    if body.len() > content_length {
        // Pipelined extra bytes are not supported; treat as malformed
        // rather than silently mis-framing the next request.
        return ReadOutcome::Reject(
            400,
            "more body bytes than Content-Length declared",
            request_id,
        );
    }
    ReadOutcome::Request(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        http1_0,
        request_id,
    })
}

/// Where a request head ends inside a buffer.
struct HeadEnd {
    /// Bytes of head text (request line + headers, without the blank line).
    text_end: usize,
    /// Bytes to skip past `text_end` to reach the body (the blank line).
    skip: usize,
}

/// Finds the head-terminating blank line (`\r\n\r\n`, tolerating `\n\n`).
fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    for i in 0..buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some(HeadEnd {
                text_end: i,
                skip: 4,
            });
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some(HeadEnd {
                text_end: i,
                skip: 2,
            });
        }
    }
    None
}

/// Writes one response with framing headers. `request_id` (when the
/// request parsed far enough to have one) is echoed as `X-Request-Id`;
/// parse-level rejects and budget refusals have no identity to echo.
fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
    request_id: Option<&str>,
) -> std::io::Result<()> {
    let id_header = match request_id {
        Some(id) => format!("X-Request-Id: {id}\r\n"),
        None => String::new(),
    };
    let mut extra = String::new();
    for (name, value) in &response.headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}Connection: {}\r\n\r\n",
        response.status,
        Response::reason(response.status),
        response.content_type,
        response.body.len(),
        id_header,
        extra,
        if keep_alive { "keep-alive" } else { "close" },
    );
    // One write for head + body: two small writes on a Nagle-enabled socket
    // would stall the second behind the peer's delayed ACK (~40ms per
    // response), which dwarfs the scoring work itself.
    let mut frame = Vec::with_capacity(header.len() + response.body.len());
    frame.extend_from_slice(header.as_bytes());
    frame.extend_from_slice(&response.body);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_is_found_across_both_line_conventions() {
        assert!(find_head_end(b"GET / HTTP/1.1").is_none());
        let end = find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY").unwrap();
        assert_eq!(end.text_end, 14);
        assert_eq!(end.skip, 4);
        let end = find_head_end(b"GET / HTTP/1.1\n\nBODY").unwrap();
        assert_eq!(end.text_end, 14);
        assert_eq!(end.skip, 2);
    }

    #[test]
    fn request_id_validation_rejects_hostile_values() {
        assert!(is_valid_request_id("abc-123_X.Y"));
        assert!(is_valid_request_id(&"x".repeat(128)));
        assert!(!is_valid_request_id(""));
        assert!(!is_valid_request_id(&"x".repeat(129)));
        assert!(!is_valid_request_id("has space"));
        assert!(!is_valid_request_id("line\nfeed"));
        assert!(!is_valid_request_id("nul\0byte"));
        assert!(!is_valid_request_id("smuggle\r\nX-Evil: 1"));
    }

    #[test]
    fn generated_request_ids_are_hex_and_distinct() {
        let a = generate_request_id();
        let b = generate_request_id();
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
        assert!(is_valid_request_id(&a));
    }

    #[test]
    fn with_header_neutralizes_crlf_injection() {
        // A clean header passes through untouched.
        let r = Response::text(200, "ok").with_header("Retry-After", "3");
        assert_eq!(r.headers, vec![("Retry-After".into(), "3".into())]);
        // A CR/LF smuggled through a client-derived value cannot break the
        // response head into extra headers or a second response.
        let r = Response::text(200, "ok")
            .with_header("X-Echo", "a\r\nX-Evil: 1\r\n\r\nHTTP/1.1 200 OK");
        let (name, value) = &r.headers[0];
        assert_eq!(name, "X-Echo");
        assert!(!value.contains('\r') && !value.contains('\n'), "{value:?}");
        assert_eq!(value, "a  X-Evil: 1    HTTP/1.1 200 OK");
        // Hostile names are neutralized the same way.
        let r = Response::text(200, "ok").with_header("X\r\nX-Evil", "v");
        assert_eq!(r.headers[0].0, "X  X-Evil");
    }

    #[test]
    fn response_constructors_and_reasons() {
        let r = Response::json(201, "{}");
        assert_eq!(r.status, 201);
        assert_eq!(r.content_type, "application/json");
        assert_eq!(Response::reason(404), "Not Found");
        assert_eq!(Response::reason(413), "Payload Too Large");
        assert_eq!(Response::reason(777), "Response");
        let r = Response::ndjson(200, "{}\n");
        assert_eq!(r.content_type, "application/x-ndjson");
        let r = Response::text(503, "busy");
        assert_eq!(r.body, b"busy");
    }
}
