//! Shared observability plumbing for the subcommands: the `--log-level`,
//! `--log-json`, `--metrics-out`, `--trace-out`, `--profile-out`, and
//! `--profile-hz` flags (plus `--serve-metrics` where a command opts in),
//! dispatcher setup/teardown, and the metrics snapshot renderers used by
//! reports.

use crate::args::{Parsed, Spec};
use hdoutlier_json::{FieldChain, Json, JsonError};
use hdoutlier_obs as obs;
use std::sync::Arc;
use std::time::Duration;

/// Help text for the shared flags; appended to each subcommand's OPTIONS.
pub const HELP: &str = "\
    --log-level <l>      emit pipeline events on stderr at error|warn|info|debug|trace
    --log-json           render events as NDJSON instead of human-readable text
    --metrics-out <p>    enable timing metrics and write a final NDJSON snapshot to <p>
    --trace-out <p>      profile spans and write Chrome trace-event JSON to <p>
    --profile-out <p>    sample span stacks while the command runs and write
                         folded (flamegraph) stacks to <p>
    --profile-hz <n>     sampling rate for --profile-out (default 99, max 1000)
";

/// Help text for `--serve-metrics`; appended by the commands that declare
/// the flag (`stream`, `detect`).
pub const SERVE_HELP: &str = "\
    --serve-metrics <a>  serve /metrics, /healthz, /snapshot over HTTP on <a>
                         (e.g. 127.0.0.1:9184; port 0 picks one, echoed on stderr)
";

/// Builds a [`Spec`] from a subcommand's own flags plus the shared
/// observability flags. Commands that also want the live endpoint declare
/// `"serve-metrics"` in their own `value_flags`.
pub fn spec_with(value_flags: &[&'static str], bool_flags: &[&'static str]) -> Spec {
    let mut values = value_flags.to_vec();
    values.extend_from_slice(&[
        "log-level",
        "metrics-out",
        "trace-out",
        "profile-out",
        "profile-hz",
    ]);
    let mut bools = bool_flags.to_vec();
    bools.push("log-json");
    Spec::new(&values, &bools)
}

/// One command invocation's observability state. [`ObsSession::init`]
/// configures the process-global dispatcher from the parsed flags and
/// starts the live endpoint / trace collection when requested;
/// [`ObsSession::finish`] writes the exports and joins the server.
#[derive(Debug)]
pub struct ObsSession {
    metrics_out: Option<String>,
    trace_out: Option<String>,
    trace: Option<Arc<obs::TraceBuffer>>,
    server: Option<obs::MetricsServer>,
    profile_out: Option<String>,
    profile: Option<obs::ProfileSession>,
}

impl ObsSession {
    /// Applies the observability flags. Always (re)sets the global
    /// dispatcher, timing gate, and trace buffer — including turning them
    /// *off* when the flags are absent — so successive in-process runs are
    /// deterministic. With `--serve-metrics <addr>` the telemetry server
    /// starts here and its bound address is echoed on stderr (the address
    /// matters when port 0 asked for an ephemeral one).
    ///
    /// # Errors
    /// A usage message when `--log-level` is not a recognized level or the
    /// `--serve-metrics` address cannot be bound.
    pub fn init(parsed: &Parsed) -> Result<Self, String> {
        let level: Option<obs::Level> = match parsed.get("log-level") {
            Some(text) => Some(text.parse().map_err(|e| format!("--log-level: {e}"))?),
            None => None,
        };
        let json = parsed.has("log-json");
        if level.is_some() || json {
            let sink: Arc<dyn obs::Sink> = if json {
                Arc::new(obs::NdjsonSink::stderr())
            } else {
                Arc::new(obs::StderrSink)
            };
            obs::install(sink, level.unwrap_or(obs::Level::Info));
        } else {
            obs::uninstall();
        }
        let metrics_out = parsed.get("metrics-out").map(str::to_string);
        let trace_out = parsed.get("trace-out").map(str::to_string);
        let trace = trace_out.as_ref().map(|_| {
            let buffer = Arc::new(obs::TraceBuffer::new());
            obs::set_trace_buffer(Some(Arc::clone(&buffer)));
            buffer
        });
        if trace.is_none() {
            obs::set_trace_buffer(None);
        }
        // `serve-metrics` is declared only by stream/detect; on other
        // commands the lookup is simply absent.
        let server = match parsed.get("serve-metrics") {
            Some(addr) => {
                let server = obs::MetricsServer::serve(addr, obs::registry())
                    .map_err(|e| format!("--serve-metrics {addr}: {e}"))?;
                eprintln!(
                    "telemetry: serving http://{}/metrics (also /healthz, /snapshot)",
                    server.local_addr()
                );
                Some(server)
            }
            None => None,
        };
        // Hot paths (per-record stream latency, GA stage timers) read this
        // gate before touching the clock. A live scrape wants latency
        // histograms populated, so serving implies timing.
        obs::set_timing(
            metrics_out.is_some() || server.is_some() || obs::enabled(obs::Level::Debug),
        );
        let profile_out = parsed.get("profile-out").map(str::to_string);
        let profile_hz = match parsed.get("profile-hz") {
            Some(text) => {
                if profile_out.is_none() {
                    return Err("--profile-hz requires --profile-out".to_string());
                }
                let hz: u32 = text
                    .parse()
                    .map_err(|_| format!("--profile-hz: not a number: {text}"))?;
                if hz == 0 {
                    return Err("--profile-hz: must be at least 1".to_string());
                }
                hz
            }
            None => 99,
        };
        let profile = profile_out
            .as_ref()
            .map(|_| obs::ProfileSession::start(profile_hz));
        Ok(ObsSession {
            metrics_out,
            trace_out,
            trace,
            server,
            profile_out,
            profile,
        })
    }

    /// Whether a metrics snapshot was requested (`--metrics-out`).
    pub fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Writes the requested exports (metrics NDJSON, Chrome trace JSON),
    /// detaches the trace buffer, and shuts the telemetry server down.
    /// Idempotent: a second call is a no-op, so error paths that already
    /// finished can return freely.
    ///
    /// # Errors
    /// A runtime message when an export file cannot be written.
    pub fn finish(&mut self) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        // The profiler stops before the metrics snapshot so the
        // `hdoutlier.profile.*` counters it publishes on shutdown land in
        // the `--metrics-out` export of the same run.
        if let Some(session) = self.profile.take() {
            let report = session.stop();
            if let Some(path) = self.profile_out.take() {
                std::fs::write(&path, report.to_folded())
                    .map_err(|e| format!("failed to write profile {path}: {e}"))?;
                // The allocation-weighted twin only exists when the counting
                // allocator attributed bytes (it is installed in the shipped
                // binary, not in every embedder of this crate).
                if report.has_bytes() {
                    let bytes_path = format!("{path}.bytes");
                    std::fs::write(&bytes_path, report.to_folded_bytes())
                        .map_err(|e| format!("failed to write profile {bytes_path}: {e}"))?;
                }
            }
        }
        if let Some(path) = self.metrics_out.take() {
            std::fs::write(&path, obs::registry().snapshot_ndjson())
                .map_err(|e| format!("failed to write metrics {path}: {e}"))?;
        }
        if let Some(buffer) = self.trace.take() {
            obs::set_trace_buffer(None);
            if let Some(path) = self.trace_out.take() {
                std::fs::write(&path, buffer.to_chrome_json())
                    .map_err(|e| format!("failed to write trace {path}: {e}"))?;
                if buffer.dropped() > 0 {
                    eprintln!(
                        "telemetry: trace buffer overflowed; {} events dropped",
                        buffer.dropped()
                    );
                }
            }
        }
        Ok(())
    }
}

/// Milliseconds in a duration — the single definition both the text and
/// JSON report renderers share.
pub fn elapsed_ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Human rendering of [`elapsed_ms`], e.g. `"12.345 ms"`.
pub fn fmt_elapsed(elapsed: Duration) -> String {
    format!("{:.3} ms", elapsed_ms(elapsed))
}

/// The global metrics registry as a JSON object keyed by metric name, for
/// embedding in `--json` reports. Labeled series are keyed
/// `name{k=v,…}` so every label set stays addressable without colliding.
///
/// # Errors
/// [`JsonError`] only on internal builder misuse (never for valid metrics).
pub fn metrics_json() -> Result<Json, JsonError> {
    let mut object = Json::object();
    for metric in obs::registry().snapshot() {
        let key = if metric.labels.is_empty() {
            metric.name.clone()
        } else {
            let pairs: Vec<String> = metric
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{}{{{}}}", metric.name, pairs.join(","))
        };
        let value = match metric.value {
            obs::SnapshotValue::Counter(v) => Json::Number(v as f64),
            obs::SnapshotValue::Gauge(v) => Json::Number(v as f64),
            obs::SnapshotValue::Histogram(h) => Json::object()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", h.min)
                .field("max", h.max)
                .field("mean", h.mean())
                .field("p50", h.p50)
                .field("p90", h.p90)
                .field("p99", h.p99)?,
        };
        object = object.field(&key, value)?;
    }
    Ok(object)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn spec_accepts_shared_flags() {
        let spec = spec_with(&["phi"], &["json"]);
        let parsed = spec
            .parse(&argv(&[
                "--phi=4",
                "--log-level",
                "debug",
                "--log-json",
                "--metrics-out",
                "/tmp/m.ndjson",
                "--trace-out",
                "/tmp/t.json",
            ]))
            .unwrap();
        assert_eq!(parsed.get("log-level"), Some("debug"));
        assert!(parsed.has("log-json"));
        assert_eq!(parsed.get("trace-out"), Some("/tmp/t.json"));
        // `serve-metrics` is opt-in per command, not part of the shared set.
        assert!(spec_with(&[], &[])
            .parse(&argv(&["--serve-metrics", "x"]))
            .is_err());
        let spec = spec_with(&["serve-metrics"], &[]);
        let parsed = spec
            .parse(&argv(&["--serve-metrics", "127.0.0.1:0"]))
            .unwrap();
        assert_eq!(parsed.get("serve-metrics"), Some("127.0.0.1:0"));
    }

    #[test]
    fn trace_out_writes_chrome_trace_json() {
        let dir = std::env::temp_dir().join("hdoutlier-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs-setup-trace.json");
        let spec = spec_with(&[], &[]);
        let parsed = spec
            .parse(&argv(&["--trace-out", path.to_str().unwrap()]))
            .unwrap();
        let mut session = ObsSession::init(&parsed).unwrap();
        session.finish().unwrap();
        // A second finish is a no-op, not a rewrite or panic.
        session.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // The trace buffer is process-global and parallel tests may swap it,
        // so assert the file's shape, not its span content (the spawned-
        // binary integration tests cover content in a clean process).
        let j = Json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(j.get("traceEvents").is_some(), "{text}");
    }

    #[test]
    fn serve_metrics_binds_echoes_and_shuts_down() {
        let spec = spec_with(&["serve-metrics"], &[]);
        let parsed = spec
            .parse(&argv(&["--serve-metrics", "127.0.0.1:0"]))
            .unwrap();
        let mut session = ObsSession::init(&parsed).unwrap();
        session.finish().unwrap();
        // An unbindable address is an init error, not a panic.
        let parsed = spec
            .parse(&argv(&["--serve-metrics", "256.0.0.1:bogus"]))
            .unwrap();
        let err = ObsSession::init(&parsed).unwrap_err();
        assert!(err.contains("--serve-metrics"), "{err}");
    }

    #[test]
    fn init_rejects_bad_level_and_accepts_good() {
        let spec = spec_with(&[], &[]);
        let parsed = spec.parse(&argv(&["--log-level", "shouting"])).unwrap();
        let err = ObsSession::init(&parsed).unwrap_err();
        assert!(err.contains("shouting"), "{err}");

        // Dispatcher state is process-global and other tests run in
        // parallel, so assert only on per-session state here; the
        // dispatcher lifecycle is covered in hdoutlier-obs itself.
        let parsed = spec.parse(&argv(&["--log-level", "warn"])).unwrap();
        let session = ObsSession::init(&parsed).unwrap();
        assert!(!session.wants_metrics());

        let parsed = spec
            .parse(&argv(&["--metrics-out", "/tmp/unused.ndjson"]))
            .unwrap();
        let session = ObsSession::init(&parsed).unwrap();
        assert!(session.wants_metrics());

        let parsed = spec.parse(&argv(&[])).unwrap();
        let _ = ObsSession::init(&parsed).unwrap();
    }

    #[test]
    fn profile_out_writes_folded_stacks_and_validates_flags() {
        let dir = std::env::temp_dir().join("hdoutlier-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs-setup-profile.folded");
        let spec = spec_with(&[], &[]);
        let parsed = spec
            .parse(&argv(&[
                "--profile-out",
                path.to_str().unwrap(),
                "--profile-hz",
                "500",
            ]))
            .unwrap();
        let mut session = ObsSession::init(&parsed).unwrap();
        // Hold a span across a few sampler ticks so the folded output has
        // at least one named frame.
        {
            let _g = obs::profile_span("hdoutlier.cli.test", "obs_setup_profile");
            std::thread::sleep(Duration::from_millis(30));
        }
        session.finish().unwrap();
        session.finish().unwrap(); // idempotent
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().all(|l| l
                .rsplit_once(' ')
                .is_some_and(|(_, n)| n.parse::<u64>().is_ok())),
            "folded lines end in a count: {text:?}"
        );

        // Flag validation: hz without a sink, zero, and garbage all fail
        // at init with a usage message naming the flag.
        for bad in [
            vec!["--profile-hz", "99"],
            vec!["--profile-out", "/tmp/p.folded", "--profile-hz", "0"],
            vec!["--profile-out", "/tmp/p.folded", "--profile-hz", "fast"],
        ] {
            let parsed = spec.parse(&argv(&bad)).unwrap();
            let err = ObsSession::init(&parsed).unwrap_err();
            assert!(err.contains("--profile-hz"), "{err}");
        }
    }

    #[test]
    fn metrics_json_renders_registered_metrics() {
        obs::registry().counter("hdoutlier.test.obs_setup").inc();
        let j = metrics_json().unwrap();
        assert!(j.get("hdoutlier.test.obs_setup").is_some());
        // Valid JSON end to end.
        assert!(Json::parse(&j.render()).is_ok());
    }

    #[test]
    fn elapsed_helpers_agree() {
        let d = Duration::from_micros(12_345);
        assert!((elapsed_ms(d) - 12.345).abs() < 1e-9);
        assert_eq!(fmt_elapsed(d), "12.345 ms");
    }
}
