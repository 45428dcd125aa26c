#![warn(missing_docs)]

//! In-tree tracing and metrics for the hdoutlier workspace.
//!
//! The workspace is hermetic — no crates.io — so this crate is a miniature
//! of the `tracing` + `metrics` ecosystem, scoped to what the detector,
//! evolutionary engine, streaming scorer, and CLI actually need:
//!
//! - **Events and spans** ([`event`], [`span`]) with [`Level`]s, dotted
//!   targets (`hdoutlier.core`, `hdoutlier.evolve`, …), and monotonic
//!   microsecond timestamps measured from dispatcher start. When no sink is
//!   installed the entire emit path is one relaxed atomic load and no
//!   allocation: fields are borrowed slices of [`Value`]s on the caller's
//!   stack.
//! - **Metrics** ([`registry`]): named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s (p50/p90/p99 summaries), all lock-free on
//!   the hot path (atomics only; the registry mutex is touched only when a
//!   handle is first resolved). Wall-clock timing of per-record hot paths
//!   is additionally gated behind [`timing_enabled`] so a disabled stream
//!   pipeline never calls `Instant::now`.
//! - **Sinks** ([`Sink`]): human-readable stderr ([`StderrSink`]), NDJSON
//!   over any writer ([`NdjsonSink`]), and an in-memory [`CaptureSink`]
//!   for tests — selected at runtime via [`install`].
//! - **Live serving & profiling**: [`MetricsServer`] answers `/metrics`
//!   (Prometheus text exposition, [`render_prometheus`]), `/healthz`, and
//!   `/snapshot` (NDJSON) on a background thread; a [`TraceBuffer`]
//!   installed via [`set_trace_buffer`] collects every closed [`Span`] as
//!   Chrome trace-event JSON loadable in Perfetto.
//! - **Continuous profiling**: a [`ProfileSession`] samples every thread's
//!   live span stack at a configurable rate and renders folded-stack text,
//!   an in-tree SVG flamegraph, or JSON ([`ProfileReport`]); the optional
//!   [`CountingAllocator`] attributes allocation bytes to the sampled
//!   stacks and feeds the `hdoutlier.alloc.*` gauges. Served live at
//!   `GET /profile?seconds=N&format=folded|svg|json`.
//!
//! Naming scheme: every event target and metric is
//! `hdoutlier.<crate>.<name>` (see `docs/metrics.md` in the repo root for
//! the full inventory).
//!
//! ```
//! use hdoutlier_obs as obs;
//!
//! let hits = obs::registry().counter("hdoutlier.doc.hits");
//! hits.inc();
//! let latency = obs::registry().histogram("hdoutlier.doc.latency_us");
//! latency.record(42.0);
//! obs::event(
//!     obs::Level::Info,
//!     "hdoutlier.doc",
//!     "served",
//!     &[("hits", obs::Value::U64(hits.get()))],
//! );
//! assert!(latency.snapshot().count == 1);
//! ```

mod alloc;
mod ctx;
mod dispatch;
mod event;
mod expo;
mod http;
#[cfg(test)]
mod json_reference;
mod level;
mod metrics;
mod profile;
mod sink;
mod slo;
mod trace;

pub use alloc::{alloc_stats, AllocStats, CountingAllocator};
pub use ctx::{current_request_ctx, set_request_ctx, RequestCtx, RequestCtxGuard};
pub use dispatch::{
    enabled, event, install, max_level, set_max_level, set_timing, set_trace_buffer, span,
    timing_enabled, trace_enabled, ts_us, uninstall, Span,
};
pub use event::{EventRecord, Field, Value};
pub use expo::{escape_label_value, render_prometheus, sanitize_metric_name};
pub use http::{telemetry_config, telemetry_response, MetricsServer};
pub use level::{Level, ParseLevelError};
pub use metrics::{
    refresh_process_metrics, registry, Counter, CounterVec, Gauge, GaugeVec, Histogram,
    HistogramSnapshot, HistogramVec, MetricSnapshot, Registry, SnapshotValue, DURATION_US_BOUNDS,
};
pub use profile::{
    profile_enabled, profile_for, profile_span, ProfileGuard, ProfileReport, ProfileSession,
    StackEntry, MAX_DEPTH as PROFILE_MAX_DEPTH,
};
pub use sink::{render_human, render_ndjson, CaptureSink, NdjsonSink, Sink, StderrSink};
pub use slo::{SloEngine, SloKeyReport, SloReport, SloSample, SloThresholds, SloVerdict};
pub use trace::TraceBuffer;
