//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles are `Arc`-backed and cheap to clone; updates are plain atomic
//! operations so the streaming hot path can record without locking. The
//! registry's mutex is touched only when a handle is first resolved by
//! name — resolve once, store the handle, update forever.

use hdoutlier_json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram bounds for microsecond durations: a 1–2–5 ladder from
/// 1 µs to 10 s (values above the last bound land in the overflow bucket).
pub const DURATION_US_BOUNDS: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5,
    5e5, 1e6, 2e6, 5e6, 1e7,
];

/// An `f64` cell updated with compare-and-swap loops over its bit pattern.
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    const fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A monotonically increasing count.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (window occupancy, population size, …).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds, ascending. `counts` has one extra slot for
    /// values above the last bound.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

/// A fixed-bucket histogram. Recording is two atomic adds plus bounded CAS
/// loops for sum/min/max; quantiles are estimated from bucket upper bounds
/// at snapshot time.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation. Non-finite values are dropped.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let inner = &self.0;
        // First bucket whose upper bound admits v; the trailing slot
        // catches everything above the last bound.
        let idx = inner.bounds.partition_point(|&b| v > b);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.update(|s| s + v);
        inner.min.update(|m| m.min(v));
        inner.max.update(|m| m.max(v));
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64() * 1e6);
    }

    /// `(upper_bound, count)` per bucket; the overflow bucket's bound is
    /// `f64::INFINITY`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.0
            .bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Point-in-time summary. Concurrent recorders may make `count` and the
    /// per-bucket totals momentarily inconsistent; each field is itself
    /// coherent. The returned `buckets` pair each upper bound with its
    /// (non-cumulative) count, so `count` always equals the bucket total.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let counts: Vec<u64> = inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let buckets: Vec<(f64, u64)> = inner
            .bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(counts.iter().copied())
            .collect();
        if count == 0 {
            return HistogramSnapshot {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                buckets,
            };
        }
        let min = inner.min.load();
        let max = inner.max.load();
        let quantile = |q: f64| -> f64 {
            // Rank of the q-th observation (1-based), then the upper bound
            // of the bucket holding it, clamped to the observed range so a
            // single sample reports itself rather than its bucket ceiling.
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    let bound = inner.bounds.get(i).copied().unwrap_or(max);
                    return bound.clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: inner.sum.load(),
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets,
        }
    }
}

/// Summary of a [`Histogram`] at one point in time. All scalar fields are
/// zero when nothing has been recorded (the bucket list keeps its shape).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median estimate (bucket upper bound, clamped to `[min, max]`).
    pub p50: f64,
    /// 90th percentile estimate.
    pub p90: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// `(upper_bound, count)` per bucket, ascending, the overflow bucket
    /// (`f64::INFINITY` bound) last. Counts are per-bucket, not cumulative,
    /// so external consumers can rebuild the distribution exactly.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The summary fields `count`, `sum`, `min`, `max`, `mean`, `p50`,
    /// `p90`, `p99`, in that order: the one mapping behind both the NDJSON
    /// snapshot line and the `--json` reports' `"metrics"` object.
    fn summary_fields(&self) -> Vec<(String, Json)> {
        [
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("mean", self.mean().into()),
            ("p50", self.p50.into()),
            ("p90", self.p90.into()),
            ("p99", self.p99.into()),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
    }
}

/// One registered metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram summary.
    Histogram(HistogramSnapshot),
}

impl SnapshotValue {
    /// The value as JSON: a counter or gauge as its number, a histogram as
    /// an object of its `count`, `sum`, `min`, `max`, `mean`, `p50`, `p90`
    /// and `p99`, in that order — the fields its snapshot line carries too.
    pub fn to_json(&self) -> Json {
        match self {
            SnapshotValue::Counter(v) => (*v).into(),
            SnapshotValue::Gauge(v) => (*v).into(),
            SnapshotValue::Histogram(h) => Json::Object(h.summary_fields()),
        }
    }
}

/// A named metric captured by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name, `hdoutlier.<crate>.<name>`.
    pub name: String,
    /// Ordered `(label_name, label_value)` pairs; empty for unlabeled
    /// metrics. The order is the family's registration order, identical on
    /// every scrape.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: SnapshotValue,
}

impl MetricSnapshot {
    /// One line of [`Registry::snapshot_ndjson`].
    fn to_json(&self) -> Json {
        let mut fields = vec![("metric".to_string(), self.name.as_str().into())];
        if !self.labels.is_empty() {
            let labels = self
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().into()))
                .collect();
            fields.push(("labels".to_string(), Json::Object(labels)));
        }
        let kind = match &self.value {
            SnapshotValue::Counter(_) => "counter",
            SnapshotValue::Gauge(_) => "gauge",
            SnapshotValue::Histogram(_) => "histogram",
        };
        fields.push(("type".to_string(), kind.into()));
        match &self.value {
            SnapshotValue::Histogram(h) => {
                fields.extend(h.summary_fields());
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(le, count)| {
                        let le = if le.is_finite() {
                            le.into()
                        } else {
                            "+Inf".into()
                        };
                        Json::Object(vec![
                            ("le".to_string(), le),
                            ("count".to_string(), count.into()),
                        ])
                    })
                    .collect();
                fields.push(("buckets".to_string(), Json::Array(buckets)));
            }
            value => fields.push(("value".to_string(), value.to_json())),
        }
        Json::Object(fields)
    }
}

/// Shared state of one labeled metric family: the ordered label schema and
/// the children keyed by label values. The children map is locked only
/// when a label set is first interned by [`CounterVec::with`] (and
/// siblings) and at snapshot time; the handles it returns update with
/// plain atomics, so hot paths resolve once and record lock-free.
#[derive(Debug)]
struct FamilyInner<T> {
    label_names: Vec<String>,
    children: Mutex<BTreeMap<Vec<String>, T>>,
}

impl<T: Clone> FamilyInner<T> {
    fn new(label_names: &[&str]) -> Self {
        FamilyInner {
            label_names: label_names.iter().map(|s| s.to_string()).collect(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    /// Interns `values` (first use registers a child via `make`) and
    /// returns the child's cheap-to-clone handle.
    fn with(&self, values: &[&str], make: impl FnOnce() -> T) -> T {
        assert_eq!(
            values.len(),
            self.label_names.len(),
            "label set {values:?} does not match schema {:?}",
            self.label_names
        );
        let mut children = self.children.lock().expect("family lock");
        children
            .entry(values.iter().map(|s| s.to_string()).collect())
            .or_insert_with(make)
            .clone()
    }

    /// Every interned label set with its child, in deterministic
    /// (lexicographic label-value) order.
    fn children(&self) -> Vec<(Vec<(String, String)>, T)> {
        self.children
            .lock()
            .expect("family lock")
            .iter()
            .map(|(values, child)| {
                let labels = self
                    .label_names
                    .iter()
                    .cloned()
                    .zip(values.iter().cloned())
                    .collect();
                (labels, child.clone())
            })
            .collect()
    }
}

/// A family of [`Counter`]s sharing one name, distinguished by an ordered
/// label set (e.g. `hdoutlier.serve.requests{route,status}`).
#[derive(Debug, Clone)]
pub struct CounterVec(Arc<FamilyInner<Counter>>);

impl CounterVec {
    /// Resolves (interning on first use) the child for `values`, one value
    /// per label name in schema order. The returned handle is lock-free;
    /// hot paths should resolve once and reuse it.
    ///
    /// # Panics
    /// If `values.len()` differs from the family's label count.
    pub fn with(&self, values: &[&str]) -> Counter {
        self.0.with(values, || Counter(Arc::new(AtomicU64::new(0))))
    }

    /// The family's ordered label names.
    pub fn label_names(&self) -> &[String] {
        &self.0.label_names
    }
}

/// A family of [`Gauge`]s sharing one name, distinguished by an ordered
/// label set.
#[derive(Debug, Clone)]
pub struct GaugeVec(Arc<FamilyInner<Gauge>>);

impl GaugeVec {
    /// Resolves (interning on first use) the child for `values`.
    ///
    /// # Panics
    /// If `values.len()` differs from the family's label count.
    pub fn with(&self, values: &[&str]) -> Gauge {
        self.0.with(values, || Gauge(Arc::new(AtomicI64::new(0))))
    }

    /// The family's ordered label names.
    pub fn label_names(&self) -> &[String] {
        &self.0.label_names
    }
}

/// A family of [`Histogram`]s sharing one name and bucket layout,
/// distinguished by an ordered label set (per-route latency, …).
#[derive(Debug, Clone)]
pub struct HistogramVec {
    inner: Arc<FamilyInner<Histogram>>,
    bounds: Arc<Vec<f64>>,
}

impl HistogramVec {
    /// Resolves (interning on first use) the child for `values`. Children
    /// share the family's bucket bounds.
    ///
    /// # Panics
    /// If `values.len()` differs from the family's label count.
    pub fn with(&self, values: &[&str]) -> Histogram {
        let bounds = Arc::clone(&self.bounds);
        self.inner.with(values, || new_histogram(&bounds))
    }

    /// The family's ordered label names.
    pub fn label_names(&self) -> &[String] {
        &self.inner.label_names
    }
}

/// Builds a histogram over validated bounds.
fn new_histogram(bounds: &[f64]) -> Histogram {
    Histogram(Arc::new(HistogramInner {
        bounds: bounds.to_vec(),
        counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
        count: AtomicU64::new(0),
        sum: AtomicF64::new(0.0),
        min: AtomicF64::new(f64::INFINITY),
        max: AtomicF64::new(f64::NEG_INFINITY),
    }))
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    CounterVec(CounterVec),
    GaugeVec(GaugeVec),
    HistogramVec(HistogramVec),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::CounterVec(_) => "labeled counter",
            Metric::GaugeVec(_) => "labeled gauge",
            Metric::HistogramVec(_) => "labeled histogram",
        }
    }
}

/// Panics when a family is re-resolved under a different label schema —
/// the labeled analogue of the kind-mismatch panic.
fn check_labels(name: &str, registered: &[String], requested: &[&str]) {
    if registered.len() != requested.len() || registered.iter().zip(requested).any(|(a, b)| a != b)
    {
        panic!("metric {name:?} is registered with labels {registered:?}, not {requested:?}");
    }
}

/// A name → metric map. The process-global instance is [`registry`]; tests
/// may build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().expect("registry lock");
        let metric = map.entry(name.to_string()).or_insert_with(make);
        metric.clone()
    }

    /// Resolves (registering on first use) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || {
            Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0))))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Resolves (registering on first use) the histogram `name` with the
    /// default [`DURATION_US_BOUNDS`].
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, DURATION_US_BOUNDS)
    }

    /// Like [`Registry::histogram`] with explicit bucket upper bounds
    /// (ascending). Bounds are fixed at first registration; later calls
    /// under the same name return the existing histogram unchanged.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly ascending, or if `name` is
    /// already registered as a different metric kind.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name:?} needs >= 1 bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly ascending"
        );
        match self.get_or_insert(name, || Metric::Histogram(new_histogram(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Resolves (registering on first use) the counter family `name` with
    /// the ordered label schema `labels`. Children are addressed with
    /// [`CounterVec::with`]; resolve the family once, then the children
    /// once, and record through the lock-free handles.
    ///
    /// # Panics
    /// If `labels` is empty, if `name` is already registered as a
    /// different metric kind, or if it is registered with a different
    /// label schema.
    pub fn counter_vec(&self, name: &str, labels: &[&str]) -> CounterVec {
        assert!(!labels.is_empty(), "family {name:?} needs >= 1 label");
        match self.get_or_insert(name, || {
            Metric::CounterVec(CounterVec(Arc::new(FamilyInner::new(labels))))
        }) {
            Metric::CounterVec(v) => {
                check_labels(name, v.label_names(), labels);
                v
            }
            other => panic!(
                "metric {name:?} is a {}, not a labeled counter",
                other.kind()
            ),
        }
    }

    /// Resolves (registering on first use) the gauge family `name` with
    /// the ordered label schema `labels`.
    ///
    /// # Panics
    /// As [`Registry::counter_vec`].
    pub fn gauge_vec(&self, name: &str, labels: &[&str]) -> GaugeVec {
        assert!(!labels.is_empty(), "family {name:?} needs >= 1 label");
        match self.get_or_insert(name, || {
            Metric::GaugeVec(GaugeVec(Arc::new(FamilyInner::new(labels))))
        }) {
            Metric::GaugeVec(v) => {
                check_labels(name, v.label_names(), labels);
                v
            }
            other => panic!("metric {name:?} is a {}, not a labeled gauge", other.kind()),
        }
    }

    /// Resolves (registering on first use) the histogram family `name`
    /// with the ordered label schema `labels` and the default
    /// [`DURATION_US_BOUNDS`].
    ///
    /// # Panics
    /// As [`Registry::counter_vec`].
    pub fn histogram_vec(&self, name: &str, labels: &[&str]) -> HistogramVec {
        self.histogram_vec_with_bounds(name, labels, DURATION_US_BOUNDS)
    }

    /// Like [`Registry::histogram_vec`] with explicit bucket upper bounds
    /// (ascending), shared by every child. Bounds are fixed at first
    /// registration.
    ///
    /// # Panics
    /// As [`Registry::histogram_with_bounds`] plus the label-schema checks
    /// of [`Registry::counter_vec`].
    pub fn histogram_vec_with_bounds(
        &self,
        name: &str,
        labels: &[&str],
        bounds: &[f64],
    ) -> HistogramVec {
        assert!(!labels.is_empty(), "family {name:?} needs >= 1 label");
        assert!(!bounds.is_empty(), "histogram {name:?} needs >= 1 bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly ascending"
        );
        match self.get_or_insert(name, || {
            Metric::HistogramVec(HistogramVec {
                inner: Arc::new(FamilyInner::new(labels)),
                bounds: Arc::new(bounds.to_vec()),
            })
        }) {
            Metric::HistogramVec(v) => {
                check_labels(name, v.label_names(), labels);
                v
            }
            other => panic!(
                "metric {name:?} is a {}, not a labeled histogram",
                other.kind()
            ),
        }
    }

    /// All registered metrics, sorted by name; a labeled family
    /// contributes one entry per interned label set (label-value order),
    /// after any unlabeled metric of the same name prefix.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.metrics.lock().expect("registry lock");
        let mut out = Vec::with_capacity(map.len());
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => out.push(MetricSnapshot {
                    name: name.clone(),
                    labels: Vec::new(),
                    value: SnapshotValue::Counter(c.get()),
                }),
                Metric::Gauge(g) => out.push(MetricSnapshot {
                    name: name.clone(),
                    labels: Vec::new(),
                    value: SnapshotValue::Gauge(g.get()),
                }),
                Metric::Histogram(h) => out.push(MetricSnapshot {
                    name: name.clone(),
                    labels: Vec::new(),
                    value: SnapshotValue::Histogram(h.snapshot()),
                }),
                Metric::CounterVec(v) => {
                    for (labels, child) in v.0.children() {
                        out.push(MetricSnapshot {
                            name: name.clone(),
                            labels,
                            value: SnapshotValue::Counter(child.get()),
                        });
                    }
                }
                Metric::GaugeVec(v) => {
                    for (labels, child) in v.0.children() {
                        out.push(MetricSnapshot {
                            name: name.clone(),
                            labels,
                            value: SnapshotValue::Gauge(child.get()),
                        });
                    }
                }
                Metric::HistogramVec(v) => {
                    for (labels, child) in v.inner.children() {
                        out.push(MetricSnapshot {
                            name: name.clone(),
                            labels,
                            value: SnapshotValue::Histogram(child.snapshot()),
                        });
                    }
                }
            }
        }
        out
    }

    /// The snapshot as NDJSON: one object per metric (one per label set
    /// for families), sorted by name, each line
    /// `{"metric":"…","type":"counter|gauge|histogram",…}`. Labeled series
    /// add `"labels":{…}` in schema order right after the name. Histogram
    /// lines carry the full `(le, count)` bucket list (per-bucket counts,
    /// `le` of the overflow bucket rendered as `"+Inf"`) so consumers can
    /// rebuild the distribution instead of only reading baked quantiles.
    pub fn snapshot_ndjson(&self) -> String {
        let mut out = String::new();
        for m in self.snapshot() {
            out.push_str(&m.to_json().render());
            out.push('\n');
        }
        out
    }
}

static REGISTRY: Registry = Registry::new();

/// The process-global registry. All pipeline instrumentation registers
/// here; the CLI's `--metrics-out` snapshots it at exit.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// Guards the one-time seeding of `hdoutlier.process.start_ts_us`.
static PROCESS_START_SEEDED: std::sync::OnceLock<()> = std::sync::OnceLock::new();

/// Registers (on first call) and refreshes the process-level metrics in the
/// global registry:
///
/// - `hdoutlier.process.uptime_seconds` — gauge, seconds since the
///   dispatcher epoch, refreshed on every call (the `/metrics` server calls
///   this per scrape, so rates can be computed without client-side state);
/// - `hdoutlier.process.start_ts_us` — counter, microseconds between the
///   Unix epoch and process start, seeded exactly once;
/// - the `hdoutlier.alloc.*` gauges (when the counting allocator is
///   installed) and the `/proc`-backed process vitals
///   (`hdoutlier.process.rss_bytes`, `cpu_user_ms`, `cpu_sys_ms` — Linux
///   only), both refreshed per call.
///
/// Called by [`crate::install`] and by the telemetry server before every
/// snapshot; safe to call from anywhere, any number of times.
pub fn refresh_process_metrics() {
    let up_us = crate::ts_us();
    registry()
        .gauge("hdoutlier.process.uptime_seconds")
        .set((up_us / 1_000_000) as i64);
    crate::alloc::refresh_alloc_metrics();
    crate::expo::refresh_process_vitals();
    PROCESS_START_SEEDED.get_or_init(|| {
        let now_unix_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        registry()
            .counter("hdoutlier.process.start_ts_us")
            .add(now_unix_us.saturating_sub(up_us));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("c").get(), 5, "same handle by name");

        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("h", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 1.1, 10.0, 99.0, 100.0, 101.0] {
            h.record(v);
        }
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 2)); // 0.5, 1.0
        assert_eq!(buckets[1], (10.0, 2)); // 1.1, 10.0
        assert_eq!(buckets[2], (100.0, 2)); // 99.0, 100.0
        assert_eq!(buckets[3], (f64::INFINITY, 1)); // 101.0
    }

    #[test]
    fn histogram_snapshot_quantiles() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("h", &[1.0, 2.0, 5.0, 10.0]);
        // 100 observations: 50 in (..=1], 40 in (1..=2], 10 in (2..=5].
        for _ in 0..50 {
            h.record(0.5);
        }
        for _ in 0..40 {
            h.record(1.5);
        }
        for _ in 0..10 {
            h.record(3.0);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 3.0);
        assert!((s.sum - (50.0 * 0.5 + 40.0 * 1.5 + 10.0 * 3.0)).abs() < 1e-9);
        assert_eq!(s.p50, 1.0); // rank 50 is the last of the first bucket
        assert_eq!(s.p90, 2.0); // rank 90 is the last of the second bucket
        assert_eq!(s.p99, 3.0); // rank 99 is in the third bucket, clamped to max
        assert!((s.mean() - 1.15).abs() < 1e-9);
    }

    #[test]
    fn histogram_single_sample_clamps_to_observation() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("h", &[100.0, 1000.0]);
        h.record(42.0);
        let s = h.snapshot();
        // Bucket bound is 100 but only 42 was ever seen.
        assert_eq!((s.p50, s.p90, s.p99), (42.0, 42.0, 42.0));
    }

    #[test]
    fn histogram_empty_snapshot_is_zeroed() {
        let r = Registry::new();
        let s = r.histogram("h").snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(
            (s.min, s.max, s.p50, s.p99, s.mean()),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn histogram_drops_nonfinite() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        Registry::new().histogram_with_bounds("h", &[2.0, 1.0]);
    }

    #[test]
    fn snapshot_ndjson_is_sorted_and_line_per_metric() {
        let r = Registry::new();
        r.counter("b.count").inc();
        r.gauge("c.gauge").set(-2);
        r.histogram("a.hist").record(3.0);
        let text = r.snapshot_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"metric\":\"a.hist\""), "{}", lines[0]);
        assert!(lines[0].contains("\"type\":\"histogram\""), "{}", lines[0]);
        assert!(lines[0].contains("\"p99\":"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"metric\":\"b.count\"") && lines[1].contains("\"value\":1"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"metric\":\"c.gauge\"") && lines[2].contains("\"value\":-2"),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn default_duration_bounds_are_ascending() {
        assert!(DURATION_US_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn snapshot_carries_buckets_matching_raw_counts() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("h", &[1.0, 10.0]);
        for v in [0.5, 5.0, 50.0, 50.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(1.0, 1), (10.0, 1), (f64::INFINITY, 2)]);
        assert_eq!(s.count, s.buckets.iter().map(|&(_, c)| c).sum::<u64>());
        // Empty histograms keep the bucket shape with zero counts.
        let empty = r.histogram_with_bounds("e", &[1.0]).snapshot();
        assert_eq!(empty.buckets, vec![(1.0, 0), (f64::INFINITY, 0)]);
    }

    #[test]
    fn snapshot_ndjson_histogram_emits_le_count_pairs() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("h", &[1.0, 10.0]);
        h.record(0.5);
        h.record(99.0);
        let text = r.snapshot_ndjson();
        let line = text.lines().next().unwrap();
        assert!(
            line.contains(
                "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":10,\"count\":0},\
                 {\"le\":\"+Inf\",\"count\":1}]"
            ),
            "{line}"
        );
    }

    #[test]
    fn counter_vec_interns_and_accumulates_per_label_set() {
        let r = Registry::new();
        let v = r.counter_vec("req", &["route", "status"]);
        v.with(&["/score", "200"]).add(3);
        v.with(&["/score", "200"]).inc();
        v.with(&["/score", "500"]).inc();
        assert_eq!(v.with(&["/score", "200"]).get(), 4);
        assert_eq!(v.with(&["/score", "500"]).get(), 1);
        // Re-resolving the family by name reaches the same children.
        assert_eq!(
            r.counter_vec("req", &["route", "status"])
                .with(&["/score", "200"])
                .get(),
            4
        );
    }

    #[test]
    fn gauge_and_histogram_vec_children_are_independent() {
        let r = Registry::new();
        let g = r.gauge_vec("sessions", &["kind"]);
        g.with(&["brute"]).set(2);
        g.with(&["ensemble"]).set(5);
        assert_eq!(g.with(&["brute"]).get(), 2);
        assert_eq!(g.with(&["ensemble"]).get(), 5);

        let h = r.histogram_vec_with_bounds("lat", &["route"], &[1.0, 10.0]);
        h.with(&["/a"]).record(0.5);
        h.with(&["/b"]).record(99.0);
        assert_eq!(h.with(&["/a"]).snapshot().count, 1);
        assert_eq!(h.with(&["/b"]).snapshot().max, 99.0);
    }

    #[test]
    fn snapshot_orders_label_sets_deterministically() {
        let r = Registry::new();
        let v = r.counter_vec("req", &["route", "status"]);
        // Intern out of order; snapshot must come back sorted by values.
        v.with(&["/z", "500"]).inc();
        v.with(&["/a", "200"]).inc();
        v.with(&["/a", "500"]).inc();
        let labels: Vec<Vec<(String, String)>> =
            r.snapshot().into_iter().map(|m| m.labels).collect();
        let expect = |route: &str, status: &str| {
            vec![
                ("route".to_string(), route.to_string()),
                ("status".to_string(), status.to_string()),
            ]
        };
        assert_eq!(
            labels,
            vec![
                expect("/a", "200"),
                expect("/a", "500"),
                expect("/z", "500")
            ]
        );
    }

    #[test]
    fn snapshot_ndjson_carries_labels_object() {
        let r = Registry::new();
        r.counter_vec("req", &["route", "status"])
            .with(&["/score", "200"])
            .add(7);
        let text = r.snapshot_ndjson();
        assert_eq!(
            text,
            "{\"metric\":\"req\",\"labels\":{\"route\":\"/score\",\"status\":\"200\"},\
             \"type\":\"counter\",\"value\":7}\n"
        );
    }

    #[test]
    #[should_panic(expected = "not a labeled counter")]
    fn vec_kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.counter_vec("x", &["route"]);
    }

    #[test]
    #[should_panic(expected = "registered with labels")]
    fn label_schema_mismatch_panics() {
        let r = Registry::new();
        r.counter_vec("x", &["route", "status"]);
        r.counter_vec("x", &["route"]);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn wrong_arity_with_panics() {
        let r = Registry::new();
        r.counter_vec("x", &["route", "status"]).with(&["/only"]);
    }

    #[test]
    fn process_metrics_register_and_refresh() {
        refresh_process_metrics();
        let start = registry().counter("hdoutlier.process.start_ts_us").get();
        assert!(start > 0, "start_ts_us seeded");
        refresh_process_metrics();
        assert_eq!(
            registry().counter("hdoutlier.process.start_ts_us").get(),
            start,
            "seeded exactly once"
        );
        let up = registry().gauge("hdoutlier.process.uptime_seconds").get();
        assert!(up >= 0);
    }
}
