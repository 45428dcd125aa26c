//! Rolling-window SLO evaluation over labeled counters and histograms.
//!
//! An [`SloEngine`] holds a small ring of cumulative samples per key (a
//! route, a session, …). Whoever owns the metrics feeds it via
//! [`SloEngine::observe`] — typically on every `/status` or `/healthz`
//! scrape — and [`SloEngine::evaluate`] turns the deltas across the
//! configured window into per-key error rate, p99 latency, and
//! throughput, judged against [`SloThresholds`]:
//!
//! - breach factor ≤ 1 → [`SloVerdict::Healthy`]
//! - breach factor ≤ 2 → [`SloVerdict::Degraded`] (over budget, within 2×)
//! - otherwise → [`SloVerdict::Unhealthy`]
//!
//! where the factor is the worst of `error_rate / max_error_rate` and
//! `p99_us / max_p99_us`. Verdict transitions emit `slo_breach` (Warn) /
//! `slo_recovered` (Info) events on target `hdoutlier.slo`, so threshold
//! crossings land in the same log stream as everything else.
//!
//! The window slides on sample timestamps: evaluation compares the newest
//! sample against the oldest one still useful as a baseline (one sample
//! older than the window is kept so the delta always spans at least the
//! window once enough history exists). With a single sample the delta is
//! taken against a zero origin — process start. Rates therefore reflect
//! scrape cadence: two scrapes more than a window apart see each other.

use crate::event::Value;
use crate::level::Level;
use hdoutlier_json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// The health budgets a key is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloThresholds {
    /// Tolerated error fraction in `[0, 1]`, e.g. `0.05` for 5%.
    pub max_error_rate: f64,
    /// Tolerated p99 latency in microseconds.
    pub max_p99_us: f64,
}

/// One key's health classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloVerdict {
    /// Within budget.
    Healthy,
    /// Over budget, by at most 2×.
    Degraded,
    /// More than 2× over budget.
    Unhealthy,
}

impl SloVerdict {
    /// The lowercase wire name (`healthy` / `degraded` / `unhealthy`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SloVerdict::Healthy => "healthy",
            SloVerdict::Degraded => "degraded",
            SloVerdict::Unhealthy => "unhealthy",
        }
    }
}

/// A cumulative reading for one key, taken from the metrics registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloSample {
    /// Cumulative unit count (requests, records, …).
    pub total: u64,
    /// Cumulative error count out of `total`.
    pub errors: u64,
    /// Cumulative `(upper_bound, count)` latency buckets (per-bucket
    /// counts as [`crate::HistogramSnapshot::buckets`] reports them).
    /// Empty when the key has no latency dimension — p99 is then skipped.
    pub buckets: Vec<(f64, u64)>,
}

#[derive(Debug, Clone)]
struct TimedSample {
    ts_us: u64,
    sample: SloSample,
}

#[derive(Debug)]
struct KeyState {
    samples: VecDeque<TimedSample>,
    last_verdict: SloVerdict,
}

/// One key's evaluated health.
#[derive(Debug, Clone, PartialEq)]
pub struct SloKeyReport {
    /// The key, e.g. `route:/sessions/{id}/score` or `session:abc`.
    pub key: String,
    /// The verdict for this key alone.
    pub verdict: SloVerdict,
    /// Window error fraction in `[0, 1]`; zero when nothing happened.
    pub error_rate: f64,
    /// Window p99 latency estimate in microseconds. `None` when the key
    /// has no latency buckets; `f64::INFINITY` when the p99 fell in the
    /// overflow bucket.
    pub p99_us: Option<f64>,
    /// Window throughput in units per second.
    pub per_sec: f64,
    /// Units observed inside the window.
    pub total: u64,
    /// Errors observed inside the window.
    pub errors: u64,
}

/// The engine's full judgment: every key plus the overall worst-of.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Worst verdict across keys (healthy when no key has samples).
    pub overall: SloVerdict,
    /// Per-key reports, sorted by key.
    pub keys: Vec<SloKeyReport>,
    /// The thresholds the verdicts were judged against.
    pub thresholds: SloThresholds,
    /// The rolling window the deltas span.
    pub window: Duration,
}

/// Rolling-window SLO evaluator. Thread-safe; one per server.
#[derive(Debug)]
pub struct SloEngine {
    thresholds: SloThresholds,
    window_us: u64,
    state: Mutex<BTreeMap<String, KeyState>>,
}

/// Per-key sample-ring cap. At one sample per scrape this outlives any
/// sane scrape cadence × window combination; beyond it the oldest samples
/// fall off early, shortening the effective window rather than growing
/// without bound.
const MAX_SAMPLES_PER_KEY: usize = 256;

impl SloEngine {
    /// An engine judging `window`-wide deltas against `thresholds`.
    pub fn new(thresholds: SloThresholds, window: Duration) -> Self {
        SloEngine {
            thresholds,
            window_us: window.as_micros() as u64,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> SloThresholds {
        self.thresholds
    }

    /// Records a cumulative reading for `key`, stamped with the
    /// dispatcher clock, and prunes samples that fell out of the window
    /// (keeping one older sample as the delta baseline).
    pub fn observe(&self, key: &str, sample: SloSample) {
        self.observe_at(key, sample, crate::ts_us());
    }

    /// [`SloEngine::observe`] with an explicit timestamp (tests).
    pub fn observe_at(&self, key: &str, sample: SloSample, ts_us: u64) {
        let mut state = self.state.lock().expect("slo lock");
        let entry = state.entry(key.to_string()).or_insert_with(|| KeyState {
            samples: VecDeque::new(),
            last_verdict: SloVerdict::Healthy,
        });
        entry.samples.push_back(TimedSample { ts_us, sample });
        let horizon = ts_us.saturating_sub(self.window_us);
        while entry.samples.len() > 1 && entry.samples[1].ts_us <= horizon {
            entry.samples.pop_front();
        }
        while entry.samples.len() > MAX_SAMPLES_PER_KEY {
            entry.samples.pop_front();
        }
    }

    /// Evaluates every key's window and returns the report. Verdict
    /// transitions emit `slo_breach` / `slo_recovered` events.
    pub fn evaluate(&self) -> SloReport {
        let mut state = self.state.lock().expect("slo lock");
        let mut keys = Vec::with_capacity(state.len());
        let mut overall = SloVerdict::Healthy;
        for (key, entry) in state.iter_mut() {
            let Some(report) = self.evaluate_key(key, &entry.samples) else {
                continue;
            };
            if report.verdict > entry.last_verdict {
                crate::event(
                    Level::Warn,
                    "hdoutlier.slo",
                    "slo_breach",
                    &[
                        ("key", Value::Str(key)),
                        ("status", Value::Str(report.verdict.as_str())),
                        ("error_rate", Value::F64(report.error_rate)),
                        ("p99_us", Value::F64(report.p99_us.unwrap_or(0.0))),
                    ],
                );
            } else if report.verdict < entry.last_verdict && report.verdict == SloVerdict::Healthy {
                crate::event(
                    Level::Info,
                    "hdoutlier.slo",
                    "slo_recovered",
                    &[("key", Value::Str(key))],
                );
            }
            entry.last_verdict = report.verdict;
            overall = overall.max(report.verdict);
            keys.push(report);
        }
        SloReport {
            overall,
            keys,
            thresholds: self.thresholds,
            window: Duration::from_micros(self.window_us),
        }
    }

    fn evaluate_key(&self, key: &str, samples: &VecDeque<TimedSample>) -> Option<SloKeyReport> {
        let newest = samples.back()?;
        let zero = TimedSample {
            ts_us: 0,
            sample: SloSample::default(),
        };
        // Delta against the front of the ring; with one sample that is a
        // zero origin at process start.
        let base = if samples.len() > 1 {
            samples.front().unwrap()
        } else {
            &zero
        };
        let total = newest.sample.total.saturating_sub(base.sample.total);
        let errors = newest.sample.errors.saturating_sub(base.sample.errors);
        let error_rate = if total == 0 {
            0.0
        } else {
            errors as f64 / total as f64
        };
        let p99_us = window_p99(&base.sample.buckets, &newest.sample.buckets);
        let dt_s = (newest.ts_us.saturating_sub(base.ts_us)) as f64 / 1e6;
        let per_sec = if dt_s > 0.0 { total as f64 / dt_s } else { 0.0 };
        let factor = |value: f64, budget: f64| -> f64 {
            if value <= 0.0 {
                0.0
            } else if budget <= 0.0 {
                f64::INFINITY
            } else {
                value / budget
            }
        };
        let breach = factor(error_rate, self.thresholds.max_error_rate)
            .max(factor(p99_us.unwrap_or(0.0), self.thresholds.max_p99_us));
        let verdict = if breach <= 1.0 {
            SloVerdict::Healthy
        } else if breach <= 2.0 {
            SloVerdict::Degraded
        } else {
            SloVerdict::Unhealthy
        };
        Some(SloKeyReport {
            key: key.to_string(),
            verdict,
            error_rate,
            p99_us,
            per_sec,
            total,
            errors,
        })
    }
}

/// The p99 latency estimate from the bucket-count delta between two
/// cumulative readings. `None` when there are no buckets or no
/// observations in the window; `f64::INFINITY` when the 99th percentile
/// landed in the overflow bucket.
fn window_p99(base: &[(f64, u64)], newest: &[(f64, u64)]) -> Option<f64> {
    if newest.is_empty() {
        return None;
    }
    let deltas: Vec<(f64, u64)> = newest
        .iter()
        .enumerate()
        .map(|(i, &(bound, count))| {
            let before = base.get(i).map_or(0, |&(_, c)| c);
            (bound, count.saturating_sub(before))
        })
        .collect();
    let total: u64 = deltas.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let target = ((0.99 * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for &(bound, count) in &deltas {
        cum += count;
        if cum >= target {
            return Some(bound);
        }
    }
    Some(f64::INFINITY)
}

impl SloReport {
    /// The report as a JSON document:
    /// `{"status":…,"window_s":…,"thresholds":{…},"keys":[…]}`.
    /// Latencies are reported in milliseconds (the flag unit); an overflow
    /// p99 renders as `null` with the verdict already reflecting it.
    pub fn to_json(&self) -> Json {
        let thresholds = Json::Object(vec![
            (
                "max_error_rate".to_string(),
                self.thresholds.max_error_rate.into(),
            ),
            (
                "max_p99_ms".to_string(),
                (self.thresholds.max_p99_us / 1e3).into(),
            ),
        ]);
        let keys = self
            .keys
            .iter()
            .map(|k| {
                Json::Object(vec![
                    ("key".to_string(), k.key.as_str().into()),
                    ("status".to_string(), k.verdict.as_str().into()),
                    ("error_rate".to_string(), k.error_rate.into()),
                    (
                        "p99_ms".to_string(),
                        k.p99_us.map_or(Json::Null, |v| (v / 1e3).into()),
                    ),
                    ("per_sec".to_string(), k.per_sec.into()),
                    ("total".to_string(), k.total.into()),
                    ("errors".to_string(), k.errors.into()),
                ])
            })
            .collect();
        Json::Object(vec![
            ("status".to_string(), self.overall.as_str().into()),
            ("window_s".to_string(), self.window.as_secs_f64().into()),
            ("thresholds".to_string(), thresholds),
            ("keys".to_string(), Json::Array(keys)),
        ])
    }

    /// The report as human-readable text, one line per key.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "status: {}\nwindow: {:.0}s  thresholds: error_rate<={:.4} p99<={:.1}ms\n",
            self.overall.as_str(),
            self.window.as_secs_f64(),
            self.thresholds.max_error_rate,
            self.thresholds.max_p99_us / 1e3,
        );
        for k in &self.keys {
            let p99 = match k.p99_us {
                Some(v) if v.is_finite() => format!("{:.1}ms", v / 1e3),
                Some(_) => ">ladder".to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<11} {}  err={:.4} p99={} rate={:.1}/s total={} errors={}\n",
                k.verdict.as_str(),
                k.key,
                k.error_rate,
                p99,
                k.per_sec,
                k.total,
                k.errors,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(max_error_rate: f64, max_p99_us: f64) -> SloEngine {
        SloEngine::new(
            SloThresholds {
                max_error_rate,
                max_p99_us,
            },
            Duration::from_secs(60),
        )
    }

    fn sample(total: u64, errors: u64, buckets: &[(f64, u64)]) -> SloSample {
        SloSample {
            total,
            errors,
            buckets: buckets.to_vec(),
        }
    }

    #[test]
    fn empty_engine_is_healthy() {
        let e = engine(0.05, 250_000.0);
        let report = e.evaluate();
        assert_eq!(report.overall, SloVerdict::Healthy);
        assert!(report.keys.is_empty());
    }

    #[test]
    fn single_sample_judges_against_zero_origin() {
        let e = engine(0.05, 250_000.0);
        e.observe_at(
            "route:/score",
            sample(100, 1, &[(1000.0, 99), (f64::INFINITY, 1)]),
            2_000_000,
        );
        let report = e.evaluate();
        assert_eq!(report.overall, SloVerdict::Healthy);
        let k = &report.keys[0];
        assert_eq!((k.total, k.errors), (100, 1));
        assert!((k.error_rate - 0.01).abs() < 1e-12);
        assert_eq!(k.p99_us, Some(1000.0));
        assert!((k.per_sec - 50.0).abs() < 1e-9, "{}", k.per_sec);
    }

    #[test]
    fn error_rate_breach_degrades_then_unhealthy() {
        let e = engine(0.05, 250_000.0);
        // 8% errors: factor 1.6 → degraded.
        e.observe_at("k", sample(100, 8, &[]), 1_000_000);
        assert_eq!(e.evaluate().overall, SloVerdict::Degraded);
        // 20% errors in the window: factor 4 → unhealthy.
        e.observe_at("k", sample(200, 28, &[]), 2_000_000);
        assert_eq!(e.evaluate().overall, SloVerdict::Unhealthy);
    }

    #[test]
    fn p99_breach_is_judged_on_window_deltas() {
        let e = engine(0.05, 500.0);
        // First reading: everything fast.
        e.observe_at(
            "k",
            sample(100, 0, &[(100.0, 100), (1000.0, 0), (f64::INFINITY, 0)]),
            1_000_000,
        );
        assert_eq!(e.evaluate().overall, SloVerdict::Healthy);
        // Second reading: the new traffic all landed in the 1000 µs bucket
        // — the cumulative histogram still looks half fast, but the window
        // delta is pure slow.
        e.observe_at(
            "k",
            sample(200, 0, &[(100.0, 100), (1000.0, 100), (f64::INFINITY, 0)]),
            2_000_000,
        );
        let report = e.evaluate();
        assert_eq!(report.keys[0].p99_us, Some(1000.0));
        assert_eq!(report.overall, SloVerdict::Degraded);
    }

    #[test]
    fn overflow_bucket_p99_is_infinite_and_unhealthy() {
        let e = engine(0.05, 500.0);
        e.observe_at(
            "k",
            sample(10, 0, &[(100.0, 0), (f64::INFINITY, 10)]),
            1_000_000,
        );
        let report = e.evaluate();
        assert_eq!(report.keys[0].p99_us, Some(f64::INFINITY));
        assert_eq!(report.overall, SloVerdict::Unhealthy);
        // JSON renders the overflow p99 as null, never as Infinity.
        let json = report.to_json().render();
        assert!(json.contains("\"p99_ms\":null"), "{json}");
    }

    #[test]
    fn window_prunes_but_keeps_one_baseline() {
        let e = engine(0.5, 1e12);
        let w = 60_000_000u64;
        e.observe_at("k", sample(100, 100, &[]), 1);
        e.observe_at("k", sample(200, 100, &[]), 2);
        // Two window-widths later: the old error burst must be gone.
        e.observe_at("k", sample(300, 100, &[]), 2 * w);
        e.observe_at("k", sample(400, 100, &[]), 2 * w + 1);
        let report = e.evaluate();
        let k = &report.keys[0];
        // The ts=1 sample was pruned (ts=2 also predates the horizon and
        // serves as the kept baseline), so the delta spans ts=2..=2w+1:
        // 200 units, none of the original error burst.
        assert_eq!((k.total, k.errors), (200, 0));
        assert_eq!(report.overall, SloVerdict::Healthy);
    }

    /// The dispatcher is process-global, so the tests that install a
    /// capture sink serialize against each other here.
    static SINK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn empty_window_reports_zero_rates_and_stays_healthy() {
        let e = engine(0.05, 250_000.0);
        // A key that has registered but never moved: zero totals at both
        // ends of the window must not divide by zero or breach anything.
        e.observe_at("idle", sample(0, 0, &[]), 1_000_000);
        e.observe_at("idle", sample(0, 0, &[]), 2_000_000);
        let report = e.evaluate();
        assert_eq!(report.overall, SloVerdict::Healthy);
        let k = &report.keys[0];
        assert_eq!((k.total, k.errors), (0, 0));
        assert_eq!(k.error_rate, 0.0);
        assert_eq!(k.per_sec, 0.0);
        assert_eq!(k.p99_us, None, "no observations means no p99 estimate");
    }

    #[test]
    fn total_failure_window_is_judged_against_the_error_budget() {
        // Every unit in the window failed: rate exactly 1.0, far past a 5%
        // budget → unhealthy.
        let e = engine(0.05, 250_000.0);
        e.observe_at("down", sample(0, 0, &[]), 1_000_000);
        e.observe_at("down", sample(40, 40, &[]), 31_000_000);
        let report = e.evaluate();
        let k = &report.keys[0];
        assert_eq!(k.error_rate, 1.0);
        assert_eq!(k.verdict, SloVerdict::Unhealthy);
        assert_eq!(report.overall, SloVerdict::Unhealthy);

        // A zero error budget treats any error at all as an infinite
        // breach factor rather than a division blowup.
        let strict = engine(0.0, 250_000.0);
        strict.observe_at("one", sample(1000, 1, &[]), 1_000_000);
        assert_eq!(strict.evaluate().overall, SloVerdict::Unhealthy);

        // ...while a 100%-error window under a budget of 1.0 sits exactly
        // on the boundary, and the boundary is healthy by contract.
        let tolerant = engine(1.0, 250_000.0);
        tolerant.observe_at("all", sample(40, 40, &[]), 1_000_000);
        assert_eq!(tolerant.evaluate().overall, SloVerdict::Healthy);
    }

    #[test]
    fn hysteresis_orders_breach_before_recovery_and_skips_half_steps() {
        use crate::sink::CaptureSink;
        use std::sync::Arc;
        let _guard = SINK_LOCK.lock().unwrap();
        let capture = Arc::new(CaptureSink::default());
        crate::install(capture.clone(), Level::Info);
        let e = engine(0.05, 1e12);
        // Healthy → unhealthy: one breach event.
        e.observe_at("hyst", sample(100, 50, &[]), 1_000_000);
        e.evaluate();
        // Unhealthy → degraded: an improvement, but not a recovery —
        // the engine stays silent until the key is actually healthy.
        e.observe_at("hyst", sample(2_000, 190, &[]), 2_000_000);
        e.evaluate();
        // Degraded → healthy: one recovery event, after the breach.
        e.observe_at("hyst", sample(100_000, 200, &[]), 3_000_000);
        e.evaluate();
        crate::uninstall();
        let lines: Vec<String> = capture
            .lines()
            .iter()
            .filter(|l| l.contains("\"key\":\"hyst\""))
            .cloned()
            .collect();
        let breach = lines.iter().position(|l| l.contains("slo_breach"));
        let recovery = lines.iter().position(|l| l.contains("slo_recovered"));
        assert_eq!(
            lines.len(),
            2,
            "exactly one breach + one recovery: {lines:?}"
        );
        assert!(breach.unwrap() < recovery.unwrap(), "{lines:?}");
        assert!(lines[breach.unwrap()].contains("unhealthy"));
    }

    #[test]
    fn transitions_emit_breach_and_recovery_events() {
        use crate::sink::CaptureSink;
        use std::sync::Arc;
        let _guard = SINK_LOCK.lock().unwrap();
        let capture = Arc::new(CaptureSink::default());
        crate::install(capture.clone(), Level::Info);
        let e = engine(0.05, 1e12);
        e.observe_at("k", sample(100, 50, &[]), 1_000_000);
        e.evaluate();
        e.evaluate(); // steady state: no second breach event
        e.observe_at("k", sample(10_000, 50, &[]), 2_000_000);
        e.evaluate();
        crate::uninstall();
        let lines = capture.lines();
        let breaches: Vec<&String> = lines.iter().filter(|l| l.contains("slo_breach")).collect();
        let recoveries: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("slo_recovered"))
            .collect();
        assert_eq!(breaches.len(), 1, "{lines:?}");
        assert!(breaches[0].contains("\"key\":\"k\""), "{}", breaches[0]);
        assert!(breaches[0].contains("unhealthy"), "{}", breaches[0]);
        assert_eq!(recoveries.len(), 1, "{lines:?}");
    }

    #[test]
    fn report_renders_json_and_text() {
        let e = engine(0.05, 250_000.0);
        e.observe_at("route:/score", sample(100, 2, &[(1000.0, 100)]), 5_000_000);
        let report = e.evaluate();
        let json = report.to_json().render();
        assert!(json.starts_with("{\"status\":\"healthy\""), "{json}");
        assert!(json.contains("\"key\":\"route:/score\""), "{json}");
        assert!(json.contains("\"max_p99_ms\":250},"), "{json}");
        // The HTTP edge appends the newline (see the `/status` route test).
        assert!(json.ends_with("]}"), "{json}");
        let text = report.to_text();
        assert!(text.starts_with("status: healthy\n"), "{text}");
        assert!(text.contains("route:/score"), "{text}");
    }
}
