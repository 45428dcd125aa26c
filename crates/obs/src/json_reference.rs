//! Differential tests for the JSON documents this crate emits.
//!
//! [`reference`] holds the renderers the crate used before it built its
//! documents as `hdoutlier_json::Json` values, kept verbatim (`self` became
//! an argument). On random inputs the event line, the metrics snapshot, the
//! Chrome trace and the profile JSON must match them byte for byte; the SLO
//! report must carry the same keys in the same order with the same numbers
//! up to the old fixed-decimal rounding. The two deliberate differences —
//! `-0` renders as `0`, integers beyond 2^53 round — are pinned on their
//! own.

mod reference {
    use crate::event::{EventRecord, Value};
    use crate::metrics::{Registry, SnapshotValue};
    use crate::profile::ProfileReport;
    use crate::slo::SloReport;
    use crate::trace::TraceBuffer;

    /// Appends `s` to `out` as JSON string *contents* (no surrounding quotes),
    /// escaping quotes, backslashes, and control characters.
    pub(crate) fn escape_json_into(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    /// Appends one field value to `out` as a JSON value. Non-finite floats
    /// become `null` (JSON has no NaN/Infinity).
    pub(crate) fn value_json_into(out: &mut String, v: &Value<'_>) {
        match v {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(&v.to_string()),
            Value::Str(s) => {
                out.push('"');
                escape_json_into(out, s);
                out.push('"');
            }
        }
    }

    /// Renders one event as a single NDJSON line (no trailing newline):
    /// `{"ts_us":…,"level":"info","target":"…","event":"…",<fields…>}`.
    /// Field names are emitted as-is after escaping; duplicate keys are the
    /// caller's problem, as in the wider NDJSON ecosystem.
    pub fn render_ndjson(record: &EventRecord<'_>) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ts_us\":");
        out.push_str(&record.ts_us.to_string());
        out.push_str(",\"level\":\"");
        out.push_str(record.level.as_str());
        out.push_str("\",\"target\":\"");
        escape_json_into(&mut out, record.target);
        out.push_str("\",\"event\":\"");
        escape_json_into(&mut out, record.name);
        out.push('"');
        for (key, value) in record.fields {
            out.push_str(",\"");
            escape_json_into(&mut out, key);
            out.push_str("\":");
            value_json_into(&mut out, value);
        }
        out.push('}');
        out
    }

    /// The snapshot as NDJSON: one object per metric (one per label set
    /// for families), sorted by name, each line
    /// `{"metric":"…","type":"counter|gauge|histogram",…}`. Labeled series
    /// add `"labels":{…}` in schema order right after the name. Histogram
    /// lines carry the full `(le, count)` bucket list (per-bucket counts,
    /// `le` of the overflow bucket rendered as `"+Inf"`) so consumers can
    /// rebuild the distribution instead of only reading baked quantiles.
    pub fn snapshot_ndjson(registry: &Registry) -> String {
        let mut out = String::new();
        for m in registry.snapshot() {
            out.push_str("{\"metric\":\"");
            escape_json_into(&mut out, &m.name);
            if !m.labels.is_empty() {
                out.push_str("\",\"labels\":{");
                for (i, (k, v)) in m.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_into(&mut out, k);
                    out.push_str("\":\"");
                    escape_json_into(&mut out, v);
                    out.push('"');
                }
                out.push_str("},\"type\":\"");
            } else {
                out.push_str("\",\"type\":\"");
            }
            match &m.value {
                SnapshotValue::Counter(v) => {
                    out.push_str("counter\",\"value\":");
                    out.push_str(&v.to_string());
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str("gauge\",\"value\":");
                    out.push_str(&v.to_string());
                }
                SnapshotValue::Histogram(h) => {
                    out.push_str("histogram\",\"count\":");
                    out.push_str(&h.count.to_string());
                    for (key, v) in [
                        ("sum", h.sum),
                        ("min", h.min),
                        ("max", h.max),
                        ("mean", h.mean()),
                        ("p50", h.p50),
                        ("p90", h.p90),
                        ("p99", h.p99),
                    ] {
                        out.push_str(",\"");
                        out.push_str(key);
                        out.push_str("\":");
                        if v.is_finite() {
                            out.push_str(&v.to_string());
                        } else {
                            out.push_str("null");
                        }
                    }
                    out.push_str(",\"buckets\":[");
                    for (i, (le, count)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"le\":");
                        if le.is_finite() {
                            out.push_str(&le.to_string());
                        } else {
                            out.push_str("\"+Inf\"");
                        }
                        out.push_str(",\"count\":");
                        out.push_str(&count.to_string());
                        out.push('}');
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders a finite float plainly, infinities as `null` (JSON has no
    /// `Infinity` literal).
    fn push_json_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            out.push_str(&format!("{v:.6}"));
        } else {
            out.push_str("null");
        }
    }

    /// The report as a JSON document:
    /// `{"status":…,"window_s":…,"thresholds":{…},"keys":[…]}`.
    /// Latencies are reported in milliseconds (the flag unit); an overflow
    /// p99 renders as `null` with the verdict already reflecting it.
    pub fn slo_to_json(report: &SloReport) -> String {
        let mut out = String::with_capacity(128 + report.keys.len() * 160);
        out.push_str("{\"status\":\"");
        out.push_str(report.overall.as_str());
        out.push_str("\",\"window_s\":");
        out.push_str(&format!("{:.3}", report.window.as_secs_f64()));
        out.push_str(",\"thresholds\":{\"max_error_rate\":");
        push_json_f64(&mut out, report.thresholds.max_error_rate);
        out.push_str(",\"max_p99_ms\":");
        push_json_f64(&mut out, report.thresholds.max_p99_us / 1e3);
        out.push_str("},\"keys\":[");
        for (i, k) in report.keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":\"");
            escape_json_into(&mut out, &k.key);
            out.push_str("\",\"status\":\"");
            out.push_str(k.verdict.as_str());
            out.push_str("\",\"error_rate\":");
            push_json_f64(&mut out, k.error_rate);
            out.push_str(",\"p99_ms\":");
            match k.p99_us {
                Some(v) if v.is_finite() => push_json_f64(&mut out, v / 1e3),
                _ => out.push_str("null"),
            }
            out.push_str(",\"per_sec\":");
            push_json_f64(&mut out, k.per_sec);
            out.push_str(",\"total\":");
            out.push_str(&k.total.to_string());
            out.push_str(",\"errors\":");
            out.push_str(&k.errors.to_string());
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the buffer as Chrome trace-event JSON. Events are sorted by
    /// timestamp (the viewer requires `E` records to close in order per
    /// lane; concurrent lanes interleave freely). Timestamps are
    /// microseconds since the dispatcher epoch, which is what the `ts`
    /// field expects.
    pub fn to_chrome_json(buffer: &TraceBuffer) -> String {
        let mut events = buffer.events.lock().expect("trace buffer lock").clone();
        // Stable sort: equal timestamps keep push order, so a zero-length
        // span's B still precedes its E.
        events.sort_by_key(|e| e.ts_us);
        let pid = std::process::id();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Names and targets are 'static identifiers from the
            // workspace's instrumentation — no JSON-special characters —
            // but escape anyway so a future caller can't corrupt the file.
            out.push_str("\n{\"name\":\"");
            escape_json_into(&mut out, e.name);
            out.push_str("\",\"cat\":\"");
            escape_json_into(&mut out, e.target);
            out.push_str("\",\"ph\":\"");
            out.push(e.ph);
            out.push_str("\",\"ts\":");
            out.push_str(&e.ts_us.to_string());
            out.push_str(",\"pid\":");
            out.push_str(&pid.to_string());
            out.push_str(",\"tid\":");
            out.push_str(&e.tid.to_string());
            if let Some(ctx) = e.ctx.as_ref() {
                out.push_str(",\"args\":{\"request_id\":\"");
                escape_json_into(&mut out, ctx.request_id());
                out.push('"');
                if let Some(session) = ctx.session_id() {
                    out.push_str(",\"session_id\":\"");
                    escape_json_into(&mut out, session);
                    out.push('"');
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// The report as a JSON document: session header plus one object per
    /// distinct stack (`{"stack":[…],"samples":n,"bytes":m}`).
    pub fn profile_to_json(report: &ProfileReport) -> String {
        let mut out = String::with_capacity(report.entries().len() * 96 + 128);
        out.push_str("{\"hz\":");
        out.push_str(&report.hz.to_string());
        out.push_str(",\"duration_us\":");
        out.push_str(&(report.duration.as_micros() as u64).to_string());
        out.push_str(",\"ticks\":");
        out.push_str(&report.ticks.to_string());
        out.push_str(",\"samples\":");
        out.push_str(&report.samples.to_string());
        out.push_str(",\"skipped\":");
        out.push_str(&report.skipped.to_string());
        out.push_str(",\"truncated\":");
        out.push_str(&report.truncated.to_string());
        out.push_str(",\"stacks\":[");
        for (i, e) in report.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"stack\":[");
            for (j, frame) in e.frames.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json_into(&mut out, frame);
                out.push('"');
            }
            out.push_str("],\"samples\":");
            out.push_str(&e.samples.to_string());
            out.push_str(",\"bytes\":");
            out.push_str(&e.bytes.to_string());
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

use crate::ctx::RequestCtx;
use crate::event::{EventRecord, Value};
use crate::level::Level;
use crate::metrics::Registry;
use crate::profile::{ProfileReport, StackEntry};
use crate::sink::{render_listing, render_ndjson};
use crate::slo::{SloKeyReport, SloReport, SloThresholds, SloVerdict};
use crate::trace::TraceBuffer;
use hdoutlier_json::Json;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};
use std::time::Duration;

/// 2^53: every integer up to it is exact in an `f64`.
const EXACT: u64 = 1 << 53;

/// Up to 12 characters that JSON must escape or pass through untouched:
/// quotes, backslashes, every control-character class, multi-byte text.
fn hostile(rng: &mut StdRng) -> String {
    let alphabet: Vec<char> = "aZ0 ./\"\\\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é→\u{2028}\u{1F600}"
        .chars()
        .collect();
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// A finite, non-negative-zero float over many magnitudes, integral or not.
fn float(rng: &mut StdRng) -> f64 {
    let v = match rng.gen_range(0..5) {
        0 => rng.gen_range(-1e6..1e6),
        1 => rng.gen_range(-1000i64..1000) as f64,
        2 => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-300..300)),
        3 => rng.gen_range(-(EXACT as i64)..=EXACT as i64) as f64,
        _ => rng.gen_range(0.0..1.0),
    };
    // -0.0 is a documented difference, pinned in its own test.
    v + 0.0
}

fn value<'a>(rng: &mut StdRng, text: &'a str) -> Value<'a> {
    match rng.gen_range(0..5) {
        0 => Value::U64(rng.gen_range(0..=EXACT)),
        1 => Value::I64(rng.gen_range(-(EXACT as i64)..=EXACT as i64)),
        2 => Value::F64(match rng.gen_range(0..6) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => float(rng),
        }),
        3 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Str(text),
    }
}

#[test]
fn event_lines_match_the_reference() {
    for_each_case(0x0b5_0001, 512, |rng| {
        let n = rng.gen_range(0..6);
        let keys: Vec<String> = (0..n).map(|_| hostile(rng)).collect();
        let texts: Vec<String> = (0..n).map(|_| hostile(rng)).collect();
        let fields: Vec<(&str, Value)> = keys
            .iter()
            .zip(&texts)
            .map(|(k, t)| (k.as_str(), value(rng, t)))
            .collect();
        let (target, name) = (hostile(rng), hostile(rng));
        let record = EventRecord {
            ts_us: rng.gen_range(0..=EXACT),
            level: Level::ALL[rng.gen_range(0..Level::ALL.len())],
            target: &target,
            name: &name,
            fields: &fields,
        };
        assert_eq!(render_ndjson(&record), reference::render_ndjson(&record));
    });
}

/// A registry of every metric kind, the labeled families with hostile
/// label names and values.
fn registry(rng: &mut StdRng) -> Registry {
    let r = Registry::new();
    let bounds = |rng: &mut StdRng| -> Vec<f64> {
        let mut at = rng.gen_range(-1e6..1e6);
        (0..rng.gen_range(1..6))
            .map(|_| {
                at += rng.gen_range(0.5..100.0);
                at
            })
            .collect()
    };
    for i in 0..rng.gen_range(0..10) {
        let name = format!("{}#{i}", hostile(rng));
        let labels: Vec<String> = (0..rng.gen_range(1..4)).map(|_| hostile(rng)).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let children = rng.gen_range(0..4);
        let values =
            |rng: &mut StdRng| -> Vec<String> { (0..labels.len()).map(|_| hostile(rng)).collect() };
        match rng.gen_range(0..6) {
            0 => r.counter(&name).add(rng.gen_range(0..=EXACT)),
            1 => r
                .gauge(&name)
                .set(rng.gen_range(-(EXACT as i64)..=EXACT as i64)),
            2 => {
                let h = r.histogram_with_bounds(&name, &bounds(rng));
                for _ in 0..rng.gen_range(0..20) {
                    h.record(float(rng));
                }
            }
            3 => {
                let family = r.counter_vec(&name, &labels);
                for _ in 0..children {
                    let v = values(rng);
                    let v: Vec<&str> = v.iter().map(String::as_str).collect();
                    family.with(&v).add(rng.gen_range(0..=EXACT / 4));
                }
            }
            4 => {
                let family = r.gauge_vec(&name, &labels);
                for _ in 0..children {
                    let v = values(rng);
                    let v: Vec<&str> = v.iter().map(String::as_str).collect();
                    family.with(&v).set(rng.gen_range(-1000..1000));
                }
            }
            _ => {
                let family = r.histogram_vec_with_bounds(&name, &labels, &bounds(rng));
                for _ in 0..children {
                    let v = values(rng);
                    let v: Vec<&str> = v.iter().map(String::as_str).collect();
                    let h = family.with(&v);
                    for _ in 0..rng.gen_range(0..10) {
                        h.record(float(rng));
                    }
                }
            }
        }
    }
    r
}

#[test]
fn metric_snapshots_match_the_reference() {
    for_each_case(0x0b5_0002, 256, |rng| {
        let r = registry(rng);
        assert_eq!(r.snapshot_ndjson(), reference::snapshot_ndjson(&r));
    });
}

#[test]
fn chrome_traces_match_the_reference() {
    const NAMES: &[&str] = &["work", "a\"b", "c\\d", "\u{1}\n\t", "é→\u{1F600}", ""];
    for_each_case(0x0b5_0003, 128, |rng| {
        let buf = TraceBuffer::new();
        for _ in 0..rng.gen_range(0..12) {
            let begin = rng.gen_range(0..EXACT / 2);
            let ctx = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(RequestCtx::new(&hostile(rng))),
                _ => Some(RequestCtx::with_session(&hostile(rng), &hostile(rng))),
            };
            buf.push_span(
                NAMES[rng.gen_range(0..NAMES.len())],
                NAMES[rng.gen_range(0..NAMES.len())],
                begin,
                begin + rng.gen_range(0..1000u64),
                rng.gen_range(1..=EXACT),
                ctx,
            );
        }
        assert_eq!(buf.to_chrome_json(), reference::to_chrome_json(&buf));
    });
}

#[test]
fn profile_reports_match_the_reference() {
    for_each_case(0x0b5_0004, 256, |rng| {
        let entries = (0..rng.gen_range(0..6))
            .map(|_| StackEntry {
                frames: (0..rng.gen_range(0..4)).map(|_| hostile(rng)).collect(),
                samples: rng.gen_range(0..=EXACT),
                bytes: rng.gen_range(0..=EXACT),
            })
            .collect();
        let micros = rng.gen_range(0..=EXACT);
        let mut report = ProfileReport::from_entries(
            rng.gen_range(0..=u32::MAX),
            Duration::from_micros(micros),
            entries,
        );
        report.ticks = rng.gen_range(0..=EXACT);
        report.samples = rng.gen_range(0..=EXACT);
        report.skipped = rng.gen_range(0..=EXACT);
        report.truncated = rng.gen_range(0..=EXACT);
        assert_eq!(
            render_listing(report.to_json()),
            reference::profile_to_json(&report)
        );
    });
}

/// Depth first: keys and non-number values into `out`, numbers into
/// `numbers`, each in document order.
fn shape(doc: &Json, out: &mut Vec<String>, numbers: &mut Vec<f64>) {
    match doc {
        Json::Object(fields) => {
            for (k, v) in fields {
                out.push(k.clone());
                shape(v, out, numbers);
            }
        }
        Json::Array(items) => items.iter().for_each(|v| shape(v, out, numbers)),
        Json::Number(n) => numbers.push(*n),
        other => out.push(other.render()),
    }
}

#[test]
fn slo_reports_match_the_reference_up_to_its_rounding() {
    const VERDICTS: [SloVerdict; 3] = [
        SloVerdict::Healthy,
        SloVerdict::Degraded,
        SloVerdict::Unhealthy,
    ];
    for_each_case(0x0b5_0005, 256, |rng| {
        let keys = (0..rng.gen_range(0..5))
            .map(|_| SloKeyReport {
                key: hostile(rng),
                verdict: VERDICTS[rng.gen_range(0..VERDICTS.len())],
                error_rate: rng.gen_range(0.0..1.0),
                p99_us: match rng.gen_range(0..3) {
                    0 => None,
                    1 => Some(f64::INFINITY),
                    _ => Some(rng.gen_range(0.0..1e7)),
                },
                per_sec: rng.gen_range(0.0..1e6),
                total: rng.gen_range(0..=EXACT),
                errors: rng.gen_range(0..=EXACT),
            })
            .collect();
        let report = SloReport {
            overall: VERDICTS[rng.gen_range(0..VERDICTS.len())],
            keys,
            thresholds: SloThresholds {
                max_error_rate: rng.gen_range(0.0..1.0),
                max_p99_us: rng.gen_range(1.0..1e7),
            },
            window: Duration::from_millis(rng.gen_range(1..10_000_000)),
        };
        let new = Json::parse(&report.to_json().render()).unwrap();
        let old = Json::parse(&reference::slo_to_json(&report)).unwrap();
        let (mut new_keys, mut new_numbers) = (Vec::new(), Vec::new());
        let (mut old_keys, mut old_numbers) = (Vec::new(), Vec::new());
        shape(&new, &mut new_keys, &mut new_numbers);
        shape(&old, &mut old_keys, &mut old_numbers);
        assert_eq!(new_keys, old_keys);
        assert_eq!(new_numbers.len(), old_numbers.len());
        for (n, o) in new_numbers.iter().zip(&old_numbers) {
            // The old text's last decimal, plus the rounding of that
            // decimal text to the nearest f64.
            assert!((n - o).abs() <= 5e-7 + o.abs() * f64::EPSILON, "{n} vs {o}");
        }
    });
}

#[test]
fn negative_zero_and_integers_beyond_2_pow_53_are_the_documented_differences() {
    let fields = [
        ("z", Value::F64(-0.0)),
        ("u", Value::U64(EXACT + 1)),
        ("i", Value::I64(-(EXACT as i64) - 1)),
    ];
    let record = EventRecord {
        ts_us: 0,
        level: Level::Info,
        target: "t",
        name: "e",
        fields: &fields,
    };
    let old = reference::render_ndjson(&record);
    assert!(
        old.ends_with("\"z\":-0,\"u\":9007199254740993,\"i\":-9007199254740993}"),
        "{old}"
    );
    let new = render_ndjson(&record);
    assert!(
        new.ends_with("\"z\":0,\"u\":9007199254740992,\"i\":-9007199254740992}"),
        "{new}"
    );
}
