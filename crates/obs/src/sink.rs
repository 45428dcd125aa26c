//! Sinks: where emitted events go. Every line is built as a [`Json`] value
//! and rendered by `hdoutlier-json`, the workspace's one JSON writer, so
//! every sink (and the metrics snapshot writer) produces the dialect the
//! CLI's in-tree JSON parser reads back.

use crate::event::EventRecord;
use hdoutlier_json::Json;
use std::io::Write;
use std::sync::Mutex;

/// An event consumer. Implementations must be cheap enough to call from
/// the pipeline thread: the dispatcher invokes `emit` inline, under its
/// sink read-lock.
pub trait Sink: Send + Sync {
    /// Handles one event. The record borrows the caller's stack; copy
    /// anything that must outlive the call.
    fn emit(&self, record: &EventRecord<'_>);
}

/// Renders one event as a single NDJSON line (no trailing newline):
/// `{"ts_us":…,"level":"info","target":"…","event":"…",<fields…>}`.
/// Field names are emitted as-is after escaping; duplicate keys are the
/// caller's problem, as in the wider NDJSON ecosystem.
pub fn render_ndjson(record: &EventRecord<'_>) -> String {
    let mut fields = Vec::with_capacity(4 + record.fields.len());
    fields.push(("ts_us".to_string(), record.ts_us.into()));
    fields.push(("level".to_string(), record.level.as_str().into()));
    fields.push(("target".to_string(), record.target.into()));
    fields.push(("event".to_string(), record.name.into()));
    fields.extend(
        record
            .fields
            .iter()
            .map(|&(key, value)| (key.to_string(), value.into())),
    );
    Json::Object(fields).render()
}

/// Renders `doc`, an object whose last field is an array, with one item of
/// that array per line: `{…,"stacks":[\n{…},\n{…}\n]}\n`. The profile JSON
/// and the Chrome trace keep this layout so long listings diff line by line.
pub(crate) fn render_listing(mut doc: Json) -> String {
    if let Json::Object(fields) = &mut doc {
        if let Some((_, Json::Array(items))) = fields.last_mut() {
            let items = std::mem::take(items);
            return render_listing_of(&doc, items);
        }
    }
    doc.render() + "\n"
}

/// [`render_listing`] with the items supplied separately: `head`'s last
/// field is an empty array, and each item is rendered into it one at a
/// time, so a caller with many items never builds them into one tree.
pub(crate) fn render_listing_of(head: &Json, items: impl IntoIterator<Item = Json>) -> String {
    let mut out = head.render();
    // Reopen the empty array: drop its `]}`, append the items, close again.
    out.truncate(out.len() - "]}".len());
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&item.render());
    }
    out.push_str("\n]}\n");
    out
}

/// Renders one event for humans (no trailing newline):
/// `[  0.012s INFO  hdoutlier.core] discretize elapsed_us=11987`.
pub fn render_human(record: &EventRecord<'_>) -> String {
    let secs = record.ts_us as f64 / 1e6;
    let mut out = format!(
        "[{secs:>9.3}s {} {}] {}",
        record.level.padded(),
        record.target,
        record.name
    );
    for (key, value) in record.fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        out.push_str(&value.to_string());
    }
    out
}

/// Human-readable lines on stderr. The default interactive sink.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&self, record: &EventRecord<'_>) {
        // A dead stderr is not worth panicking the pipeline over.
        let _ = writeln!(std::io::stderr().lock(), "{}", render_human(record));
    }
}

/// One NDJSON object per event, written to any `Write`. Lines are written
/// atomically under an internal mutex so concurrent emitters interleave at
/// line granularity.
#[derive(Debug)]
pub struct NdjsonSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> NdjsonSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        NdjsonSink {
            writer: Mutex::new(writer),
        }
    }
}

impl NdjsonSink<std::io::Stderr> {
    /// NDJSON to stderr — what the CLI's `--log-json` installs.
    pub fn stderr() -> Self {
        NdjsonSink::new(std::io::stderr())
    }
}

impl<W: Write + Send> Sink for NdjsonSink<W> {
    fn emit(&self, record: &EventRecord<'_>) {
        let mut writer = self.writer.lock().expect("ndjson writer lock");
        let _ = writeln!(writer, "{}", render_ndjson(record));
    }
}

/// Stores rendered NDJSON lines in memory. For tests.
#[derive(Debug, Default)]
pub struct CaptureSink {
    lines: Mutex<Vec<String>>,
}

impl CaptureSink {
    /// All lines captured so far, in emit order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("capture lock").clone()
    }
}

impl Sink for CaptureSink {
    fn emit(&self, record: &EventRecord<'_>) {
        self.lines
            .lock()
            .expect("capture lock")
            .push(render_ndjson(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use crate::level::Level;

    fn record<'a>(fields: &'a [(&'a str, Value<'a>)]) -> EventRecord<'a> {
        EventRecord {
            ts_us: 12_345,
            level: Level::Info,
            target: "hdoutlier.test",
            name: "thing",
            fields,
        }
    }

    #[test]
    fn ndjson_line_shape() {
        let fields = [
            ("n", Value::U64(3)),
            ("ratio", Value::F64(0.5)),
            ("ok", Value::Bool(true)),
            ("who", Value::Str("a b")),
        ];
        let line = render_ndjson(&record(&fields));
        assert_eq!(
            line,
            "{\"ts_us\":12345,\"level\":\"info\",\"target\":\"hdoutlier.test\",\
             \"event\":\"thing\",\"n\":3,\"ratio\":0.5,\"ok\":true,\"who\":\"a b\"}"
        );
    }

    #[test]
    fn ndjson_escapes_strings_and_nonfinite_floats() {
        let fields = [
            ("msg", Value::Str("a\"b\\c\nd\te\u{1}")),
            ("nan", Value::F64(f64::NAN)),
            ("inf", Value::F64(f64::INFINITY)),
        ];
        let line = render_ndjson(&record(&fields));
        assert!(
            line.contains("\"msg\":\"a\\\"b\\\\c\\nd\\te\\u0001\""),
            "{line}"
        );
        assert!(line.contains("\"nan\":null"), "{line}");
        assert!(line.contains("\"inf\":null"), "{line}");
    }

    #[test]
    fn human_line_shape() {
        let fields = [("n", Value::U64(3)), ("who", Value::Str("x"))];
        let line = render_human(&record(&fields));
        assert_eq!(line, "[    0.012s INFO  hdoutlier.test] thing n=3 who=x");
    }

    #[test]
    fn capture_sink_collects() {
        let sink = CaptureSink::default();
        sink.emit(&record(&[]));
        sink.emit(&record(&[]));
        assert_eq!(sink.lines().len(), 2);
    }

    #[test]
    fn ndjson_sink_writes_lines() {
        let sink = NdjsonSink::new(Vec::new());
        sink.emit(&record(&[("n", Value::U64(1))]));
        sink.emit(&record(&[]));
        let buf = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
