//! In-memory spans for the traced replay: each call into a layer is
//! wrapped in a span holding its name, start, end, parent span and the
//! operation it belongs to. Spans are written out as Chrome trace-event
//! JSON when the run ends.

use hdoutlier_json::{FieldChain, Json, JsonError};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (job or chunk) the call served.
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans; a disabled tracer runs the wrapped calls and records
/// nothing (the replay without spans, for the tracing overhead).
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.named(name).map(Span::duration).sum()
    }

    /// Summed duration of the direct children of every span named `name`.
    pub fn children_total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::duration)
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// with the operation id and parent index in `args`.
    pub fn chrome_trace(&self) -> Result<Json, JsonError> {
        let self_times = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(self_times)
            .map(|(s, self_time)| {
                Json::object()
                    .field("name", s.name)
                    .field("ph", "X")
                    .field("ts", s.start.as_secs_f64() * 1e6)
                    .field("dur", s.duration().as_secs_f64() * 1e6)
                    .field("pid", 1u64)
                    .field("tid", 1u64)
                    .field(
                        "args",
                        Json::object()
                            .field("op", s.op)
                            .field("parent", s.parent.map_or(Json::Null, Json::from))
                            .field("self_us", self_time.as_secs_f64() * 1e6)?,
                    )
            })
            .collect::<Result<Vec<Json>, JsonError>>()?;
        Json::object().field("traceEvents", Json::Array(events))
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("job", 0, 10, None),
            // Overlapping children cover [1, 5]; the last one is clipped
            // to the parent's end, covering [8, 10].
            span("a", 1, 3, Some(0)),
            span("b", 2, 5, Some(0)),
            span("c", 8, 12, Some(0)),
            // A grandchild does not count against the job, only against b.
            span("d", 3, 4, Some(2)),
        ];
        let ms = |n| Duration::from_millis(n);
        assert_eq!(self_times(&spans), [ms(4), ms(2), ms(2), ms(4), ms(1)]);
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut t = Tracer::new(true);
        let out = t.span("job", 7, |t| {
            t.span("read", 7, |_| ());
            t.span("read", 7, |_| 41) + 1
        });
        assert_eq!(out, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        assert!(t.total("job") >= t.total("read"));
        assert_eq!(t.children_total("job"), t.total("read"));
        assert_eq!(t.spans().iter().filter(|s| s.name == "read").count(), 2);
        let trace = t.chrome_trace().unwrap().render();
        assert!(trace.starts_with("{\"traceEvents\":[{\"name\":\"job\",\"ph\":\"X\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("job", 0, |t| t.span("read", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
