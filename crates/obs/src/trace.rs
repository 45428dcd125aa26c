//! Span profiling as Chrome trace-event JSON, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! A [`TraceBuffer`] installed via [`crate::set_trace_buffer`] receives a
//! `ph:"B"` / `ph:"E"` pair for every [`crate::Span`] that closes while
//! tracing is on, stamped with the dispatcher's microsecond epoch, the
//! process id, and a stable per-thread lane id. [`TraceBuffer::to_chrome_json`]
//! renders the JSON-object flavor of the format
//! (`{"traceEvents":[…],"displayTimeUnit":"ms"}`).
//!
//! Span names and targets are `&'static str` throughout the workspace, so
//! collecting a trace allocates nothing per event beyond the buffer slot.
//! The buffer is bounded ([`TraceBuffer::MAX_EVENTS`]); events beyond the
//! cap are counted in [`TraceBuffer::dropped`] rather than grown without
//! limit inside a long-running serve loop.

use crate::ctx::RequestCtx;
use crate::sink::render_listing_of;
use hdoutlier_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One begin or end record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceEvent {
    pub(crate) name: &'static str,
    pub(crate) target: &'static str,
    /// `'B'` or `'E'`.
    pub(crate) ph: char,
    pub(crate) ts_us: u64,
    pub(crate) tid: u64,
    /// The request context at span close, rendered as Chrome-trace `args`
    /// on the `B` record (cloning is refcount bumps — the ids are
    /// `Arc<str>`).
    pub(crate) ctx: Option<RequestCtx>,
}

impl TraceEvent {
    /// One Chrome trace event; a `B` record with a request context carries
    /// it as `args`.
    fn to_json(&self, pid: u32) -> Json {
        let mut fields = vec![
            ("name".to_string(), self.name.into()),
            ("cat".to_string(), self.target.into()),
            ("ph".to_string(), self.ph.to_string().into()),
            ("ts".to_string(), self.ts_us.into()),
            ("pid".to_string(), pid.into()),
            ("tid".to_string(), self.tid.into()),
        ];
        if let Some(ctx) = &self.ctx {
            let mut args = vec![("request_id".to_string(), ctx.request_id().into())];
            if let Some(session) = ctx.session_id() {
                args.push(("session_id".to_string(), session.into()));
            }
            fields.push(("args".to_string(), Json::Object(args)));
        }
        Json::Object(fields)
    }
}

/// Monotonic lane ids: Chrome traces key rows on `(pid, tid)`, and
/// `std::thread::ThreadId` has no stable integer form, so threads take a
/// small id on their first traced span.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The lane id of the current thread (assigned on first use).
pub(crate) fn current_tid() -> u64 {
    LANE.with(|l| *l)
}

/// A bounded, thread-safe collector of span begin/end events.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    pub(crate) events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// Hard cap on stored events (begin + end records). A span costs two
    /// slots, so this holds ~500k spans — far beyond what a profile viewer
    /// stays responsive at, and a bound on memory in serve loops.
    pub const MAX_EVENTS: usize = 1 << 20;

    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one closed span as a `B`/`E` pair. Called from
    /// [`crate::Span`]'s drop; the pair is appended atomically so readers
    /// never see an unmatched begin.
    pub(crate) fn push_span(
        &self,
        target: &'static str,
        name: &'static str,
        begin_us: u64,
        end_us: u64,
        tid: u64,
        ctx: Option<RequestCtx>,
    ) {
        let mut events = self.events.lock().expect("trace buffer lock");
        if events.len() + 2 > Self::MAX_EVENTS {
            self.dropped.fetch_add(2, Ordering::Relaxed);
            return;
        }
        events.push(TraceEvent {
            name,
            target,
            ph: 'B',
            ts_us: begin_us,
            tid,
            ctx,
        });
        events.push(TraceEvent {
            name,
            target,
            ph: 'E',
            ts_us: end_us,
            tid,
            ctx: None,
        });
    }

    /// Number of stored begin/end records (two per span).
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records discarded because the buffer hit [`Self::MAX_EVENTS`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders the buffer as Chrome trace-event JSON. Events are sorted by
    /// timestamp (the viewer requires `E` records to close in order per
    /// lane; concurrent lanes interleave freely). Timestamps are
    /// microseconds since the dispatcher epoch, which is what the `ts`
    /// field expects.
    pub fn to_chrome_json(&self) -> String {
        let mut events = self.events.lock().expect("trace buffer lock").clone();
        // Stable sort: equal timestamps keep push order, so a zero-length
        // span's B still precedes its E.
        events.sort_by_key(|e| e.ts_us);
        let pid = std::process::id();
        let head = Json::Object(vec![
            ("displayTimeUnit".to_string(), "ms".into()),
            ("traceEvents".to_string(), Json::Array(Vec::new())),
        ]);
        render_listing_of(&head, events.iter().map(|e| e.to_json(pid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_paired_begin_end() {
        let buf = TraceBuffer::new();
        buf.push_span("hdoutlier.test", "work", 10, 25, 1, None);
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_empty());
        let json = buf.to_chrome_json();
        assert!(json.contains("\"ph\":\"B\",\"ts\":10"), "{json}");
        assert!(json.contains("\"ph\":\"E\",\"ts\":25"), "{json}");
        assert!(json.contains("\"cat\":\"hdoutlier.test\""), "{json}");
        assert!(json.contains("\"name\":\"work\""), "{json}");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    }

    #[test]
    fn events_sort_by_timestamp_with_stable_pairs() {
        let buf = TraceBuffer::new();
        buf.push_span("t", "later", 50, 60, 1, None);
        buf.push_span("t", "earlier", 10, 20, 1, None);
        buf.push_span("t", "instant", 30, 30, 1, None);
        let json = buf.to_chrome_json();
        let order: Vec<usize> = ["earlier", "instant", "later"]
            .iter()
            .map(|n| json.find(&format!("\"name\":\"{n}\"")).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{json}");
        // The zero-length span's B precedes its E.
        let b = json.find("\"ph\":\"B\",\"ts\":30").unwrap();
        let e = json.find("\"ph\":\"E\",\"ts\":30").unwrap();
        assert!(b < e, "{json}");
    }

    #[test]
    fn begin_records_render_request_args() {
        let buf = TraceBuffer::new();
        buf.push_span(
            "t",
            "request",
            5,
            9,
            1,
            Some(RequestCtx::with_session("req-1", "sess \"a\"")),
        );
        let json = buf.to_chrome_json();
        assert!(
            json.contains("\"ph\":\"B\",\"ts\":5,\"pid\":")
                && json.contains(
                    "\"args\":{\"request_id\":\"req-1\",\"session_id\":\"sess \\\"a\\\"\"}"
                ),
            "{json}"
        );
        // The E record carries no args.
        let end = json.split("\"ph\":\"E\"").nth(1).unwrap();
        assert!(!end.contains("\"args\""), "{json}");
    }

    #[test]
    fn buffer_is_bounded() {
        let buf = TraceBuffer::new();
        let spans = TraceBuffer::MAX_EVENTS / 2;
        for i in 0..spans + 3 {
            buf.push_span("t", "s", i as u64, i as u64 + 1, 1, None);
        }
        assert_eq!(buf.len(), TraceBuffer::MAX_EVENTS);
        assert_eq!(buf.dropped(), 6);
    }

    #[test]
    fn lane_ids_are_stable_within_a_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }
}
