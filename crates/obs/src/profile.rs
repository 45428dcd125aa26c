//! Continuous profiling: a span-stack sampling profiler.
//!
//! Every thread that opens a [`crate::Span`] (or the lighter
//! [`profile_span`]) while a [`ProfileSession`] is live publishes its
//! current span stack to a per-thread slot in a global registry. A sampler
//! thread wakes at a configurable rate, snapshots every slot, and
//! accumulates collapsed-stack counts. The result renders as:
//!
//! - **folded-stack text** ([`ProfileReport::to_folded`]) — one line per
//!   distinct stack, `hdoutlier.core.search;hdoutlier.core.pairs 412`,
//!   the format `inferno`, `flamegraph.pl`, and speedscope ingest;
//! - an **SVG flamegraph** ([`ProfileReport::to_svg`]) rendered in-tree,
//!   no external tool required;
//! - **JSON** ([`ProfileReport::to_json`]) for programmatic consumers.
//!
//! When the counting allocator ([`crate::CountingAllocator`]) is installed,
//! per-thread allocation byte deltas are attributed to the stack observed
//! at each tick, giving the folded output a bytes-weighted twin
//! ([`ProfileReport::to_folded_bytes`]).
//!
//! # Design constraints
//!
//! - **Disabled cost**: [`profile_enabled`] is one relaxed atomic load, and
//!   it is the only thing span creation pays while no session is live.
//! - **No locks on the hot path**: a thread publishes its stack through a
//!   seqlock-style slot (version counter odd while writing, frame words as
//!   plain relaxed atomics). The sampler validates the version before and
//!   after copying; a torn read is retried a few times, then skipped and
//!   counted — never blocked on.
//! - **Memory safety without trust**: stacks store small integer frame ids,
//!   not pointers. Ids index a write-once intern table of
//!   `(&'static str, &'static str)` pairs, so even a stale or mixed read
//!   can at worst miscount one sample; it can never fabricate a reference.
//! - **Bounded state**: slots are recycled through a free list when their
//!   thread exits (the scoped worker pool creates threads per call), stack
//!   depth is capped at [`MAX_DEPTH`] (deeper pushes are counted, not
//!   stored), and the intern table is fixed-size (overflow frames collapse
//!   into one sentinel).
//!
//! Only spans opened *after* a session starts appear on the sampled
//! stacks: enabling a session does not retroactively publish frames that
//! were created while profiling was off.

use hdoutlier_json::Json;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Maximum stored stack depth per thread. Pushes beyond it are counted in
/// the slot's `truncated` tally and the sample keeps the outermost frames.
pub const MAX_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// Frame interning: (target, name) -> small id, write-once, lock-free.
// ---------------------------------------------------------------------------

const INTERN_BUCKETS: usize = 512;
const PROBE_LIMIT: usize = 32;

const STATE_EMPTY: u32 = 0;
const STATE_CLAIMED: u32 = 1;
const STATE_READY: u32 = 2;

/// The id returned when the intern table is full; rendered as
/// `hdoutlier.profile.overflow`.
const OVERFLOW_ID: u32 = u32::MAX;

struct InternSlot {
    state: AtomicU32,
    target: AtomicPtr<u8>,
    target_len: AtomicUsize,
    name: AtomicPtr<u8>,
    name_len: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)] // used only as an array initializer
const EMPTY_INTERN: InternSlot = InternSlot {
    state: AtomicU32::new(STATE_EMPTY),
    target: AtomicPtr::new(std::ptr::null_mut()),
    target_len: AtomicUsize::new(0),
    name: AtomicPtr::new(std::ptr::null_mut()),
    name_len: AtomicUsize::new(0),
};

static INTERN: [InternSlot; INTERN_BUCKETS] = [EMPTY_INTERN; INTERN_BUCKETS];

/// Interns a frame. `'static` strings have stable addresses, so the pointer
/// pair identifies a call-site frame; equal ids mean equal frames (distinct
/// `'static` copies of identical text would take distinct ids, which only
/// splits a line in the folded output, never corrupts it).
fn intern(target: &'static str, name: &'static str) -> u32 {
    let tp = target.as_ptr() as *mut u8;
    let np = name.as_ptr() as *mut u8;
    // Fibonacci-style pointer-pair hash; buckets is a power of two.
    let h = (tp as usize)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((np as usize).wrapping_mul(0xff51_afd7_ed55_8ccd));
    for probe in 0..PROBE_LIMIT {
        let idx = h.wrapping_add(probe) & (INTERN_BUCKETS - 1);
        let slot = &INTERN[idx];
        loop {
            match slot.state.load(Ordering::Acquire) {
                STATE_READY => {
                    if slot.target.load(Ordering::Relaxed) == tp
                        && slot.target_len.load(Ordering::Relaxed) == target.len()
                        && slot.name.load(Ordering::Relaxed) == np
                        && slot.name_len.load(Ordering::Relaxed) == name.len()
                    {
                        return idx as u32;
                    }
                    break; // occupied by another frame: next probe
                }
                STATE_EMPTY => {
                    if slot
                        .state
                        .compare_exchange(
                            STATE_EMPTY,
                            STATE_CLAIMED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        slot.target.store(tp, Ordering::Relaxed);
                        slot.target_len.store(target.len(), Ordering::Relaxed);
                        slot.name.store(np, Ordering::Relaxed);
                        slot.name_len.store(name.len(), Ordering::Relaxed);
                        slot.state.store(STATE_READY, Ordering::Release);
                        return idx as u32;
                    }
                    // Lost the claim race; re-read the state.
                }
                _ => std::hint::spin_loop(), // claimant finishes in a few stores
            }
        }
    }
    OVERFLOW_ID
}

/// Resolves an id back to its frame. `None` for the overflow sentinel, ids
/// that were never interned, or torn ids read from a racing stack — callers
/// render those as a placeholder rather than trusting them.
fn resolve(id: u32) -> Option<(&'static str, &'static str)> {
    let idx = id as usize;
    if idx >= INTERN_BUCKETS {
        return None;
    }
    let slot = &INTERN[idx];
    if slot.state.load(Ordering::Acquire) != STATE_READY {
        return None;
    }
    // SAFETY: the pointer/len words were stored exactly once, from a live
    // `&'static str`, before the Release store of STATE_READY that the
    // Acquire load above synchronizes with; they are never written again.
    unsafe {
        let target = std::str::from_utf8_unchecked(std::slice::from_raw_parts(
            slot.target.load(Ordering::Relaxed),
            slot.target_len.load(Ordering::Relaxed),
        ));
        let name = std::str::from_utf8_unchecked(std::slice::from_raw_parts(
            slot.name.load(Ordering::Relaxed),
            slot.name_len.load(Ordering::Relaxed),
        ));
        Some((target, name))
    }
}

// ---------------------------------------------------------------------------
// Per-thread stack slots.
// ---------------------------------------------------------------------------

/// One thread's published span stack plus its allocation tally.
pub(crate) struct ThreadSlot {
    /// Seqlock version: odd while the owning thread is mutating.
    version: AtomicU32,
    /// Logical depth; may exceed [`MAX_DEPTH`] (excess frames unstored).
    depth: AtomicU32,
    frames: [AtomicU32; MAX_DEPTH],
    /// Pushes that arrived with the frame array already full.
    truncated: AtomicU64,
    /// Bytes allocated by this thread while profiling was enabled
    /// (maintained by the counting allocator; monotone).
    pub(crate) alloc_bytes: AtomicU64,
}

impl ThreadSlot {
    fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array initializer
        const ZERO: AtomicU32 = AtomicU32::new(0);
        ThreadSlot {
            version: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: [ZERO; MAX_DEPTH],
            truncated: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }
}

/// Every slot ever created. Slots are never removed (the sampler may hold
/// a clone), but their *indices* recycle through [`FREE_SLOTS`] when the
/// owning thread exits, so total slot count is bounded by peak concurrent
/// threads, not threads-ever-created.
static SLOTS: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());
static FREE_SLOTS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

thread_local! {
    /// Raw pointer to this thread's slot. Const-initialized (no destructor,
    /// so it stays readable during thread teardown — the allocator reads
    /// it). The pointee is kept alive forever by [`SLOTS`].
    static CURRENT: Cell<*const ThreadSlot> = const { Cell::new(std::ptr::null()) };
    /// Returns the slot index to the free list when the thread exits.
    static LEASE: SlotLease = const { SlotLease(Cell::new(usize::MAX)) };
}

struct SlotLease(Cell<usize>);

impl Drop for SlotLease {
    fn drop(&mut self) {
        let index = self.0.get();
        if index != usize::MAX {
            if let Ok(mut free) = FREE_SLOTS.lock() {
                free.push(index);
            }
        }
    }
}

/// The calling thread's slot, creating (or recycling) one on first use.
fn current_slot() -> &'static ThreadSlot {
    let ptr = CURRENT.with(Cell::get);
    if !ptr.is_null() {
        // SAFETY: slot Arcs live in SLOTS for the life of the process.
        return unsafe { &*ptr };
    }
    acquire_slot()
}

#[cold]
fn acquire_slot() -> &'static ThreadSlot {
    let recycled = FREE_SLOTS.lock().expect("profile free list").pop();
    let mut slots = SLOTS.lock().expect("profile slot registry");
    let index = match recycled {
        Some(index) => index,
        None => {
            slots.push(Arc::new(ThreadSlot::new()));
            slots.len() - 1
        }
    };
    let slot = &slots[index];
    // A recycled slot starts a fresh stack; its alloc tally keeps running
    // (the sampler tracks deltas, so at most one tick of bytes can be
    // misattributed across the handover).
    slot.depth.store(0, Ordering::Relaxed);
    slot.version.fetch_add(2, Ordering::Release);
    let ptr = Arc::as_ptr(slot);
    drop(slots);
    CURRENT.with(|c| c.set(ptr));
    LEASE.with(|l| l.0.set(index));
    // SAFETY: as above — the Arc in SLOTS is never dropped.
    unsafe { &*ptr }
}

// ---------------------------------------------------------------------------
// The enable gate and the push/pop hot path.
// ---------------------------------------------------------------------------

/// Count of live [`ProfileSession`]s. Nonzero means spans publish frames.
static ACTIVE_SESSIONS: AtomicU32 = AtomicU32::new(0);

/// Whether a profiling session is live. One relaxed atomic load — the
/// entire cost span creation pays when nobody is profiling.
#[inline]
pub fn profile_enabled() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) != 0
}

/// Publishes a frame onto the calling thread's stack. Callers must pair
/// with [`pop_frame`] (the span guards do this via their captured
/// `profiled` flag, so an enable/disable mid-span never unbalances).
pub(crate) fn push_frame(target: &'static str, name: &'static str) {
    let slot = current_slot();
    let id = intern(target, name);
    let depth = slot.depth.load(Ordering::Relaxed) as usize;
    let v = slot.version.load(Ordering::Relaxed);
    slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
    if depth < MAX_DEPTH {
        slot.frames[depth].store(id, Ordering::Relaxed);
    } else {
        slot.truncated.fetch_add(1, Ordering::Relaxed);
    }
    slot.depth.store(depth as u32 + 1, Ordering::Relaxed);
    slot.version.store(v.wrapping_add(2), Ordering::Release);
}

/// Removes the innermost frame. Tolerates an empty stack (a span moved to
/// another thread) rather than corrupting a sibling's frames.
pub(crate) fn pop_frame() {
    let slot = current_slot();
    let depth = slot.depth.load(Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    let v = slot.version.load(Ordering::Relaxed);
    slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
    slot.depth.store(depth - 1, Ordering::Relaxed);
    slot.version.store(v.wrapping_add(2), Ordering::Release);
}

/// Credits `bytes` of allocation to the calling thread's slot. Called from
/// the counting allocator, so it must not allocate or lock: it only reads
/// the const-initialized TLS cell and bumps an atomic. Threads that never
/// opened a profiled span have no slot; their bytes stay in the process
/// totals but are unattributed in the profile.
pub(crate) fn note_alloc(bytes: u64) {
    if !profile_enabled() {
        return;
    }
    let _ = CURRENT.try_with(|c| {
        let ptr = c.get();
        if !ptr.is_null() {
            // SAFETY: slot Arcs in SLOTS are never dropped.
            unsafe { (*ptr).alloc_bytes.fetch_add(bytes, Ordering::Relaxed) };
        }
    });
}

/// A profiler-only scope guard for hot paths: publishes a stack frame
/// while a session is live and does *nothing else* — no event, no trace
/// record, no `Instant::now`. Disabled cost is one relaxed atomic load.
#[derive(Debug)]
pub struct ProfileGuard {
    live: bool,
}

/// Opens a [`ProfileGuard`]. Use this (instead of [`crate::span`]) inside
/// recursive or per-record hot loops where an event per iteration would be
/// noise but profiler visibility is the point.
#[inline]
pub fn profile_span(target: &'static str, name: &'static str) -> ProfileGuard {
    let live = profile_enabled();
    if live {
        push_frame(target, name);
    }
    ProfileGuard { live }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        if self.live {
            pop_frame();
        }
    }
}

// ---------------------------------------------------------------------------
// The sampler.
// ---------------------------------------------------------------------------

/// Copies one slot's stack if a consistent view is available within a few
/// retries. Frame ids are plain integers, so even a racy copy is memory
/// safe; the version check exists to keep samples *coherent*.
fn snapshot_stack(slot: &ThreadSlot) -> Option<Vec<u32>> {
    for _ in 0..4 {
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let depth = (slot.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
        let mut frames = Vec::with_capacity(depth);
        for cell in &slot.frames[..depth] {
            frames.push(cell.load(Ordering::Relaxed));
        }
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.version.load(Ordering::Relaxed) == v1 {
            return Some(frames);
        }
    }
    None
}

#[derive(Debug, Default, Clone, Copy)]
struct StackStat {
    samples: u64,
    bytes: u64,
}

#[derive(Debug, Default)]
struct SessionData {
    /// Root-first frame-id paths. The empty path holds allocation bytes
    /// observed while a thread had no open span.
    stacks: BTreeMap<Vec<u32>, StackStat>,
    ticks: u64,
    samples: u64,
    skipped: u64,
}

#[derive(Debug)]
struct SessionShared {
    stop: AtomicBool,
    hz: u32,
    data: Mutex<SessionData>,
}

fn sampler_loop(shared: Arc<SessionShared>) {
    let period = Duration::from_nanos(1_000_000_000 / shared.hz as u64);
    // Previous alloc_bytes reading per slot (keyed by slot address), for
    // per-tick byte deltas. A slot first seen mid-session contributes no
    // retroactive bytes.
    let mut prev_bytes: HashMap<usize, u64> = HashMap::new();
    loop {
        let slots: Vec<Arc<ThreadSlot>> = SLOTS.lock().expect("profile slot registry").clone();
        let mut tick = Vec::with_capacity(slots.len());
        for slot in &slots {
            let key = Arc::as_ptr(slot) as usize;
            let bytes_now = slot.alloc_bytes.load(Ordering::Relaxed);
            let prev = prev_bytes.insert(key, bytes_now).unwrap_or(bytes_now);
            let delta = bytes_now.saturating_sub(prev);
            tick.push((snapshot_stack(slot), delta));
        }
        {
            let mut data = shared.data.lock().expect("profile session data");
            data.ticks += 1;
            for (stack, bytes) in tick {
                match stack {
                    Some(frames) => {
                        if frames.is_empty() && bytes == 0 {
                            continue; // idle thread, nothing to record
                        }
                        let counted = !frames.is_empty();
                        let stat = data.stacks.entry(frames).or_default();
                        if counted {
                            stat.samples += 1;
                        }
                        stat.bytes += bytes;
                        if counted {
                            data.samples += 1;
                        }
                    }
                    None => {
                        data.skipped += 1;
                        if bytes > 0 {
                            data.stacks.entry(Vec::new()).or_default().bytes += bytes;
                        }
                    }
                }
            }
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(period);
    }
}

// ---------------------------------------------------------------------------
// Sessions and reports.
// ---------------------------------------------------------------------------

/// A live sampling session. Spans publish stack frames while at least one
/// session exists; each session accumulates its own sample counts, so a
/// `/profile` request can overlap a `--profile-out` run. Stop (or drop) to
/// collect the [`ProfileReport`].
#[derive(Debug)]
pub struct ProfileSession {
    shared: Arc<SessionShared>,
    started: Instant,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProfileSession {
    /// Starts sampling at `hz` (clamped to 1..=1000). The first snapshot
    /// is taken immediately, so even sessions shorter than one period see
    /// whatever stacks are live.
    pub fn start(hz: u32) -> ProfileSession {
        let hz = hz.clamp(1, 1000);
        let shared = Arc::new(SessionShared {
            stop: AtomicBool::new(false),
            hz,
            data: Mutex::new(SessionData::default()),
        });
        // Enable *before* the sampler starts so its first snapshot can
        // already see freshly-pushed frames.
        ACTIVE_SESSIONS.fetch_add(1, Ordering::SeqCst);
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("hdoutlier-profiler".to_string())
            .spawn(move || sampler_loop(worker))
            .expect("spawn profiler sampler");
        ProfileSession {
            shared,
            started: Instant::now(),
            handle: Some(handle),
        }
    }

    /// The sampling rate the session runs at.
    pub fn hz(&self) -> u32 {
        self.shared.hz
    }

    /// Stops the sampler, joins it, and returns the accumulated report.
    pub fn stop(mut self) -> ProfileReport {
        self.finish().expect("session stopped twice")
    }

    fn finish(&mut self) -> Option<ProfileReport> {
        let handle = self.handle.take()?;
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::Release);
        let _ = handle.join();
        let duration = self.started.elapsed();
        let data = std::mem::take(&mut *self.shared.data.lock().expect("profile session data"));
        let truncated: u64 = {
            let slots = SLOTS.lock().expect("profile slot registry");
            slots
                .iter()
                .map(|s| s.truncated.load(Ordering::Relaxed))
                .sum()
        };
        let entries: Vec<StackEntry> = data
            .stacks
            .iter()
            .map(|(frames, stat)| StackEntry {
                frames: frames.iter().map(|&id| render_frame(id)).collect(),
                samples: stat.samples,
                bytes: stat.bytes,
            })
            .collect();
        let report = ProfileReport {
            hz: self.shared.hz,
            duration,
            ticks: data.ticks,
            samples: data.samples,
            skipped: data.skipped,
            truncated,
            entries,
        };
        let r = crate::metrics::registry();
        r.counter("hdoutlier.profile.sessions").inc();
        r.counter("hdoutlier.profile.samples").add(report.samples);
        r.counter("hdoutlier.profile.ticks").add(report.ticks);
        r.counter("hdoutlier.profile.skipped").add(report.skipped);
        Some(report)
    }
}

impl Drop for ProfileSession {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Runs a session for `duration` at `hz` and returns its report — the
/// blocking helper behind `GET /profile?seconds=N`.
pub fn profile_for(duration: Duration, hz: u32) -> ProfileReport {
    let session = ProfileSession::start(hz);
    std::thread::sleep(duration);
    session.stop()
}

/// One frame of the stack rendered as `target.name`; unresolvable ids (the
/// intern-table overflow sentinel or a torn read) collapse into a
/// placeholder instead of being dropped.
fn render_frame(id: u32) -> String {
    match resolve(id) {
        Some((target, name)) => format!("{target}.{name}"),
        None => "hdoutlier.profile.overflow".to_string(),
    }
}

/// One distinct sampled stack with its weights.
#[derive(Debug, Clone)]
pub struct StackEntry {
    /// Frames root-first, each `target.name`. Empty for allocation bytes
    /// observed outside any span.
    pub frames: Vec<String>,
    /// Ticks on which a thread was observed inside exactly this stack.
    pub samples: u64,
    /// Allocation bytes attributed to this stack (zero unless the counting
    /// allocator is installed).
    pub bytes: u64,
}

/// The result of a sampling session.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Sampling rate the session ran at.
    pub hz: u32,
    /// Wall-clock session length.
    pub duration: Duration,
    /// Sampler wakeups.
    pub ticks: u64,
    /// Total stack samples across all threads (a tick samples every live
    /// thread, so this can exceed `ticks`).
    pub samples: u64,
    /// Snapshots abandoned because a thread kept its seqlock busy.
    pub skipped: u64,
    /// Cumulative frame pushes beyond [`MAX_DEPTH`] (process lifetime).
    pub truncated: u64,
    entries: Vec<StackEntry>,
}

/// Escapes the XML-special characters for SVG text/attribute content.
fn escape_xml(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

impl ProfileReport {
    /// Builds a report from pre-rendered entries (tests, custom sources).
    pub fn from_entries(hz: u32, duration: Duration, entries: Vec<StackEntry>) -> ProfileReport {
        let samples = entries.iter().map(|e| e.samples).sum();
        ProfileReport {
            hz,
            duration,
            ticks: 0,
            samples,
            skipped: 0,
            truncated: 0,
            entries,
        }
    }

    /// The distinct sampled stacks, deterministic order.
    pub fn entries(&self) -> &[StackEntry] {
        &self.entries
    }

    /// Whether any allocation bytes were attributed (i.e. the counting
    /// allocator is installed and something allocated during the session).
    pub fn has_bytes(&self) -> bool {
        self.entries.iter().any(|e| e.bytes > 0)
    }

    fn folded_with(&self, weight: impl Fn(&StackEntry) -> u64) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .filter(|e| weight(e) > 0)
            .map(|e| {
                let stack = if e.frames.is_empty() {
                    "(outside spans)".to_string()
                } else {
                    e.frames.join(";")
                };
                format!("{stack} {}\n", weight(e))
            })
            .collect();
        lines.sort();
        lines.concat()
    }

    /// Collapsed-stack text weighted by sample counts: one
    /// `frame;frame;… count` line per distinct stack, sorted, trailing
    /// newline. Feed to `inferno-flamegraph`, `flamegraph.pl`, or
    /// speedscope as-is.
    pub fn to_folded(&self) -> String {
        self.folded_with(|e| e.samples)
    }

    /// The bytes-weighted twin of [`ProfileReport::to_folded`]: counts are
    /// allocated bytes attributed at sample time. Empty unless the
    /// counting allocator is installed.
    pub fn to_folded_bytes(&self) -> String {
        self.folded_with(|e| e.bytes)
    }

    /// The report as a JSON document: session header plus one object per
    /// distinct stack (`{"stack":[…],"samples":n,"bytes":m}`).
    /// `GET /profile?format=json` renders it one stack per line.
    pub fn to_json(&self) -> Json {
        let stacks = self
            .entries
            .iter()
            .map(|e| {
                Json::Object(vec![
                    ("stack".to_string(), e.frames.clone().into()),
                    ("samples".to_string(), e.samples.into()),
                    ("bytes".to_string(), e.bytes.into()),
                ])
            })
            .collect();
        Json::Object(vec![
            ("hz".to_string(), self.hz.into()),
            (
                "duration_us".to_string(),
                (self.duration.as_micros() as u64).into(),
            ),
            ("ticks".to_string(), self.ticks.into()),
            ("samples".to_string(), self.samples.into()),
            ("skipped".to_string(), self.skipped.into()),
            ("truncated".to_string(), self.truncated.into()),
            ("stacks".to_string(), Json::Array(stacks)),
        ])
    }

    /// Renders a self-contained SVG flamegraph (sample-weighted). Widths
    /// are proportional to inclusive sample counts; every rect carries a
    /// `<title>` tooltip with the frame, count, and share. Rendered
    /// in-tree so a profile is viewable without any external tooling.
    pub fn to_svg(&self) -> String {
        #[derive(Default)]
        struct Node {
            children: BTreeMap<String, Node>,
            total: u64,
        }
        let mut root = Node::default();
        for e in &self.entries {
            if e.samples == 0 || e.frames.is_empty() {
                continue;
            }
            root.total += e.samples;
            let mut node = &mut root;
            for frame in &e.frames {
                node = node.children.entry(frame.clone()).or_default();
                node.total += e.samples;
            }
        }

        const WIDTH: f64 = 1200.0;
        const ROW: f64 = 17.0;
        const PAD: f64 = 1.0;

        fn depth_of(node: &Node) -> usize {
            1 + node
                .children
                .values()
                .map(depth_of)
                .max()
                .unwrap_or_default()
        }
        let rows = depth_of(&root);
        let height = rows as f64 * ROW + 40.0;

        let mut body = String::new();
        // Deterministic warm palette: hash the frame text into a hue.
        fn fill_for(name: &str) -> String {
            let mut h: u32 = 2166136261;
            for b in name.bytes() {
                h = (h ^ b as u32).wrapping_mul(16777619);
            }
            let hue = h % 55; // reds through yellows
            format!("hsl({hue},72%,58%)")
        }
        #[allow(clippy::too_many_arguments)]
        fn render(
            node: &Node,
            name: &str,
            x: f64,
            y: f64,
            width: f64,
            grand_total: u64,
            out: &mut String,
        ) {
            if width >= 0.3 {
                let share = 100.0 * node.total as f64 / grand_total.max(1) as f64;
                let label = escape_xml(name);
                out.push_str(&format!(
                    "<g><title>{label} ({} samples, {share:.1}%)</title>\
                     <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
                     fill=\"{}\" rx=\"1\"/>",
                    node.total,
                    (width - PAD).max(0.3),
                    ROW - PAD,
                    fill_for(name),
                ));
                // ~7 px per glyph at font-size 12; elide what cannot fit.
                let fit = (width / 7.0) as usize;
                if fit >= 3 {
                    let text = if name.chars().count() > fit {
                        let cut: String = name.chars().take(fit.saturating_sub(2)).collect();
                        escape_xml(&format!("{cut}.."))
                    } else {
                        label
                    };
                    out.push_str(&format!(
                        "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"12\" \
                         font-family=\"monospace\">{text}</text>",
                        x + 3.0,
                        y + ROW - 5.0,
                    ));
                }
                out.push_str("</g>\n");
            }
            let mut cx = x;
            for (child_name, child) in &node.children {
                let w = width * child.total as f64 / node.total.max(1) as f64;
                render(child, child_name, cx, y - ROW, w, grand_total, out);
                cx += w;
            }
        }
        let base_y = height - 20.0 - ROW;
        render(
            &root,
            &format!("all ({} samples)", root.total),
            0.0,
            base_y,
            WIDTH,
            root.total,
            &mut body,
        );

        format!(
            "<?xml version=\"1.0\" standalone=\"no\"?>\n\
             <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
             viewBox=\"0 0 {WIDTH} {height}\">\n\
             <rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" fill=\"#fdf6ec\"/>\n\
             <text x=\"{:.0}\" y=\"16\" font-size=\"14\" font-family=\"monospace\" \
             text-anchor=\"middle\">hdoutlier span-stack profile \
             ({} samples at {} Hz over {:.2}s)</text>\n{body}</svg>\n",
            WIDTH / 2.0,
            self.samples,
            self.hz,
            self.duration.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(frames: &[&str], samples: u64, bytes: u64) -> StackEntry {
        StackEntry {
            frames: frames.iter().map(|s| s.to_string()).collect(),
            samples,
            bytes,
        }
    }

    #[test]
    fn intern_is_stable_and_distinguishes_frames() {
        let a = intern("hdoutlier.test", "alpha");
        let b = intern("hdoutlier.test", "beta");
        assert_eq!(a, intern("hdoutlier.test", "alpha"));
        assert_ne!(a, b);
        assert_eq!(resolve(a), Some(("hdoutlier.test", "alpha")));
        assert_eq!(resolve(OVERFLOW_ID), None);
    }

    #[test]
    fn folded_output_sorts_and_weights() {
        let report = ProfileReport::from_entries(
            99,
            Duration::from_secs(1),
            vec![
                entry(
                    &["hdoutlier.core.search", "hdoutlier.core.intersect"],
                    412,
                    64,
                ),
                entry(&["hdoutlier.core.search"], 88, 0),
                entry(&[], 0, 1024),
                entry(&["hdoutlier.cli.detect"], 0, 0),
            ],
        );
        assert_eq!(
            report.to_folded(),
            "hdoutlier.core.search 88\n\
             hdoutlier.core.search;hdoutlier.core.intersect 412\n"
        );
        assert_eq!(
            report.to_folded_bytes(),
            "(outside spans) 1024\n\
             hdoutlier.core.search;hdoutlier.core.intersect 64\n"
        );
        assert_eq!(report.samples, 500);
        assert!(report.has_bytes());
    }

    #[test]
    fn json_report_carries_stacks_and_header() {
        let report = ProfileReport::from_entries(
            97,
            Duration::from_millis(500),
            vec![entry(&["a.b", "c.d"], 3, 7)],
        );
        let json = crate::sink::render_listing(report.to_json());
        assert!(json.contains("\"hz\":97"), "{json}");
        assert!(json.contains("\"duration_us\":500000"), "{json}");
        assert!(
            json.contains("{\"stack\":[\"a.b\",\"c.d\"],\"samples\":3,\"bytes\":7}"),
            "{json}"
        );
    }

    #[test]
    fn svg_is_well_formed_and_names_frames() {
        let report = ProfileReport::from_entries(
            99,
            Duration::from_secs(2),
            vec![
                entry(
                    &["hdoutlier.core.search", "hdoutlier.core.intersect"],
                    30,
                    0,
                ),
                entry(&["hdoutlier.core.search"], 10, 0),
            ],
        );
        let svg = report.to_svg();
        assert!(svg.starts_with("<?xml"), "{svg}");
        assert!(
            svg.contains("<svg xmlns=\"http://www.w3.org/2000/svg\""),
            "{svg}"
        );
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
        assert!(svg.contains("hdoutlier.core.intersect"), "{svg}");
        assert!(svg.contains("40 samples"), "{svg}");
        // Every <g> and <rect> closes.
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn sessions_capture_live_span_stacks() {
        let session = ProfileSession::start(1000);
        assert!(profile_enabled());
        let stop = Arc::new(AtomicBool::new(false));
        let worker_stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let _outer = profile_span("hdoutlier.proftest", "outer");
            while !worker_stop.load(Ordering::Relaxed) {
                let _inner = profile_span("hdoutlier.proftest", "inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(120));
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        let report = session.stop();
        // Other tests in this process may also be inside sessions/spans, so
        // assert containment, not exact equality.
        let folded = report.to_folded();
        assert!(
            folded.contains("hdoutlier.proftest.outer"),
            "no outer frame in:\n{folded}"
        );
        assert!(report.samples > 0, "no samples in {report:?}");
        assert!(report.ticks > 0);
    }

    #[test]
    fn disabled_gate_and_guard_are_inert() {
        // May race with another test's session in this process; only assert
        // the guard doesn't panic or unbalance.
        let g = profile_span("hdoutlier.proftest", "maybe");
        drop(g);
        let depth_before = current_slot().depth.load(Ordering::Relaxed);
        {
            let _g = profile_span("hdoutlier.proftest", "balanced");
        }
        assert_eq!(current_slot().depth.load(Ordering::Relaxed), depth_before);
    }

    #[test]
    fn push_beyond_max_depth_truncates_and_recovers() {
        let _session = ProfileSession::start(1000);
        let slot = current_slot();
        let depth0 = slot.depth.load(Ordering::Relaxed);
        let before = slot.truncated.load(Ordering::Relaxed);
        let guards: Vec<ProfileGuard> = (0..MAX_DEPTH + 4)
            .map(|_| profile_span("hdoutlier.proftest", "deep"))
            .collect();
        assert!(slot.truncated.load(Ordering::Relaxed) >= before + 4);
        assert_eq!(
            slot.depth.load(Ordering::Relaxed),
            depth0 + (MAX_DEPTH + 4) as u32
        );
        drop(guards);
        assert_eq!(slot.depth.load(Ordering::Relaxed), depth0);
        let snap = snapshot_stack(slot).expect("uncontended snapshot");
        assert!(snap.len() <= MAX_DEPTH);
    }

    #[test]
    fn profile_for_returns_after_duration() {
        let start = Instant::now();
        let report = profile_for(Duration::from_millis(30), 500);
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(report.hz == 500);
    }
}
