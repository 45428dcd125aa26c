//! Allocation accounting: an optional counting wrapper around the system
//! allocator.
//!
//! A binary opts in with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hdoutlier_obs::CountingAllocator = hdoutlier_obs::CountingAllocator;
//! ```
//!
//! The `hdoutlier` CLI does; the bench binaries deliberately do not, so the
//! `--assert-against` perf gates measure the unwrapped allocator.
//!
//! Every allocation and free updates five plain static atomics — the
//! allocator path never touches the metrics registry (whose mutex and
//! `BTreeMap` themselves allocate) or any lock. The registry sees the
//! numbers through [`refresh_alloc_metrics`], called on the same scrape
//! paths as the process metrics, as `hdoutlier.alloc.*` gauges. While a
//! profiling session is live, allocated bytes are additionally credited to
//! the calling thread's profiler slot so the sampler can attribute them to
//! the innermost live span ([`crate::ProfileReport::to_folded_bytes`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES_TOTAL: AtomicU64 = AtomicU64::new(0);
static BYTES_LIVE: AtomicU64 = AtomicU64::new(0);
static BYTES_PEAK: AtomicU64 = AtomicU64::new(0);

fn record_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES_TOTAL.fetch_add(bytes, Ordering::Relaxed);
    let live = BYTES_LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    let mut peak = BYTES_PEAK.load(Ordering::Relaxed);
    while live > peak {
        match BYTES_PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => peak = seen,
        }
    }
    crate::profile::note_alloc(bytes);
}

fn record_free(bytes: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    // Saturating: frees of memory allocated before the wrapper was
    // installed (impossible for a `#[global_allocator]`, defensive anyway)
    // must not wrap the live gauge.
    let bytes = bytes as u64;
    let mut live = BYTES_LIVE.load(Ordering::Relaxed);
    loop {
        let next = live.saturating_sub(bytes);
        match BYTES_LIVE.compare_exchange_weak(live, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => live = seen,
        }
    }
}

/// A [`GlobalAlloc`] that delegates to [`System`] and counts
/// allocations, frees, and bytes (current, total, peak). Install it with
/// `#[global_allocator]` in a binary to light up the `hdoutlier.alloc.*`
/// gauges and the bytes-weighted profile.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the accounting
// touches only static atomics and a const-initialized TLS cell, so it
// cannot allocate, lock, or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Count a grow as an allocation of the delta (that is the new
            // memory pressure); a shrink only lowers the live gauge.
            if new_size > layout.size() {
                record_alloc(new_size - layout.size());
            } else {
                record_free(layout.size() - new_size);
                // record_free counted a free; reclassify: a shrink is not a
                // free of an allocation.
                FREES.fetch_sub(1, Ordering::Relaxed);
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// A point-in-time copy of the allocator counters. All zeros when the
/// counting allocator is not installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations observed (including the grow side of reallocs).
    pub allocations: u64,
    /// Frees observed.
    pub frees: u64,
    /// Cumulative bytes ever allocated.
    pub bytes_total: u64,
    /// Bytes currently live.
    pub bytes_live: u64,
    /// High-water mark of live bytes.
    pub bytes_peak: u64,
}

/// Reads the allocator counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes_total: BYTES_TOTAL.load(Ordering::Relaxed),
        bytes_live: BYTES_LIVE.load(Ordering::Relaxed),
        bytes_peak: BYTES_PEAK.load(Ordering::Relaxed),
    }
}

/// Copies the allocator counters into `hdoutlier.alloc.*` gauges on the
/// global registry. A no-op while the counting allocator is not installed
/// (nothing has ever been counted), so processes on the plain system
/// allocator don't expose a row of misleading zeros.
pub(crate) fn refresh_alloc_metrics() {
    let stats = alloc_stats();
    if stats.allocations == 0 {
        return;
    }
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    let r = crate::metrics::registry();
    r.gauge("hdoutlier.alloc.allocations")
        .set(clamp(stats.allocations));
    r.gauge("hdoutlier.alloc.frees").set(clamp(stats.frees));
    r.gauge("hdoutlier.alloc.bytes_total")
        .set(clamp(stats.bytes_total));
    r.gauge("hdoutlier.alloc.bytes_live")
        .set(clamp(stats.bytes_live));
    r.gauge("hdoutlier.alloc.bytes_peak")
        .set(clamp(stats.bytes_peak));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary does not install the wrapper globally, so these
    // tests drive the `GlobalAlloc` impl directly. They share the static
    // counters and the harness runs them on parallel threads, so each holds
    // this lock while it drives the wrapper: a sibling's allocations would
    // otherwise land inside another test's before/after window.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counts_allocs_frees_and_peak() {
        let _serial = serial();
        let before = alloc_stats();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        unsafe {
            let a = CountingAllocator.alloc(layout);
            assert!(!a.is_null());
            let b = CountingAllocator.alloc_zeroed(layout);
            assert!(!b.is_null());
            assert!(b.add(100).read() == 0);
            CountingAllocator.dealloc(a, layout);
            CountingAllocator.dealloc(b, layout);
        }
        let after = alloc_stats();
        assert!(after.allocations >= before.allocations + 2);
        assert!(after.frees >= before.frees + 2);
        assert!(after.bytes_total >= before.bytes_total + 8192);
        assert!(after.bytes_peak >= 4096);
    }

    #[test]
    fn realloc_counts_only_the_delta() {
        let _serial = serial();
        let before = alloc_stats();
        let layout = Layout::from_size_align(1000, 8).unwrap();
        unsafe {
            let p = CountingAllocator.alloc(layout);
            let grown = CountingAllocator.realloc(p, layout, 3000);
            assert!(!grown.is_null());
            let grown_layout = Layout::from_size_align(3000, 8).unwrap();
            let shrunk = CountingAllocator.realloc(grown, grown_layout, 500);
            assert!(!shrunk.is_null());
            CountingAllocator.dealloc(shrunk, Layout::from_size_align(500, 8).unwrap());
        }
        let after = alloc_stats();
        // 1000 + 2000 grow (the shrink adds no bytes_total).
        assert!(after.bytes_total >= before.bytes_total + 3000);
        assert!(after.bytes_total < before.bytes_total + 3000 + 2500);
        // Everything was returned.
        assert!(after.frees > before.frees);
    }

    #[test]
    fn refresh_skips_or_publishes_consistently() {
        // By the time this runs, other tests in this binary have driven the
        // wrapper directly, so the refresh publishes.
        let _serial = serial();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = CountingAllocator.alloc(layout);
            CountingAllocator.dealloc(p, layout);
        }
        refresh_alloc_metrics();
        let r = crate::metrics::registry();
        assert!(r.gauge("hdoutlier.alloc.allocations").get() > 0);
        assert!(r.gauge("hdoutlier.alloc.bytes_peak").get() > 0);
    }
}
