//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! Every allocation and free goes through [`CountingAlloc`], which keeps
//! two process-wide counters. A [`HeapPhase`] resets the high-water mark
//! when a phase starts and reads how far it rose above the bytes live at
//! that moment, so a phase's figure is the memory it added, independent
//! of what the harness itself holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator plus live/peak byte counters.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // Read first: a plain load is far cheaper than an RMW on the common
    // path where the mark does not move.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` and
        // `layout` describe a live block and `new_size` is valid.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Bytes in one MiB, the unit every heap metric is reported in.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The heap high-water mark of one phase, relative to the bytes live
/// when it started. Phases do not nest: starting one resets the mark.
pub struct HeapPhase {
    base: usize,
}

impl HeapPhase {
    /// Start a phase: the high-water mark restarts at the current live
    /// bytes.
    pub fn start() -> HeapPhase {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        HeapPhase { base }
    }

    /// Peak live bytes above the phase's starting point, in MiB.
    pub fn peak_mb(&self) -> f64 {
        self.peak_bytes().saturating_sub(self.base) as f64 / MIB
    }

    /// Absolute peak live bytes since the phase started.
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Relaxed)
    }
}
