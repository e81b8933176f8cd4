//! A counting global allocator: the heap one stretch of code holds.
//!
//! The resident set (VmHWM) of the smaller workloads moved by 12–15 %
//! between runs of the same work, with the C allocator deciding when freed
//! pages go back to the kernel. The bytes the program asks for do not
//! depend on that, so `peak_heap_mb` counts them here instead.
//!
//! Counting is on only inside [`peak_during`]. Everywhere else, the timed
//! repetitions included, an allocation or free costs one relaxed load of a
//! flag that is not written meanwhile, and touches no shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Mutex;

/// Delegates to [`System`] and counts bytes while [`peak_during`] runs.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Net bytes allocated since counting started; frees of blocks allocated
/// before it make this negative.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Serialises [`peak_during`] calls, which share the counters.
static MEASURING: Mutex<()> = Mutex::new(());

// The counters are statistics that publish no other data, so `Relaxed`.
// Threads spawned inside `peak_during` see the flag through the spawn.
fn grow(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let bytes = bytes as isize;
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator's blocks are `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Runs `f` and returns its result with the most heap, in MB, that the
/// process held at once during `f` beyond what it held when `f` started.
/// What `f` returns is counted; what was allocated before is not. Other
/// threads' allocations in the meantime count too, so call it while
/// nothing else runs.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::Relaxed).max(0);
    (r, peak as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_what_the_closure_holds_and_not_what_came_before() {
        let before = std::hint::black_box(vec![1u8; 32 << 20]);
        let (v, mb) = peak_during(|| std::hint::black_box(vec![0u8; 8 << 20]));
        assert!((7.9..30.0).contains(&mb), "peak {mb} MB");
        let ((), mb) = peak_during(|| drop(std::hint::black_box(vec![0u8; 1 << 20])));
        assert!((0.9..8.0).contains(&mb), "peak {mb} MB");
        drop((before, v));
    }
}
