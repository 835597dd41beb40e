//! The directory controller routes references without touching the heap:
//! a counting global allocator sees zero allocations over 50,000
//! `access` calls once the controller is warm, in both modes.
//!
//! This file holds a single test so no sibling test allocates
//! concurrently; the count is also kept per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seesaw_cache::{CacheConfig, IndexPolicy};
use seesaw_coherence::{CoherenceMode, DirectoryController};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a per-thread counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for this method are passed on
        // unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for this method are passed on
        // unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for this method are passed on
        // unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for this method are passed on
        // unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives `calls` mixed references over 4,096 lines and returns the
/// number of transactions and probes seen, so the work cannot be elided.
fn drive(dir: &mut DirectoryController, seed: &mut u64, calls: usize) -> (u64, u64) {
    let (mut transactions, mut probes) = (0, 0);
    for _ in 0..calls {
        *seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = *seed >> 33;
        let tx = dir.access((r % 4) as usize, (r >> 2) % 4_096, r.is_multiple_of(3));
        transactions += u64::from(!tx.local_hit);
        probes += tx.probes.len() as u64;
    }
    (transactions, probes)
}

#[test]
fn access_is_allocation_free_after_warm_up() {
    let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
    for mode in [CoherenceMode::Directory, CoherenceMode::Snoopy] {
        let mut dir = DirectoryController::new(4, cfg, mode, 4);
        let mut seed = 0xa110c_u64;
        drive(&mut dir, &mut seed, 10_000);
        let before = allocations();
        let (transactions, probes) = drive(&mut dir, &mut seed, 50_000);
        let allocated = allocations() - before;
        assert!(
            transactions > 0 && probes > 0,
            "{mode:?}: the stream must make transactions"
        );
        assert_eq!(allocated, 0, "{mode:?}: access allocated {allocated} times");
    }
}
