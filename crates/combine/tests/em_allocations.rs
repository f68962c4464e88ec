//! Grouped EM allocates a fixed handful of buffers per run, however
//! many items it combines: a deterministic work counter in place of a
//! wall-clock gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qurk_combine::em::{QualityAdjust, QualityAdjustConfig};

/// Counts the allocations made on the current thread, so the test
/// harness's other threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees are exactly the ones `System` needs; the
// counter is a `const`-initialized thread-local `Cell`, which neither
// allocates nor needs a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's guarantees for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Item-grouped votes for `items` items, 5 votes each from a pool of
/// 40 workers; every 17th item has none.
fn grouped_votes(items: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut offsets = vec![0];
    let mut votes = Vec::new();
    for item in 0..items {
        if item % 17 != 0 {
            for v in 0..5 {
                let worker = (item * 7 + v * 31) % 40;
                votes.push((worker, usize::from((item + v) % 4 == 0)));
            }
        }
        offsets.push(votes.len());
    }
    (offsets, votes)
}

/// Allocations made by one grouped EM run over `items` items.
fn em_allocations(items: usize) -> u64 {
    let (offsets, votes) = grouped_votes(items);
    let qa = QualityAdjust::new(QualityAdjustConfig::paper_join());
    let before = ALLOCATIONS.with(Cell::get);
    let out = qa.run_grouped(&offsets, &votes);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(out.decisions.len(), items);
    after - before
}

#[test]
fn grouped_em_allocations_do_not_grow_with_items() {
    let small = em_allocations(1_000);
    let large = em_allocations(10_000);
    assert!(small > 0, "the counter saw no allocation");
    assert_eq!(
        small, large,
        "grouped EM allocated {small} times at 1k items but {large} at 10k"
    );
}
