//! Page-table walker.

use seesaw_mem::{AddressSpace, Translation, VirtAddr};
use seesaw_trace::Log2Histogram;

/// Result of a completed page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The translation discovered by the walk (carries the page size —
    /// the point at which SEESAW learns a region is a superpage, §IV-A2).
    pub translation: Translation,
    /// Cycles the walk consumed.
    pub cycles: u64,
}

/// A hardware page-table walker with a simple latency model: a fixed cost
/// per radix level touched, with superpage walks terminating early (2 MB
/// mappings live one level higher, 1 GB two levels higher).
#[derive(Debug, Clone, Copy)]
pub struct PageWalker {
    /// Cycles per page-table level reference (memory access amortized by
    /// the page-walk caches real walkers have).
    pub cycles_per_level: u64,
    /// Number of radix levels for a 4 KB walk (4 on x86-64).
    pub levels: u32,
    stats: WalkerStats,
    latency_hist: Log2Histogram,
}

seesaw_trace::counters! {
    /// Walk counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WalkerStats {
        /// Completed walks.
        pub walks: u64,
        /// Total cycles spent walking.
        pub cycles: u64,
        /// Walks that faulted (no mapping).
        pub faults: u64,
    }
}

impl Default for PageWalker {
    fn default() -> Self {
        Self {
            cycles_per_level: 25,
            levels: 4,
            stats: WalkerStats::default(),
            latency_hist: Log2Histogram::new(),
        }
    }
}

impl PageWalker {
    /// Creates a walker with the default x86-64 latency model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a walker with a custom per-level cost.
    pub fn with_cycles_per_level(cycles_per_level: u64) -> Self {
        Self {
            cycles_per_level,
            ..Self::default()
        }
    }

    /// Walks the page table for `va`. Returns `None` on a page fault.
    pub fn walk(&mut self, space: &AddressSpace, va: VirtAddr) -> Option<WalkResult> {
        let Some(translation) = space.translate(va) else {
            self.stats.faults += 1;
            return None;
        };
        // 4 KB walks touch all levels; a 2 MB leaf is found one level
        // early, a 1 GB leaf two levels early.
        let levels_touched = match translation.page_size {
            seesaw_mem::PageSize::Base4K => self.levels,
            seesaw_mem::PageSize::Super2M => self.levels - 1,
            seesaw_mem::PageSize::Super1G => self.levels - 2,
        };
        let cycles = self.cycles_per_level * u64::from(levels_touched);
        self.stats.walks += 1;
        self.stats.cycles += cycles;
        self.latency_hist.record(cycles);
        Some(WalkResult {
            translation,
            cycles,
        })
    }

    /// Walk counters.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }

    /// Log2-bucketed distribution of per-walk latency.
    pub fn latency_hist(&self) -> Log2Histogram {
        self.latency_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::{PageSize, PhysicalMemory, ThpPolicy};

    #[test]
    fn superpage_walks_are_shorter() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        let huge = space
            .mmap_anonymous(&mut pmem, 2 << 20, ThpPolicy::Always)
            .unwrap();
        let small = space
            .mmap_anonymous(&mut pmem, 4096, ThpPolicy::Never)
            .unwrap();
        let mut walker = PageWalker::new();
        let w_huge = walker.walk(&space, huge.base()).unwrap();
        let w_small = walker.walk(&space, small.base()).unwrap();
        assert_eq!(w_huge.translation.page_size, PageSize::Super2M);
        assert_eq!(w_small.translation.page_size, PageSize::Base4K);
        assert!(w_huge.cycles < w_small.cycles);
        assert_eq!(walker.stats().walks, 2);
    }

    #[test]
    fn fault_on_unmapped() {
        let space = AddressSpace::new(1);
        let mut walker = PageWalker::new();
        assert!(walker.walk(&space, VirtAddr::new(0x1000)).is_none());
        assert_eq!(walker.stats().faults, 1);
    }
}
