//! Transparent-huge-page (THP) allocation policy.
//!
//! Models Linux's `transparent_hugepage=always` behavior the paper relies
//! on (§II-B, §III-C): anonymous heap regions are backed with 2 MB pages
//! whenever the buddy allocator can produce an order-9 block, with direct
//! compaction attempted on failure, and 4 KB fallback otherwise.

use crate::{CompactionOutcome, Compactor, FrameState, MemError, PageSize, PhysicalMemory};

/// THP policy for a mapping, mirroring Linux's per-VMA settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThpPolicy {
    /// Try superpages first, compact on failure, fall back to base pages —
    /// the production default the paper assumes.
    #[default]
    Always,
    /// Never allocate superpages (models `transparent_hugepage=never`, or
    /// regions needing fine-grained protection, §II-B).
    Never,
}

seesaw_trace::counters! {
    /// Counters describing how a region ended up backed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ThpStats {
        /// 2 MB pages allocated directly.
        pub super_direct: u64,
        /// 2 MB pages allocated only after a compaction run.
        pub super_after_compaction: u64,
        /// 4 KB fallback pages allocated.
        pub base_fallback: u64,
        /// Compaction runs triggered.
        pub compaction_runs: u64,
        /// 2 MB-aligned slices that wanted a superpage but were demoted to
        /// base pages (graceful degradation under fragmentation/OOM).
        pub demoted_slices: u64,
    }
    derived: superpage_fraction;
}

impl ThpStats {
    /// Fraction of allocated bytes backed by superpages.
    pub fn superpage_fraction(&self) -> f64 {
        let super_bytes =
            (self.super_direct + self.super_after_compaction) * PageSize::Super2M.bytes();
        let base_bytes = self.base_fallback * PageSize::Base4K.bytes();
        if super_bytes + base_bytes == 0 {
            return 0.0;
        }
        super_bytes as f64 / (super_bytes + base_bytes) as f64
    }
}

/// Outcome of allocating physical backing for one 2 MB-aligned slice of a
/// virtual region.
#[derive(Debug)]
pub(crate) enum SliceBacking {
    /// One 2 MB frame.
    Super(crate::PageFrame),
    /// 512 individual 4 KB frames (possibly fewer for a tail slice).
    Base(Vec<crate::PageFrame>),
}

/// Allocates physical backing for `bytes` of anonymous memory under the
/// given policy. Returns the backing slices plus any compaction
/// relocations the caller must apply to existing mappings.
pub(crate) fn allocate_backing(
    pmem: &mut PhysicalMemory,
    bytes: u64,
    policy: ThpPolicy,
    stats: &mut ThpStats,
) -> Result<(Vec<SliceBacking>, Vec<CompactionOutcome>), MemError> {
    let mut slices = Vec::new();
    let mut compactions = Vec::new();
    let mut remaining = bytes;
    while remaining > 0 {
        let want_super = policy == ThpPolicy::Always && remaining >= PageSize::Super2M.bytes();
        if want_super {
            match pmem.alloc_page(PageSize::Super2M, FrameState::Movable) {
                Ok(frame) => {
                    stats.super_direct += 1;
                    slices.push(SliceBacking::Super(frame));
                    remaining -= PageSize::Super2M.bytes();
                    continue;
                }
                Err(MemError::Fragmented { .. }) => {
                    // Direct compaction, then one retry — Linux's
                    // `defrag=always` path.
                    stats.compaction_runs += 1;
                    compactions.push(Compactor::new().compact(pmem));
                    if let Ok(frame) = pmem.alloc_page(PageSize::Super2M, FrameState::Movable) {
                        stats.super_after_compaction += 1;
                        slices.push(SliceBacking::Super(frame));
                        remaining -= PageSize::Super2M.bytes();
                        continue;
                    }
                    // fall through to base pages
                }
                Err(MemError::OutOfMemory { .. }) => {
                    // fall through to base pages; genuine OOM will surface
                    // from the 4 KB path below.
                }
                Err(e) => return Err(e),
            }
        }
        // Base-page path: back the next (up to) 2 MB slice with 4 KB frames.
        if want_super {
            stats.demoted_slices += 1;
        }
        let slice_bytes = remaining.min(PageSize::Super2M.bytes());
        let count = slice_bytes.div_ceil(PageSize::Base4K.bytes());
        let mut frames = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match pmem.alloc_page(PageSize::Base4K, FrameState::Movable) {
                Ok(f) => frames.push(f),
                Err(e) => {
                    // Unwind this slice so the caller sees a clean failure.
                    for f in frames {
                        let _ = pmem.free_page(f);
                    }
                    return Err(e);
                }
            }
        }
        stats.base_fallback += count;
        slices.push(SliceBacking::Base(frames));
        remaining -= slice_bytes;
    }
    Ok((slices, compactions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfragmented_memory_yields_all_superpages() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut stats = ThpStats::default();
        let (slices, _) =
            allocate_backing(&mut pmem, 32 << 20, ThpPolicy::Always, &mut stats).unwrap();
        assert_eq!(slices.len(), 16);
        assert!(slices.iter().all(|s| matches!(s, SliceBacking::Super(_))));
        assert_eq!(stats.superpage_fraction(), 1.0);
    }

    #[test]
    fn never_policy_uses_only_base_pages() {
        let mut pmem = PhysicalMemory::new(16 << 20);
        let mut stats = ThpStats::default();
        let (slices, _) =
            allocate_backing(&mut pmem, 4 << 20, ThpPolicy::Never, &mut stats).unwrap();
        assert!(slices.iter().all(|s| matches!(s, SliceBacking::Base(_))));
        assert_eq!(stats.superpage_fraction(), 0.0);
        assert_eq!(stats.base_fallback, 1024);
    }

    #[test]
    fn sub_2mb_tail_falls_back_to_base_pages() {
        let mut pmem = PhysicalMemory::new(16 << 20);
        let mut stats = ThpStats::default();
        let (slices, _) =
            allocate_backing(&mut pmem, (2 << 20) + 8192, ThpPolicy::Always, &mut stats).unwrap();
        assert_eq!(slices.len(), 2);
        assert!(matches!(slices[0], SliceBacking::Super(_)));
        match &slices[1] {
            SliceBacking::Base(frames) => assert_eq!(frames.len(), 2),
            other => panic!("expected base slice, got {other:?}"),
        }
    }

    #[test]
    fn genuine_oom_propagates() {
        let mut pmem = PhysicalMemory::new(4 << 20);
        let mut stats = ThpStats::default();
        let err = allocate_backing(&mut pmem, 8 << 20, ThpPolicy::Always, &mut stats).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn fragmentation_triggers_compaction_then_succeeds() {
        // Fragment: fill memory with movable singles, free all but a few.
        let mut pmem = PhysicalMemory::new(16 << 20);
        let mut held = Vec::new();
        while let Ok(f) = pmem.alloc_page(PageSize::Base4K, FrameState::Movable) {
            held.push(f);
        }
        // Keep one page per 2 MB region (all movable), free the rest.
        let mut kept = 0;
        for (i, f) in held.into_iter().enumerate() {
            if i % 512 == 256 {
                kept += 1;
            } else {
                pmem.free_page(f).unwrap();
            }
        }
        assert!(kept > 0);
        assert!(!pmem.can_alloc(PageSize::Super2M), "setup must fragment");
        let mut stats = ThpStats::default();
        let (slices, compactions) =
            allocate_backing(&mut pmem, 2 << 20, ThpPolicy::Always, &mut stats).unwrap();
        assert!(stats.compaction_runs >= 1);
        assert!(!compactions.is_empty());
        assert!(matches!(slices[0], SliceBacking::Super(_)));
        assert_eq!(stats.super_after_compaction, 1);
    }
}
