//! Memory compaction: migrating movable pages to rebuild the contiguous
//! 2 MB blocks transparent superpages need.
//!
//! The paper observes that Linux, FreeBSD and Windows "use sophisticated
//! memory defragmentation algorithms to enable superpages even in the
//! presence of non-trivial resource contention" (§III-C). This module
//! models that machinery: it scans 2 MB-aligned physical regions, migrates
//! the movable allocations out of sparsely-occupied regions, and lets the
//! buddy allocator coalesce the result into order-9 blocks. Regions pinned
//! by unmovable (kernel) allocations cannot be reclaimed — which is why
//! heavy fragmentation with pinned pages eventually defeats superpage
//! allocation (Fig. 3, memhog 80 %+).

use crate::{FrameState, PageSize, PhysicalMemory};

/// A single page migration performed by the compactor. Owners of physical
/// blocks (page tables, memhog) must rewrite their references from
/// `old_start` to `new_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocation {
    /// Previous start frame index of the block.
    pub old_start: u64,
    /// New start frame index.
    pub new_start: u64,
    /// Buddy order of the block (unchanged by migration).
    pub order: u32,
}

/// Result of a compaction run.
#[derive(Debug, Clone, Default)]
pub struct CompactionOutcome {
    /// Every migration performed, in order.
    pub relocations: Vec<Relocation>,
    /// Number of order-9 (2 MB) blocks freed by this run.
    pub freed_2m_blocks: usize,
    /// Regions scanned.
    pub regions_scanned: usize,
    /// Regions skipped because an unmovable allocation pins them.
    pub regions_pinned: usize,
}

/// The compaction engine. Stateless; configuration selects how aggressive
/// a run is.
#[derive(Debug, Clone)]
pub struct Compactor {
    /// Stop after freeing this many 2 MB blocks (per run).
    pub max_blocks_per_run: usize,
    /// Skip regions where more than this many frames are occupied —
    /// migrating nearly-full regions costs more than it frees.
    pub max_occupied_frames: u64,
}

impl Default for Compactor {
    fn default() -> Self {
        Self {
            max_blocks_per_run: usize::MAX,
            max_occupied_frames: 416, // migrate regions up to ~81 % full
        }
    }
}

impl Compactor {
    /// Creates a compactor with default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one compaction pass over physical memory.
    ///
    /// Returns the migrations performed; callers owning migrated blocks
    /// (page tables, the memhog driver) must apply them.
    pub fn compact(&self, pmem: &mut PhysicalMemory) -> CompactionOutcome {
        let mut outcome = CompactionOutcome::default();
        let region_frames = PageSize::Super2M.base_pages();
        let total = pmem.buddy().total_frames();
        let regions = total / region_frames;

        // Pass 1: classify every 2 MB region.
        #[derive(Clone, Default)]
        struct RegionInfo {
            occupied: u64,
            pinned: bool,
            blocks: Vec<(u64, u32)>,
        }
        let mut infos: Vec<RegionInfo> = vec![RegionInfo::default(); regions as usize];
        for (start, order, mobility) in pmem.allocated_blocks() {
            let region = (start / region_frames) as usize;
            if region >= infos.len() {
                continue; // tail beyond the last full region
            }
            let info = &mut infos[region];
            info.occupied += 1u64 << order;
            if mobility == FrameState::Unmovable || order >= PageSize::Super2M.buddy_order() {
                info.pinned = true;
            } else {
                info.blocks.push((start, order));
            }
        }

        // Pass 2: visit candidate regions, emptiest first, and migrate
        // their movable blocks elsewhere.
        let mut order_idx: Vec<usize> = (0..infos.len())
            .filter(|&r| infos[r].occupied > 0)
            .collect();
        order_idx.sort_by_key(|&r| infos[r].occupied);

        // Like the kernel's two scanners, migration moves pages from the
        // sparse end toward the dense end: the emptier half of the
        // candidates is protected from receiving migrated pages (filling
        // one before its turn would undo the plan), while the denser half
        // absorbs them. A protected region whose evacuation fails is
        // re-opened.
        let mut no_fill = vec![false; infos.len()];
        // Fully-free regions are the order-9 blocks we are trying to
        // create; they must never absorb migrated pages.
        for (r, info) in infos.iter().enumerate() {
            if info.occupied == 0 {
                no_fill[r] = true;
            }
        }
        let candidates: Vec<usize> = order_idx
            .iter()
            .copied()
            .filter(|&r| !infos[r].pinned && infos[r].occupied <= self.max_occupied_frames)
            .collect();
        let protected = candidates.len().div_ceil(2);
        for &r in candidates.iter().take(protected) {
            no_fill[r] = true;
        }

        for r in order_idx {
            if outcome.freed_2m_blocks >= self.max_blocks_per_run {
                break;
            }
            outcome.regions_scanned += 1;
            let info = &infos[r];
            if info.pinned {
                outcome.regions_pinned += 1;
                continue;
            }
            if info.occupied > self.max_occupied_frames {
                continue;
            }
            // The region under evacuation must not receive destinations —
            // including destinations for its own remaining blocks.
            no_fill[r] = true;
            // Tentatively migrate each block; roll back the region on failure.
            let mut done: Vec<Relocation> = Vec::new();
            let mut failed = false;
            for &(start, order) in &info.blocks {
                match self.migrate_block(pmem, start, order, &no_fill, region_frames) {
                    Some(new_start) => done.push(Relocation {
                        old_start: start,
                        new_start,
                        order,
                    }),
                    None => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                // Roll back: move the migrated blocks home again.
                for rel in done.into_iter().rev() {
                    let ok = pmem.buddy_mut().alloc_exact(rel.old_start, rel.order);
                    debug_assert!(ok, "rollback target must still be free");
                    pmem.set_mobility(rel.old_start, FrameState::Movable);
                    pmem.buddy_mut()
                        .free(rel.new_start, rel.order)
                        .expect("rollback frees the migrated copy");
                    pmem.clear_mobility(rel.new_start);
                }
                no_fill[r] = false;
                continue;
            }
            outcome.relocations.extend(done);
            // The region is now empty; never fill it again this run.
            no_fill[r] = true;
            if pmem.buddy().free_blocks_at(PageSize::Super2M.buddy_order()) > 0 {
                outcome.freed_2m_blocks += 1;
            }
        }
        outcome
    }

    /// Migrates one block out of an evacuation region. Returns the new
    /// start frame, or `None` if every destination falls in a `no_fill`
    /// region (so migration would undo earlier work).
    fn migrate_block(
        &self,
        pmem: &mut PhysicalMemory,
        source: u64,
        order: u32,
        no_fill: &[bool],
        region_frames: u64,
    ) -> Option<u64> {
        let banned = |frame: u64| {
            let region = (frame / region_frames) as usize;
            no_fill.get(region).copied().unwrap_or(false)
        };
        // Allocate a destination; anything landing inside a protected
        // region is held as a decoy until a valid destination appears
        // (the decoys are released afterwards). The loop is bounded by
        // physical memory itself: it stops at the first valid block or
        // when the allocator runs dry.
        let mut decoys: Vec<u64> = Vec::new();
        let mut dest = None;
        loop {
            match pmem.buddy_mut().alloc(order) {
                Ok(d) if banned(d) => decoys.push(d),
                Ok(d) => {
                    dest = Some(d);
                    break;
                }
                Err(_) => break,
            }
        }
        for d in decoys {
            pmem.buddy_mut()
                .free(d, order)
                .expect("decoy was allocated");
        }
        let dest = dest?;
        // Commit: free the source, brand the destination movable.
        pmem.buddy_mut()
            .free(source, order)
            .expect("source block is allocated");
        pmem.clear_mobility(source);
        pmem.set_mobility(dest, FrameState::Movable);
        Some(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageSize;

    /// Fragment memory by allocating singles everywhere, then freeing most
    /// of them, leaving one 4 KB page per 2 MB region.
    fn checkerboard(pmem: &mut PhysicalMemory, keep_every: u64) -> Vec<u64> {
        let mut kept = Vec::new();
        let mut all = Vec::new();
        while let Ok(f) = pmem.alloc_page(PageSize::Base4K, FrameState::Movable) {
            all.push(f);
        }
        for (i, f) in all.into_iter().enumerate() {
            if (i as u64).is_multiple_of(keep_every) {
                kept.push(f.base().raw() / 4096);
            } else {
                pmem.free_page(f).unwrap();
            }
        }
        kept
    }

    /// Frames held in blocks of order ≥ 9 (what superpage allocation can
    /// actually consume; block *counts* mislead because evacuated regions
    /// coalesce into fewer, larger blocks).
    fn superpage_frames(pmem: &PhysicalMemory) -> u64 {
        pmem.stats()
            .free_blocks_per_order
            .iter()
            .enumerate()
            .skip(9)
            .map(|(k, &count)| count << k)
            .sum()
    }

    #[test]
    fn compaction_recovers_2m_blocks_from_sparse_occupancy() {
        let mut pmem = PhysicalMemory::new(32 << 20); // 16 regions
        checkerboard(&mut pmem, 700);
        let before = superpage_frames(&pmem);
        let outcome = Compactor::new().compact(&mut pmem);
        let after = superpage_frames(&pmem);
        assert!(
            after > before,
            "compaction should grow superpage-capable memory ({before} -> {after} frames)"
        );
        assert!(!outcome.relocations.is_empty());
    }

    #[test]
    fn unmovable_pages_pin_their_region() {
        let mut pmem = PhysicalMemory::new(4 << 20); // 2 regions
                                                     // Pin one page in each region.
        let mut pinned = Vec::new();
        for _ in 0..2 {
            pinned.push(
                pmem.alloc_page(PageSize::Base4K, FrameState::Unmovable)
                    .unwrap(),
            );
        }
        // Both allocations land in region 0 (buddy allocates low-first), so
        // spread: free second, allocate order-9 spacer, realloc.
        pmem.free_page(pinned.pop().unwrap()).unwrap();
        let spacer = pmem
            .alloc_page(PageSize::Super2M, FrameState::Movable)
            .unwrap();
        pinned.push(
            pmem.alloc_page(PageSize::Base4K, FrameState::Unmovable)
                .unwrap(),
        );
        pmem.free_page(spacer).unwrap();
        let outcome = Compactor::new().compact(&mut pmem);
        assert_eq!(outcome.relocations, vec![]);
        assert!(outcome.regions_pinned >= 1);
    }

    #[test]
    fn relocations_reference_real_blocks() {
        let mut pmem = PhysicalMemory::new(16 << 20);
        checkerboard(&mut pmem, 300);
        let outcome = Compactor::new().compact(&mut pmem);
        for rel in &outcome.relocations {
            assert!(
                pmem.buddy().is_allocated(rel.new_start, rel.order),
                "migrated block must exist at its new home"
            );
            assert!(
                !pmem.buddy().is_allocated(rel.old_start, rel.order),
                "source block must be gone"
            );
        }
    }

    #[test]
    fn frame_conservation_across_compaction() {
        let mut pmem = PhysicalMemory::new(16 << 20);
        checkerboard(&mut pmem, 100);
        let free_before = pmem.free_bytes();
        Compactor::new().compact(&mut pmem);
        assert_eq!(
            pmem.free_bytes(),
            free_before,
            "compaction moves pages, it must not allocate or free net memory"
        );
    }
}
