//! Simulated physical memory: the buddy allocator plus per-block mobility
//! metadata used by compaction.

use crate::{BuddyAllocator, BuddyStats, MemError, PageFrame, PageSize, PhysAddr};

/// Mobility class of an allocated block, mirroring Linux's migrate types.
/// Compaction can relocate movable pages (anonymous heap) but must work
/// around unmovable ones (kernel/network-stack allocations — the paper's
/// "system activity", §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameState {
    /// User anonymous memory; migratable by compaction.
    Movable,
    /// Pinned kernel or driver memory; cannot be migrated.
    Unmovable,
}

/// Simulated physical memory.
///
/// # Example
/// ```
/// use seesaw_mem::{PhysicalMemory, PageSize, FrameState};
/// let mut pmem = PhysicalMemory::new(64 << 20);
/// let frame = pmem.alloc_page(PageSize::Super2M, FrameState::Movable)?;
/// assert_eq!(frame.size(), PageSize::Super2M);
/// pmem.free_page(frame)?;
/// # Ok::<(), seesaw_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    buddy: BuddyAllocator,
    /// Mobility of the allocated block starting at each frame (dense:
    /// one slot per frame, `None` where no allocated block starts).
    mobility: Vec<Option<FrameState>>,
}

impl PhysicalMemory {
    /// Creates `bytes` of physical memory (rounded down to whole 4 KB frames).
    ///
    /// # Panics
    /// Panics if `bytes < 4096`.
    pub fn new(bytes: u64) -> Self {
        let frames = bytes / PageSize::Base4K.bytes();
        assert!(frames > 0, "physical memory must hold at least one frame");
        Self {
            buddy: BuddyAllocator::new(frames),
            mobility: vec![None; frames as usize],
        }
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.buddy.total_frames() * PageSize::Base4K.bytes()
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.buddy.free_frames() * PageSize::Base4K.bytes()
    }

    /// Allocates one page frame of the given size.
    ///
    /// # Errors
    /// Propagates [`MemError::Fragmented`] / [`MemError::OutOfMemory`] from
    /// the buddy allocator.
    pub fn alloc_page(&mut self, size: PageSize, state: FrameState) -> Result<PageFrame, MemError> {
        let start = self.buddy.alloc(size.buddy_order())?;
        self.mobility[start as usize] = Some(state);
        Ok(PageFrame::new(
            PhysAddr::new(start * PageSize::Base4K.bytes()),
            size,
        ))
    }

    /// Frees a page frame.
    ///
    /// # Errors
    /// Returns [`MemError::NotAllocated`] if the frame was not allocated at
    /// this size.
    pub fn free_page(&mut self, frame: PageFrame) -> Result<(), MemError> {
        let start = frame.base().raw() / PageSize::Base4K.bytes();
        self.buddy.free(start, frame.size().buddy_order())?;
        self.mobility[start as usize] = None;
        Ok(())
    }

    /// Splits an allocated superpage frame into its constituent 4 KB
    /// frames (no data movement), mirroring the kernel splitting a
    /// compound page when a superpage mapping is splintered.
    ///
    /// # Errors
    /// Returns [`MemError::NotAllocated`] if the frame is not allocated,
    /// and [`MemError::WrongPageSize`] if it is already a base page.
    pub fn split_page(&mut self, frame: PageFrame) -> Result<Vec<PageFrame>, MemError> {
        if !frame.size().is_superpage() {
            return Err(MemError::WrongPageSize {
                found: frame.size(),
                expected: PageSize::Super2M,
            });
        }
        let start = frame.base().raw() / PageSize::Base4K.bytes();
        let state = self.mobility[start as usize].unwrap_or(FrameState::Movable);
        self.buddy
            .split_allocated(start, frame.size().buddy_order())?;
        self.mobility[start as usize] = None;
        let count = frame.size().base_pages();
        let mut pieces = Vec::with_capacity(count as usize);
        for i in 0..count {
            self.mobility[(start + i) as usize] = Some(state);
            pieces.push(PageFrame::new(
                PhysAddr::new((start + i) * PageSize::Base4K.bytes()),
                PageSize::Base4K,
            ));
        }
        Ok(pieces)
    }

    /// Buddy occupancy statistics.
    pub fn stats(&self) -> BuddyStats {
        self.buddy.stats()
    }

    /// Whether an allocation of `size` would currently succeed.
    pub fn can_alloc(&self, size: PageSize) -> bool {
        self.buddy.can_alloc(size.buddy_order())
    }

    /// Mobility of the allocated block starting at `start_frame`, if any.
    pub fn mobility_of(&self, start_frame: u64) -> Option<FrameState> {
        self.mobility.get(start_frame as usize).copied().flatten()
    }

    /// Iterates allocated blocks as `(start_frame, order, mobility)`.
    pub fn allocated_blocks(&self) -> impl Iterator<Item = (u64, u32, FrameState)> + '_ {
        self.buddy.allocated_blocks().map(move |(s, o)| {
            let state = self.mobility[s as usize].expect("allocated block has mobility");
            (s, o, state)
        })
    }

    /// Mutable access to the underlying buddy allocator, for compaction.
    pub(crate) fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.buddy
    }

    /// Shared access to the underlying buddy allocator.
    pub(crate) fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Records mobility for a block placed via `alloc_exact`-style paths.
    pub(crate) fn set_mobility(&mut self, start_frame: u64, state: FrameState) {
        self.mobility[start_frame as usize] = Some(state);
    }

    /// Drops mobility metadata for a block (compaction migration source).
    pub(crate) fn clear_mobility(&mut self, start_frame: u64) {
        self.mobility[start_frame as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut pmem = PhysicalMemory::new(16 << 20);
        assert_eq!(pmem.total_bytes(), 16 << 20);
        let f = pmem
            .alloc_page(PageSize::Super2M, FrameState::Movable)
            .unwrap();
        assert_eq!(pmem.free_bytes(), (16 << 20) - (2 << 20));
        pmem.free_page(f).unwrap();
        assert_eq!(pmem.free_bytes(), 16 << 20);
    }

    #[test]
    fn frames_carry_mobility() {
        let mut pmem = PhysicalMemory::new(8 << 20);
        let f = pmem
            .alloc_page(PageSize::Base4K, FrameState::Unmovable)
            .unwrap();
        let start = f.base().raw() / 4096;
        assert_eq!(pmem.mobility_of(start), Some(FrameState::Unmovable));
        pmem.free_page(f).unwrap();
        assert_eq!(pmem.mobility_of(start), None);
    }

    #[test]
    fn superpage_frames_are_aligned() {
        let mut pmem = PhysicalMemory::new(32 << 20);
        let f = pmem
            .alloc_page(PageSize::Super2M, FrameState::Movable)
            .unwrap();
        assert!(f.base().is_aligned(PageSize::Super2M));
    }

    #[test]
    fn double_free_is_rejected() {
        let mut pmem = PhysicalMemory::new(8 << 20);
        let f = pmem
            .alloc_page(PageSize::Base4K, FrameState::Movable)
            .unwrap();
        pmem.free_page(f).unwrap();
        assert_eq!(pmem.free_page(f), Err(MemError::NotAllocated));
    }
}
