//! Process address spaces: VMAs, demand allocation through the THP policy,
//! and the splinter/promote operations that exercise SEESAW's correctness
//! paths.

use std::collections::HashMap;

use crate::compaction::Relocation;
use crate::thp::{allocate_backing, SliceBacking};
use crate::{
    FrameState, MemError, PageFrame, PageSize, PageTable, PageTableOp, PhysAddr, PhysicalMemory,
    ThpPolicy, ThpStats, Translation, VirtAddr, VirtPage,
};

/// What a virtual memory area holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Anonymous heap memory (THP-eligible).
    Heap,
    /// Stack (modelled as THP-ineligible, like Linux).
    Stack,
    /// Memory-mapped file (base pages only in this model).
    File,
}

/// A virtual memory area: a contiguous virtual range with one backing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    base: VirtAddr,
    bytes: u64,
    kind: VmaKind,
    policy: ThpPolicy,
}

impl Vma {
    /// First address of the area.
    pub fn base(&self) -> VirtAddr {
        self.base
    }
    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
    /// One past the last address.
    pub fn end(&self) -> VirtAddr {
        self.base.offset(self.bytes)
    }
    /// The kind of memory.
    pub fn kind(&self) -> VmaKind {
        self.kind
    }
    /// THP policy used when the area was populated.
    pub fn policy(&self) -> ThpPolicy {
        self.policy
    }
    /// True if `va` falls inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.base && va < self.end()
    }
}

/// A process address space: VMAs plus the page table backing them.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: u16,
    page_table: PageTable,
    vmas: Vec<Vma>,
    thp_stats: ThpStats,
    /// Reverse index: physical start-frame → virtual page, for applying
    /// compaction relocations without scanning the page table.
    frame_owner: HashMap<u64, VirtPage>,
    /// Relocations produced by compaction runs triggered inside this
    /// address space's allocations but owned by *other* block owners.
    pending_relocations: Vec<Relocation>,
    /// Hardware-visible page-table events not yet consumed (TLB/TFT
    /// invalidations, promotion sweeps).
    pending_ops: Vec<PageTableOp>,
    next_va: u64,
}

impl AddressSpace {
    /// Base of the simulated user heap area.
    const HEAP_BASE: u64 = 0x5555_0000_0000;

    /// Creates an empty address space with the given ASID.
    pub fn new(asid: u16) -> Self {
        Self {
            asid,
            page_table: PageTable::new(),
            vmas: Vec::new(),
            thp_stats: ThpStats::default(),
            frame_owner: HashMap::new(),
            pending_relocations: Vec::new(),
            pending_ops: Vec::new(),
            next_va: Self::HEAP_BASE,
        }
    }

    /// The address-space identifier.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// Maps `bytes` of anonymous memory (rounded up to whole base pages)
    /// under the given THP policy and eagerly populates it — the paper's
    /// workloads touch their whole footprint, so demand-zero laziness is
    /// irrelevant here.
    ///
    /// # Errors
    /// Returns [`MemError::OutOfMemory`] if physical memory is exhausted.
    pub fn mmap_anonymous(
        &mut self,
        pmem: &mut PhysicalMemory,
        bytes: u64,
        policy: ThpPolicy,
    ) -> Result<Vma, MemError> {
        let bytes = bytes.div_ceil(PageSize::Base4K.bytes()).max(1) * PageSize::Base4K.bytes();
        // Reserve a 2 MB-aligned virtual range so superpage mappings are
        // possible, with a guard gap after it.
        let base = VirtAddr::new(self.next_va);
        debug_assert!(base.is_aligned(PageSize::Super2M));
        let span = bytes.div_ceil(PageSize::Super2M.bytes()) * PageSize::Super2M.bytes();
        self.next_va += span + PageSize::Super2M.bytes();

        let (slices, compactions) = allocate_backing(pmem, bytes, policy, &mut self.thp_stats)?;
        // Compaction during this allocation may have moved frames mapped
        // earlier in *this* space; fix our own page table first and queue
        // the rest for other owners.
        for outcome in compactions {
            self.absorb_relocations(outcome.relocations);
        }
        let mut cursor = base;
        for slice in slices {
            match slice {
                SliceBacking::Super(frame) => {
                    let vpage = VirtPage::containing(cursor, PageSize::Super2M);
                    let op = self.page_table.map(vpage, frame)?;
                    self.note_map(vpage, frame);
                    self.pending_ops.push(op);
                    cursor = cursor.offset(PageSize::Super2M.bytes());
                }
                SliceBacking::Base(frames) => {
                    for frame in frames {
                        let vpage = VirtPage::containing(cursor, PageSize::Base4K);
                        let op = self.page_table.map(vpage, frame)?;
                        self.note_map(vpage, frame);
                        self.pending_ops.push(op);
                        cursor = cursor.offset(PageSize::Base4K.bytes());
                    }
                }
            }
        }
        let vma = Vma {
            base,
            bytes,
            kind: VmaKind::Heap,
            policy,
        };
        self.vmas.push(vma);
        Ok(vma)
    }

    /// Maps `bytes` of memory backed by explicit pages of the given size
    /// (the hugetlbfs-style path: the application reserves 1 GB — or 2 MB
    /// — pages directly instead of relying on THP). Unlike THP there is
    /// no fallback: if the allocator cannot produce contiguous frames of
    /// the requested size, the call fails.
    ///
    /// # Errors
    /// Returns [`MemError::Fragmented`] / [`MemError::OutOfMemory`] if the
    /// frames cannot be allocated.
    pub fn mmap_hugetlb(
        &mut self,
        pmem: &mut PhysicalMemory,
        bytes: u64,
        page_size: PageSize,
    ) -> Result<Vma, MemError> {
        let bytes = bytes.div_ceil(page_size.bytes()).max(1) * page_size.bytes();
        // Reserve a virtual range aligned to the page size.
        let base = VirtAddr::new(self.next_va.div_ceil(page_size.bytes()) * page_size.bytes());
        self.next_va = base.raw() + bytes + page_size.bytes();

        let mut frames = Vec::new();
        let count = bytes / page_size.bytes();
        for _ in 0..count {
            match pmem.alloc_page(page_size, FrameState::Movable) {
                Ok(f) => frames.push(f),
                Err(e) => {
                    for f in frames {
                        let _ = pmem.free_page(f);
                    }
                    return Err(e);
                }
            }
        }
        let mut cursor = base;
        for frame in frames {
            let vpage = VirtPage::containing(cursor, page_size);
            let op = self.page_table.map(vpage, frame)?;
            self.note_map(vpage, frame);
            self.pending_ops.push(op);
            cursor = cursor.offset(page_size.bytes());
        }
        let vma = Vma {
            base,
            bytes,
            kind: VmaKind::Heap,
            policy: ThpPolicy::Never,
        };
        self.vmas.push(vma);
        Ok(vma)
    }

    /// Translates a virtual address through the page table.
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        self.page_table.translate(va)
    }

    /// The VMAs of this space.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Total mapped bytes.
    pub fn footprint(&self) -> u64 {
        self.vmas.iter().map(|v| v.bytes()).sum()
    }

    /// Fraction of the mapped footprint backed by superpages — the metric
    /// of paper Fig. 3.
    pub fn superpage_coverage(&self) -> f64 {
        let mut super_bytes = 0u64;
        let mut total = 0u64;
        for (vpage, _) in self.page_table.iter() {
            total += vpage.size().bytes();
            if vpage.size().is_superpage() {
                super_bytes += vpage.size().bytes();
            }
        }
        if total == 0 {
            0.0
        } else {
            super_bytes as f64 / total as f64
        }
    }

    /// THP allocation statistics.
    pub fn thp_stats(&self) -> ThpStats {
        self.thp_stats
    }

    /// Splinters the superpage containing `va` into base pages, emitting
    /// the invalidation event SEESAW's TFT must observe (§IV-C2). The
    /// backing compound frame is split too, so the base pages can later be
    /// freed or promoted individually.
    ///
    /// # Errors
    /// Fails if `va` is unmapped or mapped with a base page.
    pub fn splinter(
        &mut self,
        pmem: &mut PhysicalMemory,
        va: VirtAddr,
    ) -> Result<PageTableOp, MemError> {
        let t = self
            .page_table
            .translate(va)
            .ok_or(MemError::NotMapped { addr: va })?;
        let op = self.page_table.splinter(t.vpage)?;
        self.frame_owner.remove(&(t.frame.base().raw() / 4096));
        let pieces = pmem.split_page(t.frame)?;
        for (i, piece) in pieces.into_iter().enumerate() {
            let vpage = VirtPage::containing(
                t.vpage.base().offset(i as u64 * PageSize::Base4K.bytes()),
                PageSize::Base4K,
            );
            self.note_map(vpage, piece);
        }
        self.pending_ops.push(op.clone());
        Ok(op)
    }

    /// Promotes the 2 MB region containing `va` (currently base pages)
    /// into a superpage backed by a freshly allocated 2 MB frame, freeing
    /// the old scattered frames — the khugepaged path whose TLB
    /// invalidation the paper extends with an L1 sweep.
    ///
    /// # Errors
    /// Fails if the region is not fully mapped with base pages or no 2 MB
    /// frame can be allocated.
    pub fn promote(
        &mut self,
        pmem: &mut PhysicalMemory,
        va: VirtAddr,
    ) -> Result<PageTableOp, MemError> {
        let region = VirtPage::containing(va, PageSize::Super2M);
        let new_frame = pmem.alloc_page(PageSize::Super2M, FrameState::Movable)?;
        match self.page_table.promote(region, new_frame) {
            Ok((old_frames, op)) => {
                for f in old_frames {
                    self.frame_owner.remove(&(f.base().raw() / 4096));
                    pmem.free_page(f)?;
                }
                self.note_map(region, new_frame);
                self.pending_ops.push(op.clone());
                Ok(op)
            }
            Err(e) => {
                pmem.free_page(new_frame)?;
                Err(e)
            }
        }
    }

    /// Applies compaction relocations: mappings whose backing frame moved
    /// are retargeted; relocations for frames this space does not own are
    /// queued for retrieval via [`AddressSpace::drain_foreign_relocations`].
    pub fn absorb_relocations(&mut self, relocations: Vec<Relocation>) {
        for rel in relocations {
            if let Some(vpage) = self.frame_owner.remove(&rel.old_start) {
                debug_assert_eq!(
                    vpage.size(),
                    PageSize::Base4K,
                    "compaction only migrates sub-2MB blocks"
                );
                let (frame, _) = self.page_table.unmap(vpage).expect("owned mapping exists");
                debug_assert_eq!(frame.base().raw() / 4096, rel.old_start);
                let new_frame = PageFrame::new(
                    PhysAddr::new(rel.new_start * PageSize::Base4K.bytes()),
                    PageSize::Base4K,
                );
                self.page_table
                    .map(vpage, new_frame)
                    .expect("remap of migrated page");
                self.note_map(vpage, new_frame);
                // Hardware must invalidate the stale translation.
                self.pending_ops.push(PageTableOp::Unmapped(vpage));
                self.pending_ops.push(PageTableOp::Mapped(vpage));
            } else {
                self.pending_relocations.push(rel);
            }
        }
    }

    /// Relocations produced during this space's allocations that belong to
    /// other physical-block owners (e.g. a co-running memhog).
    pub fn drain_foreign_relocations(&mut self) -> Vec<Relocation> {
        std::mem::take(&mut self.pending_relocations)
    }

    /// Hardware-visible page-table events since the last drain (TLB/TFT
    /// invalidations and promotion sweeps consume these).
    pub fn drain_ops(&mut self) -> Vec<PageTableOp> {
        std::mem::take(&mut self.pending_ops)
    }

    /// Unmaps an entire VMA and releases its frames.
    ///
    /// # Errors
    /// Fails if `vma` is not one of this space's areas.
    pub fn munmap(&mut self, pmem: &mut PhysicalMemory, vma: Vma) -> Result<(), MemError> {
        let idx = self
            .vmas
            .iter()
            .position(|v| v == &vma)
            .ok_or(MemError::NotMapped { addr: vma.base() })?;
        self.vmas.remove(idx);
        let mut cursor = vma.base();
        while cursor < vma.end() {
            let t = self
                .page_table
                .translate(cursor)
                .ok_or(MemError::NotMapped { addr: cursor })?;
            let (frame, op) = self.page_table.unmap(t.vpage)?;
            self.frame_owner.remove(&(frame.base().raw() / 4096));
            pmem.free_page(frame)?;
            self.pending_ops.push(op);
            cursor = t.vpage.base().offset(t.vpage.size().bytes());
        }
        Ok(())
    }

    fn note_map(&mut self, vpage: VirtPage, frame: PageFrame) {
        self.frame_owner
            .insert(frame.base().raw() / PageSize::Base4K.bytes(), vpage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_population_and_translation() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(7);
        let vma = space
            .mmap_anonymous(&mut pmem, 8 << 20, ThpPolicy::Always)
            .unwrap();
        assert_eq!(space.footprint(), 8 << 20);
        // Every byte of the VMA translates.
        let mut va = vma.base();
        while va < vma.end() {
            assert!(space.translate(va).is_some(), "hole at {va}");
            va = va.offset(4096);
        }
        assert_eq!(space.asid(), 7);
    }

    #[test]
    fn coverage_full_when_unfragmented() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        space
            .mmap_anonymous(&mut pmem, 16 << 20, ThpPolicy::Always)
            .unwrap();
        assert_eq!(space.superpage_coverage(), 1.0);
    }

    #[test]
    fn coverage_zero_with_thp_never() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        space
            .mmap_anonymous(&mut pmem, 4 << 20, ThpPolicy::Never)
            .unwrap();
        assert_eq!(space.superpage_coverage(), 0.0);
    }

    #[test]
    fn splinter_then_promote_roundtrip() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_anonymous(&mut pmem, 4 << 20, ThpPolicy::Always)
            .unwrap();
        let va = vma.base().offset(0x1234);
        let pa_before = space.translate(va).unwrap().pa;

        let op = space.splinter(&mut pmem, va).unwrap();
        assert!(matches!(op, PageTableOp::Splintered(_)));
        assert_eq!(space.translate(va).unwrap().page_size, PageSize::Base4K);
        assert_eq!(space.translate(va).unwrap().pa, pa_before);
        assert!(space.superpage_coverage() < 1.0);

        let op = space.promote(&mut pmem, va).unwrap();
        assert!(matches!(op, PageTableOp::Promoted { .. }));
        let t = space.translate(va).unwrap();
        assert_eq!(t.page_size, PageSize::Super2M);
        // Data migrated to a new frame: page offset preserved.
        assert_eq!(
            t.pa.page_offset(PageSize::Super2M),
            va.page_offset(PageSize::Super2M)
        );
        assert_eq!(space.superpage_coverage(), 1.0);
    }

    #[test]
    fn splintering_a_base_page_fails() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_anonymous(&mut pmem, 1 << 20, ThpPolicy::Never)
            .unwrap();
        assert!(space.splinter(&mut pmem, vma.base()).is_err());
    }

    #[test]
    fn munmap_releases_memory() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let free0 = pmem.free_bytes();
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_anonymous(&mut pmem, 8 << 20, ThpPolicy::Always)
            .unwrap();
        assert!(pmem.free_bytes() < free0);
        space.munmap(&mut pmem, vma).unwrap();
        assert_eq!(pmem.free_bytes(), free0);
        assert!(space.translate(vma.base()).is_none());
    }

    #[test]
    fn ops_stream_reports_events() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_anonymous(&mut pmem, 2 << 20, ThpPolicy::Always)
            .unwrap();
        let ops = space.drain_ops();
        assert!(ops.iter().any(|op| matches!(op, PageTableOp::Mapped(_))));
        space.splinter(&mut pmem, vma.base()).unwrap();
        let ops = space.drain_ops();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], PageTableOp::Splintered(_)));
    }

    #[test]
    fn hugetlb_maps_1gb_pages() {
        let mut pmem = PhysicalMemory::new(4 << 30);
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_hugetlb(&mut pmem, 2 << 30, PageSize::Super1G)
            .unwrap();
        let t = space.translate(vma.base().offset(0x1234_5678)).unwrap();
        assert_eq!(t.page_size, PageSize::Super1G);
        // 1 GB pages preserve the low 30 bits.
        assert_eq!(
            t.pa.page_offset(PageSize::Super1G),
            vma.base()
                .offset(0x1234_5678)
                .page_offset(PageSize::Super1G)
        );
        assert_eq!(space.superpage_coverage(), 1.0);
    }

    #[test]
    fn hugetlb_has_no_fallback() {
        // 512 MB of physical memory cannot back a 1 GB page.
        let mut pmem = PhysicalMemory::new(512 << 20);
        let mut space = AddressSpace::new(1);
        let err = space
            .mmap_hugetlb(&mut pmem, 1 << 30, PageSize::Super1G)
            .unwrap_err();
        assert!(matches!(
            err,
            MemError::OutOfMemory { .. } | MemError::Fragmented { .. }
        ));
        assert_eq!(space.footprint(), 0, "failed mmap leaves no VMA behind");
    }

    #[test]
    fn distinct_vmas_do_not_overlap() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        let a = space
            .mmap_anonymous(&mut pmem, 3 << 20, ThpPolicy::Always)
            .unwrap();
        let b = space
            .mmap_anonymous(&mut pmem, 3 << 20, ThpPolicy::Always)
            .unwrap();
        assert!(a.end() <= b.base() || b.end() <= a.base());
        assert!(!a.contains(b.base()));
    }
}
