//! A multi-size page table.
//!
//! Maps virtual pages of any supported size to physical frames and supports
//! the two structural updates the paper must handle correctly (§IV-C2):
//! **splintering** a superpage into base pages and **promoting** a run of
//! base pages into a superpage. Both return [`PageTableOp`] events so the
//! TLB hierarchy and the SEESAW Translation Filter Table can invalidate
//! stale entries, exactly as the paper piggybacks on `invlpg`.

use std::collections::BTreeMap;

use crate::{MemError, PageFrame, PageSize, PhysAddr, VirtAddr, VirtPage};

/// The result of translating a virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated physical address.
    pub pa: PhysAddr,
    /// Size of the page that provided the mapping.
    pub page_size: PageSize,
    /// Base address of the containing virtual page.
    pub vpage: VirtPage,
    /// The physical frame backing the page.
    pub frame: PageFrame,
}

/// A structural page-table change that hardware translation structures
/// must observe (TLB + TFT invalidations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageTableOp {
    /// A new page was mapped.
    Mapped(VirtPage),
    /// A page was unmapped; `invlpg`-style invalidation required.
    Unmapped(VirtPage),
    /// A superpage was splintered into base pages. The TFT entry tagged with
    /// this 2 MB (or 1 GB) virtual page must be invalidated.
    Splintered(VirtPage),
    /// Base pages were promoted into this superpage. The paper's extended
    /// TLB-invalidation instruction additionally sweeps the L1 cache,
    /// evicting lines of the old (pre-migration) frames listed here.
    Promoted {
        /// The new superpage.
        page: VirtPage,
        /// The scattered base-page frames the data migrated out of.
        old_frames: Vec<PageFrame>,
    },
}

/// A per-process page table supporting 4 KB, 2 MB, and 1 GB mappings.
///
/// # Example
/// ```
/// use seesaw_mem::{PageTable, PageFrame, PageSize, PhysAddr, VirtAddr, VirtPage};
/// let mut pt = PageTable::new();
/// let vpage = VirtPage::containing(VirtAddr::new(0x20_0000), PageSize::Super2M);
/// let frame = PageFrame::new(PhysAddr::new(0x40_0000), PageSize::Super2M);
/// pt.map(vpage, frame)?;
/// let t = pt.translate(VirtAddr::new(0x20_1234)).unwrap();
/// assert_eq!(t.pa, PhysAddr::new(0x40_1234));
/// assert_eq!(t.page_size, PageSize::Super2M);
/// # Ok::<(), seesaw_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Per-size maps from virtual page number to physical frame base.
    maps: [BTreeMap<u64, PhysAddr>; 3],
}

fn size_index(size: PageSize) -> usize {
    match size {
        PageSize::Base4K => 0,
        PageSize::Super2M => 1,
        PageSize::Super1G => 2,
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a virtual page to a physical frame of the same size.
    ///
    /// # Errors
    /// Returns [`MemError::AlreadyMapped`] if any address in the page is
    /// already mapped (at any size).
    ///
    /// # Panics
    /// Panics if the page and frame sizes differ.
    pub fn map(&mut self, vpage: VirtPage, frame: PageFrame) -> Result<PageTableOp, MemError> {
        assert_eq!(
            vpage.size(),
            frame.size(),
            "page/frame size mismatch: {} vs {}",
            vpage.size(),
            frame.size()
        );
        if self.overlaps(vpage) {
            return Err(MemError::AlreadyMapped { addr: vpage.base() });
        }
        self.maps[size_index(vpage.size())].insert(vpage.number(), frame.base());
        Ok(PageTableOp::Mapped(vpage))
    }

    /// Removes the mapping for a virtual page.
    ///
    /// # Errors
    /// Returns [`MemError::NotMapped`] if no mapping of that exact size
    /// exists at that address.
    pub fn unmap(&mut self, vpage: VirtPage) -> Result<(PageFrame, PageTableOp), MemError> {
        let map = &mut self.maps[size_index(vpage.size())];
        match map.remove(&vpage.number()) {
            Some(base) => Ok((
                PageFrame::new(base, vpage.size()),
                PageTableOp::Unmapped(vpage),
            )),
            None => Err(MemError::NotMapped { addr: vpage.base() }),
        }
    }

    /// Translates a virtual address, preferring the largest mapping.
    ///
    /// Returns `None` on a page fault (unmapped address).
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        for size in [PageSize::Super1G, PageSize::Super2M, PageSize::Base4K] {
            let vpn = va.page_number(size);
            if let Some(&frame_base) = self.maps[size_index(size)].get(&vpn) {
                return Some(Translation {
                    pa: PhysAddr::new(frame_base.raw() + va.page_offset(size)),
                    page_size: size,
                    vpage: VirtPage::containing(va, size),
                    frame: PageFrame::new(frame_base, size),
                });
            }
        }
        None
    }

    /// Splinters a superpage mapping into base-page mappings over the same
    /// physical frame (no data movement; physical addresses are unchanged).
    ///
    /// # Errors
    /// Returns [`MemError::NotMapped`] if the superpage is not mapped and
    /// [`MemError::WrongPageSize`] if `vpage` is a base page.
    pub fn splinter(&mut self, vpage: VirtPage) -> Result<PageTableOp, MemError> {
        if !vpage.size().is_superpage() {
            return Err(MemError::WrongPageSize {
                found: vpage.size(),
                expected: PageSize::Super2M,
            });
        }
        let map = &mut self.maps[size_index(vpage.size())];
        let Some(frame_base) = map.remove(&vpage.number()) else {
            return Err(MemError::NotMapped { addr: vpage.base() });
        };
        let base_map = &mut self.maps[size_index(PageSize::Base4K)];
        let count = vpage.size().base_pages();
        let first_vpn = vpage.base().page_number(PageSize::Base4K);
        for i in 0..count {
            base_map.insert(
                first_vpn + i,
                PhysAddr::new(frame_base.raw() + i * PageSize::Base4K.bytes()),
            );
        }
        Ok(PageTableOp::Splintered(vpage))
    }

    /// Promotes the base pages covering `vpage` into a single superpage
    /// mapping backed by `new_frame`. The caller is responsible for
    /// migrating data into the new frame and freeing the old frames — this
    /// models the OS promotion path (khugepaged) that copies scattered 4 KB
    /// frames into a freshly allocated 2 MB frame.
    ///
    /// # Errors
    /// Returns [`MemError::NotMapped`] unless *all* base pages in the
    /// region are currently mapped, and [`MemError::WrongPageSize`] if
    /// `vpage` is not a superpage.
    pub fn promote(
        &mut self,
        vpage: VirtPage,
        new_frame: PageFrame,
    ) -> Result<(Vec<PageFrame>, PageTableOp), MemError> {
        if !vpage.size().is_superpage() {
            return Err(MemError::WrongPageSize {
                found: vpage.size(),
                expected: PageSize::Super2M,
            });
        }
        assert_eq!(
            vpage.size(),
            new_frame.size(),
            "promotion frame size mismatch"
        );
        let count = vpage.size().base_pages();
        let first_vpn = vpage.base().page_number(PageSize::Base4K);
        let base_map = &self.maps[size_index(PageSize::Base4K)];
        // All constituent base pages must be present before we mutate.
        for i in 0..count {
            if !base_map.contains_key(&(first_vpn + i)) {
                return Err(MemError::NotMapped {
                    addr: vpage.base().offset(i * PageSize::Base4K.bytes()),
                });
            }
        }
        let base_map = &mut self.maps[size_index(PageSize::Base4K)];
        let mut old_frames = Vec::with_capacity(count as usize);
        for i in 0..count {
            let pa = base_map.remove(&(first_vpn + i)).expect("checked above");
            old_frames.push(PageFrame::new(pa, PageSize::Base4K));
        }
        self.maps[size_index(vpage.size())].insert(vpage.number(), new_frame.base());
        let op = PageTableOp::Promoted {
            page: vpage,
            old_frames: old_frames.clone(),
        };
        Ok((old_frames, op))
    }

    /// Number of mappings at each page size `(4K, 2M, 1G)`.
    pub fn mapping_counts(&self) -> (usize, usize, usize) {
        (self.maps[0].len(), self.maps[1].len(), self.maps[2].len())
    }

    /// Iterates all mappings as `(VirtPage, PageFrame)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, PageFrame)> + '_ {
        PageSize::ALL.into_iter().flat_map(move |size| {
            self.maps[size_index(size)].iter().map(move |(&vpn, &pa)| {
                (
                    VirtPage::containing(VirtAddr::new(vpn << size.offset_bits()), size),
                    PageFrame::new(pa, size),
                )
            })
        })
    }

    /// True if any part of `vpage` is already mapped at any size.
    fn overlaps(&self, vpage: VirtPage) -> bool {
        let start = vpage.base().raw();
        let end = start + vpage.size().bytes();
        for size in PageSize::ALL {
            let map = &self.maps[size_index(size)];
            // A mapped page of `size` overlaps [start, end) iff its base is
            // in [start - (size-1), end).
            let lo = (start >> size.offset_bits())
                .saturating_sub(0)
                .max(start.saturating_sub(size.bytes() - 1) >> size.offset_bits());
            let hi = end.div_ceil(size.bytes());
            if map.range(lo..hi).next().is_some() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(pa: u64, size: PageSize) -> PageFrame {
        PageFrame::new(PhysAddr::new(pa), size)
    }
    fn vpage(va: u64, size: PageSize) -> VirtPage {
        VirtPage::containing(VirtAddr::new(va), size)
    }

    #[test]
    fn base_page_translation() {
        let mut pt = PageTable::new();
        pt.map(
            vpage(0x1000, PageSize::Base4K),
            frame(0x8000, PageSize::Base4K),
        )
        .unwrap();
        let t = pt.translate(VirtAddr::new(0x1abc)).unwrap();
        assert_eq!(t.pa.raw(), 0x8abc);
        assert_eq!(t.page_size, PageSize::Base4K);
        assert!(pt.translate(VirtAddr::new(0x2000)).is_none());
    }

    #[test]
    fn superpage_translation_preserves_low_21_bits() {
        let mut pt = PageTable::new();
        pt.map(
            vpage(0x4000_0000, PageSize::Super2M),
            frame(0x1260_0000, PageSize::Super2M),
        )
        .unwrap();
        let va = VirtAddr::new(0x4012_3456);
        let t = pt.translate(va).unwrap();
        // For superpages, VA bits 20:0 equal PA bits 20:0 — the property
        // SEESAW's partition indexing relies on.
        assert_eq!(
            t.pa.page_offset(PageSize::Super2M),
            va.page_offset(PageSize::Super2M)
        );
    }

    #[test]
    fn overlapping_map_rejected() {
        let mut pt = PageTable::new();
        pt.map(
            vpage(0x20_0000, PageSize::Super2M),
            frame(0x20_0000, PageSize::Super2M),
        )
        .unwrap();
        // A base page inside the superpage region must be rejected.
        let err = pt
            .map(
                vpage(0x20_1000, PageSize::Base4K),
                frame(0x0, PageSize::Base4K),
            )
            .unwrap_err();
        assert!(matches!(err, MemError::AlreadyMapped { .. }));
        // And a superpage overlapping an existing base page too.
        let mut pt = PageTable::new();
        pt.map(
            vpage(0x20_1000, PageSize::Base4K),
            frame(0x0, PageSize::Base4K),
        )
        .unwrap();
        let err = pt
            .map(
                vpage(0x20_0000, PageSize::Super2M),
                frame(0x20_0000, PageSize::Super2M),
            )
            .unwrap_err();
        assert!(matches!(err, MemError::AlreadyMapped { .. }));
    }

    #[test]
    fn splinter_preserves_physical_addresses() {
        let mut pt = PageTable::new();
        let vp = vpage(0x4000_0000, PageSize::Super2M);
        pt.map(vp, frame(0x1260_0000, PageSize::Super2M)).unwrap();
        let before = pt.translate(VirtAddr::new(0x4012_3456)).unwrap().pa;
        let op = pt.splinter(vp).unwrap();
        assert_eq!(op, PageTableOp::Splintered(vp));
        let after = pt.translate(VirtAddr::new(0x4012_3456)).unwrap();
        assert_eq!(after.pa, before, "splintering must not move data");
        assert_eq!(after.page_size, PageSize::Base4K);
        let (n4k, n2m, _) = pt.mapping_counts();
        assert_eq!((n4k, n2m), (512, 0));
    }

    #[test]
    fn splinter_base_page_rejected() {
        let mut pt = PageTable::new();
        let vp = vpage(0x1000, PageSize::Base4K);
        pt.map(vp, frame(0x8000, PageSize::Base4K)).unwrap();
        assert!(matches!(
            pt.splinter(vp),
            Err(MemError::WrongPageSize { .. })
        ));
    }

    #[test]
    fn promote_replaces_base_pages() {
        let mut pt = PageTable::new();
        let region = vpage(0x20_0000, PageSize::Super2M);
        for i in 0..512u64 {
            pt.map(
                vpage(0x20_0000 + i * 4096, PageSize::Base4K),
                // Scattered physical frames (reverse order) — promotion
                // must migrate, not assume contiguity.
                frame(0x800_0000 + (511 - i) * 4096, PageSize::Base4K),
            )
            .unwrap();
        }
        let new_frame = frame(0x1000_0000, PageSize::Super2M);
        let (old, op) = pt.promote(region, new_frame).unwrap();
        match &op {
            PageTableOp::Promoted { page, old_frames } => {
                assert_eq!(*page, region);
                assert_eq!(old_frames.len(), 512);
            }
            other => panic!("expected Promoted, got {other:?}"),
        }
        assert_eq!(old.len(), 512);
        let t = pt.translate(VirtAddr::new(0x20_0000 + 0x1234)).unwrap();
        assert_eq!(t.page_size, PageSize::Super2M);
        assert_eq!(t.pa.raw(), 0x1000_0000 + 0x1234);
    }

    #[test]
    fn promote_with_hole_rejected() {
        let mut pt = PageTable::new();
        let region = vpage(0x20_0000, PageSize::Super2M);
        for i in 0..511u64 {
            pt.map(
                vpage(0x20_0000 + i * 4096, PageSize::Base4K),
                frame(0x800_0000 + i * 4096, PageSize::Base4K),
            )
            .unwrap();
        }
        let err = pt
            .promote(region, frame(0x1000_0000, PageSize::Super2M))
            .unwrap_err();
        assert!(matches!(err, MemError::NotMapped { .. }));
        // Page table unchanged by the failed promotion.
        assert_eq!(pt.mapping_counts().0, 511);
    }

    #[test]
    fn unmap_returns_frame() {
        let mut pt = PageTable::new();
        let vp = vpage(0x1000, PageSize::Base4K);
        pt.map(vp, frame(0x8000, PageSize::Base4K)).unwrap();
        let (f, op) = pt.unmap(vp).unwrap();
        assert_eq!(f.base().raw(), 0x8000);
        assert_eq!(op, PageTableOp::Unmapped(vp));
        assert!(pt.translate(VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    fn iter_covers_all_sizes() {
        let mut pt = PageTable::new();
        pt.map(
            vpage(0x1000, PageSize::Base4K),
            frame(0x8000, PageSize::Base4K),
        )
        .unwrap();
        pt.map(
            vpage(0x4000_0000, PageSize::Super2M),
            frame(0x20_0000, PageSize::Super2M),
        )
        .unwrap();
        let pairs: Vec<_> = pt.iter().collect();
        assert_eq!(pairs.len(), 2);
    }
}
