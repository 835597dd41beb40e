//! TLB entry representation.

use seesaw_mem::{PageSize, PhysAddr, VirtAddr, VirtPage};

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number (at this entry's page size).
    pub vpn: u64,
    /// Base physical address of the backing frame.
    pub frame_base: PhysAddr,
    /// Page size of the mapping.
    pub size: PageSize,
    /// Address-space identifier the entry belongs to.
    pub asid: u16,
}

impl TlbEntry {
    /// Builds an entry from a page-table translation.
    pub fn from_translation(t: &seesaw_mem::Translation, asid: u16) -> Self {
        Self {
            vpn: t.vpage.number(),
            frame_base: t.frame.base(),
            size: t.page_size,
            asid,
        }
    }

    /// True if this entry translates `va` for `asid`.
    #[inline]
    pub fn matches(&self, va: VirtAddr, asid: u16) -> bool {
        self.asid == asid && va.page_number(self.size) == self.vpn
    }

    /// True if this entry caches the translation for the given page.
    #[inline]
    pub fn covers_page(&self, page: VirtPage) -> bool {
        self.size == page.size() && self.vpn == page.number()
    }

    /// Translates a virtual address through this entry.
    ///
    /// # Panics
    /// Debug-asserts that the entry actually covers `va`.
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        debug_assert_eq!(va.page_number(self.size), self.vpn);
        PhysAddr::new(self.frame_base.raw() + va.page_offset(self.size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_2m() -> TlbEntry {
        TlbEntry {
            vpn: 0x200,                             // VA 0x4000_0000
            frame_base: PhysAddr::new(0x1260_0000), // 2MB aligned
            size: PageSize::Super2M,
            asid: 3,
        }
    }

    #[test]
    fn matches_respects_asid() {
        let e = entry_2m();
        let va = VirtAddr::new(0x4012_3456);
        assert!(e.matches(va, 3));
        assert!(!e.matches(va, 4));
        assert!(!e.matches(VirtAddr::new(0x4212_3456), 3));
    }

    #[test]
    fn translate_preserves_offset() {
        let e = entry_2m();
        let va = VirtAddr::new(0x4012_3456);
        assert_eq!(e.translate(va).raw(), 0x1272_3456);
    }

    #[test]
    fn covers_page_requires_same_size() {
        let e = entry_2m();
        let page2m = VirtPage::containing(VirtAddr::new(0x4000_0000), PageSize::Super2M);
        let page4k = VirtPage::containing(VirtAddr::new(0x4000_0000), PageSize::Base4K);
        assert!(e.covers_page(page2m));
        assert!(!e.covers_page(page4k));
    }
}
