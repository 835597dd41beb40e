//! Set-associative TLB for a single page size — the organization Intel
//! uses for its split L1 TLBs and unified L2 TLB (§II-B).

use seesaw_mem::{PageSize, PhysAddr, VirtAddr, VirtPage};

use crate::{TlbEntry, TlbStats};

/// A set-associative, single-page-size TLB with true-LRU replacement.
///
/// Entry state lives in dense parallel arrays indexed by
/// `set * ways + way` (vpn / frame / asid / valid), and recency is a flat
/// stamp array instead of per-set order vectors: the LRU victim is the
/// minimum stamp, which is only ever consulted when every way in the set
/// is occupied (and therefore stamped), so it selects exactly the way a
/// most-recent-first order list would.
///
/// # Example
/// ```
/// use seesaw_tlb::SetAssocTlb;
/// use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
/// use seesaw_tlb::TlbEntry;
///
/// let mut tlb = SetAssocTlb::new(64, 4, PageSize::Base4K);
/// let entry = TlbEntry {
///     vpn: 0x123, frame_base: PhysAddr::new(0x456000),
///     size: PageSize::Base4K, asid: 0,
/// };
/// tlb.fill(entry);
/// assert!(tlb.lookup(VirtAddr::new(0x123_04c), 0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTlb {
    size: PageSize,
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (index by AND),
    /// zero otherwise (index by modulo).
    set_mask: usize,
    /// Virtual page numbers, `sets × ways`.
    vpns: Vec<u64>,
    /// Frame base addresses (raw), parallel to `vpns`.
    frames: Vec<u64>,
    /// Address-space identifiers, parallel to `vpns`.
    asids: Vec<u16>,
    /// Occupancy flags, parallel to `vpns`.
    valid: Vec<bool>,
    /// Recency stamps (higher = more recent), parallel to `vpns`.
    stamps: Vec<u64>,
    clock: u64,
    stats: TlbStats,
}

impl SetAssocTlb {
    /// Creates a TLB with `entries` total capacity and `ways` associativity.
    ///
    /// # Panics
    /// Panics unless `entries` is a positive multiple of `ways`.
    pub fn new(entries: usize, ways: usize, size: PageSize) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must divide by ways"
        );
        let sets = entries / ways;
        assert!(sets > 0, "need at least one set");
        Self {
            size,
            sets,
            ways,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            vpns: vec![0; entries],
            frames: vec![0; entries],
            asids: vec![0; entries],
            valid: vec![false; entries],
            stamps: vec![0; entries],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// The page size this TLB caches.
    pub fn page_size(&self) -> PageSize {
        self.size
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of currently valid entries — drives SEESAW's scheduler-hint
    /// occupancy counter (§IV-B3).
    pub fn valid_entries(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Looks up a translation, updating LRU and counters on hit.
    pub fn lookup(&mut self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        let vpn = va.page_number(self.size);
        let base = self.set_of_vpn(vpn) * self.ways;
        for idx in base..base + self.ways {
            if self.valid[idx] && self.vpns[idx] == vpn && self.asids[idx] == asid {
                self.clock += 1;
                self.stamps[idx] = self.clock;
                self.stats.hits += 1;
                return Some(self.entry_at(idx));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Checks for a translation without updating LRU or counters.
    pub fn probe(&self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        let vpn = va.page_number(self.size);
        let base = self.set_of_vpn(vpn) * self.ways;
        (base..base + self.ways)
            .find(|&idx| self.valid[idx] && self.vpns[idx] == vpn && self.asids[idx] == asid)
            .map(|idx| self.entry_at(idx))
    }

    /// Inserts an entry, evicting the LRU way if the set is full. Returns
    /// the evicted entry, if any.
    ///
    /// # Panics
    /// Panics if the entry's page size differs from this TLB's.
    pub fn fill(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        assert_eq!(entry.size, self.size, "page size mismatch on fill");
        let set = self.set_of_vpn(entry.vpn);
        let base = set * self.ways;
        // Refill over an existing entry for the same page, or an empty way,
        // or the LRU way (minimum stamp: every way is stamped once the set
        // is full, so this is the least-recently-touched way).
        let idx = (base..base + self.ways)
            .find(|&i| self.valid[i] && self.vpns[i] == entry.vpn && self.asids[i] == entry.asid)
            .or_else(|| (base..base + self.ways).find(|&i| !self.valid[i]))
            .unwrap_or_else(|| {
                (base..base + self.ways)
                    .min_by_key(|&i| self.stamps[i])
                    .expect("at least one way")
            });
        let evicted = (self.valid[idx]
            && (self.vpns[idx] != entry.vpn || self.asids[idx] != entry.asid))
            .then(|| self.entry_at(idx));
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        self.vpns[idx] = entry.vpn;
        self.frames[idx] = entry.frame_base.raw();
        self.asids[idx] = entry.asid;
        self.valid[idx] = true;
        self.clock += 1;
        self.stamps[idx] = self.clock;
        self.stats.fills += 1;
        evicted
    }

    /// Removes any entry covering `page` (the `invlpg` path).
    pub fn invalidate_page(&mut self, page: VirtPage) {
        if page.size() != self.size {
            return;
        }
        let vpn = page.number();
        let base = self.set_of_vpn(vpn) * self.ways;
        for idx in base..base + self.ways {
            if self.valid[idx] && self.vpns[idx] == vpn {
                self.valid[idx] = false;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Removes every entry.
    pub fn flush(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        self.stats.flushes += 1;
    }

    /// Removes every entry belonging to `asid` (context teardown).
    pub fn flush_asid(&mut self, asid: u16) {
        for idx in 0..self.valid.len() {
            if self.valid[idx] && self.asids[idx] == asid {
                self.valid[idx] = false;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Access counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    #[inline]
    fn set_of_vpn(&self, vpn: u64) -> usize {
        if self.set_mask != 0 {
            (vpn as usize) & self.set_mask
        } else {
            (vpn as usize) % self.sets
        }
    }

    #[inline]
    fn entry_at(&self, idx: usize) -> TlbEntry {
        TlbEntry {
            vpn: self.vpns[idx],
            frame_base: PhysAddr::new(self.frames[idx]),
            size: self.size,
            asid: self.asids[idx],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::PhysAddr;

    fn entry(vpn: u64, asid: u16, size: PageSize) -> TlbEntry {
        TlbEntry {
            vpn,
            frame_base: PhysAddr::new(vpn << size.offset_bits()),
            size,
            asid,
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut tlb = SetAssocTlb::new(16, 4, PageSize::Base4K);
        tlb.fill(entry(0x42, 0, PageSize::Base4K));
        let va = VirtAddr::new(0x42_123);
        assert!(tlb.lookup(va, 0).is_some());
        assert!(tlb.lookup(va, 1).is_none(), "different ASID must miss");
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single set of 2 ways: fill A, B, touch A, fill C → B evicted.
        let mut tlb = SetAssocTlb::new(2, 2, PageSize::Base4K);
        let (a, b, c) = (
            entry(0x10, 0, PageSize::Base4K),
            entry(0x20, 0, PageSize::Base4K),
            entry(0x30, 0, PageSize::Base4K),
        );
        tlb.fill(a);
        tlb.fill(b);
        assert!(tlb.lookup(VirtAddr::new(0x10_000), 0).is_some()); // touch A
        let evicted = tlb.fill(c).expect("set full, someone evicted");
        assert_eq!(evicted.vpn, 0x20, "LRU (B) must go");
        assert!(tlb.probe(VirtAddr::new(0x10_000), 0).is_some());
        assert!(tlb.probe(VirtAddr::new(0x30_000), 0).is_some());
    }

    #[test]
    fn refill_same_page_does_not_evict() {
        let mut tlb = SetAssocTlb::new(2, 2, PageSize::Base4K);
        tlb.fill(entry(0x10, 0, PageSize::Base4K));
        assert!(tlb.fill(entry(0x10, 0, PageSize::Base4K)).is_none());
        assert_eq!(tlb.valid_entries(), 1);
    }

    #[test]
    fn invalidate_page_is_targeted() {
        let mut tlb = SetAssocTlb::new(16, 4, PageSize::Super2M);
        tlb.fill(entry(0x1, 0, PageSize::Super2M));
        tlb.fill(entry(0x2, 0, PageSize::Super2M));
        let page = VirtPage::containing(
            VirtAddr::new(1 << PageSize::Super2M.offset_bits()),
            PageSize::Super2M,
        );
        tlb.invalidate_page(page);
        assert!(tlb.probe(VirtAddr::new(0x20_0000), 0).is_none());
        assert!(tlb.probe(VirtAddr::new(0x40_0000), 0).is_some());
        assert_eq!(tlb.stats().invalidations, 1);
    }

    #[test]
    fn wrong_size_invalidation_is_ignored() {
        let mut tlb = SetAssocTlb::new(16, 4, PageSize::Base4K);
        tlb.fill(entry(0x200, 0, PageSize::Base4K));
        let page2m = VirtPage::containing(VirtAddr::new(0x20_0000), PageSize::Super2M);
        tlb.invalidate_page(page2m);
        assert_eq!(tlb.valid_entries(), 1);
    }

    #[test]
    fn flush_asid_spares_other_contexts() {
        let mut tlb = SetAssocTlb::new(16, 4, PageSize::Base4K);
        tlb.fill(entry(0x10, 1, PageSize::Base4K));
        tlb.fill(entry(0x11, 2, PageSize::Base4K));
        tlb.flush_asid(1);
        assert_eq!(tlb.valid_entries(), 1);
        assert!(tlb.probe(VirtAddr::new(0x11_000), 2).is_some());
    }

    #[test]
    fn occupancy_counter_tracks_fills_and_flush() {
        let mut tlb = SetAssocTlb::new(16, 4, PageSize::Super2M);
        assert_eq!(tlb.valid_entries(), 0);
        for i in 0..5 {
            tlb.fill(entry(i, 0, PageSize::Super2M));
        }
        assert_eq!(tlb.valid_entries(), 5);
        tlb.flush();
        assert_eq!(tlb.valid_entries(), 0);
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    #[should_panic(expected = "page size mismatch")]
    fn filling_wrong_size_panics() {
        let mut tlb = SetAssocTlb::new(16, 4, PageSize::Base4K);
        tlb.fill(entry(0x1, 0, PageSize::Super2M));
    }
}
