//! Fully-associative TLB holding multiple page sizes concurrently — the
//! organization the paper attributes to ARM and Sparc L1 TLBs (§II-B).

use seesaw_mem::{VirtAddr, VirtPage};

use crate::{TlbEntry, TlbStats};

/// A fully-associative, multi-page-size TLB with true-LRU replacement.
///
/// Entries are stored unordered with a parallel recency-stamp array
/// instead of a most-recent-first vector, so a touch is a stamp write
/// rather than a `remove` + `insert(0)` memmove. Recency order is fully
/// encoded in the stamps: the hit entry is the highest-stamped match
/// (what a front-to-back scan of an MRU-ordered list would return, even
/// when multiple page sizes overlap a VA) and the eviction victim is the
/// minimum stamp (the list's tail).
///
/// # Example
/// ```
/// use seesaw_tlb::{FullyAssocTlb, TlbEntry};
/// use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
///
/// let mut tlb = FullyAssocTlb::new(32);
/// tlb.fill(TlbEntry {
///     vpn: 1, frame_base: PhysAddr::new(0x20_0000),
///     size: PageSize::Super2M, asid: 0,
/// });
/// // Any address inside the 2 MB page hits.
/// assert!(tlb.lookup(VirtAddr::new(0x3f_ffff), 0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocTlb {
    capacity: usize,
    /// Entries, unordered; recency lives in `stamps`.
    entries: Vec<TlbEntry>,
    /// Recency stamp per entry (higher = more recent), parallel to
    /// `entries`.
    stamps: Vec<u64>,
    clock: u64,
    stats: TlbStats,
}

impl FullyAssocTlb {
    /// Creates a TLB holding up to `capacity` entries of any page size.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.len()
    }

    /// Valid entries caching superpage translations.
    pub fn valid_superpage_entries(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.size.is_superpage())
            .count()
    }

    /// Looks up a translation (any page size), updating LRU on hit.
    pub fn lookup(&mut self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        if let Some(pos) = self.mru_match(va, asid) {
            self.clock += 1;
            self.stamps[pos] = self.clock;
            self.stats.hits += 1;
            Some(self.entries[pos])
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Checks for a translation without side effects.
    pub fn probe(&self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        self.mru_match(va, asid).map(|pos| self.entries[pos])
    }

    /// Inserts an entry, evicting the LRU entry when full. Returns the
    /// evicted entry, if any.
    pub fn fill(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.stats.fills += 1;
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.vpn == entry.vpn && e.size == entry.size && e.asid == entry.asid)
        {
            self.entries[pos] = entry;
            self.clock += 1;
            self.stamps[pos] = self.clock;
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.stats.evictions += 1;
            let victim = self.lru_index().expect("full TLB has a victim");
            self.stamps.swap_remove(victim);
            Some(self.entries.swap_remove(victim))
        } else {
            None
        };
        self.entries.push(entry);
        self.clock += 1;
        self.stamps.push(self.clock);
        evicted
    }

    /// Removes any entry covering `page`.
    pub fn invalidate_page(&mut self, page: VirtPage) {
        self.remove_where(|e| e.covers_page(page));
    }

    /// Removes every entry.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.stamps.clear();
        self.stats.flushes += 1;
    }

    /// Removes every entry belonging to `asid`.
    pub fn flush_asid(&mut self, asid: u16) {
        self.remove_where(|e| e.asid == asid);
    }

    /// The index of the most-recently-used entry matching `va` — the entry
    /// a front-to-back scan of an MRU-ordered list would find first.
    fn mru_match(&self, va: VirtAddr, asid: u16) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.matches(va, asid) && best.map(|(_, s)| self.stamps[i] > s).unwrap_or(true) {
                best = Some((i, self.stamps[i]));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The index of the least-recently-used entry.
    fn lru_index(&self) -> Option<usize> {
        (0..self.stamps.len()).min_by_key(|&i| self.stamps[i])
    }

    fn remove_where<F: Fn(&TlbEntry) -> bool>(&mut self, pred: F) {
        let mut i = 0;
        while i < self.entries.len() {
            if pred(&self.entries[i]) {
                self.entries.swap_remove(i);
                self.stamps.swap_remove(i);
                self.stats.invalidations += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Access counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::{PageSize, PhysAddr};

    fn entry(vpn: u64, size: PageSize) -> TlbEntry {
        TlbEntry {
            vpn,
            frame_base: PhysAddr::new(vpn << size.offset_bits()),
            size,
            asid: 0,
        }
    }

    #[test]
    fn mixed_page_sizes_coexist() {
        let mut tlb = FullyAssocTlb::new(8);
        tlb.fill(entry(0x42, PageSize::Base4K));
        tlb.fill(entry(0x1, PageSize::Super2M));
        assert!(tlb.lookup(VirtAddr::new(0x42_080), 0).is_some());
        assert!(tlb.lookup(VirtAddr::new(0x2f_0000), 0).is_some());
        assert_eq!(tlb.valid_superpage_entries(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = FullyAssocTlb::new(2);
        tlb.fill(entry(1, PageSize::Base4K));
        tlb.fill(entry(2, PageSize::Base4K));
        tlb.lookup(VirtAddr::new(1 << 12), 0); // touch vpn 1
        let evicted = tlb.fill(entry(3, PageSize::Base4K)).unwrap();
        assert_eq!(evicted.vpn, 2);
    }

    #[test]
    fn invalidate_only_matching_size() {
        let mut tlb = FullyAssocTlb::new(8);
        tlb.fill(entry(0x200, PageSize::Base4K)); // VA 0x20_0000 as a 4K page
        tlb.fill(entry(0x1, PageSize::Super2M)); // VA 0x20_0000 as a 2M page
        let page = VirtPage::containing(VirtAddr::new(0x20_0000), PageSize::Super2M);
        tlb.invalidate_page(page);
        assert_eq!(tlb.valid_entries(), 1);
        assert_eq!(tlb.valid_superpage_entries(), 0);
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut tlb = FullyAssocTlb::new(4);
        tlb.fill(entry(7, PageSize::Base4K));
        tlb.fill(entry(7, PageSize::Base4K));
        assert_eq!(tlb.valid_entries(), 1);
    }
}
