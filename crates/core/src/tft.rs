//! The Translation Filter Table (§IV-A2, Fig. 5).
//!
//! A direct-mapped list of 2 MB virtual regions known to be backed by
//! superpages. A hit *proves* the access is to a superpage (the table is
//! only ever filled from superpage TLB fills, so it never holds base-page
//! regions); a miss proves nothing and forces the conservative full-set
//! lookup. The default 16 entries cost 86 bytes per core — "roughly the
//! size of an 8-entry L1 TLB".

use seesaw_mem::{PageSize, VirtAddr, VirtPage};

seesaw_trace::counters! {
    /// TFT access counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TftStats {
        /// Lookups that matched a superpage region.
        pub hits: u64,
        /// Lookups that missed.
        pub misses: u64,
        /// Fills (each displaces the slot's previous occupant).
        pub fills: u64,
        /// Targeted invalidations (superpage splintering, `invlpg`).
        pub invalidations: u64,
        /// Full flushes (context switches — the TFT carries no ASIDs, a
        /// deliberate area/performance trade-off, §IV-C3).
        pub flushes: u64,
    }
    derived: hit_rate;
}

impl TftStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The TFT: a direct-mapped table of 2 MB-region tags.
///
/// # Example
/// ```
/// use seesaw_core::TranslationFilterTable;
/// use seesaw_mem::VirtAddr;
///
/// let mut tft = TranslationFilterTable::new(16);
/// let va = VirtAddr::new(0x7f12_3456_7890);
/// assert!(!tft.lookup(va));
/// tft.fill(va);
/// assert!(tft.lookup(va));
/// // Every address in the same 2 MB region hits.
/// assert!(tft.lookup(VirtAddr::new(0x7f12_3450_0000)));
/// ```
#[derive(Debug, Clone)]
pub struct TranslationFilterTable {
    /// Region tags (VA bits 63:21), `None` = invalid.
    slots: Vec<Option<u64>>,
    /// `entries - 1` when the slot count is a power of two (index by
    /// AND), zero otherwise (index by modulo).
    slot_mask: usize,
    stats: TftStats,
}

impl TranslationFilterTable {
    /// Creates a TFT with `entries` slots (the paper sweeps 12–20 and
    /// settles on 16).
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TFT needs at least one entry");
        Self {
            slots: vec![None; entries],
            slot_mask: if entries.is_power_of_two() {
                entries - 1
            } else {
                0
            },
            stats: TftStats::default(),
        }
    }

    #[inline]
    fn slot_of(&self, region: u64) -> usize {
        if self.slot_mask != 0 {
            (region as usize) & self.slot_mask
        } else {
            (region as usize) % self.slots.len()
        }
    }

    /// Number of slots.
    pub fn entries(&self) -> usize {
        self.slots.len()
    }

    /// Storage cost in bytes: each slot holds a 43-bit region tag plus a
    /// valid bit (the paper's 16-entry TFT totals 86 bytes).
    pub fn storage_bytes(&self) -> usize {
        (self.slots.len() * 43).div_ceil(8) + self.slots.len().div_ceil(8)
    }

    /// Predicts whether `va` lies in a superpage-backed region. The
    /// lookup hashes VA bits 63:21 with a simple modulo — "a simple
    /// function that performs VA(64:21) MOD (# of TFT entries) provides
    /// good performance".
    pub fn lookup(&mut self, va: VirtAddr) -> bool {
        let region = va.region_2m();
        let slot = self.slot_of(region);
        let hit = self.slots[slot] == Some(region);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Checks without counting (for assertions and experiments).
    pub fn probe(&self, va: VirtAddr) -> bool {
        let region = va.region_2m();
        self.slots[self.slot_of(region)] == Some(region)
    }

    /// Records that the 2 MB region containing `va` is superpage-backed.
    /// Direct-mapped: "fills kick out the current entry without needing
    /// any replacement policy".
    pub fn fill(&mut self, va: VirtAddr) {
        let region = va.region_2m();
        let slot = self.slot_of(region);
        self.slots[slot] = Some(region);
        self.stats.fills += 1;
    }

    /// Invalidates the entry for a splintered superpage, if present
    /// (piggybacked on the OS's `invlpg`, §IV-C2).
    pub fn invalidate(&mut self, page: VirtPage) {
        debug_assert_eq!(page.size(), PageSize::Super2M, "TFT tracks 2 MB regions");
        let region = page.base().region_2m();
        let slot = self.slot_of(region);
        if self.slots[slot] == Some(region) {
            self.slots[slot] = None;
            self.stats.invalidations += 1;
        }
    }

    /// Flushes everything (context switch; no ASID tags).
    pub fn flush(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.stats.flushes += 1;
    }

    /// Access counters.
    pub fn stats(&self) -> TftStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_entries_cost_86_bytes() {
        let tft = TranslationFilterTable::new(16);
        assert_eq!(tft.storage_bytes(), 88);
        // The paper rounds to 86 B; we store whole bytes per field, so 88.
        // Either way it is under 0.3% of a 32 KB cache.
        assert!(tft.storage_bytes() * 100 < 32 << 10);
    }

    #[test]
    fn fill_then_hit_whole_region() {
        let mut tft = TranslationFilterTable::new(16);
        let va = VirtAddr::new(0x4000_0000);
        tft.fill(va);
        assert!(tft.lookup(VirtAddr::new(0x4000_0000)));
        assert!(tft.lookup(VirtAddr::new(0x401f_ffff)));
        assert!(
            !tft.lookup(VirtAddr::new(0x4020_0000)),
            "next region misses"
        );
        assert_eq!(tft.stats().hits, 2);
        assert_eq!(tft.stats().misses, 1);
    }

    #[test]
    fn conflicting_regions_evict_each_other() {
        let mut tft = TranslationFilterTable::new(16);
        let a = VirtAddr::new(0); // region 0 → slot 0
        let b = VirtAddr::new(16 << 21); // region 16 → slot 0
        tft.fill(a);
        assert!(tft.probe(a));
        tft.fill(b);
        assert!(!tft.probe(a), "direct-mapped conflict evicts");
        assert!(tft.probe(b));
    }

    #[test]
    fn invalidate_on_splinter() {
        let mut tft = TranslationFilterTable::new(16);
        let va = VirtAddr::new(0x4000_0000);
        tft.fill(va);
        let page = VirtPage::containing(va, PageSize::Super2M);
        tft.invalidate(page);
        assert!(!tft.probe(va));
        assert_eq!(tft.stats().invalidations, 1);
        // Invalidating an absent region is a no-op.
        tft.invalidate(page);
        assert_eq!(tft.stats().invalidations, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut tft = TranslationFilterTable::new(8);
        for i in 0..8u64 {
            tft.fill(VirtAddr::new(i << 21));
        }
        tft.flush();
        for i in 0..8u64 {
            assert!(!tft.probe(VirtAddr::new(i << 21)));
        }
        assert_eq!(tft.stats().flushes, 1);
    }

    #[test]
    fn hit_rate_computation() {
        let mut tft = TranslationFilterTable::new(4);
        tft.fill(VirtAddr::new(0));
        tft.lookup(VirtAddr::new(0)); // hit
        tft.lookup(VirtAddr::new(1 << 21)); // miss
        assert!((tft.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
