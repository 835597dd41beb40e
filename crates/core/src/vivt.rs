//! A virtually-indexed, virtually-tagged L1 — the alternative design the
//! paper repeatedly positions SEESAW against (§II-A, §VII).
//!
//! VIVT caches need no translation before a hit at all, so every hit is
//! fast. The price is the machinery the paper calls out: **synonyms**
//! (multiple virtual addresses naming one physical line) must not create
//! incoherent duplicate copies, and coherence probes arrive with physical
//! addresses that a virtually-tagged array cannot look up directly. This
//! implementation uses the classic back-pointer solution: a reverse map
//! from physical line to its cached virtual alias. A synonym access under
//! a different VA invalidates the old alias and refills under the new one
//! (charging extra probes), and coherence consults the reverse map. That
//! is exactly the "dedicated hardware to track down virtual address
//! synonyms" whose complexity keeps VIPT dominant in practice (§I).

use std::collections::HashMap;

use seesaw_cache::{CacheConfig, CacheStats, IndexPolicy, SetAssocCache, WayMask};
use seesaw_mem::{PageFrame, PageTableOp, PhysAddr};

use crate::{
    DesignStats, FlexibleIndex, L1AccessOutcome, L1DataCache, L1Request, L1Timing, LookupCase,
    PromotionAudit,
};

seesaw_trace::counters! {
    /// Counters for the synonym machinery.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SynonymStats {
        /// Accesses whose VA missed but whose PA was cached under another VA
        /// (a synonym hit → remap).
        pub synonym_remaps: u64,
        /// Coherence probes resolved through the reverse map.
        pub reverse_lookups: u64,
        /// Page-table operations that triggered a back-pointer sweep.
        pub mapping_sweeps: u64,
        /// Lines evicted by those sweeps.
        pub swept_lines: u64,
    }
}

/// The VIVT L1.
///
/// # Example
/// ```
/// use seesaw_core::{L1DataCache, L1Request, L1Timing, VivtL1};
/// use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
///
/// let mut l1 = VivtL1::new(32 << 10, 8, L1Timing { fast_cycles: 1, slow_cycles: 2 });
/// let req = L1Request {
///     va: VirtAddr::new(0x7000_1040),
///     pa: PhysAddr::new(0x8040),
///     page_size: PageSize::Base4K,
///     is_write: false,
/// };
/// l1.access(&req);
/// // A synonym: same physical line under a different virtual address.
/// let alias = L1Request { va: VirtAddr::new(0x9000_1040), ..req };
/// let out = l1.access(&alias);
/// assert!(out.hit, "synonym hardware finds the line");
/// assert_eq!(l1.synonym_stats().synonym_remaps, 1);
/// ```
#[derive(Debug, Clone)]
pub struct VivtL1 {
    config: CacheConfig,
    timing: L1Timing,
    /// The array, tagged with *virtual* line addresses.
    cache: SetAssocCache,
    /// Reverse map: physical line → the virtual line it is cached under.
    /// Real designs keep these back-pointers alongside the L2 copy.
    reverse: HashMap<u64, u64>,
    /// Forward record of each cached virtual line's physical line, for
    /// writebacks and eviction bookkeeping.
    forward: HashMap<u64, u64>,
    stats: SynonymStats,
    /// Cached geometry so the per-access path never re-derives it.
    full: WayMask,
    /// Set of a virtual *line* address.
    index: FlexibleIndex,
}

impl VivtL1 {
    /// Builds a VIVT L1 of `size_bytes` with the given associativity.
    /// Every hit completes in `timing.fast_cycles` — no TLB involved.
    pub fn new(size_bytes: u64, ways: usize, timing: L1Timing) -> Self {
        let config = CacheConfig::new(size_bytes, ways, 64, IndexPolicy::Vivt);
        Self {
            cache: SetAssocCache::new(config),
            reverse: HashMap::new(),
            forward: HashMap::new(),
            config,
            timing,
            stats: SynonymStats::default(),
            full: WayMask::all(ways),
            index: FlexibleIndex::new(config.sets(), 1, true),
        }
    }

    #[inline]
    fn set_of_line(&self, line: u64) -> usize {
        self.index.set_of_raw(line)
    }

    /// Synonym-machinery counters.
    pub fn synonym_stats(&self) -> SynonymStats {
        self.stats
    }

    /// Every physical line the back-pointer maps currently reference —
    /// the audit surface the differential checker scans for mappings that
    /// outlived their frames.
    pub fn mapped_plines(&self) -> impl Iterator<Item = u64> + '_ {
        self.reverse.keys().copied()
    }

    fn sweep_vlines<F: Fn(u64) -> bool>(&mut self, pred: F) {
        let stale: Vec<u64> = self.forward.keys().copied().filter(|&v| pred(v)).collect();
        if !stale.is_empty() {
            self.stats.mapping_sweeps += 1;
        }
        for vline in stale {
            self.stats.swept_lines += 1;
            self.evict_alias(vline);
        }
    }

    fn vline(&self, req: &L1Request) -> u64 {
        req.va.raw() / self.config.line_bytes
    }

    fn evict_alias(&mut self, vline: u64) {
        let set = self.set_of_line(vline);
        self.cache.coherence_probe(set, vline, self.full, true);
        if let Some(pline) = self.forward.remove(&vline) {
            self.reverse.remove(&pline);
        }
    }
}

impl L1DataCache for VivtL1 {
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome {
        let vline = self.vline(req);
        let pline = req.pa.raw() / self.config.line_bytes;
        let set = self.set_of_line(vline);
        let full = self.full;

        let result = if req.is_write {
            self.cache.write(set, vline, full)
        } else {
            self.cache.read(set, vline, full)
        };
        let mut ways_probed = result.ways_probed;
        let mut hit = result.hit;
        let mut latency = self.timing.fast_cycles;
        let mut evicted_line = None;

        if !hit {
            // Synonym check: is the physical line cached under another VA?
            if let Some(&alias) = self.reverse.get(&pline) {
                if alias != vline {
                    // Remap: invalidate the old alias (extra probes + a
                    // slow-path cycle count), then refill under this VA.
                    // The data never left the cache, so this counts as a
                    // (slow) hit — no memory fetch is needed.
                    self.stats.synonym_remaps += 1;
                    ways_probed += self.config.ways;
                    latency = self.timing.slow_cycles;
                    self.evict_alias(alias);
                    hit = true;
                }
            }
            let evicted = self.cache.fill(set, vline, full, req.is_write);
            if let Some(e) = evicted {
                // Map the victim's virtual line back to its physical line
                // so the caller can write it back.
                if let Some(victim_pline) = self.forward.remove(&e.ptag) {
                    self.reverse.remove(&victim_pline);
                    evicted_line = Some(seesaw_cache::EvictedLine {
                        ptag: victim_pline,
                        dirty: e.dirty,
                    });
                }
            }
            self.forward.insert(vline, pline);
            self.reverse.insert(pline, vline);
        }

        L1AccessOutcome {
            hit,
            latency_cycles: latency,
            ways_probed,
            case: LookupCase::Conventional,
            tft_hit: None,
            evicted: evicted_line,
            fast_assumption_held: true,
            way_prediction_correct: None,
            unverified_alias_way: None,
        }
    }

    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize) {
        let pline = pa.raw() / self.config.line_bytes;
        self.stats.reverse_lookups += 1;
        // The reverse map tells us which virtual set to probe; without it
        // a physically-addressed probe could not find anything.
        match self.reverse.get(&pline).copied() {
            Some(vline) => {
                let set = self.set_of_line(vline);
                let present = self
                    .cache
                    .coherence_probe(set, vline, self.full, invalidate);
                if invalidate && present.is_some() {
                    self.forward.remove(&vline);
                    self.reverse.remove(&pline);
                }
                (present.is_some(), self.config.ways)
            }
            None => (false, self.config.ways),
        }
    }

    fn total_ways(&self) -> usize {
        self.config.ways
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Reacts to a page-table operation. A virtually-tagged array keeps
    /// hitting on a VA whose translation changed underneath it, and its
    /// back-pointers keep naming the old frames — so unlike a conventional
    /// physically-tagged L1, VIVT *must* observe remappings. On a
    /// promotion the frames migrate: every line whose back-pointer falls
    /// in a migrated-away frame is evicted (stale data *and* a stale
    /// writeback address otherwise). On an unmap the page's virtual lines
    /// are evicted. A splinter leaves PAs unchanged, so nothing to do.
    fn handle_op(&mut self, op: &PageTableOp) {
        match op {
            PageTableOp::Mapped(_) | PageTableOp::Splintered(_) => {}
            PageTableOp::Unmapped(page) => {
                let first = page.base().raw() / self.config.line_bytes;
                let count = page.size().bytes() / self.config.line_bytes;
                self.sweep_vlines(|vline| vline >= first && vline < first + count);
            }
            PageTableOp::Promoted { old_frames, .. } => {
                let line_bytes = self.config.line_bytes;
                let stale: Vec<u64> = old_frames
                    .iter()
                    .flat_map(|f| {
                        let first = f.base().raw() / line_bytes;
                        first..first + f.size().bytes() / line_bytes
                    })
                    .filter_map(|pline| self.reverse.get(&pline).copied())
                    .collect();
                self.stats.mapping_sweeps += 1;
                for vline in stale {
                    self.stats.swept_lines += 1;
                    self.evict_alias(vline);
                }
            }
        }
    }

    fn promotion_audit(&self, _old_frames: &[PageFrame]) -> Option<PromotionAudit> {
        Some(PromotionAudit::Mappings(self.mapped_plines().collect()))
    }

    fn design_stats(&self) -> DesignStats {
        DesignStats {
            synonyms: Some(self.stats),
            ..DesignStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::{PageSize, VirtAddr};

    fn timing() -> L1Timing {
        L1Timing {
            fast_cycles: 1,
            slow_cycles: 2,
        }
    }

    fn req(va: u64, pa: u64, is_write: bool) -> L1Request {
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write,
        }
    }

    #[test]
    fn hits_need_no_translation_and_are_fast() {
        let mut l1 = VivtL1::new(32 << 10, 8, timing());
        l1.access(&req(0x1040, 0x8040, false));
        let out = l1.access(&req(0x1040, 0x8040, false));
        assert!(out.hit);
        assert_eq!(out.latency_cycles, 1);
    }

    #[test]
    fn synonyms_never_duplicate_a_physical_line() {
        let mut l1 = VivtL1::new(32 << 10, 8, timing());
        // Write through one alias…
        l1.access(&req(0x1040, 0x8040, true));
        // …read through another: must remap, not duplicate.
        let out = l1.access(&req(0x5000_2040, 0x8040, false));
        assert!(out.hit, "synonym found through the reverse map");
        assert_eq!(l1.synonym_stats().synonym_remaps, 1);
        // The old alias is gone: probing the PA finds exactly one copy.
        let (present, _) = l1.coherence_probe(PhysAddr::new(0x8040), true);
        assert!(present);
        let (present_again, _) = l1.coherence_probe(PhysAddr::new(0x8040), true);
        assert!(!present_again, "only one copy existed");
    }

    #[test]
    fn synonym_remap_is_expensive() {
        let mut l1 = VivtL1::new(32 << 10, 8, timing());
        l1.access(&req(0x1040, 0x8040, false));
        let out = l1.access(&req(0x5000_2040, 0x8040, false));
        assert_eq!(out.latency_cycles, 2, "remap pays the slow path");
        assert_eq!(out.ways_probed, 16, "two full-set probes");
    }

    #[test]
    fn coherence_goes_through_the_reverse_map() {
        let mut l1 = VivtL1::new(32 << 10, 8, timing());
        l1.access(&req(0x1040, 0x8040, true));
        let (present, ways) = l1.coherence_probe(PhysAddr::new(0x8040), false);
        assert!(present);
        assert_eq!(ways, 8);
        assert_eq!(l1.synonym_stats().reverse_lookups, 1);
        // A physical line never cached is correctly absent.
        let (absent, _) = l1.coherence_probe(PhysAddr::new(0xff040), false);
        assert!(!absent);
    }

    #[test]
    fn promotion_sweeps_stale_back_pointers() {
        use seesaw_mem::{PageFrame, VirtPage};
        let mut l1 = VivtL1::new(32 << 10, 8, timing());
        // A line backed by a base frame that is about to migrate.
        l1.access(&req(0x20_0040, 0x8040, true));
        let op = PageTableOp::Promoted {
            page: VirtPage::containing(VirtAddr::new(0x20_0000), PageSize::Super2M),
            old_frames: vec![PageFrame::new(PhysAddr::new(0x8000), PageSize::Base4K)],
        };
        l1.handle_op(&op);
        assert_eq!(l1.synonym_stats().mapping_sweeps, 1);
        assert_eq!(l1.synonym_stats().swept_lines, 1);
        // The back-pointer to the freed frame is gone: a probe by the old
        // PA finds nothing, and no mapping references the old frame.
        let (present, _) = l1.coherence_probe(PhysAddr::new(0x8040), false);
        assert!(!present, "stale line was swept");
        assert!(l1.mapped_plines().all(|p| !(0x200..0x240).contains(&p)));
    }

    #[test]
    fn unmap_sweeps_the_pages_virtual_lines() {
        use seesaw_mem::VirtPage;
        let mut l1 = VivtL1::new(32 << 10, 8, timing());
        l1.access(&req(0x20_0040, 0x8040, true));
        l1.access(&req(0x30_0040, 0x9040, true));
        let op = PageTableOp::Unmapped(VirtPage::containing(
            VirtAddr::new(0x20_0000),
            PageSize::Base4K,
        ));
        l1.handle_op(&op);
        assert_eq!(l1.synonym_stats().swept_lines, 1, "only the unmapped page");
        let out = l1.access(&req(0x30_0040, 0x9040, false));
        assert!(out.hit, "unrelated line untouched");
    }

    #[test]
    fn eviction_reports_physical_line_for_writeback() {
        let mut l1 = VivtL1::new(32 << 10, 1, timing()); // direct-mapped
                                                         // Two virtual lines in the same set with distinct physical homes.
        l1.access(&req(0x1040, 0x8040, true));
        let out = l1.access(&req(0x1040 + (32 << 10), 0x9040, false));
        let evicted = out.evicted.expect("direct-mapped conflict evicts");
        assert_eq!(evicted.ptag, 0x8040 / 64, "writeback needs the PA");
        assert!(evicted.dirty);
    }
}
