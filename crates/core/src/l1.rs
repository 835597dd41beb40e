//! The SEESAW L1 data cache (§IV, Fig. 4, Table I).

use seesaw_cache::{CacheConfig, IndexPolicy, MruWayPredictor};
use seesaw_mem::{VirtAddr, VirtPage};

use crate::{
    ComposedL1, DesignStats, InsertionPolicy, L1Timing, LookupCase, LookupPlan, PartitionDecoder,
    PartitionPolicy, Partitioning, TftStats, TranslationFilterTable, VirtualIndex,
};

/// Configuration of a SEESAW L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeesawConfig {
    /// The underlying VIPT geometry (64 sets for all paper configs).
    pub cache: CacheConfig,
    /// Partition count (ways / 4 in the paper: 4-way, 16 KB partitions).
    pub partitions: usize,
    /// TFT entries (16 in the paper; Fig. 13 sweeps 12–20).
    pub tft_entries: usize,
    /// Insertion policy (`FourWay` in the paper).
    pub insertion: InsertionPolicy,
    /// Attach an MRU way predictor (the WP+SEESAW design of Fig. 15).
    pub way_prediction: bool,
}

impl SeesawConfig {
    /// The paper's example 32 KB, 8-way design with two 4-way partitions.
    pub fn l1_32k() -> Self {
        Self::with_size_kb(32)
    }

    /// A SEESAW design of `size_kb` KB: 64 sets, 64 B lines, enough ways
    /// to reach the capacity, 4-way partitions (§IV-B4).
    ///
    /// # Panics
    /// Panics if `size_kb` doesn't yield a whole number of 4-way
    /// partitions over 64 sets.
    pub fn with_size_kb(size_kb: u64) -> Self {
        let ways = (size_kb << 10) / (64 * 64);
        assert!(ways >= 8 && ways.is_multiple_of(4), "unsupported geometry");
        Self {
            cache: CacheConfig::new(size_kb << 10, ways as usize, 64, IndexPolicy::Vipt),
            partitions: (ways / 4) as usize,
            tft_entries: 16,
            insertion: InsertionPolicy::FourWay,
            way_prediction: false,
        }
    }

    /// Returns a copy with way prediction attached.
    pub fn with_way_prediction(mut self) -> Self {
        self.way_prediction = true;
        self
    }

    /// Returns a copy with a different TFT size (Fig. 13's sweep).
    pub fn with_tft_entries(mut self, entries: usize) -> Self {
        self.tft_entries = entries;
        self
    }

    /// Returns a copy with a different partition count (§IV-B4's
    /// ways-per-partition design sweep).
    ///
    /// # Panics
    /// Panics (at [`SeesawL1::new`]) unless the count divides the ways
    /// and keeps the partition bits inside a 2 MB page offset.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Returns a copy with the `4way-8way` insertion ablation.
    pub fn with_insertion(mut self, insertion: InsertionPolicy) -> Self {
        self.insertion = insertion;
        self
    }
}

seesaw_trace::counters! {
    /// SEESAW-specific counters (on top of the cache array's [`CacheStats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SeesawStats {
        /// Table I case: superpage, TFT hit, cache hit.
        pub super_tft_hit_cache_hit: u64,
        /// Table I case: superpage, TFT hit, cache miss.
        pub super_tft_hit_cache_miss: u64,
        /// Table I case: superpage access the TFT missed.
        pub super_tft_miss: u64,
        /// Table I case: base-page access.
        pub base_page: u64,
        /// Among [`SeesawStats::super_tft_miss`], how many also missed the L1
        /// (Fig. 13's red bars — the misses that don't hurt, because the L2
        /// trip dwarfs the extra partition probe).
        pub super_tft_miss_l1_miss: u64,
        /// Promotion sweeps executed.
        pub sweeps: u64,
        /// Lines evicted by promotion sweeps.
        pub swept_lines: u64,
    }
    derived: tft_miss_fraction_of_super;
}

impl SeesawStats {
    /// Fraction of superpage accesses the TFT failed to identify
    /// (Fig. 13's metric).
    pub fn tft_miss_fraction_of_super(&self) -> f64 {
        let supers =
            self.super_tft_hit_cache_hit + self.super_tft_hit_cache_miss + self.super_tft_miss;
        if supers == 0 {
            0.0
        } else {
            self.super_tft_miss as f64 / supers as f64
        }
    }
}

/// SEESAW's partition policy (Table I): the TFT, the precomputed plan
/// rows keyed by `((tft_hit << 1) | is_superpage) × partitions +
/// va_partition`, and the Table I case counters.
#[derive(Debug, Clone)]
pub struct SeesawPartitioning {
    config: SeesawConfig,
    tables: Partitioning,
    tft: TranslationFilterTable,
    stats: SeesawStats,
}

impl SeesawPartitioning {
    /// Precomputes every row from the configuration and timing (Table I
    /// rows 1–4) and builds the TFT.
    pub(crate) fn new(config: SeesawConfig, timing: L1Timing) -> Self {
        let decoder = PartitionDecoder::of(&config.cache, config.partitions);
        let full = decoder.full_mask();
        let tables = Partitioning::new(decoder, config.insertion, 4, |key, narrow| {
            if key & 0b10 != 0 {
                // TFT hit: partition lookup only (Table I rows 1-2); the
                // case is refined to a miss variant after the probe.
                LookupPlan {
                    mask: narrow,
                    latency: timing.fast_cycles,
                    case: LookupCase::SuperTftHitCacheHit,
                    fast_held: true,
                }
            } else {
                // Conservative full-set lookup (Table I rows 3-4).
                LookupPlan {
                    mask: full,
                    latency: timing.slow_cycles,
                    case: if key & 0b01 != 0 {
                        LookupCase::SuperTftMiss
                    } else {
                        LookupCase::BasePage
                    },
                    fast_held: false,
                }
            }
        });
        Self {
            tft: TranslationFilterTable::new(config.tft_entries),
            config,
            tables,
            stats: SeesawStats::default(),
        }
    }
}

impl PartitionPolicy for SeesawPartitioning {
    fn tables(&self) -> &Partitioning {
        &self.tables
    }

    #[inline]
    fn plan(
        &mut self,
        va: VirtAddr,
        is_superpage: bool,
        va_partition: usize,
    ) -> (LookupPlan, Option<bool>) {
        // The TFT is kept precise by invalidation/flush, so a hit proves a
        // superpage access. That invariant is not asserted here: the
        // differential checker (seesaw-check) owns it, so fault-injection
        // tests can break the invalidation on purpose and watch the checker
        // report it instead of crashing inside the cache model.
        let tft_hit = self.tft.lookup(va);
        let key = ((tft_hit as usize) << 1) | (is_superpage as usize);
        (self.tables.plan_row(key, va_partition), Some(tft_hit))
    }

    #[inline]
    fn record(&mut self, case: LookupCase, hit: bool) {
        match case {
            LookupCase::SuperTftHitCacheHit => self.stats.super_tft_hit_cache_hit += 1,
            LookupCase::SuperTftHitCacheMiss => self.stats.super_tft_hit_cache_miss += 1,
            LookupCase::SuperTftMiss => {
                self.stats.super_tft_miss += 1;
                if !hit {
                    self.stats.super_tft_miss_l1_miss += 1;
                }
            }
            LookupCase::BasePage => self.stats.base_page += 1,
            LookupCase::Conventional => unreachable!("SEESAW access is never Conventional"),
        }
    }

    fn sweeps_promotions(&self) -> bool {
        true
    }

    fn record_sweep(&mut self, lines: usize) {
        self.stats.sweeps += 1;
        self.stats.swept_lines += lines as u64;
    }

    fn tft_fill(&mut self, va: VirtAddr) {
        self.tft.fill(va);
    }

    fn tft_probe(&self, va: VirtAddr) -> Option<bool> {
        Some(self.tft.probe(va))
    }

    fn invalidate_region(&mut self, page: VirtPage) {
        self.tft.invalidate(page);
    }

    fn flush(&mut self) {
        self.tft.flush();
    }

    fn report(&self, stats: &mut DesignStats) {
        stats.seesaw = Some(self.stats);
        stats.tft = Some(self.tft.stats());
    }
}

/// The SEESAW L1 data cache: virtual set indexing ([`VirtualIndex`]),
/// SEESAW's partition policy with its TFT ([`SeesawPartitioning`]), and
/// an optional MRU way predictor (the WP+SEESAW design of Fig. 15).
///
/// See the crate-level example for typical use. Drive
/// [`tft_fill`](crate::L1DataCache::tft_fill) from the TLB hierarchy's
/// superpage-fill events and [`handle_op`](crate::L1DataCache::handle_op)
/// from page-table operations; call
/// [`context_switch`](crate::L1DataCache::context_switch) when the core
/// switches address spaces.
pub type SeesawL1 = ComposedL1<VirtualIndex, SeesawPartitioning, Option<MruWayPredictor>>;

impl SeesawL1 {
    /// Builds a SEESAW L1.
    pub fn new(config: SeesawConfig, timing: L1Timing) -> Self {
        let sets = config.cache.sets();
        ComposedL1::compose(
            config.cache,
            VirtualIndex::new(sets, config.cache.line_bytes),
            SeesawPartitioning::new(config, timing),
            config
                .way_prediction
                .then(|| MruWayPredictor::new(sets, config.partitions)),
        )
    }

    /// The configuration.
    pub fn config(&self) -> &SeesawConfig {
        &self.policy.config
    }

    /// TFT counters.
    pub fn tft_stats(&self) -> TftStats {
        self.policy.tft.stats()
    }

    /// SEESAW-specific counters.
    pub fn seesaw_stats(&self) -> SeesawStats {
        self.policy.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{L1DataCache, L1Request};
    use seesaw_mem::{PageSize, PageTableOp, PhysAddr};

    fn timing() -> L1Timing {
        L1Timing {
            fast_cycles: 1,
            slow_cycles: 2,
        }
    }

    /// A superpage request: PA shares VA's low 21 bits.
    fn super_req(va: u64, is_write: bool) -> L1Request {
        let frame = 0x1fa0_0000u64;
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(frame | (va & 0x1f_ffff)),
            page_size: PageSize::Super2M,
            is_write,
        }
    }

    /// A base-page request whose partition bit flips between VA and PA.
    fn base_req_flipped(va: u64) -> L1Request {
        let pa = (0x8_0000u64 | (va & 0xfff)) ^ 0x1000;
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write: false,
        }
    }

    #[test]
    fn table_i_row_1_super_tft_hit_cache_hit() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040, false);
        l1.tft_fill(req.va);
        l1.access(&req); // fill
        let out = l1.access(&req);
        assert!(out.hit);
        assert_eq!(out.case, LookupCase::SuperTftHitCacheHit);
        assert_eq!(out.latency_cycles, 1, "fast hit");
        assert_eq!(out.ways_probed, 4, "one partition");
        assert!(out.fast_assumption_held);
        assert_eq!(out.tft_hit, Some(true));
    }

    #[test]
    fn table_i_row_2_super_tft_hit_cache_miss() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040, false);
        l1.tft_fill(req.va);
        let out = l1.access(&req);
        assert!(!out.hit);
        assert_eq!(out.case, LookupCase::SuperTftHitCacheMiss);
        assert_eq!(out.ways_probed, 4, "energy saved even on the miss");
    }

    #[test]
    fn table_i_row_3_super_tft_miss_probes_everything() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040, false);
        let out = l1.access(&req);
        assert_eq!(out.case, LookupCase::SuperTftMiss);
        assert_eq!(out.ways_probed, 8);
        assert_eq!(out.latency_cycles, 2, "base-page timing");
        assert!(!out.fast_assumption_held);
        assert_eq!(l1.seesaw_stats().super_tft_miss_l1_miss, 1);
    }

    #[test]
    fn table_i_row_4_base_page_is_conventional_vipt() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = base_req_flipped(0x7000_1040);
        let out = l1.access(&req);
        assert_eq!(out.case, LookupCase::BasePage);
        assert_eq!(out.ways_probed, 8);
        assert_eq!(out.latency_cycles, 2);
        let again = l1.access(&req);
        assert!(again.hit, "base pages still cache normally");
    }

    #[test]
    fn base_page_line_lands_in_physical_partition() {
        // VA names partition 1, PA names partition 0: the 4way policy must
        // insert into partition 0 so coherence can find it narrowly.
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = base_req_flipped(0x7000_1040); // VA bit12=1, PA bit12=0
        l1.access(&req);
        let (present, ways) = l1.coherence_probe(req.pa, false);
        assert!(present, "narrow coherence probe must find the line");
        assert_eq!(ways, 4);
    }

    #[test]
    fn coherence_probes_are_narrow_for_all_pages() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let sup = super_req(0x4000_2040, true);
        l1.tft_fill(sup.va);
        l1.access(&sup);
        let (present, ways) = l1.coherence_probe(sup.pa, true);
        assert!(present);
        assert_eq!(ways, 4);
        // Invalidation took effect.
        let (present, _) = l1.coherence_probe(sup.pa, false);
        assert!(!present);
    }

    #[test]
    fn four_eight_way_ablation_widens_coherence() {
        let cfg = SeesawConfig::l1_32k().with_insertion(InsertionPolicy::FourWayEightWay);
        let mut l1 = SeesawL1::new(cfg, timing());
        let (_present, ways) = l1.coherence_probe(PhysAddr::new(0x1000), false);
        assert_eq!(ways, 8, "4way-8way cannot narrow coherence probes");
    }

    #[test]
    fn splinter_invalidates_tft_and_slows_the_region() {
        use seesaw_mem::VirtPage;
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040, false);
        l1.tft_fill(req.va);
        l1.access(&req);
        let page = VirtPage::containing(req.va, PageSize::Super2M);
        l1.handle_op(&PageTableOp::Splintered(page));
        // After splintering the same data is a base-page access; the TFT
        // must miss. Physical address unchanged (splinter moves no data).
        let base = L1Request {
            page_size: PageSize::Base4K,
            ..req
        };
        let out = l1.access(&base);
        assert_eq!(out.tft_hit, Some(false));
        assert!(out.hit, "line is still cached and still found");
        assert_eq!(out.ways_probed, 8);
    }

    #[test]
    fn promotion_sweep_evicts_old_frames() {
        use seesaw_mem::{PageFrame, VirtPage};
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        // Cache a base-page line in the to-be-promoted frame.
        let old_frame = PageFrame::new(PhysAddr::new(0x8000), PageSize::Base4K);
        let req = L1Request {
            va: VirtAddr::new(0x7000_0040),
            pa: PhysAddr::new(0x8040),
            page_size: PageSize::Base4K,
            is_write: true,
        };
        l1.access(&req);
        let op = PageTableOp::Promoted {
            page: VirtPage::containing(req.va, PageSize::Super2M),
            old_frames: vec![old_frame],
        };
        l1.handle_op(&op);
        assert_eq!(l1.seesaw_stats().sweeps, 1);
        assert_eq!(l1.seesaw_stats().swept_lines, 1);
        let (present, _) = l1.coherence_probe(req.pa, false);
        assert!(!present, "stale line must be gone after the sweep");
    }

    #[test]
    fn context_switch_flushes_tft() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040, false);
        l1.tft_fill(req.va);
        l1.context_switch();
        let out = l1.access(&req);
        assert_eq!(out.tft_hit, Some(false));
        assert_eq!(l1.tft_stats().flushes, 1);
    }

    #[test]
    fn way_prediction_narrows_hits_and_pays_on_misses() {
        let cfg = SeesawConfig::l1_32k().with_way_prediction();
        let mut l1 = SeesawL1::new(cfg, timing());
        let req = super_req(0x4000_1040, false);
        l1.tft_fill(req.va);
        l1.access(&req); // fill, trains predictor
        let out = l1.access(&req);
        assert_eq!(out.way_prediction_correct, Some(true));
        assert_eq!(out.ways_probed, 1, "correct prediction probes one way");
        assert_eq!(out.latency_cycles, 1);
        // A conflicting line in the same set+partition retrains; the next
        // access to the first line mispredicts.
        let other = super_req(0x4000_1040 + (32 << 10), false);
        l1.tft_fill(other.va);
        l1.access(&other);
        let out = l1.access(&req);
        assert_eq!(out.way_prediction_correct, Some(false));
        assert_eq!(out.latency_cycles, 2, "mispredict pays a second round");
    }

    #[test]
    fn insertion_keeps_partition_pressure_local() {
        // Fill partition 0 of one set with 5 superpage lines: the 5th
        // evicts from partition 0, never partition 1.
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let in_other_partition = super_req(0x4000_1040, false); // bit12=1
        l1.tft_fill(in_other_partition.va);
        l1.access(&in_other_partition);
        for i in 0..5u64 {
            let req = super_req(0x4000_0040 + i * (2 << 20) * 16, false);
            // Same set (bits 11:6 = 1), partition 0 (bit 12 = 0).
            l1.tft_fill(req.va);
            l1.access(&req);
        }
        let out = l1.access(&in_other_partition);
        assert!(out.hit, "partition 1 line must survive partition 0 churn");
    }

    #[test]
    fn stats_report_case_mix() {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let s = super_req(0x4000_1040, false);
        let b = base_req_flipped(0x7000_2040);
        l1.access(&s); // TFT miss
        l1.tft_fill(s.va);
        l1.access(&s); // TFT hit, cache hit
        l1.access(&b); // base page
        let st = l1.seesaw_stats();
        assert_eq!(st.super_tft_miss, 1);
        assert_eq!(st.super_tft_hit_cache_hit, 1);
        assert_eq!(st.base_page, 1);
        assert!((st.tft_miss_fraction_of_super() - 0.5).abs() < 1e-12);
    }
}
