//! VESPA: parallel superpage-aware L1 lookup (arxiv 1701.03499).
//!
//! VESPA is the SEESAW authors' follow-on design: keep the
//! way-partitioned VIPT array and the superpage observation (partition
//! bits inside a 2 MB offset are translation-invariant), but drop the
//! TFT. Instead, every access launches the narrow partition probe
//! speculatively in parallel with the L1 TLB; when the translation
//! arrives one cycle later with "superpage", the narrow probe *is* the
//! answer (fast latency, partition energy). When it says "base page",
//! the narrow probe is discarded — its energy is wasted — and the
//! conservative full-set lookup proceeds at the usual latency.
//!
//! Relative to SEESAW this trades the TFT's area/lookups and its miss
//! cases (Table I row 3 disappears: *every* superpage access is fast)
//! against wasted narrow-probe energy on base-page accesses — exactly
//! the kind of head-to-head the competing-design lab exists to measure.

use seesaw_cache::MruWayPredictor;
use seesaw_mem::VirtAddr;

use crate::{
    ComposedL1, DesignStats, InsertionPolicy, L1Timing, LookupCase, LookupPlan, PartitionDecoder,
    PartitionPolicy, Partitioning, SeesawConfig, VirtualIndex,
};

/// Configuration of a VESPA L1: the SEESAW geometry without the TFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VespaConfig {
    /// The underlying VIPT geometry.
    pub cache: seesaw_cache::CacheConfig,
    /// Partition count.
    pub partitions: usize,
    /// Insertion policy (`FourWay` keeps coherence narrow).
    pub insertion: InsertionPolicy,
}

impl VespaConfig {
    /// A VESPA design of `size_kb` KB with the same geometry rules as
    /// [`SeesawConfig::with_size_kb`].
    ///
    /// # Panics
    /// Panics if `size_kb` doesn't yield a whole number of 4-way
    /// partitions over 64 sets.
    pub fn with_size_kb(size_kb: u64) -> Self {
        let seesaw = SeesawConfig::with_size_kb(size_kb);
        Self {
            cache: seesaw.cache,
            partitions: seesaw.partitions,
            insertion: seesaw.insertion,
        }
    }
}

seesaw_trace::counters! {
    /// VESPA-specific counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct VespaStats {
        /// Superpage accesses served by the narrow parallel probe that hit.
        pub super_fast_hits: u64,
        /// Superpage accesses served by the narrow parallel probe that missed.
        pub super_fast_misses: u64,
        /// Base-page accesses (full-set lookup).
        pub base_accesses: u64,
        /// Ways probed by narrow parallel probes that were discarded because
        /// the translation said base page — VESPA's energy tax.
        pub wasted_probe_ways: u64,
        /// Promotion sweeps executed.
        pub sweeps: u64,
        /// Lines evicted by promotion sweeps.
        pub swept_lines: u64,
    }
    derived: fast_fraction;
}

impl VespaStats {
    /// Fraction of accesses that took the fast superpage path.
    pub fn fast_fraction(&self) -> f64 {
        let total = self.super_fast_hits + self.super_fast_misses + self.base_accesses;
        if total == 0 {
            0.0
        } else {
            (self.super_fast_hits + self.super_fast_misses) as f64 / total as f64
        }
    }
}

/// VESPA's partition policy: no TFT — the page size arrives from the TLB
/// in parallel with the (speculative) narrow probe, so every superpage
/// access takes the narrow partition lookup at the fast latency and every
/// base-page access pays the conservative full-set lookup plus the
/// discarded narrow probe. Plan rows are keyed by
/// `is_superpage × partitions + va_partition`.
#[derive(Debug, Clone)]
pub struct VespaPartitioning {
    tables: Partitioning,
    stats: VespaStats,
}

impl VespaPartitioning {
    /// Precomputes every row from the configuration and timing.
    pub(crate) fn new(config: VespaConfig, timing: L1Timing) -> Self {
        let decoder = PartitionDecoder::of(&config.cache, config.partitions);
        let full = decoder.full_mask();
        let tables = Partitioning::new(decoder, config.insertion, 2, |is_superpage, narrow| {
            if is_superpage == 1 {
                // Superpage partition bits are translation-invariant, so
                // the narrow probe is *always* correct — VESPA's whole
                // point: the SEESAW fast path without a TFT.
                LookupPlan {
                    mask: narrow,
                    latency: timing.fast_cycles,
                    case: LookupCase::SuperTftHitCacheHit,
                    fast_held: true,
                }
            } else {
                LookupPlan {
                    mask: full,
                    latency: timing.slow_cycles,
                    case: LookupCase::BasePage,
                    fast_held: true,
                }
            }
        });
        Self {
            tables,
            stats: VespaStats::default(),
        }
    }
}

impl PartitionPolicy for VespaPartitioning {
    fn tables(&self) -> &Partitioning {
        &self.tables
    }

    #[inline]
    fn plan(
        &mut self,
        _va: VirtAddr,
        is_superpage: bool,
        va_partition: usize,
    ) -> (LookupPlan, Option<bool>) {
        (
            self.tables.plan_row(is_superpage as usize, va_partition),
            None,
        )
    }

    /// Base pages pay for the discarded speculative narrow probe: its
    /// ways count toward lookup energy but find nothing usable.
    #[inline]
    fn wasted_probe_ways(&mut self, is_superpage: bool) -> usize {
        if is_superpage {
            return 0;
        }
        let wasted = self.tables.decoder().ways_per_partition();
        self.stats.wasted_probe_ways += wasted as u64;
        wasted
    }

    #[inline]
    fn record(&mut self, case: LookupCase, _hit: bool) {
        match case {
            LookupCase::SuperTftHitCacheHit => self.stats.super_fast_hits += 1,
            LookupCase::SuperTftHitCacheMiss => self.stats.super_fast_misses += 1,
            LookupCase::BasePage => self.stats.base_accesses += 1,
            _ => unreachable!("VESPA access is fast-super or base-page"),
        }
    }

    /// VESPA has no TFT to invalidate; only promotions matter (the frame
    /// migration's L1 sweep, same as SEESAW's §IV-C2 discipline).
    fn sweeps_promotions(&self) -> bool {
        true
    }

    fn record_sweep(&mut self, lines: usize) {
        self.stats.sweeps += 1;
        self.stats.swept_lines += lines as u64;
    }

    fn report(&self, stats: &mut DesignStats) {
        stats.vespa = Some(self.stats);
    }
}

/// The VESPA L1 data cache: superpage-aware narrow lookups without a
/// TFT — [`VirtualIndex`] + [`VespaPartitioning`], no way predictor.
pub type VespaL1 = ComposedL1<VirtualIndex, VespaPartitioning, Option<MruWayPredictor>>;

impl VespaL1 {
    /// Builds a VESPA L1.
    pub fn new(config: VespaConfig, timing: L1Timing) -> Self {
        ComposedL1::compose(
            config.cache,
            VirtualIndex::new(config.cache.sets(), config.cache.line_bytes),
            VespaPartitioning::new(config, timing),
            None,
        )
    }

    /// VESPA-specific counters.
    pub fn vespa_stats(&self) -> VespaStats {
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

    fn super_req(va: u64, is_write: bool) -> L1Request {
        let frame = 0x1fa0_0000u64;
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(frame | (va & 0x1f_ffff)),
            page_size: PageSize::Super2M,
            is_write,
        }
    }

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
    fn superpage_is_always_fast_and_narrow() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let req = super_req(0x4000_1040, false);
        // No TFT to warm: even the very first access is narrow + fast.
        let miss = l1.access(&req);
        assert!(!miss.hit);
        assert_eq!(miss.case, LookupCase::SuperTftHitCacheMiss);
        assert_eq!(miss.ways_probed, 4);
        assert_eq!(miss.latency_cycles, 1);
        let hit = l1.access(&req);
        assert!(hit.hit);
        assert_eq!(hit.case, LookupCase::SuperTftHitCacheHit);
        assert_eq!(hit.latency_cycles, 1);
        assert!(hit.fast_assumption_held);
        assert_eq!(l1.vespa_stats().super_fast_hits, 1);
    }

    #[test]
    fn base_page_pays_full_lookup_plus_wasted_probe() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let req = base_req_flipped(0x7000_1040);
        let out = l1.access(&req);
        assert_eq!(out.case, LookupCase::BasePage);
        assert_eq!(out.latency_cycles, 2);
        assert_eq!(out.ways_probed, 8 + 4, "full set + discarded narrow probe");
        assert_eq!(l1.vespa_stats().wasted_probe_ways, 4);
        assert!(l1.access(&req).hit, "base pages still cache normally");
    }

    #[test]
    fn base_page_line_lands_in_physical_partition() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let req = base_req_flipped(0x7000_1040); // VA bit12=1, PA bit12=0
        l1.access(&req);
        let (present, ways) = l1.coherence_probe(req.pa, false);
        assert!(present, "narrow coherence probe must find the line");
        assert_eq!(ways, 4);
        assert_eq!(l1.audit_partition_reachability(), Some(0));
    }

    #[test]
    fn promotion_sweep_evicts_old_frames() {
        use seesaw_mem::{PageFrame, VirtPage};
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
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
        assert_eq!(l1.vespa_stats().sweeps, 1);
        assert_eq!(l1.vespa_stats().swept_lines, 1);
        let (present, _) = l1.coherence_probe(req.pa, false);
        assert!(!present, "stale line must be gone after the sweep");
    }

    #[test]
    fn fast_fraction_tracks_superpage_mix() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        l1.access(&super_req(0x4000_1040, false));
        l1.access(&base_req_flipped(0x7000_2040));
        assert!((l1.vespa_stats().fast_fraction() - 0.5).abs() < 1e-12);
    }
}
