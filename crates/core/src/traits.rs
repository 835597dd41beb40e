//! The common L1 data-cache interface shared by the baseline VIPT/PIPT
//! designs and SEESAW, so the CPU timing models and the experiment
//! harness drive every design through one code path.

use seesaw_cache::{EvictedLine, WayPredictionStats};
use seesaw_mem::{PageFrame, PageSize, PageTableOp, PhysAddr, VirtAddr};

use crate::{SeesawStats, SynonymStats, TftStats, VespaStats};

/// One demand access presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Request {
    /// Virtual address (drives VIPT indexing and the TFT).
    pub va: VirtAddr,
    /// Physical address (drives tags; available once translation
    /// completes).
    pub pa: PhysAddr,
    /// Size of the page backing the access (ground truth from the
    /// translation; the TFT only *predicts* it).
    pub page_size: PageSize,
    /// Write or read.
    pub is_write: bool,
}

/// Which of Table I's lookup cases an access exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupCase {
    /// Superpage access, TFT hit, cache hit: partition lookup only —
    /// latency *and* energy savings.
    SuperTftHitCacheHit,
    /// Superpage access, TFT hit, cache miss: partition lookup, then the
    /// miss path — energy savings.
    SuperTftHitCacheMiss,
    /// Superpage access the TFT failed to identify: full-set fallback —
    /// no savings.
    SuperTftMiss,
    /// Base-page access (the TFT never hits for base pages): full-set
    /// lookup, identical to conventional VIPT.
    BasePage,
    /// An access on a non-SEESAW cache (baseline designs).
    Conventional,
}

/// Hit-latency parameters for an L1 design at a given geometry and clock,
/// derived from the SRAM model (Table III's two columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Timing {
    /// Cycles for a partition ("superpage") lookup.
    pub fast_cycles: u64,
    /// Cycles for a full-set ("base page") lookup.
    pub slow_cycles: u64,
}

/// The outcome of one demand access (lookup plus fill-on-miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1AccessOutcome {
    /// Whether the L1 held the line.
    pub hit: bool,
    /// L1 lookup latency in cycles (the miss path's outer-hierarchy
    /// latency is the caller's to add).
    pub latency_cycles: u64,
    /// Ways probed by the CPU-side lookup (prices dynamic energy).
    pub ways_probed: usize,
    /// Table I case.
    pub case: LookupCase,
    /// TFT consulted → hit? (`None` for baseline designs.)
    pub tft_hit: Option<bool>,
    /// Line displaced by the fill, if the access missed and evicted one.
    pub evicted: Option<EvictedLine>,
    /// True when the design's speculative "fast hit" assumption held; a
    /// `false` here makes an out-of-order scheduler squash and replay
    /// dependents (§IV-B3).
    pub fast_assumption_held: bool,
    /// Way-predictor verdict, if one is attached: `Some(true)` = correct.
    pub way_prediction_correct: Option<bool>,
    /// A µtag way prediction matched a way whose physical tag was never
    /// verified before the hit was served (chaos knob
    /// `skip_way_verification`): the way that was wrongly served. Always
    /// `None` in correct operation — verification turns aliases into
    /// mispredicts — so the checker flags any `Some` as a
    /// way-prediction-alias violation.
    pub unverified_alias_way: Option<usize>,
}

/// Each design's own counters, `None` where the design has no such
/// machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DesignStats {
    /// SEESAW's Table I case counters.
    pub seesaw: Option<SeesawStats>,
    /// SEESAW's TFT counters.
    pub tft: Option<TftStats>,
    /// VESPA's counters.
    pub vespa: Option<VespaStats>,
    /// VIVT's synonym-machinery counters.
    pub synonyms: Option<SynonymStats>,
    /// The way predictor's counters (`l1.waypred.*`).
    pub way_prediction: Option<WayPredictionStats>,
}

/// What a design's structures must satisfy right after a promotion, for
/// the differential checker to audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromotionAudit {
    /// A partitioned array swept the migrated-away frames.
    Swept {
        /// Resident lines of those frames (must be zero).
        resident: usize,
        /// Resident lines outside the partition their physical address
        /// names (must be zero); `None` when insertion does not pin lines
        /// to partitions.
        unreachable: Option<usize>,
    },
    /// Every physical line a virtually-tagged array's back-pointers name
    /// (none may lie in a freed frame).
    Mappings(Vec<u64>),
}

/// The interface every L1 design implements: the demand and coherence
/// paths, plus the lifecycle hooks the run loop drives on every design
/// alike (each a no-op unless the design has the machinery).
pub trait L1DataCache {
    /// Services a demand access: looks up the line and, on a miss, fills
    /// it (evicting per the design's insertion policy). The caller charges
    /// outer-hierarchy latency/energy for misses and writebacks.
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome;

    /// Services a physically-addressed coherence probe. Returns
    /// `(line_was_present, ways_probed)`.
    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize);

    /// Total associativity of the design.
    fn total_ways(&self) -> usize;

    /// Aggregate cache statistics.
    fn cache_stats(&self) -> seesaw_cache::CacheStats;

    /// Trains the TFT with a superpage region (wired to the 2 MB L1 TLB's
    /// fill events, Fig. 5 step 8).
    fn tft_fill(&mut self, _va: VirtAddr) {}

    /// Whether the TFT vouches for `va`, without counting the probe as a
    /// demand lookup; `None` without a TFT. Audit hook for the checker's
    /// splinter-precision invariant (§IV-C2).
    fn tft_probe(&self, _va: VirtAddr) -> Option<bool> {
        None
    }

    /// Reacts to a page-table operation (TFT invalidation, promotion
    /// sweeps, VIVT remapping).
    fn handle_op(&mut self, _op: &PageTableOp) {}

    /// Drops the state an address-space switch invalidates (the
    /// ASID-less TFT, §IV-C3, and a virtually-keyed µtag).
    fn context_switch(&mut self) {}

    /// The structural facts to audit after a promotion that migrated
    /// `old_frames`; `None` when the design keeps none.
    fn promotion_audit(&self, _old_frames: &[PageFrame]) -> Option<PromotionAudit> {
        None
    }

    /// The design's own counters.
    fn design_stats(&self) -> DesignStats {
        DesignStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_plain_data() {
        let t = L1Timing {
            fast_cycles: 1,
            slow_cycles: 2,
        };
        assert!(t.fast_cycles < t.slow_cycles);
    }

    #[test]
    fn lookup_cases_are_distinct() {
        use LookupCase::*;
        let cases = [
            SuperTftHitCacheHit,
            SuperTftHitCacheMiss,
            SuperTftMiss,
            BasePage,
            Conventional,
        ];
        for (i, a) in cases.iter().enumerate() {
            for (j, b) in cases.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
