//! The three bounds of [`crate::ComposedL1`], the one L1 skeleton.
//!
//! Every VIPT and PIPT design in this repo is the same set-associative
//! array driven by the same access → fill → coherence → promotion-sweep
//! skeleton. What tells the designs apart is three orthogonal choices,
//! each a trait the skeleton is generic over:
//!
//! ```text
//!             ┌─────────────────┐   which bits index the set,
//!   VA ──────►│   IndexSelect   │   per page size / translation
//!             └────────┬────────┘
//!                      ▼
//!             ┌─────────────────┐   which ways to probe, at what
//!   TFT/TLB ─►│ PartitionPolicy │   latency, with what fill/coherence
//!             └────────┬────────┘   masks (branch-free plan tables)
//!                      ▼
//!             ┌─────────────────┐   which single way to try first
//!   history ─►│    WayPredict   │   (MRU or Zen2-style µtag hash)
//!             └─────────────────┘
//! ```
//!
//! Each design is one instantiation: SEESAW is [`VirtualIndex`] +
//! [`crate::SeesawPartitioning`] (which owns the TFT and the Table I
//! counters) + an optional MRU predictor; VESPA swaps in
//! [`crate::VespaPartitioning`]; the conventional baselines use a
//! [`FlexibleIndex`] over one partition spanning every way
//! ([`Partitioning`]); the µtag design puts a
//! [`crate::MicroTagPrediction`] on that full set. The skeleton is
//! monomorphized per instantiation, so every policy call inlines into
//! the same indexed loads a hand-written design would compile to.

use seesaw_cache::{MruWayPredictor, SetAssocCache, WayMask, WayPredictionStats};
use seesaw_mem::{PhysAddr, VirtAddr, VirtPage};

use crate::{DesignStats, InsertionPolicy, L1Timing, LookupCase, PartitionDecoder};

/// Which address bits name the set for an access.
///
/// VIPT designs index with virtual bits (in parallel with translation),
/// PIPT designs with physical bits (after it).
pub trait IndexSelect {
    /// The set index for a demand access.
    fn set_of(&self, va: VirtAddr, pa: PhysAddr) -> usize;

    /// The set a physically-addressed coherence probe searches.
    fn set_of_pa(&self, pa: PhysAddr) -> usize;
}

/// Virtual set indexing over a power-of-two set count: the VIPT fast
/// path every design in the paper builds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualIndex {
    /// Byte-offset bits below the set index.
    pub set_shift: u32,
    /// `sets - 1` (set count must be a power of two).
    pub set_mask: usize,
}

impl VirtualIndex {
    /// Builds the index function for `sets` sets of `line_bytes` lines.
    ///
    /// # Panics
    /// Panics unless both dimensions are powers of two.
    pub fn new(sets: usize, line_bytes: u64) -> Self {
        assert!(sets.is_power_of_two() && line_bytes.is_power_of_two());
        Self {
            set_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    /// The set index of a raw address (VA on the demand path, PA for
    /// physically-addressed coherence probes — the bits coincide for
    /// every geometry whose index fits inside the page offset).
    #[inline]
    pub fn set_of_raw(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) as usize) & self.set_mask
    }
}

impl IndexSelect for VirtualIndex {
    #[inline]
    fn set_of(&self, va: VirtAddr, _pa: PhysAddr) -> usize {
        self.set_of_raw(va.raw())
    }

    #[inline]
    fn set_of_pa(&self, pa: PhysAddr) -> usize {
        self.set_of_raw(pa.raw())
    }
}

/// Va-or-pa set indexing over an arbitrary set count — the baseline
/// designs' index function (PIPT geometries need not be powers of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlexibleIndex {
    /// Total sets.
    pub sets: usize,
    /// Byte-offset bits below the set index.
    pub set_shift: u32,
    /// `sets - 1` when the set count is a power of two, else zero.
    pub set_mask: usize,
    /// True = index with the VA (VIPT), false = with the PA (PIPT).
    pub virtual_index: bool,
}

impl FlexibleIndex {
    /// Builds the index function for `sets` sets of `line_bytes` lines.
    pub fn new(sets: usize, line_bytes: u64, virtual_index: bool) -> Self {
        Self {
            sets,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            virtual_index,
        }
    }

    /// The set index of a raw address.
    #[inline]
    pub fn set_of_raw(&self, addr: u64) -> usize {
        let idx = (addr >> self.set_shift) as usize;
        if self.set_mask != 0 {
            idx & self.set_mask
        } else {
            idx % self.sets
        }
    }
}

impl IndexSelect for FlexibleIndex {
    #[inline]
    fn set_of(&self, va: VirtAddr, pa: PhysAddr) -> usize {
        self.set_of_raw(if self.virtual_index {
            va.raw()
        } else {
            pa.raw()
        })
    }

    #[inline]
    fn set_of_pa(&self, pa: PhysAddr) -> usize {
        self.set_of_raw(pa.raw())
    }
}

/// One row of a precomputed lookup plan: everything the design's
/// prediction machinery (TFT verdict, page size) decides about a lookup,
/// resolved to a single indexed load instead of a branch tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupPlan {
    /// Ways to probe.
    pub mask: WayMask,
    /// Hit latency of this lookup width.
    pub latency: u64,
    /// The Table I case this row represents (hit variant; the skeleton
    /// refines it to the miss variant after the probe).
    pub case: LookupCase,
    /// Whether the design's speculative "fast hit" assumption holds on
    /// this row (drives out-of-order squash, §IV-B3).
    pub fast_held: bool,
}

/// The precomputed plan, victim and coherence tables of a way-partitioned
/// array. Plan rows are keyed by `key × partitions + va_partition`,
/// victim masks by `is_superpage × partitions + pa_partition`, coherence
/// masks per PA partition (narrow iff the insertion policy pins lines to
/// their physical partition).
///
/// On its own — one partition spanning every way, one row — it is the
/// conventional design's policy: every lookup, fill and coherence probe
/// full-set at the slow hit time, with no TFT and no per-case counters.
#[derive(Debug, Clone)]
pub struct Partitioning {
    decoder: PartitionDecoder,
    plans: Vec<LookupPlan>,
    victim_masks: Vec<WayMask>,
    coh_masks: Vec<WayMask>,
    pins_lines: bool,
}

impl Partitioning {
    /// Builds `keys × partitions` plan rows from `row(key, mask)`, where
    /// `mask` is the partition's narrow mask, and the victim and
    /// coherence rows from the insertion policy.
    pub(crate) fn new(
        decoder: PartitionDecoder,
        insertion: InsertionPolicy,
        keys: usize,
        row: impl Fn(usize, WayMask) -> LookupPlan,
    ) -> Self {
        let partitions = decoder.partitions();
        let row = &row;
        let plans = (0..keys)
            .flat_map(|key| (0..partitions).map(move |p| row(key, decoder.mask_of(p))))
            .collect();
        let victim_masks = [false, true]
            .into_iter()
            .flat_map(|sup| (0..partitions).map(move |p| insertion.victim_mask(&decoder, p, sup)))
            .collect();
        let pins_lines = insertion.lines_are_partition_deterministic();
        let coh_masks = (0..partitions)
            .map(|p| {
                if pins_lines {
                    decoder.mask_of(p)
                } else {
                    decoder.full_mask()
                }
            })
            .collect();
        Self {
            decoder,
            plans,
            victim_masks,
            coh_masks,
            pins_lines,
        }
    }

    /// The conventional policy over `ways` ways hit at
    /// `timing.slow_cycles`.
    pub(crate) fn full_set(ways: usize, timing: L1Timing) -> Self {
        Self::new(
            PartitionDecoder::single(ways),
            InsertionPolicy::FourWay,
            1,
            |_, mask| LookupPlan {
                mask,
                latency: timing.slow_cycles,
                case: LookupCase::Conventional,
                fast_held: true,
            },
        )
    }

    /// The partition decoder.
    pub(crate) fn decoder(&self) -> &PartitionDecoder {
        &self.decoder
    }

    /// The plan row for a key and VA partition.
    #[inline]
    pub(crate) fn plan_row(&self, key: usize, va_partition: usize) -> LookupPlan {
        self.plans[key * self.decoder.partitions() + va_partition]
    }

    /// Ways a miss may evict from, per page size and PA partition.
    #[inline]
    pub(crate) fn victim_mask(&self, is_superpage: bool, pa_partition: usize) -> WayMask {
        self.victim_masks[(is_superpage as usize) * self.decoder.partitions() + pa_partition]
    }

    /// Ways a physically-addressed coherence probe must search.
    #[inline]
    pub(crate) fn coherence_mask(&self, pa_partition: usize) -> WayMask {
        self.coh_masks[pa_partition]
    }

    /// True when insertion pins every line to the partition its physical
    /// address names, so the reachability audit is meaningful (§IV-C1).
    pub(crate) fn pins_lines(&self) -> bool {
        self.pins_lines
    }
}

/// Which ways a lookup probes — resolved from the policy's
/// [`Partitioning`] tables plus whatever prediction state (SEESAW's TFT)
/// picks the row — and the counters of each access's Table I case.
///
/// The plan rows are precomputed, so the per-access work is one indexed
/// load (the branch-free fast path is part of the contract). Every
/// hook past the plan has a no-op default: a design overrides only what
/// it does differently. [`Partitioning`] itself is the conventional
/// design's policy.
pub trait PartitionPolicy {
    /// The policy's plan, victim and coherence tables.
    fn tables(&self) -> &Partitioning;

    /// The lookup plan of a demand access, with the TFT verdict when the
    /// policy consults one (the consultation counts as a demand lookup).
    fn plan(
        &mut self,
        va: VirtAddr,
        is_superpage: bool,
        va_partition: usize,
    ) -> (LookupPlan, Option<bool>);

    /// Ways an access energizes beyond its lookup and finds nothing
    /// usable in (VESPA's discarded speculative narrow probe), charged
    /// to the policy's counters.
    fn wasted_probe_ways(&mut self, _is_superpage: bool) -> usize {
        0
    }

    /// Counts a finished access under its (refined) Table I case.
    fn record(&mut self, _case: LookupCase, _hit: bool) {}

    /// True when lookups narrow to a partition, so lines of frames a
    /// promotion migrated away must be swept (§IV-C2).
    fn sweeps_promotions(&self) -> bool {
        false
    }

    /// Counts one promotion sweep that evicted `lines` lines.
    fn record_sweep(&mut self, _lines: usize) {}

    /// Trains the TFT with a superpage region.
    fn tft_fill(&mut self, _va: VirtAddr) {}

    /// Whether the TFT vouches for `va`, without counting a lookup;
    /// `None` for policies without a TFT.
    fn tft_probe(&self, _va: VirtAddr) -> Option<bool> {
        None
    }

    /// Drops prediction state for a superpage that was splintered or
    /// unmapped.
    fn invalidate_region(&mut self, _page: VirtPage) {}

    /// Drops all prediction state (address-space switch).
    fn flush(&mut self) {}

    /// Writes the policy's counters into the design's stats.
    fn report(&self, _stats: &mut DesignStats) {}
}

impl PartitionPolicy for Partitioning {
    fn tables(&self) -> &Partitioning {
        self
    }

    #[inline]
    fn plan(
        &mut self,
        _va: VirtAddr,
        _is_superpage: bool,
        va_partition: usize,
    ) -> (LookupPlan, Option<bool>) {
        (self.plan_row(0, va_partition), None)
    }
}

/// Way prediction: which single way to probe first.
///
/// Two families implement this. MRU prediction
/// ([`seesaw_cache::MruWayPredictor`], optional via `Option`) keys on
/// `(set, partition)` and is physically verified by construction; µtag
/// prediction ([`crate::MicroTagPrediction`]) keys on a hash of the
/// virtual tag and can be steered wrong by a virtual alias — the
/// predicted way's physical tag MUST be verified before the hit is
/// served (the checker's way-prediction-alias invariant).
pub trait WayPredict {
    /// The way to probe first, or `None` (no prediction available).
    fn predict(&self, set: usize, partition: usize, vtag: u64) -> Option<usize>;

    /// Trains the predictor with the way that actually held the line.
    fn train(&mut self, set: usize, partition: usize, vtag: u64, way: usize);

    /// True when a predictor is attached at all: the skeleton skips the
    /// post-fill way lookup that training needs otherwise.
    fn is_attached(&self) -> bool {
        true
    }

    /// Reports a prediction round's outcome for predictors that count
    /// separately from training (µtag). `tag_verified` is false when the
    /// predicted way's physical tag mismatched (a virtual alias).
    fn note_outcome(
        &mut self,
        _predicted: Option<usize>,
        _actual: Option<usize>,
        _tag_verified: bool,
    ) {
    }

    /// Called when the predicted `way`'s physical tag did not verify.
    /// Returns true when the predictor serves the way anyway — hardware
    /// that skips tag verification, the deliberate alias bug — having
    /// counted the served hit itself.
    fn serve_unverified(&mut self, _way: usize) -> bool {
        false
    }

    /// Ways a mispredicted first probe energized beyond the full retry
    /// (the µtag's discarded single-way probe; MRU's is not counted).
    fn mispredict_probe_ways(&self) -> usize {
        0
    }

    /// A coherence probe is about to invalidate line `ptag` of `set` in
    /// `cache`: drop any per-way state that would keep naming it.
    fn forget_line(&mut self, _cache: &SetAssocCache, _set: usize, _ptag: u64) {}

    /// Drops all prediction state (address-space switch).
    fn flush(&mut self) {}

    /// Counter snapshot, exported as `l1.waypred.*`; `None` when no
    /// predictor is attached.
    fn stats(&self) -> Option<WayPredictionStats>;
}

/// An optional MRU predictor (`None` predicts and trains nothing). MRU
/// predictions are verified against the physical tag on every probe and
/// re-trained from the true way, so a context switch only costs
/// accuracy, never correctness: no flush needed.
impl WayPredict for Option<MruWayPredictor> {
    #[inline]
    fn predict(&self, set: usize, partition: usize, _vtag: u64) -> Option<usize> {
        self.as_ref()?.predict(set, partition)
    }

    #[inline]
    fn train(&mut self, set: usize, partition: usize, _vtag: u64, way: usize) {
        if let Some(wp) = self {
            wp.update(set, partition, way);
        }
    }

    #[inline]
    fn is_attached(&self) -> bool {
        self.is_some()
    }

    fn stats(&self) -> Option<WayPredictionStats> {
        self.as_ref().map(MruWayPredictor::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VespaPartitioning;
    use crate::{L1Timing, MicroTagPrediction, SeesawConfig, SeesawPartitioning, VespaConfig};
    use seesaw_cache::{CacheConfig, IndexPolicy, MicroTagPredictor};

    fn timing() -> L1Timing {
        L1Timing {
            fast_cycles: 1,
            slow_cycles: 2,
        }
    }

    #[test]
    fn virtual_index_matches_manual_arithmetic() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let idx = VirtualIndex::new(cfg.sets(), cfg.line_bytes);
        let va = VirtAddr::new(0x4000_1040);
        assert_eq!(
            idx.set_of(va, PhysAddr::new(0)),
            ((0x4000_1040u64 >> 6) & 63) as usize
        );
    }

    #[test]
    fn flexible_index_picks_the_right_address() {
        let vipt = FlexibleIndex::new(64, 64, true);
        let pipt = FlexibleIndex::new(128, 64, false);
        let va = VirtAddr::new(0x1040);
        let pa = PhysAddr::new(0x2040);
        assert_eq!(vipt.set_of(va, pa), 0x41 & 63);
        assert_eq!(pipt.set_of(va, pa), 0x81 & 127);
        assert_eq!(vipt.set_of_pa(pa), 0x81 & 63, "coherence indexes by PA");
    }

    #[test]
    fn seesaw_plans_match_table_i() {
        let mut pol = SeesawPartitioning::new(SeesawConfig::l1_32k(), timing());
        let va = VirtAddr::new(0x4000_1040);
        // Row 3: cold TFT on a superpage → full + slow.
        let (miss, tft) = pol.plan(va, true, 1);
        assert_eq!(tft, Some(false));
        assert_eq!(miss.mask.count(), 8);
        assert_eq!(miss.case, LookupCase::SuperTftMiss);
        // Row 4: base page → full + slow.
        assert_eq!(pol.plan(va, false, 0).0.case, LookupCase::BasePage);
        // Rows 1-2: TFT hit → narrow + fast, speculation holds.
        pol.tft_fill(va);
        let (fast, tft) = pol.plan(va, true, 1);
        assert_eq!(tft, Some(true));
        assert_eq!(fast.mask.count(), 4);
        assert_eq!(fast.latency, 1);
        assert!(fast.fast_held);
        // 4way insertion keeps coherence narrow.
        assert_eq!(pol.tables().coherence_mask(1).count(), 4);
        assert_eq!(pol.tables().victim_mask(false, 1).count(), 4);
        assert!(pol.sweeps_promotions() && pol.tables().pins_lines());
    }

    #[test]
    fn vespa_plans_ignore_the_tft() {
        let mut pol = VespaPartitioning::new(VespaConfig::with_size_kb(32), timing());
        let va = VirtAddr::new(0x4000_1040);
        let (sup, tft) = pol.plan(va, true, 1);
        assert_eq!(tft, None);
        assert_eq!(sup.mask.count(), 4, "superpage is always narrow");
        assert_eq!(sup.latency, 1);
        assert!(sup.fast_held);
        let (base, _) = pol.plan(va, false, 1);
        assert_eq!(base.mask.count(), 8);
        assert!(base.fast_held, "TLB confirms in parallel: no squash");
        assert_eq!(pol.wasted_probe_ways(false), 4);
        assert_eq!(pol.wasted_probe_ways(true), 0);
    }

    #[test]
    fn policies_are_interchangeable_as_trait_objects() {
        let seesaw = SeesawPartitioning::new(SeesawConfig::l1_32k(), timing());
        let vespa = VespaPartitioning::new(VespaConfig::with_size_kb(32), timing());
        let policies: [&dyn PartitionPolicy; 2] = [&seesaw, &vespa];
        for pol in policies {
            let tables = pol.tables();
            for p in 0..2 {
                assert!(tables.coherence_mask(p).contains(p * 4));
                assert_eq!(tables.victim_mask(true, p).count(), 4);
            }
            assert_eq!(tables.decoder().partition_of_pa(PhysAddr::new(0x1000)), 1);
            assert!(pol.sweeps_promotions());
        }
    }

    #[test]
    fn full_set_is_one_conventional_row() {
        // PIPT geometries need not have a power-of-two set count.
        let mut pol = Partitioning::full_set(3, timing());
        let (plan, tft) = pol.plan(VirtAddr::new(0x4000_1040), true, 0);
        assert_eq!((plan.mask.count(), plan.latency, tft), (3, 2, None));
        assert_eq!(plan.case, LookupCase::Conventional);
        assert_eq!(pol.victim_mask(true, 0), plan.mask);
        assert_eq!(pol.coherence_mask(0), plan.mask);
        assert!(!pol.sweeps_promotions());
    }

    #[test]
    fn way_predictors_are_interchangeable() {
        let mut mru = Some(MruWayPredictor::new(8, 1));
        let mut utag = MicroTagPrediction::new(MicroTagPredictor::new(8, 4), true);
        {
            let preds: [&mut dyn WayPredict; 2] = [&mut mru, &mut utag];
            for p in preds {
                assert_eq!(p.predict(3, 0, 0xabc), None);
                p.train(3, 0, 0xabc, 2);
                assert_eq!(p.predict(3, 0, 0xabc), Some(2));
                p.note_outcome(Some(2), Some(2), true);
                // MRU counts outcomes at train time (note_outcome is a
                // no-op for it); the µtag counts them in note_outcome and
                // treats the retrain as idempotent. Either way: one hit.
                p.train(3, 0, 0xabc, 2);
            }
        }
        // µtag flushes on context switch; MRU (physically verified)
        // survives.
        utag.flush();
        assert_eq!(utag.predict(3, 0, 0xabc), None);
        WayPredict::flush(&mut mru);
        assert_eq!(mru.predict(3, 0, 0xabc), Some(2));
        // Both export the shared stats shape; an absent predictor none.
        assert_eq!(mru.stats().map(|s| s.hits), Some(1));
        assert_eq!(utag.stats().map(|s| s.hits), Some(1));
        assert_eq!(None::<MruWayPredictor>.stats(), None);
        assert!(!None::<MruWayPredictor>.is_attached());
    }
}
