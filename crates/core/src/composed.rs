//! The one L1 skeleton every VIPT/PIPT design instantiates.

use seesaw_cache::{AccessResult, CacheConfig, CacheStats, MoesiState, SetAssocCache, WayMask};
use seesaw_mem::{PageFrame, PageSize, PageTableOp, PhysAddr, VirtAddr};

use crate::{
    DesignStats, IndexSelect, L1AccessOutcome, L1DataCache, L1Request, LookupCase, PartitionPolicy,
    PromotionAudit, WayPredict,
};

/// A set-associative L1 composed from an index function `I`, a partition
/// policy `P` and a way predictor `W` (see the `policy` module).
///
/// The access → fill → coherence → promotion-sweep skeleton is written
/// once, here; [`crate::SeesawL1`], [`crate::VespaL1`],
/// [`crate::BaselineL1`] and [`crate::MicroTagL1`] are instantiations.
/// The bounds are static, so each instantiation compiles to its own
/// branch-free hot path.
#[derive(Debug, Clone)]
pub struct ComposedL1<I, P, W> {
    cache: SetAssocCache,
    index: I,
    pub(crate) policy: P,
    pub(crate) waypred: W,
    /// Bits below the virtual tag (line offset + set index), for
    /// VA-keyed predictors.
    vtag_shift: u32,
}

impl<I: IndexSelect, P: PartitionPolicy, W: WayPredict> ComposedL1<I, P, W> {
    /// Composes an L1 of `config`'s geometry from its three layers.
    pub(crate) fn compose(config: CacheConfig, index: I, policy: P, waypred: W) -> Self {
        Self {
            cache: SetAssocCache::new(config),
            vtag_shift: config.line_bytes.trailing_zeros()
                + (config.sets() as u64).trailing_zeros(),
            index,
            policy,
            waypred,
        }
    }

    /// Counts resident lines that sit outside the partition their
    /// physical address names. Under a partition-deterministic insertion
    /// policy (`4way`) this must be zero, or the narrow coherence path
    /// cannot find them (§IV-C1); otherwise the count is meaningless and
    /// `None` is returned.
    pub(crate) fn audit_partition_reachability(&self) -> Option<usize> {
        let tables = self.policy.tables();
        if !tables.pins_lines() {
            return None;
        }
        let line_bytes = self.cache.config().line_bytes;
        let unreachable = self
            .cache
            .resident_lines()
            .filter(|line| {
                let pa = PhysAddr::new(line.ptag * line_bytes);
                let home = tables.decoder().partition_of_pa(pa);
                !tables.coherence_mask(home).contains(line.way)
            })
            .count();
        Some(unreachable)
    }

    fn ptag(&self, pa: PhysAddr) -> u64 {
        self.cache.config().line_of(pa)
    }
}

impl<I: IndexSelect, P: PartitionPolicy, W: WayPredict> L1DataCache for ComposedL1<I, P, W> {
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome {
        let set = self.index.set_of(req.va, req.pa);
        let ptag = self.ptag(req.pa);
        let is_superpage = req.page_size.is_superpage();
        let p_va = self.policy.tables().decoder().partition_of_va(req.va);
        // Everything the TFT verdict and page size decide — mask, latency,
        // Table I case, fast-path assumption — is one precomputed row.
        let (plan, tft_hit) = self.policy.plan(req.va, is_superpage, p_va);
        let vtag = req.va.raw() >> self.vtag_shift;
        let mut extra_ways = self.policy.wasted_probe_ways(is_superpage);

        // Optional way prediction inside the presented mask (§IV-B2).
        let mut latency = plan.latency;
        let mut way_prediction_correct = None;
        let mut unverified_alias_way = None;
        let predicted = self
            .waypred
            .predict(set, p_va, vtag)
            .filter(|&w| plan.mask.contains(w));
        let result = match predicted {
            Some(w) if self.cache.peek(set, ptag, WayMask::single(w)).is_some() => {
                // The predicted way verifies: a one-way probe.
                way_prediction_correct = Some(true);
                self.waypred.note_outcome(predicted, Some(w), true);
                self.cache.read(set, ptag, WayMask::single(w))
            }
            Some(w) if self.waypred.serve_unverified(w) => {
                // The deliberate bug: the aliased way is served as a hit
                // without verification. The line delivered belongs to a
                // different physical address; the shadow checker's
                // way-prediction-alias invariant must flag it.
                way_prediction_correct = Some(true);
                unverified_alias_way = Some(w);
                AccessResult {
                    hit: true,
                    way: Some(w),
                    ways_probed: 1,
                }
            }
            Some(_) => {
                // Mispredict (or a µtag alias): a second probe round at
                // the same width.
                way_prediction_correct = Some(false);
                latency += plan.latency;
                extra_ways += self.waypred.mispredict_probe_ways();
                let result = self.cache.read(set, ptag, plan.mask);
                self.waypred.note_outcome(predicted, result.way, false);
                result
            }
            None => {
                let result = self.cache.read(set, ptag, plan.mask);
                self.waypred.note_outcome(None, result.way, true);
                result
            }
        };

        let mut case = plan.case;
        let mut evicted = None;
        if unverified_alias_way.is_some() {
            // Nothing was looked up, so nothing is upgraded, trained or
            // filled.
        } else if result.hit {
            if req.is_write {
                // The probe above already found and touched the line; just
                // upgrade its state (no extra probe, no extra counters).
                self.cache.set_line_state(set, ptag, MoesiState::Modified);
            }
            if let Some(w) = result.way {
                self.waypred.train(set, p_va, vtag, w);
            }
        } else {
            if case == LookupCase::SuperTftHitCacheHit {
                case = LookupCase::SuperTftHitCacheMiss;
            }
            let tables = self.policy.tables();
            let p_pa = tables.decoder().partition_of_pa(req.pa);
            debug_assert!(
                !is_superpage || p_pa == p_va,
                "superpage partition bits must match between VA and PA"
            );
            let victim_mask = tables.victim_mask(is_superpage, p_pa);
            evicted = self.cache.fill(set, ptag, victim_mask, req.is_write);
            if self.waypred.is_attached() {
                if let Some(w) = self.cache.resident_way(set, ptag) {
                    self.waypred.train(set, p_va, vtag, w);
                }
            }
        }
        self.policy.record(case, result.hit);

        L1AccessOutcome {
            hit: result.hit,
            latency_cycles: latency,
            ways_probed: result.ways_probed + extra_ways,
            case,
            tft_hit,
            evicted,
            fast_assumption_held: plan.fast_held,
            way_prediction_correct,
            unverified_alias_way,
        }
    }

    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize) {
        let set = self.index.set_of_pa(pa);
        let ptag = self.ptag(pa);
        // The 4way insertion policy pins every line to its physical
        // partition, so every coherence probe is narrow (§IV-C1); the
        // per-partition masks are precomputed either way.
        let tables = self.policy.tables();
        let mask = tables.coherence_mask(tables.decoder().partition_of_pa(pa));
        if invalidate {
            self.waypred.forget_line(&self.cache, set, ptag);
        }
        let present = self.cache.coherence_probe(set, ptag, mask, invalidate);
        (present.is_some(), mask.count())
    }

    fn total_ways(&self) -> usize {
        self.cache.config().ways
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn tft_fill(&mut self, va: VirtAddr) {
        self.policy.tft_fill(va);
    }

    fn tft_probe(&self, va: VirtAddr) -> Option<bool> {
        self.policy.tft_probe(va)
    }

    /// TFT invalidation on splintering and unmapping, and the L1 sweep on
    /// promotion (§IV-C2). The paper hides the sweep inside the
    /// 150–200-cycle TLB-shootdown window ("we have found 150-200 cycles
    /// ample to perform a full cache sweep"), so it stalls nothing.
    fn handle_op(&mut self, op: &PageTableOp) {
        match op {
            PageTableOp::Unmapped(page) | PageTableOp::Splintered(page)
                if page.size() == PageSize::Super2M =>
            {
                self.policy.invalidate_region(*page);
            }
            PageTableOp::Promoted { old_frames, .. } if self.policy.sweeps_promotions() => {
                // Evict every line belonging to the invalidated base pages.
                let in_old_frames = frame_lines(old_frames, self.cache.config().line_bytes);
                let evicted = self.cache.sweep(in_old_frames);
                self.policy.record_sweep(evicted.len());
            }
            _ => {}
        }
    }

    /// Flushes the TFT (no ASID tags, §IV-C3) and any virtually-keyed
    /// predictor (a µtag cannot survive an address-space switch).
    fn context_switch(&mut self) {
        self.policy.flush();
        self.waypred.flush();
    }

    fn promotion_audit(&self, old_frames: &[PageFrame]) -> Option<PromotionAudit> {
        if !self.policy.sweeps_promotions() {
            return None;
        }
        let in_old_frames = frame_lines(old_frames, self.cache.config().line_bytes);
        Some(PromotionAudit::Swept {
            resident: self
                .cache
                .resident_lines()
                .filter(|line| in_old_frames(line.ptag))
                .count(),
            unreachable: self.audit_partition_reachability(),
        })
    }

    fn design_stats(&self) -> DesignStats {
        let mut stats = DesignStats {
            way_prediction: self.waypred.stats(),
            ..DesignStats::default()
        };
        self.policy.report(&mut stats);
        stats
    }
}

/// Whether a physical line lies in one of `frames`: a binary search over
/// their sorted line ranges (frames never overlap, so only the last range
/// starting at or below the line can hold it).
fn frame_lines(frames: &[PageFrame], line_bytes: u64) -> impl Fn(u64) -> bool {
    let mut ranges: Vec<(u64, u64)> = frames
        .iter()
        .map(|f| {
            let first = f.base().raw() / line_bytes;
            (first, first + f.size().bytes() / line_bytes)
        })
        .collect();
    ranges.sort_unstable();
    move |ptag| {
        let i = ranges.partition_point(|&(lo, _)| lo <= ptag);
        i > 0 && ptag < ranges[i - 1].1
    }
}
