//! Baseline VIPT + Zen2-style µtag way prediction.
//!
//! The third competitor in the design lab: keep the conventional VIPT
//! array (no partitions, no TFT) and attack lookup *energy* purely with
//! AMD Family-17h's µtag predictor ([`MicroTagPredictor`]): a short hash
//! of the virtual tag stored per (set, way) picks the single way to
//! probe. A correct prediction probes one way instead of all of them;
//! the physical tag read alongside verifies it. Because the µtag is
//! virtual and lossy, aliases happen: the predicted way holds a
//! *different* physical line, verification fails, and the access pays a
//! second full-set round (double latency — the documented Zen2 penalty).
//!
//! Serving a µtag match *without* tag verification would return another
//! address's data — the way-prediction-alias invariant the shadow
//! checker owns. The `verify_tags: false` configuration (armed by the
//! chaos knob `skip_way_verification`) models exactly that hardware bug
//! so fault-injection tests can watch the checker catch it.

use seesaw_cache::{CacheConfig, MicroTagPredictor, SetAssocCache, WayPredictionStats};

use crate::{ComposedL1, L1Timing, Partitioning, VirtualIndex, WayPredict};

/// Configuration of a µtag-predicted baseline L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroTagConfig {
    /// The underlying VIPT geometry.
    pub cache: CacheConfig,
    /// Verify the predicted way's physical tag before serving the hit
    /// (always true in correct hardware; false = the chaos bug).
    pub verify_tags: bool,
}

impl MicroTagConfig {
    /// A µtag design over the given geometry with verification on.
    pub fn new(cache: CacheConfig) -> Self {
        Self {
            cache,
            verify_tags: true,
        }
    }

    /// Returns a copy with tag verification disabled (the deliberate
    /// alias-serving bug for checker tests).
    pub fn without_verification(mut self) -> Self {
        self.verify_tags = false;
        self
    }
}

/// The µtag as a [`WayPredict`] layer: the predictor plus the
/// verification switch. Outcomes are counted at prediction time
/// ([`WayPredict::note_outcome`]), a mispredict also pays for its
/// discarded single-way probe, invalidated lines drop their µtag, and a
/// context switch flushes them all.
#[derive(Debug, Clone)]
pub struct MicroTagPrediction {
    utag: MicroTagPredictor,
    /// Verify the predicted way's physical tag before serving the hit.
    verify_tags: bool,
    /// Aliased hits served without verification (chaos mode only).
    unverified_served: u64,
}

impl MicroTagPrediction {
    /// Wraps a predictor; `verify_tags: false` arms the alias bug.
    pub(crate) fn new(utag: MicroTagPredictor, verify_tags: bool) -> Self {
        Self {
            utag,
            verify_tags,
            unverified_served: 0,
        }
    }
}

impl WayPredict for MicroTagPrediction {
    #[inline]
    fn predict(&self, set: usize, _partition: usize, vtag: u64) -> Option<usize> {
        self.utag.predict(set, vtag)
    }

    #[inline]
    fn train(&mut self, set: usize, _partition: usize, vtag: u64, way: usize) {
        self.utag.train(set, way, vtag);
    }

    // A miss lands in `note_outcome(None, ..)` too, which is correct: a
    // miss has no way to predict.
    #[inline]
    fn note_outcome(
        &mut self,
        predicted: Option<usize>,
        actual: Option<usize>,
        tag_verified: bool,
    ) {
        self.utag.record(predicted, actual, tag_verified);
    }

    fn serve_unverified(&mut self, way: usize) -> bool {
        if self.verify_tags {
            return false;
        }
        self.unverified_served += 1;
        self.utag.record(Some(way), Some(way), true);
        true
    }

    /// Correct hardware detects the alias and pays a second full-set
    /// round; the discarded single-way probe still energized a way.
    fn mispredict_probe_ways(&self) -> usize {
        1
    }

    /// A stale µtag would steer predictions to an invalid way.
    fn forget_line(&mut self, cache: &SetAssocCache, set: usize, ptag: u64) {
        if let Some(way) = cache.resident_way(set, ptag) {
            self.utag.invalidate(set, way);
        }
    }

    /// The µtag is virtually tagged and ASID-less, so an address-space
    /// switch invalidates all of it.
    fn flush(&mut self) {
        self.utag.flush();
    }

    fn stats(&self) -> Option<WayPredictionStats> {
        Some(self.utag.stats())
    }
}

/// Baseline VIPT with a µtag way predictor: [`VirtualIndex`] +
/// full-set [`Partitioning`] + [`MicroTagPrediction`].
pub type MicroTagL1 = ComposedL1<VirtualIndex, Partitioning, MicroTagPrediction>;

impl MicroTagL1 {
    /// Builds a µtag-predicted L1.
    pub fn new(config: MicroTagConfig, timing: L1Timing) -> Self {
        let sets = config.cache.sets();
        ComposedL1::compose(
            config.cache,
            VirtualIndex::new(sets, config.cache.line_bytes),
            Partitioning::full_set(config.cache.ways, timing),
            MicroTagPrediction::new(
                MicroTagPredictor::new(sets, config.cache.ways),
                config.verify_tags,
            ),
        )
    }

    /// Aliased hits served without tag verification — nonzero only when
    /// the `skip_way_verification` chaos knob armed the deliberate bug.
    pub fn unverified_served(&self) -> u64 {
        self.waypred.unverified_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{L1DataCache, L1Request};
    use seesaw_cache::IndexPolicy;
    use seesaw_mem::{PageSize, PhysAddr, VirtAddr};

    fn l1(verify: bool) -> MicroTagL1 {
        let cfg = MicroTagConfig::new(CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt));
        let cfg = if verify {
            cfg
        } else {
            cfg.without_verification()
        };
        MicroTagL1::new(
            cfg,
            L1Timing {
                fast_cycles: 2,
                slow_cycles: 2,
            },
        )
    }

    fn req(va: u64, pa: u64) -> L1Request {
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write: false,
        }
    }

    /// Two VAs in the same set whose virtual tags share a µtag.
    fn alias_pair() -> (u64, u64) {
        let base = 0x2040u64;
        let target = MicroTagPredictor::utag_of(base >> 12);
        let mut other = base + (32 << 10);
        loop {
            if MicroTagPredictor::utag_of(other >> 12) == target {
                return (base, other);
            }
            other += 32 << 10; // next VA mapping to the same set
        }
    }

    #[test]
    fn correct_prediction_probes_one_way() {
        let mut l1 = l1(true);
        let r = req(0x2040, 0x9040);
        l1.access(&r); // fill + train
        let out = l1.access(&r);
        assert!(out.hit);
        assert_eq!(out.way_prediction_correct, Some(true));
        assert_eq!(out.ways_probed, 1);
        assert_eq!(out.latency_cycles, 2);
        assert_eq!(l1.design_stats().way_prediction.unwrap().hits, 1);
    }

    #[test]
    fn verified_alias_pays_a_second_round() {
        let (a, b) = alias_pair();
        let mut l1 = l1(true);
        l1.access(&req(a, 0x9040)); // trains way w with the shared µtag
                                    // Different VA, same µtag, different physical line: the predictor
                                    // steers to a's way, verification fails, full round follows.
        let out = l1.access(&req(b, 0x19_0040));
        assert_eq!(out.way_prediction_correct, Some(false));
        assert_eq!(out.latency_cycles, 4, "alias pays double latency");
        assert_eq!(out.unverified_alias_way, None, "verification caught it");
        assert_eq!(
            l1.design_stats().way_prediction.unwrap().alias_mispredicts,
            1
        );
    }

    #[test]
    fn unverified_alias_is_served_and_reported() {
        let (a, b) = alias_pair();
        let mut l1 = l1(false);
        l1.access(&req(a, 0x9040));
        let out = l1.access(&req(b, 0x19_0040));
        assert!(out.hit, "the bug serves the wrong line as a hit");
        assert!(out.unverified_alias_way.is_some());
        assert_eq!(l1.unverified_served(), 1);
    }

    #[test]
    fn context_switch_flushes_predictions() {
        let mut l1 = l1(true);
        let r = req(0x2040, 0x9040);
        l1.access(&r);
        l1.context_switch();
        let out = l1.access(&r);
        assert!(out.hit);
        assert_eq!(
            out.way_prediction_correct, None,
            "no prediction after flush"
        );
        assert_eq!(out.ways_probed, 8);
    }

    #[test]
    fn coherence_invalidation_clears_the_utag() {
        let mut l1 = l1(true);
        let r = req(0x2040, 0x9040);
        l1.access(&r);
        let (present, ways) = l1.coherence_probe(PhysAddr::new(0x9040), true);
        assert!(present);
        assert_eq!(ways, 8, "µtag keys on VA: coherence stays full-width");
        let out = l1.access(&r);
        assert!(!out.hit);
        assert_eq!(out.way_prediction_correct, None, "stale µtag was dropped");
    }

    #[test]
    fn synonyms_evict_each_others_utag() {
        // Two VAs for the same physical line (a synonym pair) in the same
        // set with distinct µtags: training one overwrites the way's single
        // µtag slot, so the other synonym never finds a prediction — the
        // Zen2 rule that only one virtual alias per line is predictable at
        // a time. The cost shows up as cold full-set probes, not aliases.
        let mut l1 = l1(true);
        let a = req(0x2040, 0x9040);
        let b = req(0x3040, 0x9040); // same set (stride 4 KB), new vtag
        l1.access(&a); // fill, trains a's µtag on the line's way
        let out = l1.access(&b);
        assert!(out.hit);
        assert_eq!(out.way_prediction_correct, None, "b's µtag not present");
        let out = l1.access(&a); // b's train evicted a's µtag
        assert_eq!(out.way_prediction_correct, None);
        assert_eq!(out.ways_probed, 8);
        assert_eq!(l1.design_stats().way_prediction.unwrap().cold, 3);
        assert_eq!(
            l1.design_stats().way_prediction.unwrap().alias_mispredicts,
            0
        );
    }
}
