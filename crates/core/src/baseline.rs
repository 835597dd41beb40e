//! Baseline L1 designs: conventional VIPT (the paper's baseline) and PIPT
//! with arbitrary associativity (the Fig. 14 alternatives).

use seesaw_cache::{CacheConfig, MruWayPredictor};

use crate::{ComposedL1, FlexibleIndex, L1Timing, Partitioning};

/// A conventional L1: full-set lookups at the slow hit time
/// ([`FlexibleIndex`] + full-set [`Partitioning`] + an optional MRU way
/// predictor). VIPT indexes with the virtual address in parallel with
/// the TLB; PIPT must wait for the translation (the CPU model serializes
/// TLB latency for PIPT designs).
///
/// # Example
/// ```
/// use seesaw_cache::{CacheConfig, IndexPolicy};
/// use seesaw_core::{BaselineL1, L1DataCache, L1Request, L1Timing};
/// use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
///
/// let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
/// let mut l1 = BaselineL1::new(cfg, L1Timing { fast_cycles: 2, slow_cycles: 2 }, false);
/// let req = L1Request {
///     va: VirtAddr::new(0x1000),
///     pa: PhysAddr::new(0x8000),
///     page_size: PageSize::Base4K,
///     is_write: false,
/// };
/// assert!(!l1.access(&req).hit);
/// assert!(l1.access(&req).hit);
/// ```
pub type BaselineL1 = ComposedL1<FlexibleIndex, Partitioning, Option<MruWayPredictor>>;

impl BaselineL1 {
    /// Builds a baseline L1. `way_prediction` attaches an MRU predictor
    /// over the full set (the WP design of Fig. 15).
    pub fn new(config: CacheConfig, timing: L1Timing, way_prediction: bool) -> Self {
        let sets = config.sets();
        ComposedL1::compose(
            config,
            FlexibleIndex::new(
                sets,
                config.line_bytes,
                config.indexing.indexes_with_virtual_address(),
            ),
            Partitioning::full_set(config.ways, timing),
            way_prediction.then(|| MruWayPredictor::new(sets, 1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{L1DataCache, L1Request, LookupCase};
    use seesaw_cache::IndexPolicy;
    use seesaw_mem::{PageSize, PhysAddr, VirtAddr};

    fn req(va: u64, pa: u64) -> L1Request {
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write: false,
        }
    }

    fn timing() -> L1Timing {
        L1Timing {
            fast_cycles: 2,
            slow_cycles: 2,
        }
    }

    #[test]
    fn vipt_baseline_always_probes_all_ways() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        let r = req(0x1040, 0x8040);
        let out = l1.access(&r);
        assert_eq!(out.ways_probed, 8);
        assert_eq!(out.case, LookupCase::Conventional);
        let out = l1.access(&r);
        assert!(out.hit);
        assert_eq!(out.latency_cycles, 2);
    }

    #[test]
    fn pipt_indexes_with_physical_bits() {
        // 128 sets (4-way 32 KB PIPT): index bit 12 comes from the PA.
        let cfg = CacheConfig::new(32 << 10, 4, 64, IndexPolicy::Pipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        l1.access(&req(0x0040, 0x1040));
        // Same VA, different PA bit 12 → different set, so no hit.
        let out = l1.access(&req(0x0040, 0x0040));
        assert!(!out.hit);
        // Original PA hits.
        assert!(l1.access(&req(0x0040, 0x1040)).hit);
    }

    #[test]
    fn coherence_pays_full_associativity() {
        let cfg = CacheConfig::new(64 << 10, 16, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        let (_, ways) = l1.coherence_probe(PhysAddr::new(0x9040), false);
        assert_eq!(ways, 16, "baseline coherence probes every way");
    }

    #[test]
    fn way_prediction_saves_energy_not_latency() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), true);
        let r = req(0x2040, 0x9040);
        l1.access(&r); // fill + train
        let out = l1.access(&r);
        assert_eq!(out.way_prediction_correct, Some(true));
        assert_eq!(out.ways_probed, 1);
        assert_eq!(out.latency_cycles, 2, "tag compare still waits for the TLB");
    }

    #[test]
    fn way_misprediction_adds_latency() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), true);
        let a = req(0x2040, 0x9040);
        let b = req(0x2040 + (32 << 10), 0x19040); // same set, different line
        l1.access(&a);
        l1.access(&b); // retrains to b's way
        let out = l1.access(&a);
        assert_eq!(out.way_prediction_correct, Some(false));
        assert_eq!(out.latency_cycles, 4, "second probe round");
        assert_eq!(out.ways_probed, 8);
    }
}
