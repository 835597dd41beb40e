//! Per-event energy costs for the whole memory hierarchy.

use crate::SramModel;

/// Energy cost of each countable event, in nJ. These are typical 22 nm
/// magnitudes chosen so the relative weights (L1 ≪ L2 ≪ LLC ≪ DRAM,
/// TFT ≪ TLB ≪ L1) match the structures' sizes; the paper's results are
/// ratios, which depend on these relative weights rather than absolutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventCosts {
    /// One L1 TLB lookup (all split TLBs probed in parallel).
    pub tlb_l1_nj: f64,
    /// One L2 TLB lookup.
    pub tlb_l2_nj: f64,
    /// One page-table walk (several cached memory references).
    pub walk_nj: f64,
    /// One TFT lookup (16 entries, 86 bytes — "roughly the size of an
    /// 8-entry L1 TLB", §IV-A2).
    pub tft_nj: f64,
    /// One L2 cache access.
    pub l2_nj: f64,
    /// One LLC access.
    pub llc_nj: f64,
    /// One DRAM access.
    pub dram_nj: f64,
    /// One L1 line fill (victim selection + array write).
    pub l1_fill_nj: f64,
}

impl Default for EventCosts {
    fn default() -> Self {
        Self {
            tlb_l1_nj: 0.004,
            tlb_l2_nj: 0.025,
            walk_nj: 0.30,
            tft_nj: 0.0006,
            l2_nj: 0.18,
            llc_nj: 0.90,
            dram_nj: 18.0,
            l1_fill_nj: 0.020,
        }
    }
}

/// The complete energy model: SRAM lookup tables plus event costs.
///
/// # Example
/// ```
/// use seesaw_energy::{EnergyModel, SramModel};
/// let model = EnergyModel::new(SramModel::tsmc28_scaled_22nm());
/// let eight = model.l1_lookup_nj(32, 8, 8);
/// let four = model.l1_lookup_nj(32, 8, 4);
/// assert!(four < eight);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    sram: SramModel,
    costs: EventCosts,
}

impl EnergyModel {
    /// Builds the model with default event costs.
    pub fn new(sram: SramModel) -> Self {
        Self {
            sram,
            costs: EventCosts::default(),
        }
    }

    /// The SRAM sub-model.
    pub fn sram(&self) -> &SramModel {
        &self.sram
    }

    /// The event cost table.
    pub fn costs(&self) -> &EventCosts {
        &self.costs
    }

    /// Energy of an L1 lookup probing `ways_probed` of `total_ways`.
    pub fn l1_lookup_nj(&self, size_kb: u64, total_ways: usize, ways_probed: usize) -> f64 {
        self.sram.lookup_energy_nj(size_kb, total_ways, ways_probed)
    }

    /// L1 leakage energy over `nanoseconds` of runtime, in nJ.
    pub fn l1_leakage_nj(&self, size_kb: u64, nanoseconds: f64) -> f64 {
        // mW × ns = pJ; divide by 1000 for nJ.
        self.sram.leakage_mw(size_kb) * nanoseconds / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_ordered_by_structure_size() {
        let c = EventCosts::default();
        assert!(c.tft_nj < c.tlb_l1_nj);
        assert!(c.tlb_l1_nj < c.tlb_l2_nj);
        assert!(c.l2_nj < c.llc_nj);
        assert!(c.llc_nj < c.dram_nj);
    }

    #[test]
    fn leakage_accumulates_with_time() {
        let m = EnergyModel::new(SramModel::tsmc28_scaled_22nm());
        let one_us = m.l1_leakage_nj(32, 1000.0);
        let two_us = m.l1_leakage_nj(32, 2000.0);
        assert!((two_us - 2.0 * one_us).abs() < 1e-12);
        // 32 KB at 0.03 mW/KB = 0.96 mW → 0.96 nJ per µs.
        assert!((one_us - 0.96).abs() < 1e-9);
    }

    #[test]
    fn tft_lookup_is_far_cheaper_than_l1_lookup() {
        let m = EnergyModel::new(SramModel::tsmc28_scaled_22nm());
        assert!(m.costs().tft_nj * 10.0 < m.l1_lookup_nj(32, 8, 4));
    }
}
