//! Cache geometry and indexing policy.

use seesaw_mem::{PageSize, PhysAddr, VirtAddr};

/// How the cache forms its set index relative to address translation
/// (§II-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexPolicy {
    /// Virtually indexed, physically tagged: set selection overlaps TLB
    /// lookup; index bits must fit in the page offset.
    Vipt,
    /// Physically indexed, physically tagged: translation precedes
    /// indexing (slow, but no constraint on set count).
    Pipt,
    /// Virtually indexed, virtually tagged: no translation needed for
    /// lookup, but synonym management is required.
    Vivt,
}

impl IndexPolicy {
    /// True if set selection can begin before translation completes.
    pub fn indexes_with_virtual_address(self) -> bool {
        matches!(self, IndexPolicy::Vipt | IndexPolicy::Vivt)
    }
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Indexing policy.
    pub indexing: IndexPolicy,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (non-power-of-two line size
    /// or set count, or size not divisible by `ways × line_bytes`).
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64, indexing: IndexPolicy) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes.is_multiple_of(ways as u64 * line_bytes),
            "size must be a whole number of sets"
        );
        Self {
            size_bytes,
            ways,
            line_bytes,
            indexing,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }

    /// Number of set-index bits (`ceil(log2(sets))`).
    pub fn index_bits(&self) -> u32 {
        (self.sets() as u64).next_power_of_two().trailing_zeros()
    }

    /// Number of byte-offset bits.
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// True if this geometry satisfies the VIPT constraint `k + b ≤ p`
    /// for the given base page size (Fig. 1): all index bits fall inside
    /// the page offset, so virtual and physical indexing agree.
    pub fn vipt_safe(&self, base_page: PageSize) -> bool {
        self.index_bits() + self.offset_bits() <= base_page.offset_bits()
    }

    /// Set index for an access, per the indexing policy.
    ///
    /// # Panics
    /// Panics if a PIPT cache is indexed without a physical address.
    pub fn set_index(&self, va: VirtAddr, pa: Option<PhysAddr>) -> usize {
        let addr = match self.indexing {
            IndexPolicy::Vipt | IndexPolicy::Vivt => va.raw(),
            IndexPolicy::Pipt => pa
                .expect("PIPT indexing requires the physical address")
                .raw(),
        };
        ((addr >> self.offset_bits()) as usize) % self.sets()
    }

    /// Set index for a physically-addressed (coherence) lookup. Valid for
    /// VIPT caches only when the geometry is VIPT-safe, in which case the
    /// physical index bits equal the virtual ones.
    pub fn set_index_physical(&self, pa: PhysAddr) -> usize {
        ((pa.raw() >> self.offset_bits()) as usize) % self.sets()
    }

    /// The physical line address (used as tag) for an address.
    pub fn line_of(&self, pa: PhysAddr) -> u64 {
        pa.raw() >> self.offset_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        assert_eq!(cfg.sets(), 64);
        assert_eq!(cfg.index_bits(), 6);
        assert_eq!(cfg.offset_bits(), 6);
        assert!(cfg.vipt_safe(PageSize::Base4K));
    }

    #[test]
    fn vipt_constraint_detects_violation() {
        // 64 KB, 8-way → 128 sets → 7 index bits + 6 offset = 13 > 12.
        let cfg = CacheConfig::new(64 << 10, 8, 64, IndexPolicy::Vipt);
        assert!(!cfg.vipt_safe(PageSize::Base4K));
        // …but fine with 2 MB pages (21 offset bits) — Fig. 1d's point.
        assert!(cfg.vipt_safe(PageSize::Super2M));
        // The paper's baselines keep 64 sets by adding ways.
        let baseline = CacheConfig::new(64 << 10, 16, 64, IndexPolicy::Vipt);
        assert!(baseline.vipt_safe(PageSize::Base4K));
    }

    #[test]
    fn virtual_and_physical_indexing() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let va = VirtAddr::new(0x1234_5678);
        // VIPT: index from VA only.
        let idx = cfg.set_index(va, None);
        assert_eq!(idx, ((0x1234_5678u64 >> 6) & 63) as usize);
        // VIPT-safe geometry: physical index agrees when PA shares the
        // page offset.
        let pa = PhysAddr::new(0x9999_9678); // same low 12 bits
        assert_eq!(cfg.set_index_physical(pa), idx);
    }

    #[test]
    #[should_panic(expected = "PIPT indexing requires")]
    fn pipt_without_pa_panics() {
        let cfg = CacheConfig::new(32 << 10, 4, 64, IndexPolicy::Pipt);
        cfg.set_index(VirtAddr::new(0x1000), None);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        CacheConfig::new(32 << 10, 7, 64, IndexPolicy::Vipt);
    }

    #[test]
    fn non_power_of_two_set_counts_allowed_for_pipt() {
        // Table II's 24 MB LLC has 24576 sets.
        let cfg = CacheConfig::new(24 << 20, 16, 64, IndexPolicy::Pipt);
        assert_eq!(cfg.sets(), 24576);
    }
}
