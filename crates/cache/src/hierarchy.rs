//! The outer memory hierarchy (L2, LLC, DRAM) that prices L1 misses.
//!
//! The paper's energy results cover "the entire memory hierarchy (the L1
//! cache, as well other caches and memory)" (§VI-B), so L1 hit-rate
//! changes must propagate into L2/LLC/DRAM access counts. This is a
//! functional two-level cache model plus DRAM with Table II's parameters
//! (unified 24 MB LLC, 51 ns DRAM round trip).

use crate::{CacheConfig, CacheStats, IndexPolicy, SetAssocCache, StreamPrefetcher, WayMask};

/// The deepest level an access had to touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryLevel {
    /// Served by the L2 cache.
    L2,
    /// Served by the last-level cache.
    Llc,
    /// Served by DRAM.
    Dram,
}

/// Configuration for the outer hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterHierarchyConfig {
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
    /// L2 hit latency in cycles.
    pub l2_cycles: u64,
    /// LLC hit latency in cycles.
    pub llc_cycles: u64,
    /// DRAM access latency in cycles.
    pub dram_cycles: u64,
}

impl OuterHierarchyConfig {
    /// Table II's hierarchy at a given core frequency: 256 KB L2,
    /// unified 24 MB LLC, 51 ns DRAM round trip.
    pub fn table_ii(freq_ghz: f64) -> Self {
        assert!(freq_ghz > 0.0, "frequency must be positive");
        Self {
            l2: CacheConfig::new(256 << 10, 8, 64, IndexPolicy::Pipt),
            llc: CacheConfig::new(24 << 20, 16, 64, IndexPolicy::Pipt),
            l2_cycles: 12,
            llc_cycles: 40,
            dram_cycles: (51.0 * freq_ghz).round() as u64,
        }
    }

    /// A scaled-down hierarchy for fast unit tests.
    pub fn small() -> Self {
        Self {
            l2: CacheConfig::new(64 << 10, 8, 64, IndexPolicy::Pipt),
            llc: CacheConfig::new(1 << 20, 16, 64, IndexPolicy::Pipt),
            l2_cycles: 12,
            llc_cycles: 40,
            dram_cycles: 68,
        }
    }
}

/// The outer hierarchy: functional L2 and LLC plus a DRAM access counter.
///
/// # Example
/// ```
/// use seesaw_cache::{MemoryLevel, OuterHierarchy, OuterHierarchyConfig};
/// let mut outer = OuterHierarchy::new(OuterHierarchyConfig::small());
/// let (level, _) = outer.access(0x1234, false);
/// assert_eq!(level, MemoryLevel::Dram);
/// let (level, cycles) = outer.access(0x1234, false);
/// assert_eq!(level, MemoryLevel::L2);
/// assert_eq!(cycles, 12);
/// ```
#[derive(Debug, Clone)]
pub struct OuterHierarchy {
    config: OuterHierarchyConfig,
    l2: SetAssocCache,
    llc: SetAssocCache,
    /// Cached geometry so the per-miss path never re-derives set counts.
    l2_sets: usize,
    llc_sets: usize,
    l2_mask: WayMask,
    llc_mask: WayMask,
    prefetcher: Option<StreamPrefetcher>,
    dram_accesses: u64,
    writebacks_received: u64,
}

impl OuterHierarchy {
    /// Builds the hierarchy without a prefetcher.
    pub fn new(config: OuterHierarchyConfig) -> Self {
        Self {
            config,
            l2: SetAssocCache::new(config.l2),
            llc: SetAssocCache::new(config.llc),
            l2_sets: config.l2.sets(),
            llc_sets: config.llc.sets(),
            l2_mask: WayMask::all(config.l2.ways),
            llc_mask: WayMask::all(config.llc.ways),
            prefetcher: None,
            dram_accesses: 0,
            writebacks_received: 0,
        }
    }

    /// Builds the hierarchy with an L2 stream prefetcher of the given
    /// degree (the Sandybridge-style streamer).
    pub fn with_prefetcher(config: OuterHierarchyConfig, degree: usize) -> Self {
        Self {
            prefetcher: Some(StreamPrefetcher::new(degree)),
            ..Self::new(config)
        }
    }

    /// Prefetch statistics, if a prefetcher is attached.
    pub fn prefetch_stats(&self) -> Option<crate::PrefetchStats> {
        self.prefetcher.as_ref().map(|p| p.stats())
    }

    /// Services an L1 miss for the physical line `ptag`. Returns the level
    /// that supplied the data and the cycles it cost (beyond the L1).
    pub fn access(&mut self, ptag: u64, is_write: bool) -> (MemoryLevel, u64) {
        let l2_set = (ptag as usize) % self.l2_sets;
        let l2_ways = self.l2_mask;
        if self.l2.read(l2_set, ptag, l2_ways).hit {
            if is_write {
                self.l2.write(l2_set, ptag, l2_ways);
            }
            return (MemoryLevel::L2, self.config.l2_cycles);
        }
        // Train the streamer on L2 misses and pull its predictions into
        // the L2 (from LLC or DRAM, uncounted latency: prefetches are
        // off the demand path).
        if let Some(prefetcher) = self.prefetcher.as_mut() {
            let ahead = prefetcher.observe(ptag);
            for line in ahead {
                let set = (line as usize) % self.l2_sets;
                if self.l2.peek(set, line, l2_ways).is_none() {
                    self.l2.fill(set, line, l2_ways, false);
                }
            }
        }
        let llc_set = (ptag as usize) % self.llc_sets;
        let llc_ways = self.llc_mask;
        let (level, cycles) = if self.llc.read(llc_set, ptag, llc_ways).hit {
            (
                MemoryLevel::Llc,
                self.config.l2_cycles + self.config.llc_cycles,
            )
        } else {
            self.dram_accesses += 1;
            self.llc.fill(llc_set, ptag, llc_ways, false);
            (
                MemoryLevel::Dram,
                self.config.l2_cycles + self.config.llc_cycles + self.config.dram_cycles,
            )
        };
        // Fill the L2 on the way back; its victim (if dirty) falls into
        // the LLC, which is at least as large, so we stop accounting there.
        if let Some(evicted) = self.l2.fill(l2_set, ptag, l2_ways, is_write) {
            if evicted.dirty {
                let set = (evicted.ptag as usize) % self.llc_sets;
                if self.llc.peek(set, evicted.ptag, llc_ways).is_none() {
                    self.llc.fill(set, evicted.ptag, llc_ways, true);
                } else {
                    self.llc.write(set, evicted.ptag, llc_ways);
                }
            }
        }
        (level, cycles)
    }

    /// Accepts a dirty line written back from the L1.
    pub fn writeback(&mut self, ptag: u64) {
        self.writebacks_received += 1;
        let l2_set = (ptag as usize) % self.l2_sets;
        let l2_ways = self.l2_mask;
        if self.l2.peek(l2_set, ptag, l2_ways).is_some() {
            self.l2.write(l2_set, ptag, l2_ways);
        } else {
            self.l2.fill(l2_set, ptag, l2_ways, true);
        }
    }

    /// `(l2_stats, llc_stats, dram_accesses, writebacks_received)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, u64, u64) {
        (
            self.l2.stats(),
            self.llc.stats(),
            self.dram_accesses,
            self.writebacks_received,
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &OuterHierarchyConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_path_descends_and_fills() {
        let mut outer = OuterHierarchy::new(OuterHierarchyConfig::small());
        let (level, cycles) = outer.access(42, false);
        assert_eq!(level, MemoryLevel::Dram);
        assert_eq!(cycles, 12 + 40 + 68);
        // Now resident in L2.
        let (level, cycles) = outer.access(42, false);
        assert_eq!(level, MemoryLevel::L2);
        assert_eq!(cycles, 12);
    }

    #[test]
    fn llc_catches_l2_capacity_victims() {
        let mut outer = OuterHierarchy::new(OuterHierarchyConfig::small());
        // Blow out the 64 KB L2 (1024 lines) but stay inside the 1 MB LLC.
        for i in 0..4096u64 {
            outer.access(i, false);
        }
        let (level, _) = outer.access(0, false);
        assert_eq!(level, MemoryLevel::Llc);
    }

    #[test]
    fn writeback_lands_in_l2() {
        let mut outer = OuterHierarchy::new(OuterHierarchyConfig::small());
        outer.writeback(0x55);
        let (level, _) = outer.access(0x55, false);
        assert_eq!(level, MemoryLevel::L2);
        assert_eq!(outer.stats().3, 1);
    }

    #[test]
    fn dram_counter_tracks_cold_misses() {
        let mut outer = OuterHierarchy::new(OuterHierarchyConfig::small());
        for i in 0..10u64 {
            outer.access(i, false);
        }
        assert_eq!(outer.stats().2, 10);
    }

    #[test]
    fn table_ii_scales_dram_with_frequency() {
        let slow = OuterHierarchyConfig::table_ii(1.33);
        let fast = OuterHierarchyConfig::table_ii(4.0);
        assert_eq!(slow.dram_cycles, 68);
        assert_eq!(fast.dram_cycles, 204);
        assert_eq!(slow.llc.size_bytes, 24 << 20);
    }
}
