//! Cache access counters.

seesaw_trace::counters! {
    /// Hit/miss/energy-relevant counters for one cache.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Demand accesses that hit.
        pub hits: u64,
        /// Demand accesses that missed.
        pub misses: u64,
        /// Lines filled.
        pub fills: u64,
        /// Valid lines evicted.
        pub evictions: u64,
        /// Dirty lines written back.
        pub writebacks: u64,
        /// Total ways probed across all demand accesses — the quantity that
        /// sets dynamic lookup energy (each probed way reads a tag + data
        /// sub-array in a latency-optimized parallel-access L1, §III-B).
        pub ways_probed: u64,
        /// Coherence probes received.
        pub coherence_probes: u64,
        /// Ways probed by coherence lookups.
        pub coherence_ways_probed: u64,
        /// Lines invalidated by coherence.
        pub coherence_invalidations: u64,
    }
    derived: miss_rate, avg_ways_probed;
}

impl CacheStats {
    /// Demand accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Misses per kilo-instruction given an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Mean ways probed per demand access.
    pub fn avg_ways_probed(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.ways_probed as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = CacheStats {
            hits: 90,
            misses: 10,
            ways_probed: 600,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 100);
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
        assert!((s.avg_ways_probed() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
        assert_eq!(s.avg_ways_probed(), 0.0);
    }
}
