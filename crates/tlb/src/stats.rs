//! TLB access counters.

seesaw_trace::counters! {
    /// Hit/miss/maintenance counters for one TLB structure.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TlbStats {
        /// Lookups that hit.
        pub hits: u64,
        /// Lookups that missed.
        pub misses: u64,
        /// Entries filled.
        pub fills: u64,
        /// Valid entries displaced by fills.
        pub evictions: u64,
        /// Entries removed by targeted (`invlpg`) invalidation.
        pub invalidations: u64,
        /// Full flushes.
        pub flushes: u64,
    }
    derived: hit_rate;
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(TlbStats::default().hit_rate(), 0.0);
        let s = TlbStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(s.lookups(), 4);
    }
}
