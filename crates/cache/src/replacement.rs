//! LRU replacement with way-mask support.
//!
//! SEESAW's `4way` insertion policy replaces within a partition ("a local
//! replacement policy within the 4 ways of the concerned partition",
//! §IV-B1), while the `4way-8way` policy replaces globally for base pages.
//! Both reduce to LRU-victim-within-a-mask, which this tracker provides.

/// Per-set true-LRU state over `ways` ways.
#[derive(Debug, Clone)]
pub struct LruTracker {
    ways: usize,
    /// Recency stamps: higher = more recent, per `set × way`.
    stamps: Vec<u64>,
    clock: u64,
}

impl LruTracker {
    /// Creates a tracker for `sets × ways`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "dimensions must be positive");
        Self {
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    /// Marks a way as most-recently used.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// The least-recently-used way among those selected by `mask`
    /// (bit `i` set = way `i` eligible).
    ///
    /// # Panics
    /// Panics if `mask` selects no way.
    pub fn victim(&self, set: usize, mask: u64) -> usize {
        let base = set * self.ways;
        let mut best: Option<(usize, u64)> = None;
        let mut bits = mask;
        while bits != 0 {
            let way = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if way >= self.ways {
                break;
            }
            let stamp = self.stamps[base + way];
            if best.map(|(_, s)| stamp < s).unwrap_or(true) {
                best = Some((way, stamp));
            }
        }
        best.expect("victim mask selects at least one way").0
    }

    /// The most-recently-used way among those selected by `mask`, if any
    /// way in the mask was ever touched.
    pub fn mru(&self, set: usize, mask: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut best: Option<(usize, u64)> = None;
        let mut bits = mask;
        while bits != 0 {
            let way = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if way >= self.ways {
                break;
            }
            let stamp = self.stamps[base + way];
            if stamp > 0 && best.map(|(_, s)| stamp > s).unwrap_or(true) {
                best = Some((way, stamp));
            }
        }
        best.map(|(w, _)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_least_recent_within_mask() {
        let mut lru = LruTracker::new(1, 8);
        for way in 0..8 {
            lru.touch(0, way);
        }
        // Globally, way 0 is oldest.
        assert_eq!(lru.victim(0, 0xff), 0);
        // Restricted to the upper partition, way 4 is oldest.
        assert_eq!(lru.victim(0, 0xf0), 4);
        // Touch way 4; now way 5 is the masked victim.
        lru.touch(0, 4);
        assert_eq!(lru.victim(0, 0xf0), 5);
    }

    #[test]
    fn untouched_ways_are_preferred_victims() {
        let mut lru = LruTracker::new(1, 4);
        lru.touch(0, 1);
        lru.touch(0, 2);
        let v = lru.victim(0, 0b1111);
        assert!(
            v == 0 || v == 3,
            "an untouched way should be victim, got {v}"
        );
    }

    #[test]
    fn mru_tracks_most_recent() {
        let mut lru = LruTracker::new(2, 4);
        assert_eq!(lru.mru(0, 0b1111), None);
        lru.touch(0, 2);
        lru.touch(0, 3);
        assert_eq!(lru.mru(0, 0b1111), Some(3));
        assert_eq!(lru.mru(0, 0b0111), Some(2));
        // Sets are independent.
        assert_eq!(lru.mru(1, 0b1111), None);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_panics() {
        let lru = LruTracker::new(1, 4);
        lru.victim(0, 0);
    }
}
