//! Zen2-style µtag (micro-tag) way prediction.
//!
//! AMD's Family-17h L1D predicts the hitting way from a short hash of the
//! *virtual* address — the µtag — stored per (set, way). A lookup hashes
//! the access VA, compares it against the set's µtags, and probes only the
//! matching way; the physical tag read in parallel then verifies the
//! prediction. Because the µtag is virtual and lossy, two different
//! virtual lines can carry the same µtag (a *virtual alias*): the
//! predicted way then holds a different physical line, the verification
//! fails, and the access pays a second, full-set probe round. Synonym
//! pairs mapping the same physical line from different VAs perpetually
//! retrain each other's µtag — the alias storms observed on real Zen2
//! parts. The predictor here models exactly that mechanism; the simulator
//! layers a checker invariant on top (a predicted hit whose physical tag
//! does not verify must never be served as data).

use crate::WayPredictionStats;

/// Bits kept per µtag. Eight bits matches the granularity public Zen2
/// reverse-engineering reports; small enough that aliases actually occur.
const UTAG_BITS: u32 = 8;

/// A per-(set, way) µtag way predictor.
///
/// `predict` returns the way whose stored µtag matches the hash of the
/// access's virtual tag, `train` installs/overwrites a way's µtag after
/// the true way is known, and `flush` drops all state (the VA-based
/// predictor cannot survive an address-space switch without ASIDs).
#[derive(Debug, Clone)]
pub struct MicroTagPredictor {
    ways: usize,
    /// µtag per `set × way`; value `hash | 0x100` when valid, 0 otherwise.
    utags: Vec<u16>,
    /// Outcome counters; `alias_mispredicts` counts mispredictions where
    /// the µtag *matched* but the physical tag did not — virtual-alias
    /// false hits, the Zen2 failure mode.
    stats: WayPredictionStats,
}

impl MicroTagPredictor {
    /// Creates a predictor for `sets` sets of `ways` ways, all invalid.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "dimensions must be positive");
        Self {
            ways,
            utags: vec![0; sets * ways],
            stats: WayPredictionStats::default(),
        }
    }

    /// Hashes a virtual tag (the VA bits above the set index) down to a
    /// µtag. XOR-folding keeps every tag bit influential, so regular
    /// strides still alias — as they do in hardware.
    pub fn utag_of(vtag: u64) -> u16 {
        let folded = vtag ^ (vtag >> UTAG_BITS) ^ (vtag >> (2 * UTAG_BITS)) ^ (vtag >> 32);
        (folded as u16) & ((1 << UTAG_BITS) - 1)
    }

    /// The way predicted for `vtag` in `set`: the lowest way whose stored
    /// µtag matches, or `None` (full-set probe) when none does.
    pub fn predict(&self, set: usize, vtag: u64) -> Option<usize> {
        let want = Self::utag_of(vtag) | (1 << UTAG_BITS);
        let base = set * self.ways;
        self.utags[base..base + self.ways]
            .iter()
            .position(|&t| t == want)
    }

    /// Installs `vtag`'s µtag on `way` of `set` (after a fill or a
    /// verified hit), clearing any other way in the set that carried the
    /// same µtag — hardware keeps µtags unique per set so at most one way
    /// ever matches.
    pub fn train(&mut self, set: usize, way: usize, vtag: u64) {
        let tag = Self::utag_of(vtag) | (1 << UTAG_BITS);
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.utags[base + w] == tag {
                self.utags[base + w] = 0;
            }
        }
        self.utags[base + way] = tag;
    }

    /// Drops a single way's µtag (eviction or coherence invalidation).
    pub fn invalidate(&mut self, set: usize, way: usize) {
        self.utags[set * self.ways + way] = 0;
    }

    /// Drops every µtag (context switch: the VA space changed under us).
    pub fn flush(&mut self) {
        self.utags.fill(0);
    }

    /// Records the outcome of a prediction round.
    ///
    /// `predicted` is what [`MicroTagPredictor::predict`] returned,
    /// `actual` the way that really held the line (`None` = miss), and
    /// `tag_verified` whether the predicted way's physical tag matched.
    pub fn record(&mut self, predicted: Option<usize>, actual: Option<usize>, tag_verified: bool) {
        match predicted {
            None => self.stats.cold += 1,
            Some(p) => {
                if actual == Some(p) && tag_verified {
                    self.stats.hits += 1;
                } else {
                    self.stats.mispredictions += 1;
                    if !tag_verified {
                        self.stats.alias_mispredicts += 1;
                    }
                }
            }
        }
    }

    /// The outcome counters.
    pub fn stats(&self) -> WayPredictionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_set_predicts_nothing() {
        let p = MicroTagPredictor::new(8, 4);
        assert_eq!(p.predict(3, 0xdead), None);
    }

    #[test]
    fn trained_way_is_predicted() {
        let mut p = MicroTagPredictor::new(8, 4);
        p.train(3, 2, 0xdead);
        assert_eq!(p.predict(3, 0xdead), Some(2));
        assert_eq!(p.predict(4, 0xdead), None, "sets are independent");
    }

    #[test]
    fn utags_stay_unique_per_set() {
        let mut p = MicroTagPredictor::new(4, 4);
        p.train(0, 1, 0xabc);
        p.train(0, 3, 0xabc);
        assert_eq!(p.predict(0, 0xabc), Some(3), "retrain moved the µtag");
    }

    #[test]
    fn aliases_exist_and_are_counted() {
        // Two vtags that fold to the same µtag must exist within 2^8 + 1
        // candidates (pigeonhole); find one pair and confirm the predictor
        // steers the second tag to the first tag's way.
        let mut pair = None;
        'outer: for a in 0u64..=(1 << UTAG_BITS) {
            for b in (a + 1)..=(1 << UTAG_BITS) + 1 {
                if MicroTagPredictor::utag_of(a << 20) == MicroTagPredictor::utag_of(b << 20) {
                    pair = Some((a << 20, b << 20));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("an aliasing pair exists by pigeonhole");
        let mut p = MicroTagPredictor::new(2, 4);
        p.train(0, 1, a);
        let predicted = p.predict(0, b);
        assert_eq!(predicted, Some(1), "alias steers to the wrong way");
        p.record(predicted, None, false);
        let s = p.stats();
        assert_eq!(s.alias_mispredicts, 1);
        assert_eq!((s.hits, s.mispredictions, s.cold), (0, 1, 0));
    }

    #[test]
    fn flush_and_invalidate_clear_state() {
        let mut p = MicroTagPredictor::new(2, 2);
        p.train(0, 0, 7);
        p.invalidate(0, 0);
        assert_eq!(p.predict(0, 7), None);
        p.train(1, 1, 9);
        p.flush();
        assert_eq!(p.predict(1, 9), None);
    }

    #[test]
    fn record_tallies_outcomes() {
        let mut p = MicroTagPredictor::new(1, 2);
        p.record(None, Some(0), true); // cold
        p.record(Some(0), Some(0), true); // hit
        p.record(Some(0), Some(1), true); // mispredict, not alias
        let s = p.stats();
        assert_eq!((s.hits, s.mispredictions, s.cold), (1, 1, 1));
        assert_eq!(s.alias_mispredicts, 0);
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
    }
}
