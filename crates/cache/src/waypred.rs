//! MRU way prediction (§IV-B2).
//!
//! The paper compares SEESAW against — and combines it with — an MRU-based
//! way predictor in the style of Powell et al. [33]: predict the
//! most-recently-used way of the (set, partition) about to be accessed,
//! probe only that way, and fall back to the remaining ways on a
//! misprediction. Prediction accuracy tracks program locality, which is
//! why pointer-chasing workloads suffer (Fig. 15).

/// An MRU way predictor with per-(set, partition) prediction state.
///
/// For a plain cache use a single partition; when stacked on SEESAW, the
/// partition presented by the TFT selects the prediction context, so the
/// predictor "predicts a way within the partition" (§IV-B2).
#[derive(Debug, Clone)]
pub struct MruWayPredictor {
    partitions: usize,
    /// Predicted way per `set × partition`; `usize::MAX` = no prediction.
    predictions: Vec<usize>,
    stats: WayPredictionStats,
}

impl MruWayPredictor {
    /// Creates a predictor for `sets` sets, each with `partitions`
    /// prediction contexts.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, partitions: usize) -> Self {
        assert!(sets > 0 && partitions > 0, "dimensions must be positive");
        Self {
            partitions,
            predictions: vec![usize::MAX; sets * partitions],
            stats: WayPredictionStats::default(),
        }
    }

    /// The predicted way for `(set, partition)`, or `None` if this context
    /// has never been trained.
    pub fn predict(&self, set: usize, partition: usize) -> Option<usize> {
        let p = self.predictions[set * self.partitions + partition];
        (p != usize::MAX).then_some(p)
    }

    /// Trains the predictor with the way that actually hit (or was filled),
    /// and records whether the previous prediction was right.
    pub fn update(&mut self, set: usize, partition: usize, actual_way: usize) {
        let slot = &mut self.predictions[set * self.partitions + partition];
        if *slot == usize::MAX {
            self.stats.cold += 1;
        } else if *slot == actual_way {
            self.stats.hits += 1;
        } else {
            self.stats.mispredictions += 1;
        }
        *slot = actual_way;
    }

    /// The counters (`alias_mispredicts` stays zero: MRU predictions are
    /// physically verified).
    pub fn stats(&self) -> WayPredictionStats {
        self.stats
    }
}

seesaw_trace::counters! {
    /// Way-predictor counters in exportable form, shared by every predictor
    /// flavor ([`MruWayPredictor`], [`crate::MicroTagPredictor`]); collected
    /// into the metrics registry as `l1.waypred.*`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WayPredictionStats {
        /// Predictions that named the way that actually hit.
        pub hits: u64,
        /// Trained predictions that named the wrong way.
        pub mispredictions: u64,
        /// Accesses with no prediction available (untrained context).
        pub cold: u64,
        /// Mispredictions caused by a virtual alias (µtag matched, physical
        /// tag did not) — zero for physically-verified MRU prediction.
        pub alias_mispredicts: u64,
    }
    derived: accuracy;
}

impl WayPredictionStats {
    /// Fraction of trained predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        let total = self.hits + self.mispredictions;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total predictions issued (trained or cold).
    pub fn total(&self) -> u64 {
        self.hits + self.mispredictions + self.cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_returns_none() {
        let wp = MruWayPredictor::new(64, 2);
        assert_eq!(wp.predict(0, 0), None);
        assert_eq!(wp.stats().accuracy(), 0.0);
    }

    #[test]
    fn repeated_way_predicts_correctly() {
        let mut wp = MruWayPredictor::new(4, 1);
        wp.update(2, 0, 3);
        assert_eq!(wp.predict(2, 0), Some(3));
        wp.update(2, 0, 3);
        wp.update(2, 0, 3);
        let s = wp.stats();
        assert_eq!((s.hits, s.mispredictions, s.cold), (2, 0, 1));
        assert_eq!(s.accuracy(), 1.0);
    }

    #[test]
    fn alternating_ways_mispredict() {
        let mut wp = MruWayPredictor::new(1, 1);
        for i in 0..10 {
            wp.update(0, 0, i % 2);
        }
        let s = wp.stats();
        assert_eq!(s.cold, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.mispredictions, 9);
    }

    #[test]
    fn partitions_are_independent_contexts() {
        let mut wp = MruWayPredictor::new(2, 2);
        wp.update(0, 0, 1);
        wp.update(0, 1, 6);
        assert_eq!(wp.predict(0, 0), Some(1));
        assert_eq!(wp.predict(0, 1), Some(6));
        assert_eq!(wp.predict(1, 0), None);
    }
}
