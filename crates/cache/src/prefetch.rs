//! A stream prefetcher for the outer hierarchy.
//!
//! The paper's target machines (Sandybridge/Atom) ship L2 stream
//! prefetchers; the evaluation doesn't isolate them, but a reproduction
//! should show SEESAW's gains are robust when one is present — SEESAW
//! attacks L1 *hit* latency and lookup width, which prefetching cannot
//! touch. This is a classic stream detector: per 4 KB region it tracks
//! the last line and direction, and after two accesses in the same
//! direction it runs `degree` lines ahead.

use std::collections::{HashMap, VecDeque};

/// Per-region stream state.
#[derive(Debug, Clone, Copy)]
struct Stream {
    last_line: u64,
    direction: i64,
    confirmed: bool,
}

seesaw_trace::counters! {
    /// Prefetch statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PrefetchStats {
        /// Prefetches issued.
        pub issued: u64,
    }
}

/// The stream prefetcher.
///
/// # Example
/// ```
/// use seesaw_cache::StreamPrefetcher;
/// let mut pf = StreamPrefetcher::new(4);
/// assert!(pf.observe(100).is_empty(), "first touch trains");
/// assert!(pf.observe(101).is_empty(), "second touch confirms");
/// let ahead = pf.observe(102);
/// assert_eq!(ahead, vec![103, 104, 105, 106]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    degree: usize,
    streams: HashMap<u64, Stream>,
    /// Tracked regions, oldest first (the eviction order).
    order: VecDeque<u64>,
    stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// Lines per 4 KB region.
    const REGION_LINES: u64 = 64;
    /// Maximum tracked streams (oldest evicted beyond this).
    const MAX_STREAMS: usize = 64;

    /// Creates a prefetcher issuing `degree` lines ahead of a confirmed
    /// stream.
    ///
    /// # Panics
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        Self {
            degree,
            streams: HashMap::new(),
            order: VecDeque::new(),
            stats: PrefetchStats::default(),
        }
    }

    /// Observes a demand-miss line address and returns the lines to
    /// prefetch.
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        let region = line / Self::REGION_LINES;
        let next = match self.streams.get_mut(&region) {
            Some(stream) => {
                let step = line as i64 - stream.last_line as i64;
                if step == stream.direction && (step == 1 || step == -1) {
                    stream.confirmed = true;
                } else {
                    // Only unit strides train a direction; larger jumps
                    // reset the stream to untrained.
                    stream.direction = if step.abs() == 1 { step } else { 0 };
                    stream.confirmed = false;
                }
                stream.last_line = line;
                stream.confirmed.then_some((line, stream.direction))
            }
            None => {
                if self.streams.len() >= Self::MAX_STREAMS {
                    // Drop the oldest stream (FIFO by allocation), so the
                    // output is a function of the miss stream alone.
                    if let Some(old) = self.order.pop_front() {
                        self.streams.remove(&old);
                    }
                }
                self.order.push_back(region);
                self.streams.insert(
                    region,
                    Stream {
                        last_line: line,
                        direction: 0, // unknown until a second touch
                        confirmed: false,
                    },
                );
                None
            }
        };
        match next {
            Some((line, dir)) => {
                let out: Vec<u64> = (1..=self.degree as i64)
                    .filter_map(|i| line.checked_add_signed(dir * i))
                    .collect();
                self.stats.issued += out.len() as u64;
                out
            }
            None => Vec::new(),
        }
    }

    /// Prefetch counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_deterministic_across_instances() {
        // 1,800 unit-stride observations spread over 200 regions: far more
        // streams than the table holds, so the eviction order decides
        // which streams survive to confirm.
        let mut state = 0x5eed_u64;
        let mut cursors = vec![0u64; 200];
        let stream: Vec<u64> = (0..1_800)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let region = ((state >> 33) % 200) as usize;
                cursors[region] += 1;
                region as u64 * StreamPrefetcher::REGION_LINES + cursors[region] % 64
            })
            .collect();
        let outputs = |pf: &mut StreamPrefetcher| -> Vec<Vec<u64>> {
            stream.iter().map(|&line| pf.observe(line)).collect()
        };
        let a = outputs(&mut StreamPrefetcher::new(4));
        let b = outputs(&mut StreamPrefetcher::new(4));
        assert!(a.iter().any(|out| !out.is_empty()), "some streams confirm");
        assert_eq!(a, b);
    }

    #[test]
    fn ascending_stream_confirms_and_runs_ahead() {
        let mut pf = StreamPrefetcher::new(2);
        assert!(pf.observe(10).is_empty());
        assert!(pf.observe(11).is_empty());
        assert_eq!(pf.observe(12), vec![13, 14]);
        assert_eq!(pf.observe(13), vec![14, 15]);
        assert_eq!(pf.stats().issued, 4);
    }

    #[test]
    fn descending_streams_work_too() {
        let mut pf = StreamPrefetcher::new(2);
        pf.observe(50);
        pf.observe(49);
        assert_eq!(pf.observe(48), vec![47, 46]);
    }

    #[test]
    fn random_accesses_never_confirm() {
        let mut pf = StreamPrefetcher::new(4);
        for line in [5u64, 17, 3, 40, 22, 8] {
            assert!(pf.observe(line).is_empty(), "line {line} fired");
        }
    }

    #[test]
    fn direction_change_retrains() {
        let mut pf = StreamPrefetcher::new(1);
        pf.observe(10);
        pf.observe(11);
        assert!(!pf.observe(12).is_empty());
        assert!(pf.observe(10).is_empty(), "reversal must retrain");
        assert!(pf.observe(9).is_empty(), "second touch in new direction");
        assert_eq!(pf.observe(8), vec![7]);
    }

    #[test]
    fn stream_table_is_bounded() {
        let mut pf = StreamPrefetcher::new(1);
        for region in 0..200u64 {
            pf.observe(region * 64);
        }
        assert!(pf.streams.len() <= StreamPrefetcher::MAX_STREAMS);
    }
}
