//! The set-associative cache array with way-masked lookups.
//!
//! Way masks are the mechanism behind both way-partitioning and SEESAW:
//! a lookup probes (and pays for) only the ways its mask selects, and a
//! fill chooses its victim inside a (possibly different) mask.

use crate::{CacheConfig, CacheStats, LruTracker, MoesiState};

/// A set of eligible ways, bit `i` = way `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// All `ways` ways.
    ///
    /// # Panics
    /// Panics if `ways` is 0 or exceeds 64.
    pub fn all(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "way count out of range");
        if ways == 64 {
            Self(u64::MAX)
        } else {
            Self((1u64 << ways) - 1)
        }
    }

    /// Ways `lo..lo + count`.
    pub fn range(lo: usize, count: usize) -> Self {
        assert!(count > 0 && lo + count <= 64, "way range out of bounds");
        let bits = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        Self(bits << lo)
    }

    /// The mask for partition `index` of `partitions` equal partitions over
    /// `ways` total ways — SEESAW's partition decoder output (Fig. 4).
    pub fn partition(index: usize, partitions: usize, ways: usize) -> Self {
        assert!(partitions > 0 && ways.is_multiple_of(partitions));
        assert!(index < partitions, "partition index out of range");
        let per = ways / partitions;
        Self::range(index * per, per)
    }

    /// A single way.
    pub fn single(way: usize) -> Self {
        Self::range(way, 1)
    }

    /// Number of selected ways.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if `way` is selected.
    pub fn contains(self, way: usize) -> bool {
        way < 64 && self.0 & (1 << way) != 0
    }

    /// Raw bit representation.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Union of two masks.
    pub fn union(self, other: WayMask) -> Self {
        Self(self.0 | other.0)
    }

    /// Ways in `self` but not in `other` — the "remaining partitions"
    /// probed after a TFT miss (Table I).
    pub fn difference(self, other: WayMask) -> Self {
        Self(self.0 & !other.0)
    }

    /// True if no way is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was found in the probed ways.
    pub hit: bool,
    /// The way that hit, if any.
    pub way: Option<usize>,
    /// Ways probed (tag + data sub-arrays energized).
    pub ways_probed: usize,
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Physical line address of the victim.
    pub ptag: u64,
    /// Whether it must be written back.
    pub dirty: bool,
}

/// A valid line reported by [`SetAssocCache::resident_lines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentLine {
    /// Set the line occupies.
    pub set: usize,
    /// Way the line occupies.
    pub way: usize,
    /// Physical line address.
    pub ptag: u64,
    /// Whether the line holds dirty data.
    pub dirty: bool,
}

/// The cache array. Set selection is the caller's job (via
/// [`CacheConfig::set_index`]) because it depends on the indexing policy
/// and, for SEESAW, on the partition decoder.
///
/// Line state is held in dense parallel arrays indexed by
/// `set * ways + way` — tags in one, coherence state in another — so a
/// masked probe walks a handful of adjacent words instead of chasing
/// per-line `Option` structs. An absent line is represented as
/// [`MoesiState::Invalid`], which every observer already treats the same
/// as an empty slot.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    ways: usize,
    /// Physical line address per slot (meaningful only where `coh` is valid).
    ptags: Vec<u64>,
    /// Coherence state per slot; `Invalid` doubles as "empty".
    coh: Vec<MoesiState>,
    lru: LruTracker,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            ways: config.ways,
            ptags: vec![0; sets * config.ways],
            coh: vec![MoesiState::Invalid; sets * config.ways],
            lru: LruTracker::new(sets, config.ways),
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Demand read: probes the masked ways of `set` for `ptag`.
    pub fn read(&mut self, set: usize, ptag: u64, mask: WayMask) -> AccessResult {
        self.access(set, ptag, mask, false)
    }

    /// Demand write: like [`SetAssocCache::read`] but upgrades the line to
    /// Modified on hit.
    pub fn write(&mut self, set: usize, ptag: u64, mask: WayMask) -> AccessResult {
        self.access(set, ptag, mask, true)
    }

    /// Probes without updating LRU or statistics (used by way predictors
    /// and invariants in tests).
    pub fn peek(&self, set: usize, ptag: u64, mask: WayMask) -> Option<usize> {
        let base = set * self.ways;
        let mut bits = mask.bits();
        while bits != 0 {
            let way = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if way >= self.ways {
                break;
            }
            if self.coh[base + way].is_valid() && self.ptags[base + way] == ptag {
                return Some(way);
            }
        }
        None
    }

    /// Fills `ptag` into `set`, choosing the victim inside `victim_mask`
    /// (an invalid way if one exists, else the masked LRU way). Returns
    /// the displaced line if a valid one was evicted.
    ///
    /// # Panics
    /// Panics if `victim_mask` is empty.
    pub fn fill(
        &mut self,
        set: usize,
        ptag: u64,
        victim_mask: WayMask,
        write: bool,
    ) -> Option<EvictedLine> {
        assert!(!victim_mask.is_empty(), "fill requires a victim mask");
        debug_assert!(
            self.peek(set, ptag, WayMask::all(self.config.ways))
                .is_none(),
            "line {ptag:#x} already resident in set {set}"
        );
        let base = set * self.ways;
        let way = {
            let mut found = None;
            let mut bits = victim_mask.bits();
            while bits != 0 {
                let w = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if w >= self.ways {
                    break;
                }
                if !self.coh[base + w].is_valid() {
                    found = Some(w);
                    break;
                }
            }
            found.unwrap_or_else(|| self.lru.victim(set, victim_mask.bits()))
        };
        let old = self.coh[base + way];
        let evicted = old.is_valid().then(|| EvictedLine {
            ptag: self.ptags[base + way],
            dirty: old.is_dirty(),
        });
        if let Some(e) = &evicted {
            self.stats.evictions += 1;
            if e.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.ptags[base + way] = ptag;
        self.coh[base + way] = if write {
            MoesiState::Modified
        } else {
            MoesiState::Exclusive
        };
        self.lru.touch(set, way);
        self.stats.fills += 1;
        evicted
    }

    /// Coherence probe: physically-addressed lookup of the masked ways.
    /// If `invalidate` is set and the line is present, it is invalidated
    /// (returning whether it was dirty).
    pub fn coherence_probe(
        &mut self,
        set: usize,
        ptag: u64,
        mask: WayMask,
        invalidate: bool,
    ) -> Option<bool> {
        self.stats.coherence_probes += 1;
        self.stats.coherence_ways_probed += mask.count() as u64;
        let way = self.peek(set, ptag, mask)?;
        let coh = &mut self.coh[set * self.ways + way];
        let was_dirty = coh.is_dirty();
        if invalidate {
            *coh = MoesiState::Invalid;
            self.stats.coherence_invalidations += 1;
        } else if coh.can_write_silently() || coh.is_dirty() {
            // Downgrade on a remote read: M/O→Owned, E→Shared.
            *coh = if was_dirty {
                MoesiState::Owned
            } else {
                MoesiState::Shared
            };
        }
        Some(was_dirty)
    }

    /// Evicts every line satisfying `pred` on its physical line address —
    /// the L1 sweep the paper performs on base-page→superpage promotion
    /// (§IV-C2). Returns the evicted lines (with dirtiness, for writeback
    /// accounting).
    pub fn sweep<F: Fn(u64) -> bool>(&mut self, pred: F) -> Vec<EvictedLine> {
        let mut evicted = Vec::new();
        for (coh, &ptag) in self.coh.iter_mut().zip(&self.ptags) {
            if coh.is_valid() && pred(ptag) {
                evicted.push(EvictedLine {
                    ptag,
                    dirty: coh.is_dirty(),
                });
                if coh.is_dirty() {
                    self.stats.writebacks += 1;
                }
                self.stats.evictions += 1;
                *coh = MoesiState::Invalid;
            }
        }
        evicted
    }

    /// Coherence state of the line, if resident.
    pub fn line_state(&self, set: usize, ptag: u64) -> Option<MoesiState> {
        self.peek(set, ptag, WayMask::all(self.config.ways))
            .map(|w| self.coh[set * self.ways + w])
    }

    /// Overwrites the coherence state of a resident line (directory
    /// protocol transitions). No-op if the line is absent.
    pub fn set_line_state(&mut self, set: usize, ptag: u64, coh: MoesiState) {
        if let Some(w) = self.peek(set, ptag, WayMask::all(self.config.ways)) {
            self.coh[set * self.ways + w] = coh;
        }
    }

    /// The way a resident line occupies, if any (full-width peek).
    pub fn resident_way(&self, set: usize, ptag: u64) -> Option<usize> {
        self.peek(set, ptag, WayMask::all(self.config.ways))
    }

    /// Iterates every valid line without touching LRU or statistics —
    /// the audit hook used by the differential checker to verify, e.g.,
    /// that no line of a migrated-away frame survived a promotion sweep
    /// and that every line sits in a partition its physical address can
    /// name.
    pub fn resident_lines(&self) -> impl Iterator<Item = ResidentLine> + '_ {
        let ways = self.ways;
        self.coh
            .iter()
            .zip(&self.ptags)
            .enumerate()
            .filter(|(_, (coh, _))| coh.is_valid())
            .map(move |(i, (coh, &ptag))| ResidentLine {
                set: i / ways,
                way: i % ways,
                ptag,
                dirty: coh.is_dirty(),
            })
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> usize {
        self.coh.iter().filter(|c| c.is_valid()).count()
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn access(&mut self, set: usize, ptag: u64, mask: WayMask, write: bool) -> AccessResult {
        debug_assert!(set < self.config.sets(), "set index out of range");
        let ways_probed = mask.count();
        self.stats.ways_probed += ways_probed as u64;
        let base = set * self.ways;
        let mut bits = mask.bits();
        while bits != 0 {
            let way = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if way >= self.ways {
                break;
            }
            if self.coh[base + way].is_valid() && self.ptags[base + way] == ptag {
                if write {
                    self.coh[base + way] = MoesiState::Modified;
                }
                self.lru.touch(set, way);
                self.stats.hits += 1;
                return AccessResult {
                    hit: true,
                    way: Some(way),
                    ways_probed,
                };
            }
        }
        self.stats.misses += 1;
        AccessResult {
            hit: false,
            way: None,
            ways_probed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexPolicy;

    fn cache_32k() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt))
    }

    #[test]
    fn way_mask_construction() {
        assert_eq!(WayMask::all(8).count(), 8);
        assert_eq!(WayMask::range(4, 4).bits(), 0xf0);
        assert_eq!(WayMask::partition(1, 2, 8).bits(), 0xf0);
        assert_eq!(WayMask::partition(0, 2, 8).bits(), 0x0f);
        assert_eq!(WayMask::partition(3, 4, 16).bits(), 0xf000);
        assert_eq!(WayMask::single(5).bits(), 0x20);
        assert!(WayMask::all(8).difference(WayMask::range(0, 4)).bits() == 0xf0);
        assert!(WayMask::all(64).contains(63));
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        assert!(!c.read(3, 0x111, all).hit);
        c.fill(3, 0x111, all, false);
        let r = c.read(3, 0x111, all);
        assert!(r.hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn masked_lookup_cannot_see_other_partition() {
        let mut c = cache_32k();
        let p0 = WayMask::partition(0, 2, 8);
        let p1 = WayMask::partition(1, 2, 8);
        c.fill(0, 0xaaa, p0, false);
        assert!(c.read(0, 0xaaa, p0).hit);
        assert!(!c.read(0, 0xaaa, p1).hit, "other partition must not see it");
        assert_eq!(c.read(0, 0xaaa, p1).ways_probed, 4);
    }

    #[test]
    fn fill_respects_victim_mask() {
        let mut c = cache_32k();
        let p1 = WayMask::partition(1, 2, 8);
        // Fill partition 1 to capacity plus one: victims stay inside it.
        for i in 0..5u64 {
            c.fill(7, 0x1000 + i, p1, false);
        }
        for i in 1..5u64 {
            assert!(
                c.peek(7, 0x1000 + i, p1).is_some(),
                "line {i} should be in partition 1"
            );
        }
        assert!(
            c.peek(7, 0x1000, WayMask::all(8)).is_none(),
            "LRU line evicted"
        );
        // Partition 0 untouched.
        for w in 0..4 {
            assert!(!WayMask::partition(1, 2, 8).contains(w));
        }
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut c = cache_32k();
        let one = WayMask::single(0);
        c.fill(1, 0x10, one, true); // Modified
        let evicted = c.fill(1, 0x20, one, false).expect("way 0 displaced");
        assert_eq!(evicted.ptag, 0x10);
        assert!(evicted.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_marks_modified() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        c.fill(2, 0x99, all, false);
        assert_eq!(c.line_state(2, 0x99), Some(MoesiState::Exclusive));
        c.write(2, 0x99, all);
        assert_eq!(c.line_state(2, 0x99), Some(MoesiState::Modified));
    }

    #[test]
    fn coherence_probe_counts_masked_ways() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        let half = WayMask::range(0, 4);
        c.fill(4, 0x77, half, false);
        // Baseline coherence pays 8 ways; SEESAW pays 4 (§IV-C1).
        assert_eq!(c.coherence_probe(4, 0x77, all, false), Some(false));
        assert_eq!(c.coherence_probe(4, 0x77, half, false), Some(false));
        let s = c.stats();
        assert_eq!(s.coherence_probes, 2);
        assert_eq!(s.coherence_ways_probed, 12);
    }

    #[test]
    fn coherence_invalidation_removes_line() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        c.fill(4, 0x77, all, true);
        let was_dirty = c.coherence_probe(4, 0x77, all, true).unwrap();
        assert!(was_dirty);
        assert!(!c.read(4, 0x77, all).hit);
        assert_eq!(c.stats().coherence_invalidations, 1);
    }

    #[test]
    fn remote_read_downgrades_state() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        c.fill(5, 0x88, all, true);
        c.coherence_probe(5, 0x88, all, false);
        assert_eq!(c.line_state(5, 0x88), Some(MoesiState::Owned));
        c.fill(6, 0x99, all, false);
        c.coherence_probe(6, 0x99, all, false);
        assert_eq!(c.line_state(6, 0x99), Some(MoesiState::Shared));
    }

    #[test]
    fn sweep_evicts_matching_lines() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        c.fill(0, 0x40, all, true);
        c.fill(0, 0x41, all, false);
        c.fill(1, 0x80, all, false);
        // Sweep everything whose line address starts at 0x40 page.
        let evicted = c.sweep(|ptag| (0x40..0x80).contains(&ptag));
        assert_eq!(evicted.len(), 2);
        assert!(evicted.iter().any(|e| e.dirty));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn lru_is_global_when_mask_is_full() {
        let mut c = cache_32k();
        let all = WayMask::all(8);
        for i in 0..8u64 {
            c.fill(9, i, all, false);
        }
        c.read(9, 0, all); // touch oldest
        c.fill(9, 100, all, false);
        assert!(c.peek(9, 0, all).is_some(), "touched line survives");
        assert!(c.peek(9, 1, all).is_none(), "true LRU line evicted");
    }
}
