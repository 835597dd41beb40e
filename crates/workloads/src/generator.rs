//! The trace generator: a deterministic mixture of access patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::WorkloadSpec;

/// Conflict-pool stride: 64 KB aliases to the same set in every cache
/// geometry with up to 1024 sets (all of Fig. 2a's points), including the
/// 64-set VIPT L1s of the main experiments.
const CONFLICT_STRIDE: u64 = 64 << 10;

/// One memory reference in offset space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Byte offset inside the workload's footprint.
    pub offset: u64,
    /// Write or read.
    pub is_write: bool,
    /// Non-memory instructions retired before this reference.
    pub gap: u64,
}

impl TraceRef {
    /// Packs the reference into one word — offset in bits 0–31, gap in
    /// bits 32–62, the write flag in bit 63 — the dense form batched
    /// address streams are recorded and replayed in (a third the memory
    /// of the struct, one load per replayed reference).
    ///
    /// # Panics
    /// Panics if the offset or gap overflows its field. Offsets are
    /// bounded by the workload footprint (< 4 GB for every cataloged
    /// spec); gaps are exponential with mean `(1 - mem) / mem`, bounded
    /// by `37 * mean` because the underlying uniform draw has 53 bits.
    #[inline]
    pub fn pack(self) -> u64 {
        assert!(
            self.offset < (1 << 32) && self.gap < (1 << 31),
            "TraceRef out of packed range: offset {:#x} gap {}",
            self.offset,
            self.gap
        );
        self.offset | (self.gap << 32) | ((self.is_write as u64) << 63)
    }

    /// Inverse of [`TraceRef::pack`].
    #[inline]
    pub fn unpack(word: u64) -> TraceRef {
        TraceRef {
            offset: word & 0xffff_ffff,
            gap: (word >> 32) & 0x7fff_ffff,
            is_write: word >> 63 != 0,
        }
    }
}

/// Mixture-model trace generator.
///
/// Five components, weighted per [`WorkloadSpec`]:
///
/// * **repeat** — re-issue the previous address (line-level temporal
///   locality; what MRU way prediction feeds on, §IV-B2);
/// * **hot** — uniform references inside a small hot region (sized to fit
///   or spill the L1 per workload);
/// * **sequential** — a streaming cursor advancing line by line;
/// * **conflict** — round-robin over a pool of 64 KB-strided addresses
///   that alias to one cache set, thrashing low-associativity caches
///   (the conflict misses that make Fig. 2a fall until ~4 ways);
/// * **random** — uniform over a rotating working set of 2 MB regions
///   (capacity misses; the region count is what the TFT and superpage
///   TLB must track).
///
/// The hot region, conflict pool, and one active region re-seat
/// periodically ("episodes"), so long runs wander across the footprint —
/// including both superpage-backed and base-page-backed parts.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    footprint: u64,
    hot_base: u64,
    hot_bytes: u64,
    seq_cursor: u64,
    conflict_base: u64,
    active_regions: Vec<u64>,
    last_offset: u64,
    refs_until_reseat: u64,
}

impl TraceGenerator {
    /// References between re-seats.
    pub(crate) const EPISODE_REFS: u64 = 500_000;

    /// Creates a generator for `spec` with a deterministic seed.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(spec.name));
        let footprint = spec.footprint_bytes();
        let hot_bytes = (spec.hot_kib << 10).min(footprint);
        let hot_base = aligned_below(&mut rng, footprint - hot_bytes, 64);
        let conflict_span = spec.conflict_columns as u64 * CONFLICT_STRIDE;
        let conflict_base = aligned_below(&mut rng, footprint.saturating_sub(conflict_span), 64);
        let region_bytes = 2u64 << 20;
        let region_count = (footprint / region_bytes).max(1);
        let active_regions = (0..spec.active_regions)
            .map(|_| (rng.gen_range(0..region_count)) * region_bytes)
            .collect();
        Self {
            spec: *spec,
            rng,
            footprint,
            hot_base,
            hot_bytes,
            seq_cursor: 0,
            conflict_base,
            active_regions,
            last_offset: 0,
            refs_until_reseat: Self::EPISODE_REFS,
        }
    }

    /// The spec this generator follows.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Produces the next reference.
    pub fn next_ref(&mut self) -> TraceRef {
        if self.refs_until_reseat == 0 {
            self.reseat();
        }
        self.refs_until_reseat -= 1;

        let s = self.spec;
        let offset = if self.rng.gen::<f64>() < s.repeat_fraction {
            self.last_offset
        } else {
            let r: f64 = self.rng.gen();
            if r < s.hot_fraction {
                self.hot_base + line_align(self.rng.gen_range(0..self.hot_bytes))
            } else if r < s.hot_fraction + s.sequential_fraction {
                // Streams advance word-by-word: ~8 touches per 64 B line,
                // so streaming misses once per line, like real code. The
                // emitted reference is line-aligned; the cursor keeps the
                // sub-line position.
                self.seq_cursor = (self.seq_cursor + 8) % self.footprint;
                line_align(self.seq_cursor)
            } else if r < s.hot_fraction + s.sequential_fraction + s.conflict_fraction {
                // Random column: LRU keeps `ways` of the K columns
                // resident, so the miss rate falls from (K-1)/K on a DM
                // cache to max(0, K-ways)/K — Fig. 2a's conflict knee.
                let col = self.rng.gen_range(0..s.conflict_columns);
                self.conflict_base + (col as u64) * CONFLICT_STRIDE
            } else {
                // Random within the active 2 MB-region working set. Within
                // a region, references concentrate on a 256 KB slice —
                // applications touch parts of their pages at a time — so
                // the resident working set stays LLC-sized while the TLB
                // and TFT still see the full 2 MB-region set.
                let region = self.active_regions[self.rng.gen_range(0..self.active_regions.len())];
                let span = (2u64 << 20).min(self.footprint - region);
                let slice_bytes = span.min(256 << 10);
                let slices = (span / slice_bytes).max(1);
                let slice = (region >> 21).wrapping_mul(0x9e37_79b9) % slices;
                region + slice * slice_bytes + line_align(self.rng.gen_range(0..slice_bytes))
            }
        };
        self.last_offset = offset;

        let is_write = self.rng.gen::<f64>() < s.write_fraction;
        // Geometric gaps with the spec's mean.
        let mean = s.mean_gap();
        let gap = if mean <= 0.0 {
            0
        } else {
            let u: f64 = self.rng.gen();
            (-(1.0 - u).ln() * mean).round() as u64
        };
        TraceRef {
            offset,
            is_write,
            gap,
        }
    }

    /// Generates a batch of `n` references.
    pub fn take_refs(&mut self, n: usize) -> Vec<TraceRef> {
        (0..n).map(|_| self.next_ref()).collect()
    }

    /// Appends a batch of `n` references to `out` without allocating a
    /// fresh vector per chunk — the batched form the simulator's prewarm
    /// consumes (64-reference chunks amortize the call overhead and keep
    /// the recorded stream in one contiguous buffer).
    pub fn fill_refs(&mut self, out: &mut Vec<TraceRef>, n: usize) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_ref());
        }
    }

    #[cfg(test)]
    pub(crate) fn hot_base_for_tests(&self) -> u64 {
        self.hot_base
    }

    #[cfg(test)]
    pub(crate) fn conflict_base_for_tests(&self) -> u64 {
        self.conflict_base
    }

    fn reseat(&mut self) {
        self.refs_until_reseat = Self::EPISODE_REFS;
        self.hot_base = aligned_below(&mut self.rng, self.footprint - self.hot_bytes, 64);
        let conflict_span = self.spec.conflict_columns as u64 * CONFLICT_STRIDE;
        self.conflict_base = aligned_below(
            &mut self.rng,
            self.footprint.saturating_sub(conflict_span),
            64,
        );
        self.seq_cursor = line_align(self.rng.gen_range(0..self.footprint));
        // Rotate one active region: application phases drift, they don't
        // teleport — which keeps the 2 MB-region working set trackable.
        let region_bytes = 2u64 << 20;
        let region_count = (self.footprint / region_bytes).max(1);
        let victim = self.rng.gen_range(0..self.active_regions.len());
        self.active_regions[victim] = self.rng.gen_range(0..region_count) * region_bytes;
    }
}

fn line_align(offset: u64) -> u64 {
    offset & !63
}

fn aligned_below(rng: &mut StdRng, max: u64, align: u64) -> u64 {
    if max == 0 {
        0
    } else {
        rng.gen_range(0..max) / align * align
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn spec(name: &str) -> WorkloadSpec {
        *catalog().iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn offsets_stay_in_footprint_and_line_aligned() {
        let w = spec("redis");
        let mut generator = TraceGenerator::new(&w, 1);
        for _ in 0..100_000 {
            let r = generator.next_ref();
            assert!(r.offset < w.footprint_bytes());
            assert_eq!(r.offset % 64, 0);
        }
    }

    #[test]
    fn deterministic_per_seed_and_name() {
        let w = spec("mcf");
        let a: Vec<TraceRef> = TraceGenerator::new(&w, 7).take_refs(1000);
        let b: Vec<TraceRef> = TraceGenerator::new(&w, 7).take_refs(1000);
        assert_eq!(a, b);
        let c: Vec<TraceRef> = TraceGenerator::new(&w, 8).take_refs(1000);
        assert_ne!(a, c, "different seed, different trace");
        let d: Vec<TraceRef> = TraceGenerator::new(&spec("astar"), 7).take_refs(1000);
        assert_ne!(a, d, "different workload, different trace");
    }

    #[test]
    fn write_fraction_is_respected() {
        let w = spec("gups"); // 50% writes
        let mut generator = TraceGenerator::new(&w, 3);
        let writes = generator
            .take_refs(50_000)
            .iter()
            .filter(|r| r.is_write)
            .count() as f64
            / 50_000.0;
        assert!((0.47..0.53).contains(&writes), "write fraction {writes}");
    }

    #[test]
    fn mean_gap_matches_mem_ref_fraction() {
        let w = spec("astar"); // 30% refs → mean gap ≈ 2.33
        let mut generator = TraceGenerator::new(&w, 3);
        let total_gap: u64 = generator.take_refs(100_000).iter().map(|r| r.gap).sum();
        let mean = total_gap as f64 / 100_000.0;
        assert!(
            (mean - w.mean_gap()).abs() < 0.1,
            "mean gap {mean} vs expected {}",
            w.mean_gap()
        );
    }

    #[test]
    fn repeat_fraction_produces_immediate_reuse() {
        let count_repeats = |name: &str| {
            let w = spec(name);
            let mut generator = TraceGenerator::new(&w, 5);
            let refs = generator.take_refs(50_000);
            refs.windows(2)
                .filter(|p| p[0].offset == p[1].offset)
                .count() as f64
                / 50_000.0
        };
        let nutch = count_repeats("nutch"); // repeat 0.60
        let gups = count_repeats("gups"); // repeat 0.15
        assert!(nutch > 0.5, "nutch immediate reuse {nutch}");
        assert!(gups < 0.25, "gups immediate reuse {gups}");
        assert!(nutch > 2.0 * gups, "locality ordering preserved");
    }

    #[test]
    fn random_component_stays_in_a_bounded_region_set() {
        let w = spec("redis"); // 9 active regions
        let mut generator = TraceGenerator::new(&w, 5);
        let mut regions = std::collections::HashSet::new();
        for r in generator.take_refs(100_000) {
            regions.insert(r.offset >> 21);
        }
        // Hot + seq + conflict + 9 active random regions, with one region
        // rotation possible — far fewer than the 24 regions of the
        // footprint.
        assert!(
            regions.len() <= 18,
            "touched {} distinct 2MB regions",
            regions.len()
        );
    }

    #[test]
    fn hot_workloads_have_concentrated_footprints() {
        let count_unique = |name: &str| {
            let w = spec(name);
            let mut generator = TraceGenerator::new(&w, 5);
            let mut lines = std::collections::HashSet::new();
            for r in generator.take_refs(50_000) {
                lines.insert(r.offset / 64);
            }
            lines.len()
        };
        let astar = count_unique("astar");
        let gups = count_unique("gups");
        assert!(
            gups > 2 * astar,
            "gups ({gups}) should touch far more lines than astar ({astar})"
        );
    }

    #[test]
    fn conflict_pool_maps_to_one_set_in_all_fig2_geometries() {
        let w = spec("mcf");
        let generator = TraceGenerator::new(&w, 9);
        let base = generator.conflict_base_for_tests();
        // Sets = size / (ways × 64); Fig. 2a spans 16KB DM (256 sets) to
        // 256KB 32-way (128 sets), plus the 64-set VIPT L1s.
        for sets in [64usize, 128, 256, 512, 1024] {
            let mut distinct = std::collections::HashSet::new();
            for col in 0..w.conflict_columns as u64 {
                let offset = base + col * CONFLICT_STRIDE;
                distinct.insert((offset / 64) as usize % sets);
            }
            assert_eq!(distinct.len(), 1, "{sets}-set geometry must alias");
        }
    }

    #[test]
    fn episodes_move_the_hot_region() {
        let w = spec("omnet");
        let mut generator = TraceGenerator::new(&w, 11);
        let first_base = generator.hot_base_for_tests();
        for _ in 0..(TraceGenerator::EPISODE_REFS + 10) {
            generator.next_ref();
        }
        assert_ne!(generator.hot_base_for_tests(), first_base);
    }
}
