//! The `memhog` fragmentation microbenchmark.
//!
//! The paper fragments memory with memhog, "a microbenchmark … that
//! performs random memory allocations" (§III-C), handing it 0–90 % of
//! system memory to control how easily the OS can build superpages.
//! This driver reproduces that behavior: it grabs a target fraction of
//! physical memory in small, randomly-sized chunks (a slice of which are
//! pinned/unmovable, standing in for the co-resident kernel and
//! network-stack activity the paper mentions), then churns — freeing and
//! re-allocating random chunks — to scatter the free space.

use crate::compaction::Relocation;
use crate::{FrameState, PhysicalMemory};

/// Configuration for a memhog run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemhogConfig {
    /// Fraction of total physical memory to occupy, `0.0..=0.95`.
    pub fraction: f64,
    /// Fraction of memhog's chunks that are unmovable (pinned), defeating
    /// compaction in the regions they land in.
    pub unmovable_fraction: f64,
    /// Free/re-allocate churn iterations per held chunk, scattering holes.
    pub churn_factor: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for MemhogConfig {
    fn default() -> Self {
        Self {
            fraction: 0.4,
            unmovable_fraction: 0.025,
            churn_factor: 1.5,
            seed: 0x5eed_5eed,
        }
    }
}

impl MemhogConfig {
    /// Convenience constructor matching the paper's "memhog (N %)" notation.
    pub fn percent(pct: u32) -> Self {
        Self {
            fraction: f64::from(pct.min(95)) / 100.0,
            ..Self::default()
        }
    }
}

/// A running memhog instance holding physical memory.
#[derive(Debug, Clone)]
pub struct Memhog {
    config: MemhogConfig,
    /// Held blocks: `(start_frame, order, movable)`.
    held: Vec<(u64, u32, bool)>,
    rng: SplitMix64,
}

impl Memhog {
    /// Creates a memhog with the given configuration (holds nothing yet).
    pub fn new(config: MemhogConfig) -> Self {
        Self {
            rng: SplitMix64::new(config.seed),
            config,
            held: Vec::new(),
        }
    }

    /// Runs the fragmentation workload against physical memory.
    ///
    /// The classic recipe: fill nearly all of memory with small chunks,
    /// then free random chunks back down to the target fraction. The
    /// surviving chunks are scattered uniformly, so the free space is
    /// riddled with small holes in every 2 MB region — exactly the state a
    /// long-uptime, heavily loaded server reaches (§III-C). Unmovable
    /// chunks are biased toward the start of the fill (low physical
    /// addresses), modelling the kernel's migrate-type grouping that keeps
    /// pinned allocations clustered.
    ///
    /// Safe to call on a fresh instance only; reuse is not supported.
    pub fn run(&mut self, pmem: &mut PhysicalMemory) {
        assert!(self.held.is_empty(), "memhog already ran");
        let total = pmem.stats().total_frames;
        let target_frames = (total as f64 * self.config.fraction) as u64;
        if target_frames == 0 {
            return;
        }
        // Phase 1: fill to ~95 % of memory.
        let fill_frames = (total as f64 * 0.95) as u64;
        let mut held_frames = 0u64;
        // Unmovable chunks cluster in the low-address window (first part of
        // the fill); within the window they appear with elevated
        // probability so the expected unmovable share matches the config.
        let window_frac = (self.config.unmovable_fraction * 4.0).min(1.0);
        let window_end = (fill_frames as f64 * window_frac) as u64;
        while held_frames < fill_frames {
            let order = self.sample_order();
            let in_window = held_frames < window_end;
            let p_unmovable = if in_window && window_frac > 0.0 {
                (self.config.unmovable_fraction / window_frac).min(1.0)
            } else {
                0.0
            };
            let movable = self.rng.next_f64() >= p_unmovable;
            let state = if movable {
                FrameState::Movable
            } else {
                FrameState::Unmovable
            };
            match pmem.buddy_mut().alloc(order) {
                Ok(start) => {
                    pmem.set_mobility(start, state);
                    self.held.push((start, order, movable));
                    held_frames += 1u64 << order;
                }
                Err(_) => break,
            }
        }
        // Phase 2: free random chunks until only the target remains.
        while held_frames > target_frames && !self.held.is_empty() {
            let idx = (self.rng.next_u64() as usize) % self.held.len();
            let (start, order, _) = self.held.swap_remove(idx);
            pmem.buddy_mut().free(start, order).expect("held block");
            pmem.clear_mobility(start);
            held_frames -= 1u64 << order;
        }
        // Phase 3: optional churn — free + re-allocate pairs, moving holes
        // around further.
        let churn = (self.held.len() as f64 * self.config.churn_factor.min(0.25)) as usize;
        for _ in 0..churn {
            if self.held.is_empty() {
                break;
            }
            let idx = (self.rng.next_u64() as usize) % self.held.len();
            let (start, order, movable) = self.held.swap_remove(idx);
            pmem.buddy_mut().free(start, order).expect("held block");
            pmem.clear_mobility(start);
            if let Ok(new_start) = pmem.buddy_mut().alloc(order) {
                let state = if movable {
                    FrameState::Movable
                } else {
                    FrameState::Unmovable
                };
                pmem.set_mobility(new_start, state);
                self.held.push((new_start, order, movable));
            }
        }
    }

    /// Applies compaction relocations to the blocks this memhog holds.
    pub fn absorb_relocations(&mut self, relocations: &[Relocation]) {
        let moved: std::collections::HashMap<(u64, u32), u64> = relocations
            .iter()
            .map(|r| ((r.old_start, r.order), r.new_start))
            .collect();
        for block in &mut self.held {
            if let Some(&new_start) = moved.get(&(block.0, block.1)) {
                block.0 = new_start;
            }
        }
    }

    /// Releases everything memhog holds.
    pub fn release(&mut self, pmem: &mut PhysicalMemory) {
        for (start, order, _) in self.held.drain(..) {
            // A block may have been migrated by compaction between our last
            // absorb and now; tolerate stale entries in that narrow case.
            if pmem.buddy().is_allocated(start, order) {
                pmem.buddy_mut().free(start, order).expect("checked");
                pmem.clear_mobility(start);
            }
        }
    }

    /// Frames currently held.
    pub fn held_frames(&self) -> u64 {
        self.held.iter().map(|&(_, o, _)| 1u64 << o).sum()
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> MemhogConfig {
        self.config
    }

    /// Chunk sizes: mostly single pages, some order-1..3 runs — small
    /// random allocations, per the paper's description.
    fn sample_order(&mut self) -> u32 {
        match self.rng.next_u64() % 10 {
            0..=5 => 0,
            6..=7 => 1,
            8 => 2,
            _ => 3,
        }
    }
}

/// SplitMix64: tiny deterministic RNG so this crate stays dependency-free.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageSize;

    #[test]
    fn memhog_occupies_requested_fraction() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut hog = Memhog::new(MemhogConfig::percent(40));
        hog.run(&mut pmem);
        let frac = hog.held_frames() as f64 / pmem.stats().total_frames as f64;
        assert!((0.38..=0.45).contains(&frac), "held fraction {frac}");
    }

    /// Allocates as many 2 MB pages as possible, compacting on failure —
    /// the THP allocation discipline. Returns the fraction of the free
    /// memory that could be obtained as superpages.
    fn superpage_allocability(pmem: &mut PhysicalMemory, hog: &mut Memhog) -> f64 {
        use crate::{Compactor, FrameState, PageSize};
        let free_frames = pmem.stats().free_frames;
        let mut got = 0u64;
        loop {
            match pmem.alloc_page(PageSize::Super2M, FrameState::Movable) {
                Ok(_) => got += PageSize::Super2M.base_pages(),
                Err(crate::MemError::Fragmented { .. }) => {
                    let outcome = Compactor::new().compact(pmem);
                    hog.absorb_relocations(&outcome.relocations);
                    if pmem
                        .alloc_page(PageSize::Super2M, FrameState::Movable)
                        .is_ok()
                    {
                        got += PageSize::Super2M.base_pages();
                    } else {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        got as f64 / free_frames as f64
    }

    #[test]
    fn memhog_fragments_direct_allocation() {
        let mut pmem = PhysicalMemory::new(128 << 20);
        assert_eq!(pmem.stats().contiguity_at(9), 1.0);
        let mut hog = Memhog::new(MemhogConfig::percent(60));
        hog.run(&mut pmem);
        // Direct (compaction-free) 2MB allocability collapses.
        assert!(
            pmem.stats().contiguity_at(9) < 0.5,
            "memhog should destroy direct 2MB contiguity"
        );
    }

    #[test]
    fn higher_fractions_defeat_thp_allocation() {
        let allocability = |pct: u32| {
            let mut pmem = PhysicalMemory::new(128 << 20);
            let mut hog = Memhog::new(MemhogConfig::percent(pct));
            hog.run(&mut pmem);
            superpage_allocability(&mut pmem, &mut hog)
        };
        let a20 = allocability(20);
        let a80 = allocability(80);
        assert!(
            a20 > 0.6,
            "light memhog should leave compaction able to build superpages, got {a20}"
        );
        assert!(
            a80 < a20,
            "80% memhog ({a80}) should defeat THP more than 20% ({a20})"
        );
    }

    #[test]
    fn release_returns_all_memory() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let free0 = pmem.free_bytes();
        let mut hog = Memhog::new(MemhogConfig::percent(50));
        hog.run(&mut pmem);
        hog.release(&mut pmem);
        assert_eq!(pmem.free_bytes(), free0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut pmem = PhysicalMemory::new(64 << 20);
            let mut hog = Memhog::new(MemhogConfig::percent(40));
            hog.run(&mut pmem);
            (hog.held_frames(), pmem.stats().contiguity_at(9))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memhog_zero_holds_nothing() {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut hog = Memhog::new(MemhogConfig::percent(0));
        hog.run(&mut pmem);
        assert_eq!(hog.held_frames(), 0);
        assert!(pmem.can_alloc(PageSize::Super2M));
    }
}
