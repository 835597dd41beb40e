//! Binary buddy allocator over simulated physical memory.
//!
//! Linux allocates physical memory through a buddy allocator, and the
//! availability of order-9 (2 MB) blocks is exactly what determines whether
//! transparent superpages can be created (§III-C). This implementation
//! reproduces the split/coalesce dynamics so that the `memhog`
//! fragmentation experiments (Fig. 3, Fig. 12) behave like the real system.

use seesaw_trace::{Collect, MetricsRegistry};

use crate::MemError;

/// Largest supported order: an order-18 block is 2^18 base pages = 1 GB,
/// enough to serve 1 GB superpages.
pub const MAX_ORDER: u32 = 18;

/// A hierarchical bitmap over block indices. Level 0 holds one bit per
/// index; each higher level holds one bit per 64-bit word of the level
/// below, so membership, insert, remove, and find-smallest are all a
/// handful of word operations regardless of occupancy. Iteration yields
/// indices in ascending order, like the ordered containers this replaces.
#[derive(Debug, Clone)]
struct IndexBitmap {
    levels: Vec<Vec<u64>>,
    len: usize,
}

impl IndexBitmap {
    fn new(capacity: u64) -> Self {
        let mut words = (capacity as usize).div_ceil(64).max(1);
        let mut levels = vec![vec![0u64; words]];
        while words > 1 {
            words = words.div_ceil(64);
            levels.push(vec![0u64; words]);
        }
        Self { levels, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn contains(&self, idx: u64) -> bool {
        let idx = idx as usize;
        self.levels[0][idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Sets a bit that must currently be clear.
    fn insert(&mut self, idx: u64) {
        debug_assert!(!self.contains(idx), "bit {idx} already set");
        let mut idx = idx as usize;
        for level in &mut self.levels {
            level[idx / 64] |= 1u64 << (idx % 64);
            idx /= 64;
        }
        self.len += 1;
    }

    /// Clears a bit, returning whether it was set.
    fn remove(&mut self, idx: u64) -> bool {
        if !self.contains(idx) {
            return false;
        }
        let mut idx = idx as usize;
        for level in &mut self.levels {
            let word = idx / 64;
            level[word] &= !(1u64 << (idx % 64));
            if level[word] != 0 {
                break;
            }
            idx = word;
        }
        self.len -= 1;
        true
    }

    /// The smallest set index, if any.
    fn first_set(&self) -> Option<u64> {
        let top = self.levels.last().expect("at least one level");
        let word = top.iter().position(|&w| w != 0)?;
        let mut idx = word * 64 + top[word].trailing_zeros() as usize;
        for level in self.levels[..self.levels.len() - 1].iter().rev() {
            idx = idx * 64 + level[idx].trailing_zeros() as usize;
        }
        Some(idx as u64)
    }

    /// Iterates set indices in ascending order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.levels[0].iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some(word as u64 * 64 + bit)
            })
        })
    }
}

/// A binary buddy allocator tracking 4 KB frames.
///
/// Blocks are identified by their starting frame index; an order-`k` block
/// covers `2^k` contiguous frames and is naturally aligned (its start index
/// is a multiple of `2^k`), which is what makes physical superpage
/// allocation possible.
///
/// # Example
/// ```
/// use seesaw_mem::BuddyAllocator;
/// let mut buddy = BuddyAllocator::new(1024); // 4 MiB
/// let two_mb = buddy.alloc(9).expect("order-9 block");
/// assert_eq!(two_mb % 512, 0, "order-9 blocks are 2 MB aligned");
/// buddy.free(two_mb, 9).unwrap();
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total_frames: u64,
    free_frames: u64,
    /// Free blocks per order: bit `i` of the order-`k` bitmap means the
    /// block starting at frame `i << k` is free.
    free_lists: Vec<IndexBitmap>,
    /// Frames where an allocated block starts.
    allocated: IndexBitmap,
    /// Order of the allocated block starting at each frame (meaningful
    /// only where `allocated` has the bit set).
    alloc_order: Vec<u8>,
}

/// A snapshot of allocator occupancy used by compaction policy and the
/// fragmentation experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuddyStats {
    /// Total frames managed.
    pub total_frames: u64,
    /// Frames currently free.
    pub free_frames: u64,
    /// Number of free blocks at each order `0..=MAX_ORDER`.
    pub free_blocks_per_order: Vec<u64>,
    /// Largest order with at least one free block, if any memory is free.
    pub largest_free_order: Option<u32>,
}

impl BuddyStats {
    /// Fraction of free memory held in blocks of at least the given order —
    /// a direct measure of the allocator's ability to serve superpages.
    pub fn contiguity_at(&self, order: u32) -> f64 {
        if self.free_frames == 0 {
            return 0.0;
        }
        let frames_in_big_blocks: u64 = self
            .free_blocks_per_order
            .iter()
            .enumerate()
            .skip(order as usize)
            .map(|(k, &count)| count << k)
            .sum();
        frames_in_big_blocks as f64 / self.free_frames as f64
    }
}

impl Collect for BuddyStats {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let BuddyStats {
            total_frames,
            free_frames,
            free_blocks_per_order,
            largest_free_order,
        } = self;
        out.set_u64(&format!("{prefix}.total_frames"), *total_frames);
        out.set_u64(&format!("{prefix}.free_frames"), *free_frames);
        for (order, &count) in free_blocks_per_order.iter().enumerate() {
            out.set_u64(&format!("{prefix}.free_blocks.order{order}"), count);
        }
        out.set_u64(
            &format!("{prefix}.largest_free_order"),
            largest_free_order.map_or(0, u64::from),
        );
        out.set_f64(
            &format!("{prefix}.contiguity_order9"),
            self.contiguity_at(9),
        );
    }
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_frames` 4 KB frames, all free.
    ///
    /// # Panics
    /// Panics if `total_frames` is zero.
    pub fn new(total_frames: u64) -> Self {
        assert!(total_frames > 0, "cannot manage zero frames");
        let free_lists = (0..=MAX_ORDER)
            .map(|k| IndexBitmap::new(((total_frames - 1) >> k) + 1))
            .collect();
        let mut buddy = Self {
            total_frames,
            free_frames: total_frames,
            free_lists,
            allocated: IndexBitmap::new(total_frames),
            alloc_order: vec![0; total_frames as usize],
        };
        // Seed the free lists with maximal aligned blocks (greedy
        // decomposition of the frame range, like Linux's memblock release).
        let mut start = 0;
        while start < total_frames {
            let align_order = if start == 0 {
                MAX_ORDER
            } else {
                start.trailing_zeros().min(MAX_ORDER)
            };
            let remaining = total_frames - start;
            let fit_order = (63 - remaining.leading_zeros()).min(MAX_ORDER);
            let order = align_order.min(fit_order);
            buddy.free_lists[order as usize].insert(start >> order);
            start += 1 << order;
        }
        buddy
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Allocates a naturally-aligned block of `2^order` frames, returning
    /// its starting frame index.
    ///
    /// # Errors
    /// Returns [`MemError::Fragmented`] when total free memory would
    /// suffice but no contiguous aligned block exists, and
    /// [`MemError::OutOfMemory`] when free memory itself is insufficient.
    pub fn alloc(&mut self, order: u32) -> Result<u64, MemError> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        let frames = 1u64 << order;
        // Find the smallest order with a free block.
        let found = (order..=MAX_ORDER).find(|&k| self.free_lists[k as usize].len() > 0);
        let Some(mut k) = found else {
            return if self.free_frames >= frames {
                Err(MemError::Fragmented {
                    size: order_to_nearest_size(order),
                })
            } else {
                Err(MemError::OutOfMemory {
                    requested: frames * 4096,
                })
            };
        };
        let idx = self.free_lists[k as usize].first_set().expect("non-empty");
        let start = idx << k;
        self.free_lists[k as usize].remove(idx);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while k > order {
            k -= 1;
            let buddy = start + (1u64 << k);
            self.free_lists[k as usize].insert(buddy >> k);
        }
        self.free_frames -= frames;
        self.allocated.insert(start);
        self.alloc_order[start as usize] = order as u8;
        Ok(start)
    }

    /// Allocates a specific block if it is entirely free (used by
    /// compaction to rebuild contiguity). Returns `true` on success.
    pub fn alloc_exact(&mut self, start: u64, order: u32) -> bool {
        if start >= self.total_frames {
            return false;
        }
        // The block is free iff it can be carved out of a containing free
        // block. Search upward for a free block that covers [start, start+2^order).
        let mut k = order;
        let mut covering = None;
        while k <= MAX_ORDER {
            let block_start = start & !((1u64 << k) - 1);
            if self.free_lists[k as usize].contains(block_start >> k) {
                covering = Some((block_start, k));
                break;
            }
            k += 1;
        }
        let Some((block_start, mut k)) = covering else {
            return false;
        };
        self.free_lists[k as usize].remove(block_start >> k);
        // Split toward the target block, freeing the halves we don't want.
        let mut cur = block_start;
        while k > order {
            k -= 1;
            let half = 1u64 << k;
            if start < cur + half {
                self.free_lists[k as usize].insert((cur + half) >> k);
            } else {
                self.free_lists[k as usize].insert(cur >> k);
                cur += half;
            }
        }
        debug_assert_eq!(cur, start);
        self.free_frames -= 1u64 << order;
        self.allocated.insert(start);
        self.alloc_order[start as usize] = order as u8;
        true
    }

    /// Frees a previously allocated block, coalescing with free buddies.
    ///
    /// # Errors
    /// Returns [`MemError::NotAllocated`] if `(start, order)` does not match
    /// an allocated block.
    pub fn free(&mut self, start: u64, order: u32) -> Result<(), MemError> {
        if !self.is_allocated(start, order) {
            return Err(MemError::NotAllocated);
        }
        self.allocated.remove(start);
        self.free_frames += 1u64 << order;
        let mut start = start;
        let mut order = order;
        // Coalesce upward while the buddy is free.
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if buddy + (1u64 << order) > self.total_frames
                || !self.free_lists[order as usize].remove(buddy >> order)
            {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start >> order);
        Ok(())
    }

    /// Splits an allocated block in place into `2^order` individually
    /// allocated order-0 blocks (no memory is freed). This models breaking
    /// up a compound (huge) page when a superpage mapping is splintered,
    /// after which the constituent 4 KB frames can be freed one by one.
    ///
    /// # Errors
    /// Returns [`MemError::NotAllocated`] if `(start, order)` is not an
    /// allocated block.
    pub fn split_allocated(&mut self, start: u64, order: u32) -> Result<(), MemError> {
        if !self.is_allocated(start, order) {
            return Err(MemError::NotAllocated);
        }
        self.alloc_order[start as usize] = 0;
        for i in 1..(1u64 << order) {
            self.allocated.insert(start + i);
            self.alloc_order[(start + i) as usize] = 0;
        }
        Ok(())
    }

    /// True if the block starting at `start` with the given order is
    /// currently allocated.
    pub fn is_allocated(&self, start: u64, order: u32) -> bool {
        start < self.total_frames
            && self.allocated.contains(start)
            && self.alloc_order[start as usize] as u32 == order
    }

    /// Iterates over allocated blocks as `(start_frame, order)` pairs in
    /// ascending start order.
    pub fn allocated_blocks(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.allocated
            .iter()
            .map(|s| (s, self.alloc_order[s as usize] as u32))
    }

    /// Returns occupancy statistics.
    pub fn stats(&self) -> BuddyStats {
        let free_blocks_per_order: Vec<u64> =
            self.free_lists.iter().map(|l| l.len() as u64).collect();
        let largest_free_order = free_blocks_per_order
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(k, _)| k as u32);
        BuddyStats {
            total_frames: self.total_frames,
            free_frames: self.free_frames,
            free_blocks_per_order,
            largest_free_order,
        }
    }

    /// Number of free blocks at exactly `order`.
    pub fn free_blocks_at(&self, order: u32) -> usize {
        self.free_lists[order as usize].len()
    }

    /// Whether an allocation of the given order would currently succeed.
    pub fn can_alloc(&self, order: u32) -> bool {
        (order..=MAX_ORDER).any(|k| self.free_lists[k as usize].len() > 0)
    }
}

fn order_to_nearest_size(order: u32) -> crate::PageSize {
    use crate::PageSize;
    if order >= PageSize::Super1G.buddy_order() {
        PageSize::Super1G
    } else if order >= PageSize::Super2M.buddy_order() {
        PageSize::Super2M
    } else {
        PageSize::Base4K
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_allocator_is_fully_free() {
        let buddy = BuddyAllocator::new(1 << 12);
        assert_eq!(buddy.free_frames(), 1 << 12);
        let stats = buddy.stats();
        assert_eq!(stats.largest_free_order, Some(12));
        assert!((stats.contiguity_at(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alloc_splits_and_free_coalesces() {
        let mut buddy = BuddyAllocator::new(1024);
        let a = buddy.alloc(0).unwrap();
        assert_eq!(buddy.free_frames(), 1023);
        // A single 4 KB allocation splinters one high-order block.
        assert!(buddy.stats().contiguity_at(9) < 1.0);
        buddy.free(a, 0).unwrap();
        assert_eq!(buddy.free_frames(), 1024);
        // After coalescing, full contiguity returns.
        assert!((buddy.stats().contiguity_at(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blocks_are_naturally_aligned() {
        let mut buddy = BuddyAllocator::new(4096);
        for order in [0u32, 3, 6, 9] {
            let start = buddy.alloc(order).unwrap();
            assert_eq!(start % (1 << order), 0, "order {order} misaligned");
        }
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let mut buddy = BuddyAllocator::new(2);
        buddy.alloc(1).unwrap();
        assert!(matches!(buddy.alloc(0), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn fragmentation_reports_fragmented() {
        // 4 frames; allocate all singles, free two non-buddy frames.
        let mut buddy = BuddyAllocator::new(4);
        let f: Vec<u64> = (0..4).map(|_| buddy.alloc(0).unwrap()).collect();
        buddy.free(f[0], 0).unwrap();
        buddy.free(f[2], 0).unwrap();
        // 2 frames free but not contiguous buddies at order 1.
        assert_eq!(buddy.free_frames(), 2);
        assert!(matches!(buddy.alloc(1), Err(MemError::Fragmented { .. })));
    }

    #[test]
    fn double_free_rejected() {
        let mut buddy = BuddyAllocator::new(16);
        let a = buddy.alloc(0).unwrap();
        buddy.free(a, 0).unwrap();
        assert_eq!(buddy.free(a, 0), Err(MemError::NotAllocated));
    }

    #[test]
    fn wrong_order_free_rejected() {
        let mut buddy = BuddyAllocator::new(16);
        let a = buddy.alloc(2).unwrap();
        assert_eq!(buddy.free(a, 1), Err(MemError::NotAllocated));
        buddy.free(a, 2).unwrap();
    }

    #[test]
    fn alloc_exact_carves_out_block() {
        let mut buddy = BuddyAllocator::new(1024);
        assert!(buddy.alloc_exact(512, 9));
        assert!(buddy.is_allocated(512, 9));
        assert_eq!(buddy.free_frames(), 512);
        // The same block cannot be taken twice.
        assert!(!buddy.alloc_exact(512, 9));
        // A sub-block of an allocated block is also unavailable.
        assert!(!buddy.alloc_exact(520, 0));
        // But the untouched half is available.
        assert!(buddy.alloc_exact(0, 9));
    }

    #[test]
    fn alloc_exact_then_free_restores_contiguity() {
        let mut buddy = BuddyAllocator::new(1024);
        assert!(buddy.alloc_exact(256, 4));
        buddy.free(256, 4).unwrap();
        assert!((buddy.stats().contiguity_at(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_total_frames() {
        // 1000 frames decompose into aligned blocks; everything still works.
        let mut buddy = BuddyAllocator::new(1000);
        assert_eq!(buddy.free_frames(), 1000);
        let mut got = 0;
        while buddy.alloc(0).is_ok() {
            got += 1;
        }
        assert_eq!(got, 1000);
    }

    #[test]
    fn split_allocated_enables_piecewise_free() {
        let mut buddy = BuddyAllocator::new(1024);
        let start = buddy.alloc(9).unwrap();
        buddy.split_allocated(start, 9).unwrap();
        assert_eq!(buddy.free_frames(), 512);
        // Each 4 KB piece frees independently; full coalesce at the end.
        for i in 0..512 {
            buddy.free(start + i, 0).unwrap();
        }
        assert_eq!(buddy.free_frames(), 1024);
        assert_eq!(buddy.stats().largest_free_order, Some(10));
    }

    #[test]
    fn split_unallocated_rejected() {
        let mut buddy = BuddyAllocator::new(1024);
        assert_eq!(buddy.split_allocated(0, 9), Err(MemError::NotAllocated));
        let start = buddy.alloc(4).unwrap();
        assert_eq!(
            buddy.split_allocated(start, 9),
            Err(MemError::NotAllocated),
            "order mismatch must be rejected"
        );
    }

    #[test]
    fn conservation_under_random_workload() {
        // Deterministic pseudo-random alloc/free stress; total frames must
        // always be conserved and coalescing must fully restore memory.
        let mut buddy = BuddyAllocator::new(1 << 10);
        let mut live: Vec<(u64, u32)> = Vec::new();
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..2000 {
            if next() % 2 == 0 {
                let order = (next() % 5) as u32;
                if let Ok(start) = buddy.alloc(order) {
                    live.push((start, order));
                }
            } else if !live.is_empty() {
                let idx = (next() as usize) % live.len();
                let (start, order) = live.swap_remove(idx);
                buddy.free(start, order).unwrap();
            }
            let allocated: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            assert_eq!(buddy.free_frames() + allocated, 1 << 10);
        }
        for (start, order) in live.drain(..) {
            buddy.free(start, order).unwrap();
        }
        assert_eq!(buddy.free_frames(), 1 << 10);
        assert_eq!(buddy.stats().largest_free_order, Some(10));
    }
}
