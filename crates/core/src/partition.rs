//! The partition decoder (Fig. 4, Fig. 6).
//!
//! The bits immediately more significant than the set index name the
//! partition. For a 32 KB cache with 64 sets and 64 B lines, the set
//! index is VA 11:6, so bit 12 is the partition index; a 64 KB cache uses
//! bits 13:12, a 128 KB cache bits 14:12. All these bits sit inside a
//! 2 MB page offset (bits 20:0), which is the property SEESAW exploits:
//! for superpages the *virtual* partition bits equal the *physical* ones.

use seesaw_cache::{CacheConfig, WayMask};
use seesaw_mem::{PageSize, PhysAddr, VirtAddr};

/// Computes partition indices and way masks for a partitioned VIPT cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionDecoder {
    partitions: usize,
    total_ways: usize,
    /// Lowest partition-index bit (set-index bits + byte-offset bits).
    low_bit: u32,
}

impl PartitionDecoder {
    /// Builds a decoder for a cache with `sets`×`total_ways`×`line_bytes`
    /// geometry and the given partition count.
    ///
    /// # Panics
    /// Panics unless `partitions` divides `total_ways`, both are powers of
    /// two, and the partition bits stay within a 2 MB page offset (the
    /// design requirement that makes superpage indexing sound).
    pub fn new(sets: usize, total_ways: usize, line_bytes: u64, partitions: usize) -> Self {
        assert!(
            partitions.is_power_of_two(),
            "partition count must be a power of two"
        );
        assert!(
            total_ways.is_multiple_of(partitions),
            "partitions must divide ways evenly"
        );
        assert!(sets.is_power_of_two() && line_bytes.is_power_of_two());
        let low_bit = (sets as u64).trailing_zeros() + line_bytes.trailing_zeros();
        let bits = (partitions as u64).trailing_zeros();
        assert!(
            low_bit + bits <= PageSize::Super2M.offset_bits(),
            "partition bits must fall inside the 2 MB page offset"
        );
        Self {
            partitions,
            total_ways,
            low_bit,
        }
    }

    /// The decoder of `partitions` partitions over `cache`'s geometry.
    pub(crate) fn of(cache: &CacheConfig, partitions: usize) -> Self {
        Self::new(cache.sets(), cache.ways, cache.line_bytes, partitions)
    }

    /// A decoder for one partition spanning all `total_ways` ways (the
    /// conventional array, whatever its set count).
    pub(crate) fn single(total_ways: usize) -> Self {
        Self {
            partitions: 1,
            total_ways,
            low_bit: 0,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Ways per partition.
    pub fn ways_per_partition(&self) -> usize {
        self.total_ways / self.partitions
    }

    /// Partition index from the virtual address (speculative: valid only
    /// if the access turns out to be a superpage access).
    pub fn partition_of_va(&self, va: VirtAddr) -> usize {
        self.extract(va.raw())
    }

    /// Partition index from the physical address (ground truth; used for
    /// insertion and coherence).
    pub fn partition_of_pa(&self, pa: PhysAddr) -> usize {
        self.extract(pa.raw())
    }

    /// Way mask of a partition.
    pub fn mask_of(&self, partition: usize) -> WayMask {
        WayMask::partition(partition, self.partitions, self.total_ways)
    }

    /// Mask of every way (the conventional VIPT lookup).
    pub fn full_mask(&self) -> WayMask {
        WayMask::all(self.total_ways)
    }

    fn extract(&self, addr: u64) -> usize {
        if self.partitions == 1 {
            return 0;
        }
        ((addr >> self.low_bit) as usize) & (self.partitions - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_12_partitions_a_32k_cache() {
        // 64 sets × 64 B lines → set index 11:6, partition bit = 12.
        let dec = PartitionDecoder::new(64, 8, 64, 2);
        assert_eq!(dec.partition_of_va(VirtAddr::new(0x0000)), 0);
        assert_eq!(dec.partition_of_va(VirtAddr::new(0x1000)), 1);
        assert_eq!(dec.partition_of_va(VirtAddr::new(0x2000)), 0);
        assert_eq!(dec.ways_per_partition(), 4);
    }

    #[test]
    fn bits_13_12_partition_a_64k_cache() {
        let dec = PartitionDecoder::new(64, 16, 64, 4);
        for p in 0..4u64 {
            assert_eq!(dec.partition_of_va(VirtAddr::new(p << 12)), p as usize);
        }
        assert_eq!(dec.mask_of(3).bits(), 0xf000);
    }

    #[test]
    fn va_and_pa_partitions_agree_inside_a_superpage() {
        let dec = PartitionDecoder::new(64, 8, 64, 2);
        // Superpage mapping: PA = frame | (VA & 0x1f_ffff).
        let frame = 0x1260_0000u64;
        for offset in [0u64, 0x1000, 0x1f_f000, 0x10_3000] {
            let va = VirtAddr::new(0x4000_0000 + offset);
            let pa = PhysAddr::new(frame + offset);
            assert_eq!(dec.partition_of_va(va), dec.partition_of_pa(pa));
        }
    }

    #[test]
    fn va_and_pa_partitions_can_disagree_for_base_pages() {
        let dec = PartitionDecoder::new(64, 8, 64, 2);
        // 4 KB mapping: only bits 11:0 preserved; bit 12 may flip.
        let va = VirtAddr::new(0x1000); // partition 1
        let pa = PhysAddr::new(0x4000); // partition 0 (bit 12 clear)
        assert_ne!(dec.partition_of_va(va), dec.partition_of_pa(pa));
    }

    #[test]
    fn successive_4k_regions_stride_across_partitions() {
        // §IV-A3: "successive 4KB regions in a superpage are strided
        // across the two partitions in each set".
        let dec = PartitionDecoder::new(64, 8, 64, 2);
        let base = 0x4000_0000u64;
        let parts: Vec<usize> = (0..4)
            .map(|i| dec.partition_of_va(VirtAddr::new(base + i * 0x1000)))
            .collect();
        assert_eq!(parts, vec![0, 1, 0, 1]);
    }

    #[test]
    fn single_partition_is_degenerate() {
        let dec = PartitionDecoder::new(64, 8, 64, 1);
        assert_eq!(dec.partition_of_va(VirtAddr::new(u64::MAX)), 0);
        assert_eq!(dec.full_mask(), dec.mask_of(0));
    }

    #[test]
    #[should_panic(expected = "divide ways evenly")]
    fn uneven_partitioning_panics() {
        PartitionDecoder::new(64, 8, 64, 16);
    }
}
