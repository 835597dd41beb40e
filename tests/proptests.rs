//! Property-based tests over the core data structures' invariants.

use proptest::prelude::*;

use seesaw_cache::{CacheConfig, IndexPolicy, SetAssocCache, WayMask};
use seesaw_core::{
    InsertionPolicy, L1DataCache, L1Request, L1Timing, PartitionDecoder, SeesawConfig, SeesawL1,
    TranslationFilterTable,
};
use seesaw_mem::{BuddyAllocator, PageFrame, PageSize, PageTable, PhysAddr, VirtAddr, VirtPage};

proptest! {
    /// Buddy allocator: any interleaving of allocations and frees
    /// conserves frames, and freeing everything restores full contiguity.
    #[test]
    fn buddy_conserves_frames(ops in prop::collection::vec((0u32..5, any::<u16>()), 1..200)) {
        let total = 1u64 << 11;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for (order, pick) in ops {
            if pick % 2 == 0 {
                if let Ok(start) = buddy.alloc(order) {
                    live.push((start, order));
                }
            } else if !live.is_empty() {
                let (start, order) = live.swap_remove(pick as usize % live.len());
                buddy.free(start, order).unwrap();
            }
            let held: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            prop_assert_eq!(buddy.free_frames() + held, total);
        }
        for (start, order) in live {
            buddy.free(start, order).unwrap();
        }
        prop_assert_eq!(buddy.free_frames(), total);
        prop_assert_eq!(buddy.stats().largest_free_order, Some(11));
    }

    /// Page table: mapping then translating any address inside the page
    /// preserves the page offset, at every page size.
    #[test]
    fn page_table_preserves_offsets(
        vpn in 0u64..(1 << 20),
        ppn in 0u64..(1 << 20),
        offset in 0u64..(2 << 20),
        size_sel in 0usize..2,
    ) {
        let size = [PageSize::Base4K, PageSize::Super2M][size_sel];
        let offset = offset % size.bytes();
        let mut pt = PageTable::new();
        let vbase = VirtAddr::new(vpn << size.offset_bits());
        let pbase = PhysAddr::new(ppn << size.offset_bits());
        pt.map(
            VirtPage::containing(vbase, size),
            PageFrame::new(pbase, size),
        ).unwrap();
        let t = pt.translate(vbase.offset(offset)).expect("mapped");
        prop_assert_eq!(t.pa.raw(), pbase.raw() + offset);
        prop_assert_eq!(t.page_size, size);
    }

    /// Way masks: a partition mask always selects `ways / partitions`
    /// ways, partitions are disjoint, and their union is the full mask.
    #[test]
    fn partition_masks_tile_the_set(ways_log in 2u32..7, parts_log in 0u32..3) {
        let ways = 1usize << ways_log;
        let partitions = (1usize << parts_log).min(ways / 4).max(1);
        let mut union = WayMask::partition(0, partitions, ways);
        prop_assert_eq!(union.count(), ways / partitions);
        for p in 1..partitions {
            let mask = WayMask::partition(p, partitions, ways);
            prop_assert_eq!(mask.count(), ways / partitions);
            prop_assert!(mask.difference(union).bits() == mask.bits(), "disjoint");
            union = union.union(mask);
        }
        prop_assert_eq!(union.bits(), WayMask::all(ways).bits());
    }

    /// Cache array: a filled line is always found by a full-mask probe,
    /// and never found after coherence invalidation.
    #[test]
    fn cache_fill_lookup_invalidate_roundtrip(
        ptags in prop::collection::vec(0u64..10_000, 1..60),
    ) {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut cache = SetAssocCache::new(cfg);
        let full = WayMask::all(8);
        for &ptag in &ptags {
            let set = (ptag as usize) % cfg.sets();
            if cache.peek(set, ptag, full).is_none() {
                cache.fill(set, ptag, full, false);
            }
            prop_assert!(cache.read(set, ptag, full).hit);
            cache.coherence_probe(set, ptag, full, true);
            prop_assert!(!cache.read(set, ptag, full).hit);
        }
    }

    /// Partition decoder: for superpage mappings (low 21 bits shared),
    /// the VA- and PA-derived partitions always agree; the decoder output
    /// is always a valid partition index.
    #[test]
    fn decoder_va_pa_agreement_for_superpages(
        va in any::<u64>(),
        frame in 0u64..(1 << 20),
        parts_log in 1u32..4,
    ) {
        let partitions = 1usize << parts_log;
        let ways = partitions * 4;
        let dec = PartitionDecoder::new(64, ways, 64, partitions);
        let pa = PhysAddr::new((frame << 21) | (va & 0x1f_ffff));
        let p_va = dec.partition_of_va(VirtAddr::new(va));
        let p_pa = dec.partition_of_pa(pa);
        prop_assert!(p_va < partitions);
        prop_assert_eq!(p_va, p_pa);
    }

    /// TFT precision: after any fill/invalidate sequence, a probe hit
    /// implies the region was filled and not subsequently invalidated.
    #[test]
    fn tft_hits_are_precise(ops in prop::collection::vec((0u64..64, any::<bool>()), 1..100)) {
        let mut tft = TranslationFilterTable::new(16);
        let mut truth = std::collections::HashSet::new();
        for (region, fill) in ops {
            let va = VirtAddr::new(region << 21);
            if fill {
                tft.fill(va);
                truth.insert(region);
            } else {
                tft.invalidate(VirtPage::containing(va, PageSize::Super2M));
                truth.remove(&region);
            }
        }
        for region in 0u64..64 {
            let va = VirtAddr::new(region << 21);
            if tft.probe(va) {
                prop_assert!(
                    truth.contains(&region),
                    "TFT claims region {} that was never (still) filled",
                    region
                );
            }
        }
    }

    /// SEESAW single-copy invariant: no interleaving of superpage and
    /// base-page accesses to the *same physical line* can cache it twice
    /// (the §IV-B1 correctness argument for 4way insertion).
    #[test]
    fn no_double_caching_across_page_sizes(accesses in prop::collection::vec(any::<bool>(), 1..50)) {
        let timing = L1Timing { fast_cycles: 1, slow_cycles: 2 };
        let mut l1 = SeesawL1::new(
            SeesawConfig::l1_32k().with_insertion(InsertionPolicy::FourWay),
            timing,
        );
        // One physical line, reachable via a superpage VA and (synonym)
        // a base-page VA whose partition bit differs.
        let pa = PhysAddr::new(0x1fa0_1040);
        let super_va = VirtAddr::new(0x4000_1040); // bit12 = 1 = PA bit12
        let base_va = VirtAddr::new(0x7000_0040); // any base mapping
        for (i, as_super) in accesses.iter().enumerate() {
            let req = if *as_super {
                l1.tft_fill(super_va);
                L1Request { va: super_va, pa, page_size: PageSize::Super2M, is_write: i % 2 == 0 }
            } else {
                L1Request { va: base_va, pa, page_size: PageSize::Base4K, is_write: i % 2 == 0 }
            };
            l1.access(&req);
            // Count copies: the line may live in at most one way.
            let set = l1.config().cache.set_index_physical(pa);
            let _ = set;
            let (present, _) = l1.coherence_probe(pa, false);
            prop_assert!(present, "line must be cached after an access");
        }
    }
}

proptest! {
    /// SRAM model: latency and energy are monotone in both capacity and
    /// associativity everywhere on (and between) the calibration grid.
    #[test]
    fn sram_model_is_monotone(size_kb in 16u64..512, ways in 1usize..32) {
        use seesaw_energy::SramModel;
        let sram = SramModel::tsmc28_scaled_22nm();
        let lat = sram.latency_ns(size_kb, ways);
        let e = sram.energy_nj(size_kb, ways);
        prop_assert!(lat > 0.0 && e > 0.0);
        prop_assert!(sram.latency_ns(size_kb + 16, ways) >= lat);
        prop_assert!(sram.latency_ns(size_kb, ways + 1) >= lat);
        prop_assert!(sram.energy_nj(size_kb + 16, ways) >= e);
        prop_assert!(sram.energy_nj(size_kb, ways + 1) >= e);
        // Partial lookups never cost more than the full set.
        for probed in 1..=ways {
            prop_assert!(sram.lookup_energy_nj(size_kb, ways, probed) <= e * 1.005);
        }
    }

    /// Trace files: any reference stream survives a save/load roundtrip.
    #[test]
    fn trace_file_roundtrips(
        records in prop::collection::vec((any::<u32>(), any::<bool>(), 0u32..1000), 0..200),
    ) {
        use seesaw_workloads::{TraceFile, TraceRef};
        let refs: Vec<TraceRef> = records
            .into_iter()
            .map(|(offset, is_write, gap)| TraceRef {
                offset: u64::from(offset) * 64,
                is_write,
                gap: u64::from(gap),
            })
            .collect();
        let trace = TraceFile::from_refs(refs);
        let path = std::env::temp_dir().join(format!(
            "seesaw-prop-{}-{}.sstr",
            std::process::id(),
            trace.refs().len(),
        ));
        trace.save(&path).expect("save");
        let loaded = TraceFile::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(trace, loaded);
    }

    /// The scheduler hint is monotone in occupancy: once Fast at some
    /// occupancy, it stays Fast for every higher occupancy.
    #[test]
    fn scheduler_hint_is_monotone(cap in 1usize..64) {
        use seesaw_core::{HitTimeAssumption, SchedulerHint};
        let hint = SchedulerHint::default();
        let mut seen_fast = false;
        for valid in 0..=cap {
            match hint.assumption(valid, cap) {
                HitTimeAssumption::Fast => seen_fast = true,
                HitTimeAssumption::Slow => {
                    prop_assert!(!seen_fast, "Slow after Fast at {valid}/{cap}");
                }
            }
        }
        prop_assert!(seen_fast, "full occupancy must be Fast");
    }
}

/// LRU property, outside proptest for clarity: within a partition, the
/// victim is always the least recently touched way.
#[test]
fn masked_lru_victim_is_oldest() {
    use seesaw_cache::LruTracker;
    let mut lru = LruTracker::new(1, 8);
    let order = [3usize, 1, 7, 0, 5, 2, 6, 4];
    for &w in &order {
        lru.touch(0, w);
    }
    // Full-mask victim = first touched.
    assert_eq!(lru.victim(0, 0xff), 3);
    // Partition-0 victim = oldest among ways 0-3.
    assert_eq!(lru.victim(0, 0x0f), 3);
    // Partition-1 victim = oldest among ways 4-7.
    assert_eq!(lru.victim(0, 0xf0), 7);
}

proptest! {
    // Whole-system runs are much heavier than data-structure checks, so
    // this block trades case count for schedule diversity: every case is
    // a full simulation under a different randomized fault schedule.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Dangerous-transition soup: interleave a random access stream with
    /// randomly scheduled splinters, promotions, and TLB shootdowns. The
    /// lockstep shadow checker proves the TFT never claims a base-page
    /// region and no load ever diverges from the reference memory — a
    /// clean `Ok` is exactly those invariants holding on every access.
    #[test]
    fn fault_interleavings_never_diverge(
        seed in any::<u64>(),
        mean_interval in 1_000u64..8_000,
        splinters in any::<bool>(),
        promotions in any::<bool>(),
        shootdowns in any::<bool>(),
    ) {
        use seesaw_check::FaultConfig;
        use seesaw_sim::{L1DesignKind, RunConfig, System};

        let mut faults = FaultConfig::all(seed).mean_interval(mean_interval);
        faults.splinters = splinters;
        faults.promotions = promotions;
        faults.shootdowns = shootdowns;
        // Keep the schedule focused on the translation-layer transitions
        // this property is about.
        faults.tft_storms = false;
        faults.mem_pressure = false;
        let cfg = RunConfig::quick("astar")
            .design(L1DesignKind::Seesaw)
            .with_checker()
            .with_faults(faults);
        let result = System::build(&cfg)
            .unwrap_or_else(|e| panic!("build: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let checker = result.checker.expect("checker enabled");
        prop_assert_eq!(checker.violations.total(), 0);
        prop_assert!(checker.loads_checked > 0);
    }
}
