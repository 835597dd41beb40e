//! Cross-crate correctness tests: the invariants §IV of the paper argues
//! for, exercised through the real OS model rather than hand-built
//! requests.

use seesaw_core::{L1DataCache, L1Request, L1Timing, SeesawConfig, SeesawL1};
use seesaw_mem::{AddressSpace, PageSize, PhysicalMemory, ThpPolicy, VirtAddr};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};

fn timing() -> L1Timing {
    L1Timing {
        fast_cycles: 1,
        slow_cycles: 2,
    }
}

/// Builds an OS with one superpage-backed VMA and wires a SEESAW L1 to
/// the TLB hierarchy the way the simulator does.
fn setup() -> (
    PhysicalMemory,
    AddressSpace,
    VirtAddr,
    TlbHierarchy,
    SeesawL1,
) {
    let mut pmem = PhysicalMemory::new(256 << 20);
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, 8 << 20, ThpPolicy::Always)
        .expect("mapped");
    let tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
    let l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
    (pmem, space, vma.base(), tlbs, l1)
}

fn access(
    space: &AddressSpace,
    tlbs: &mut TlbHierarchy,
    l1: &mut SeesawL1,
    va: VirtAddr,
    is_write: bool,
) -> seesaw_core::L1AccessOutcome {
    let lookup = tlbs.lookup(va, space).expect("mapped");
    for page in &lookup.superpage_l1_fills {
        l1.tft_fill(page.base());
    }
    let req = L1Request {
        va,
        pa: lookup.entry.translate(va),
        page_size: lookup.entry.size,
        is_write,
    };
    l1.access(&req)
}

#[test]
fn tft_never_claims_base_pages_through_the_real_tlb_path() {
    let mut pmem = PhysicalMemory::new(256 << 20);
    let mut space = AddressSpace::new(1);
    let huge = space
        .mmap_anonymous(&mut pmem, 4 << 20, ThpPolicy::Always)
        .unwrap();
    let small = space
        .mmap_anonymous(&mut pmem, 1 << 20, ThpPolicy::Never)
        .unwrap();
    let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
    let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
    // Interleave superpage and base-page traffic; the TFT must track only
    // the former (the debug assertion inside `access` enforces precision).
    for i in 0..4096u64 {
        let out = access(
            &space,
            &mut tlbs,
            &mut l1,
            huge.base().offset(i * 4096 % huge.bytes()),
            false,
        );
        assert!(out.tft_hit.is_some());
        let out = access(
            &space,
            &mut tlbs,
            &mut l1,
            small.base().offset(i * 4096 % small.bytes()),
            false,
        );
        assert_eq!(
            out.tft_hit,
            Some(false),
            "base-page access must never hit the TFT"
        );
    }
}

#[test]
fn splinter_keeps_cached_data_reachable() {
    let (mut pmem, mut space, base, mut tlbs, mut l1) = setup();
    let va = base.offset(0x1040);
    // Warm the line through the superpage path.
    access(&space, &mut tlbs, &mut l1, va, true);
    assert!(access(&space, &mut tlbs, &mut l1, va, false).hit);

    // The OS splinters the page; TLB and TFT see the invalidation.
    let op = space.splinter(&mut pmem, va).unwrap();
    tlbs.handle_op(&op);
    l1.handle_op(&op);

    // The very next access goes through the base-page path (same PA,
    // since splintering moves no data) and still finds the line.
    let out = access(&space, &mut tlbs, &mut l1, va, false);
    assert_eq!(out.tft_hit, Some(false), "TFT entry was invalidated");
    assert!(
        out.hit,
        "lines of the splintered page must remain accessible"
    );
    assert_eq!(out.ways_probed, 8, "base-page accesses search the full set");
}

#[test]
fn promotion_sweep_removes_stale_lines_before_remap() {
    let (mut pmem, mut space, base, mut tlbs, mut l1) = setup();
    let va = base.offset(0x2040);
    // Splinter first so we can promote.
    let op = space.splinter(&mut pmem, va).unwrap();
    tlbs.handle_op(&op);
    l1.handle_op(&op);
    // Dirty a line in the base-page region.
    access(&space, &mut tlbs, &mut l1, va, true);
    let old_pa = space.translate(va).unwrap().pa;

    // Promote: data migrates to a new 2 MB frame; the L1 sweep must evict
    // the stale dirty line at the old PA.
    let op = space.promote(&mut pmem, va).unwrap();
    tlbs.handle_op(&op);
    l1.handle_op(&op);
    assert!(l1.seesaw_stats().sweeps >= 1);
    let (stale_present, _) = l1.coherence_probe(old_pa, false);
    assert!(!stale_present, "stale line must have been swept");

    // New mapping works and is a superpage again.
    let out = access(&space, &mut tlbs, &mut l1, va, false);
    assert_eq!(space.translate(va).unwrap().page_size, PageSize::Super2M);
    assert!(!out.hit, "data moved to a new frame; first access misses");
    assert!(access(&space, &mut tlbs, &mut l1, va, false).hit);
}

#[test]
fn every_resident_line_is_findable_by_narrow_coherence_probe() {
    // The 4way insertion invariant (§IV-C1): after arbitrary traffic,
    // probing just the PA-named partition finds any resident line.
    let (_pmem, space, base, mut tlbs, mut l1) = setup();
    let mut pas = Vec::new();
    for i in 0..2000u64 {
        let va = base.offset((i * 4096 + i * 64) % (8 << 20));
        access(&space, &mut tlbs, &mut l1, va, i % 3 == 0);
        pas.push(space.translate(va).unwrap().pa);
    }
    for pa in pas {
        let full = {
            // A full-width probe tells us whether the line is resident…
            let ways = l1.config().cache.ways;
            let set = l1.config().cache.set_index_physical(pa);
            let ptag = l1.config().cache.line_of(pa);
            let _ = (ways, set, ptag);
            l1.coherence_probe(pa, false)
        };
        // …and the narrow probe IS the full probe under 4way insertion:
        // it must have searched only one partition.
        assert_eq!(full.1, 4, "SEESAW coherence probes are 4-way");
    }
}

#[test]
fn context_switches_cost_only_tft_warmth() {
    let (_pmem, space, base, mut tlbs, mut l1) = setup();
    let va = base.offset(0x3040);
    access(&space, &mut tlbs, &mut l1, va, false);
    let hits_before = l1.tft_stats().hits;
    access(&space, &mut tlbs, &mut l1, va, false);
    assert!(l1.tft_stats().hits > hits_before, "TFT warm");

    l1.context_switch();
    // Next access: TFT cold (full-set lookup), but still correct.
    let out = access(&space, &mut tlbs, &mut l1, va, false);
    assert_eq!(out.tft_hit, Some(false));
    assert!(out.hit, "cache contents survive the switch");
}

#[test]
fn compaction_relocations_preserve_translation_correctness() {
    // Allocate under fragmentation so THP triggers compaction, then
    // verify every page of the footprint translates and the VA↔PA page
    // offsets agree (superpage bit-equality included).
    let mut pmem = PhysicalMemory::new(256 << 20);
    let mut hog = seesaw_mem::Memhog::new(seesaw_mem::MemhogConfig::percent(50));
    hog.run(&mut pmem);
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, 16 << 20, ThpPolicy::Always)
        .expect("fits");
    hog.absorb_relocations(&space.drain_foreign_relocations());

    let mut offset = 0;
    while offset < vma.bytes() {
        let va = vma.base().offset(offset);
        let t = space.translate(va).expect("fully mapped");
        assert_eq!(
            t.pa.page_offset(t.page_size),
            va.page_offset(t.page_size),
            "page offset must be preserved at {va}"
        );
        offset += 4096;
    }
    // Cleanup is exact: everything can be freed.
    space.munmap(&mut pmem, vma).unwrap();
    hog.release(&mut pmem);
}
