//! Layout-equivalence properties for the data-oriented hot path.
//!
//! The speed campaign (ISSUE 7) rebuilt the per-reference loop around
//! packed replay buffers, interned translations, and process-wide warm
//! artifact caches. These properties pin that machinery to the reference
//! semantics: the packed/batched stream is *exactly* the generator's
//! stream, and a run served from the warm caches is bit-identical to a
//! cold run — same stats, same per-invariant checker counters — at 1
//! and 2 cores.

use proptest::prelude::*;

use seesaw_cache::{CacheConfig, IndexPolicy};
use seesaw_core::{
    BaselineL1, L1DataCache, L1Request, L1Timing, MicroTagConfig, MicroTagL1, SeesawConfig,
    SeesawL1, VespaConfig, VespaL1, VivtL1,
};
use seesaw_mem::{PageFrame, PageSize, PageTableOp, PhysAddr, VirtAddr, VirtPage};
use seesaw_sim::{L1DesignKind, RunConfig, System};
use seesaw_workloads::{catalog, TraceGenerator, TraceRef};

proptest! {
    /// Pack/unpack is lossless over the generator's real output, and the
    /// batched 64-reference fill leaves the generator positioned exactly
    /// where per-reference dispatch would — so a replayed prefix spliced
    /// with live generation is indistinguishable from the live stream.
    #[test]
    fn packed_stream_is_the_generator_stream(
        wl in 0usize..16,
        seed in any::<u64>(),
        n in 1usize..512,
    ) {
        let spec = catalog()[wl % catalog().len()];
        let mut live = TraceGenerator::new(&spec, seed);
        let mut batched = live.clone();

        // Record `n` references the way the prewarm does: 64-reference
        // chunks into a scratch buffer, packed to u64 words.
        let mut scratch = Vec::new();
        let mut packed: Vec<u64> = Vec::new();
        while packed.len() < n {
            batched.fill_refs(&mut scratch, 64.min(n - packed.len()));
            packed.extend(scratch.drain(..).map(|r| r.pack()));
        }

        // The packed words round-trip to the live stream, reference by
        // reference.
        for word in packed {
            prop_assert_eq!(TraceRef::unpack(word), live.next_ref());
        }
        // And past the recorded prefix both generators continue in
        // lockstep: batching did not skew the RNG call order.
        for _ in 0..32 {
            prop_assert_eq!(batched.next_ref(), live.next_ref());
        }
    }
}

/// The drive functions for the dyn-vs-direct property. `drive_direct`
/// monomorphizes per concrete design — every `access` is a static call
/// — while `drive_dyn` goes through the `&mut dyn L1DataCache` vtable
/// exactly as the run loop's `Box<dyn L1DataCache>` does. The property
/// says the two are observably identical.
fn drive_direct<L: L1DataCache>(l1: &mut L, reqs: &[L1Request]) -> Vec<String> {
    reqs.iter().map(|r| format!("{:?}", l1.access(r))).collect()
}

fn drive_dyn(l1: &mut dyn L1DataCache, reqs: &[L1Request]) -> Vec<String> {
    reqs.iter().map(|r| format!("{:?}", l1.access(r))).collect()
}

/// Builds a random mixed request stream: page-local runs over a handful
/// of 2 MB regions, some superpage-backed (VA == PA inside the region,
/// as THP guarantees) and some splintered to scattered 4 KB frames.
fn request_stream(picks: &[(u8, u16, bool)]) -> Vec<L1Request> {
    picks
        .iter()
        .map(|&(region, line, is_write)| {
            let region = (region % 6) as u64;
            let va = (region + 1) * (2 << 20) + (line as u64) * 64;
            // Even regions are superpage-backed (identity-offset frame),
            // odd ones splintered: each 4 KB page maps to a frame whose
            // low 12 bits match but whose frame number is scrambled.
            let superpage = region.is_multiple_of(2);
            let pa = if superpage {
                va + 0x4000_0000
            } else {
                let page = va >> 12;
                ((page ^ 0x5_a5a5) << 12) | (va & 0xfff)
            };
            L1Request {
                va: VirtAddr::new(va),
                pa: PhysAddr::new(pa),
                page_size: if superpage {
                    PageSize::Super2M
                } else {
                    PageSize::Base4K
                },
                is_write,
            }
        })
        .collect()
}

proptest! {
    /// Every design driven through the `dyn L1DataCache` vtable (the
    /// run loop's path) produces exactly the
    /// outcomes and final stats of the same design driven through
    /// static dispatch, over random mixed superpage/base streams with
    /// interleaved coherence probes.
    #[test]
    fn dyn_dispatch_is_bit_identical_to_direct(
        picks in prop::collection::vec((any::<u8>(), 0u16..2048, any::<bool>()), 1..200),
        probe_every in 3usize..17,
    ) {
        let reqs = request_stream(&picks);
        let timing = L1Timing { fast_cycles: 1, slow_cycles: 3 };
        let cache32 = || CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);

        fn check<L: L1DataCache>(
            mut direct: L,
            mut dynamic: L,
            reqs: &[L1Request],
            probe_every: usize,
        ) {
            // Interleave identical coherence probes on both instances so
            // the dyn path's `coherence_probe` is pinned too.
            for (i, chunk) in reqs.chunks(probe_every).enumerate() {
                prop_assert_eq!(
                    drive_direct(&mut direct, chunk),
                    drive_dyn(&mut dynamic, chunk),
                    "outcome divergence in chunk {}",
                    i
                );
                let pa = chunk[0].pa;
                let d = direct.coherence_probe(pa, i % 2 == 0);
                let v = (&mut dynamic as &mut dyn L1DataCache).coherence_probe(pa, i % 2 == 0);
                prop_assert_eq!(d, v);
            }
            prop_assert_eq!(direct.total_ways(), {
                let dyn_ref: &mut dyn L1DataCache = &mut dynamic;
                dyn_ref.total_ways()
            });
            prop_assert_eq!(
                format!("{:?}", direct.cache_stats()),
                format!("{:?}", dynamic.cache_stats())
            );
        }

        let seesaw = || SeesawL1::new(SeesawConfig::l1_32k(), timing);
        let seesaw_mru = || SeesawL1::new(SeesawConfig::l1_32k().with_way_prediction(), timing);
        let baseline = || BaselineL1::new(cache32(), timing, false);
        let baseline_mru = || BaselineL1::new(cache32(), timing, true);
        let vespa = || VespaL1::new(VespaConfig::with_size_kb(32), timing);
        let utag = || MicroTagL1::new(MicroTagConfig::new(cache32()), timing);
        let vivt = || VivtL1::new(32 << 10, 8, timing);

        check(seesaw(), seesaw(), &reqs, probe_every);
        check(seesaw_mru(), seesaw_mru(), &reqs, probe_every);
        check(baseline(), baseline(), &reqs, probe_every);
        check(baseline_mru(), baseline_mru(), &reqs, probe_every);
        check(vespa(), vespa(), &reqs, probe_every);
        check(utag(), utag(), &reqs, probe_every);
        check(vivt(), vivt(), &reqs, probe_every);
    }
}

proptest! {
    // Whole-system runs are heavy, so this block trades case count for
    // workload diversity; every case still covers both core counts.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Running the same configuration twice — the first run populating
    /// the process-wide artifact caches (memory image, packed replay
    /// streams, prewarmed outer hierarchy), the second served from them
    /// — produces bit-identical results at 1 and 2 cores: every stat,
    /// every metrics counter, and every per-invariant shadow-checker
    /// counter. The design is drawn from the whole lab, so the VESPA
    /// and µtag alternatives are pinned exactly as the originals are.
    #[test]
    fn warm_cache_replay_is_bit_identical(
        wl in 0usize..16,
        size_sel in 0usize..2,
        design_sel in 0usize..5,
    ) {
        for cores in [1usize, 2] {
            let name = catalog()[wl % catalog().len()].name;
            let design = [
                L1DesignKind::Seesaw,
                L1DesignKind::BaselineVipt,
                L1DesignKind::SeesawWithWayPrediction,
                L1DesignKind::Vespa,
                L1DesignKind::BaselineMicroTag,
            ][design_sel];
            let cfg = RunConfig::quick(name)
                .design(design)
                .l1_size([32, 64][size_sel])
                .cores(cores)
                .with_checker()
                .instructions(20_000);
            let run = |cfg: &RunConfig| {
                System::build(cfg)
                    .unwrap_or_else(|e| panic!("build: {e}"))
                    .run()
                    .unwrap_or_else(|e| panic!("run: {e}"))
            };
            let cold = run(&cfg);
            let warm = run(&cfg);

            // Per-invariant checker counters, compared explicitly so a
            // divergence names the invariant.
            let cold_check = cold.checker.as_ref().expect("checker enabled");
            let warm_check = warm.checker.as_ref().expect("checker enabled");
            prop_assert_eq!(cold_check.loads_checked, warm_check.loads_checked);
            prop_assert_eq!(
                format!("{:?}", cold_check.violations),
                format!("{:?}", warm_check.violations)
            );

            // Then the whole result — totals, energy, MPKIs, histograms,
            // the full metrics registry — via its exhaustive Debug form.
            prop_assert_eq!(
                format!("{cold:?}"),
                format!("{warm:?}"),
                "cores = {}: warm-cache run diverged from cold run",
                cores
            );
        }
    }
}

/// One event of the fixed per-design stream.
enum Step {
    /// A TLB-style TFT fill for a 2 MB region.
    Fill(VirtAddr),
    Access(L1Request),
    Probe(PhysAddr, bool),
    Op(PageTableOp),
    Switch,
}

/// Superpage-backed regions map VA + this offset (2 MB aligned, so the
/// low 21 bits and with them the partition bits agree).
const SUPER_OFFSET: u64 = 0x1_0000_0000;
/// First VA of the stream's eight 2 MB regions.
const REGION_BASE: u64 = 0x4000_0000;

fn base_frame(page: u64) -> u64 {
    (page ^ 0x5_a5a5) << 12
}

/// A fixed LCG-driven stream of 4,000 accesses over eight 2 MB regions,
/// even ones superpage-backed and odd ones scattered over base frames,
/// with TLB-style TFT fills, coherence probes with and without
/// invalidation, a splinter of region 0 at step 1,500, a promotion of
/// region 1 at step 2,500 and a context switch at step 3,000. Every
/// access, repeated ones included, uses the mapping current at its step.
fn fixed_stream() -> Vec<Step> {
    let mut state = 0x05ee_d0f5_ee5a_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let region_va = |r: u64| REGION_BASE + r * (2 << 20);
    let mut splintered = false;
    let mut promoted = false;
    let map = |va: u64, is_write: bool, splintered: bool, promoted: bool| {
        let region = (va - REGION_BASE) >> 21;
        let remapped = region == 1 && promoted;
        let even = region.is_multiple_of(2);
        let backed_super = (even && !(region == 0 && splintered)) || remapped;
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(if even || remapped {
                va + SUPER_OFFSET
            } else {
                base_frame(va >> 12) | (va & 0xfff)
            }),
            page_size: if backed_super {
                PageSize::Super2M
            } else {
                PageSize::Base4K
            },
            is_write,
        }
    };
    let mut recent: Vec<u64> = Vec::new();
    let mut steps = Vec::new();
    for i in 0..4_000u64 {
        if i == 1_500 {
            splintered = true;
            steps.push(Step::Op(PageTableOp::Splintered(VirtPage::containing(
                VirtAddr::new(region_va(0)),
                PageSize::Super2M,
            ))));
        }
        if i == 2_500 {
            promoted = true;
            let first = region_va(1) >> 12;
            steps.push(Step::Op(PageTableOp::Promoted {
                page: VirtPage::containing(VirtAddr::new(region_va(1)), PageSize::Super2M),
                old_frames: (first..first + 512)
                    .map(|p| PageFrame::new(PhysAddr::new(base_frame(p)), PageSize::Base4K))
                    .collect(),
            }));
        }
        if i == 3_000 {
            steps.push(Step::Switch);
        }
        let r = next();
        let va = if r % 2 == 0 && recent.len() >= 16 {
            // Temporal reuse of one of the last 16 addresses.
            recent[recent.len() - 1 - ((r >> 8) % 16) as usize]
        } else {
            region_va((r >> 4) % 8) + ((r >> 12) % 1024) * 64
        };
        let req = map(va, (r >> 16) % 4 == 0, splintered, promoted);
        if req.page_size.is_superpage() && (r >> 20) % 8 == 0 {
            steps.push(Step::Fill(VirtAddr::new(va & !((2 << 20) - 1))));
        }
        steps.push(Step::Access(req));
        recent.push(va);
        if i % 7 == 6 {
            let back = ((r >> 24) % 16).min(recent.len() as u64 - 1) as usize;
            let target = map(recent[recent.len() - 1 - back], false, splintered, promoted);
            steps.push(Step::Probe(target.pa, (r >> 30) % 2 == 0));
        }
    }
    steps
}

/// How the stream reaches one design's lifecycle calls and final stats.
struct Hooks<L> {
    fill: fn(&mut L, VirtAddr),
    op: fn(&mut L, &PageTableOp),
    switch: fn(&mut L),
    stats: fn(&L) -> String,
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a-64 of every outcome's `Debug` form (one per line), then the
/// final cache and design stats, over [`fixed_stream`]. TFT fills follow
/// the run loop: before the access from the TLB, and after a TFT miss on
/// a superpage (refresh on confirmation).
fn stream_digest<L: L1DataCache>(mut l1: L, hooks: Hooks<L>, steps: &[Step]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut record = |line: String| {
        hash = fnv1a(hash, line.as_bytes());
        hash = fnv1a(hash, b"\n");
    };
    for step in steps {
        match step {
            Step::Fill(va) => (hooks.fill)(&mut l1, *va),
            Step::Access(req) => {
                let out = l1.access(req);
                record(format!("{out:?}"));
                if out.tft_hit == Some(false) && req.page_size.is_superpage() {
                    (hooks.fill)(&mut l1, req.va);
                }
            }
            Step::Probe(pa, invalidate) => {
                record(format!("{:?}", l1.coherence_probe(*pa, *invalidate)));
            }
            Step::Op(op) => (hooks.op)(&mut l1, op),
            Step::Switch => (hooks.switch)(&mut l1),
        }
    }
    record(format!("{:?} {}", l1.cache_stats(), l1.total_ways()));
    record((hooks.stats)(&l1));
    hash
}

/// Pins every L1 design's per-access behaviour on a fixed mixed stream:
/// a change to the shared L1 skeleton or to any design's policies that
/// alters an outcome, a probe answer or a counter shows as a digest
/// mismatch in the design it touched.
#[test]
fn every_design_matches_its_pinned_stream_digest() {
    let steps = fixed_stream();
    let accesses = steps
        .iter()
        .filter(|s| matches!(s, Step::Access(_)))
        .count();
    assert_eq!(accesses, 4_000);
    let timing = L1Timing {
        fast_cycles: 1,
        slow_cycles: 3,
    };
    let cache32 = |policy| CacheConfig::new(32 << 10, 8, 64, policy);
    let seesaw_hooks = || Hooks::<SeesawL1> {
        fill: |l, va| l.tft_fill(va),
        op: |l, op| {
            l.handle_op(op);
        },
        switch: |l| l.context_switch(),
        stats: |l| {
            format!(
                "{:?} {:?} {:?}",
                l.seesaw_stats(),
                l.tft_stats(),
                l.design_stats().way_prediction
            )
        },
    };
    let baseline_hooks = || Hooks::<BaselineL1> {
        fill: |_, _| {},
        op: |_, _| {},
        switch: |_| {},
        stats: |l| format!("{:?}", l.design_stats().way_prediction),
    };
    let utag_hooks = || Hooks::<MicroTagL1> {
        fill: |_, _| {},
        op: |_, _| {},
        switch: |l| l.context_switch(),
        stats: |l| {
            format!(
                "{:?} {}",
                l.design_stats().way_prediction,
                l.unverified_served()
            )
        },
    };
    let utag_cfg = MicroTagConfig::new(cache32(IndexPolicy::Vipt));
    let digests = vec![
        (
            "seesaw",
            stream_digest(
                SeesawL1::new(SeesawConfig::l1_32k(), timing),
                seesaw_hooks(),
                &steps,
            ),
        ),
        (
            "seesaw+mru",
            stream_digest(
                SeesawL1::new(SeesawConfig::l1_32k().with_way_prediction(), timing),
                seesaw_hooks(),
                &steps,
            ),
        ),
        (
            "baseline",
            stream_digest(
                BaselineL1::new(cache32(IndexPolicy::Vipt), timing, false),
                baseline_hooks(),
                &steps,
            ),
        ),
        (
            "baseline+mru",
            stream_digest(
                BaselineL1::new(cache32(IndexPolicy::Vipt), timing, true),
                baseline_hooks(),
                &steps,
            ),
        ),
        (
            "pipt-4way",
            stream_digest(
                BaselineL1::new(
                    CacheConfig::new(32 << 10, 4, 64, IndexPolicy::Pipt),
                    timing,
                    false,
                ),
                baseline_hooks(),
                &steps,
            ),
        ),
        (
            "vespa",
            stream_digest(
                VespaL1::new(VespaConfig::with_size_kb(32), timing),
                Hooks {
                    fill: |_, _| {},
                    op: |l, op| {
                        l.handle_op(op);
                    },
                    switch: |_| {},
                    stats: |l| format!("{:?}", l.vespa_stats()),
                },
                &steps,
            ),
        ),
        (
            "utag",
            stream_digest(MicroTagL1::new(utag_cfg, timing), utag_hooks(), &steps),
        ),
        (
            "utag-unverified",
            stream_digest(
                MicroTagL1::new(utag_cfg.without_verification(), timing),
                utag_hooks(),
                &steps,
            ),
        ),
        (
            "vivt",
            stream_digest(
                VivtL1::new(32 << 10, 8, timing),
                Hooks {
                    fill: |_, _| {},
                    op: |l, op| {
                        l.handle_op(op);
                    },
                    switch: |_| {},
                    stats: |l| format!("{:?}", l.synonym_stats()),
                },
                &steps,
            ),
        ),
    ];
    let got: Vec<(&str, String)> = digests
        .into_iter()
        .map(|(name, d)| (name, format!("{d:#018x}")))
        .collect();
    let pinned: Vec<(&str, String)> = PINNED_DIGESTS
        .iter()
        .map(|&(name, d)| (name, d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}

const PINNED_DIGESTS: [(&str, &str); 9] = [
    ("seesaw", "0xf6046dff66b01d29"),
    ("seesaw+mru", "0xce09621ce2381121"),
    ("baseline", "0x9ebb0a2cbfbb2782"),
    ("baseline+mru", "0x729cfb604adb7acb"),
    ("pipt-4way", "0x0bcd54c5f08f149a"),
    ("vespa", "0xd1270c4b316e0a2e"),
    ("utag", "0x22ab137e789e2a5b"),
    ("utag-unverified", "0x39ad2aea57c609d6"),
    ("vivt", "0xe0ccabeaed5f177d"),
];
