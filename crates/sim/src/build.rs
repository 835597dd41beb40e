//! System construction: design wiring and interned build artifacts.
//!
//! Everything that turns a [`RunConfig`] into a runnable [`System`]
//! lives here — the per-design L1 instantiation ([`build_l1`]), the
//! memory-image builder (fragmented physical memory + THP-populated
//! address space), and the process-wide artifact caches that let figure
//! grids re-derive shared state with an `Arc` clone instead of a
//! rebuild. The run/step path stays in [`crate::system`]; the two halves
//! meet at the [`System`] struct's `pub(crate)` fields.

use seesaw_cache::{CacheConfig, IndexPolicy, OuterHierarchy, OuterHierarchyConfig};
use seesaw_check::{FaultConfig, FaultInjector, ShadowChecker};
use seesaw_coherence::{
    CoherenceMode, CoherenceTraffic, CoherenceTrafficConfig, DirectoryController,
};
use seesaw_core::{
    BaselineL1, L1DataCache, L1Timing, MicroTagConfig, MicroTagL1, SchedulerHint, SeesawConfig,
    SeesawL1, VespaConfig, VespaL1, VivtL1,
};
use seesaw_energy::{EnergyAccount, EnergyModel, SramModel};
use seesaw_mem::{AddressSpace, Memhog, MemhogConfig, PhysicalMemory, ThpPolicy, Vma};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};
use seesaw_workloads::TraceGenerator;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::core::{Core, TranslationIntern};
use crate::system::System;
use crate::uncore::Uncore;
use crate::{CpuKind, L1DesignKind, ProbeSource, RunConfig, SimError};

/// Weyl increment: decorrelates per-core seeds while leaving core 0 on
/// the run's base seed, so `cores = 1` replays the single-core stream
/// bit-for-bit.
const CORE_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// What the run loop needs to know about the L1 design beyond its
/// [`L1DataCache`] calls.
#[derive(Debug, Clone, Copy)]
pub(crate) struct L1Design {
    pub timing: L1Timing,
    /// PIPT: indexing waits for the translation.
    pub serializes: bool,
    /// SEESAW: a TFT to train, charge and flush, and a variable hit time
    /// for the out-of-order scheduler to assume.
    pub has_tft: bool,
    /// VIVT: hits never consult the TLB; misses translate on the way out.
    pub virtually_tagged: bool,
    /// Ways one coherence probe reads (SEESAW and VESPA probe a single
    /// partition, §IV-C1; everything else reads the full set).
    pub probe_ways: usize,
}

/// Builds one L1 instance of the configured design.
pub(crate) fn build_l1(config: &RunConfig, sram: &SramModel) -> (Box<dyn L1DataCache>, L1Design) {
    let ghz = config.frequency.ghz();
    let size_kb = config.l1_size_kb;
    let baseline_ways = config.baseline_ways();
    let flat = |ways| {
        let slow = sram.full_lookup_cycles(size_kb, ways, ghz);
        L1Timing {
            fast_cycles: slow,
            slow_cycles: slow,
        }
    };
    // SEESAW's and VESPA's timing menu: a partition lookup or a full-set
    // lookup.
    let partitioned = |partitions| L1Timing {
        fast_cycles: sram.partition_lookup_cycles(size_kb, baseline_ways, partitions, ghz),
        slow_cycles: sram.full_lookup_cycles(size_kb, baseline_ways, ghz),
    };
    let vipt = CacheConfig::new(size_kb << 10, baseline_ways, 64, IndexPolicy::Vipt);
    let (l1, timing, probe_ways): (Box<dyn L1DataCache>, _, _) = match config.design {
        L1DesignKind::BaselineVipt | L1DesignKind::BaselineWithWayPrediction => {
            let timing = flat(baseline_ways);
            let wp = config.design == L1DesignKind::BaselineWithWayPrediction;
            let l1 = BaselineL1::new(vipt, timing, wp);
            (Box::new(l1), timing, baseline_ways)
        }
        L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction => {
            let mut seesaw_cfg = SeesawConfig::with_size_kb(size_kb)
                .with_tft_entries(config.tft_entries)
                .with_insertion(config.insertion);
            if let Some(partitions) = config.seesaw_partitions {
                seesaw_cfg = seesaw_cfg.with_partitions(partitions);
            }
            if config.design == L1DesignKind::SeesawWithWayPrediction {
                seesaw_cfg = seesaw_cfg.with_way_prediction();
            }
            let timing = partitioned(seesaw_cfg.partitions);
            let probe_ways = (baseline_ways / seesaw_cfg.partitions).max(1);
            let l1 = SeesawL1::new(seesaw_cfg, timing);
            (Box::new(l1), timing, probe_ways)
        }
        L1DesignKind::Pipt { ways } => {
            let timing = flat(ways);
            let cache = CacheConfig::new(size_kb << 10, ways, 64, IndexPolicy::Pipt);
            (
                Box::new(BaselineL1::new(cache, timing, false)),
                timing,
                ways,
            )
        }
        L1DesignKind::Vivt { ways } => {
            let fast = sram.full_lookup_cycles(size_kb, ways, ghz);
            let timing = L1Timing {
                fast_cycles: fast,
                // The slow path is a synonym remap: two probe rounds.
                slow_cycles: fast * 2,
            };
            (
                Box::new(VivtL1::new(size_kb << 10, ways, timing)),
                timing,
                ways,
            )
        }
        L1DesignKind::Vespa => {
            // SEESAW's geometry and timing menu, minus the TFT: the fast
            // narrow probe launches unconditionally, so the TFT-entry
            // knob is irrelevant but the partition override still
            // applies.
            let mut vespa_cfg = VespaConfig::with_size_kb(size_kb);
            vespa_cfg.insertion = config.insertion;
            if let Some(partitions) = config.seesaw_partitions {
                vespa_cfg.partitions = partitions;
            }
            let timing = partitioned(vespa_cfg.partitions);
            let probe_ways = (baseline_ways / vespa_cfg.partitions).max(1);
            let l1 = VespaL1::new(vespa_cfg, timing);
            (Box::new(l1), timing, probe_ways)
        }
        L1DesignKind::BaselineMicroTag => {
            let timing = flat(baseline_ways);
            // The chaos knob models hardware that serves a µtag match
            // without verifying the physical tag — the bug the checker's
            // way-prediction-alias invariant exists to catch.
            let verify = !config
                .faults
                .map(|f| f.chaos.skip_way_verification)
                .unwrap_or(false);
            let utag_cfg = if verify {
                MicroTagConfig::new(vipt)
            } else {
                MicroTagConfig::new(vipt).without_verification()
            };
            let l1 = MicroTagL1::new(utag_cfg, timing);
            (Box::new(l1), timing, baseline_ways)
        }
    };
    let design = L1Design {
        timing,
        serializes: matches!(config.design, L1DesignKind::Pipt { .. }),
        has_tft: matches!(
            config.design,
            L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction
        ),
        virtually_tagged: matches!(config.design, L1DesignKind::Vivt { .. }),
        probe_ways,
    };
    (l1, design)
}

/// The memory half of a built system: fragmented physical memory, the
/// populated address space, and the workload VMA. Everything here is a
/// pure function of `(workload, seed, memhog_percent)`, while a figure
/// grid re-derives it for every L1 size × frequency × design cell — so
/// built images are interned process-wide and cells start from a clone.
/// Determinism makes the clone sound: it is bit-for-bit the state a
/// fresh build would produce.
#[derive(Clone)]
pub(crate) struct MemoryImage {
    pub pmem: PhysicalMemory,
    pub space: AddressSpace,
    pub vma: Vma,
}

/// Cache key covering every input of [`build_memory_image`]: the full
/// workload spec (every mixture parameter participates via `Debug`,
/// mirroring the runner's config fingerprints), the seed, and the
/// memhog pressure.
pub(crate) fn memory_image_key(config: &RunConfig) -> String {
    format!(
        "{:?}|{}|{}",
        config.workload, config.seed, config.memhog_percent
    )
}

/// Entry caps for the process-wide artifact caches. Eviction is a full
/// clear — crude, but any eviction policy is correct (entries are pure
/// functions of their keys) and sweeps revisit at most a catalog of
/// workloads times a handful of frequencies before moving on.
const MEMORY_IMAGE_CAP: usize = 32;
pub(crate) const STREAM_CACHE_CAP: usize = 32;
pub(crate) const WARM_OUTER_CAP: usize = 24;

fn memory_images() -> &'static Mutex<HashMap<String, MemoryImage>> {
    static CACHE: OnceLock<Mutex<HashMap<String, MemoryImage>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A recorded reference stream: the packed references plus the
/// generator state advanced past them, so a run that hits skips every
/// RNG draw and `ln()` of stream synthesis and still continues the
/// stream seamlessly if it ever outruns the recording.
#[derive(Clone)]
pub(crate) struct StreamArtifact {
    pub refs: Arc<[u64]>,
    pub generator: TraceGenerator,
}

pub(crate) fn stream_cache() -> &'static Mutex<HashMap<String, StreamArtifact>> {
    static CACHE: OnceLock<Mutex<HashMap<String, StreamArtifact>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Prewarmed outer hierarchies (L2 + LLC + prefetcher state after the
/// functional prewarm), keyed by everything the prewarm traffic depends
/// on: the memory image (translations), core count, reference count,
/// frequency (outer timing config), and prefetch degree. L1 geometry
/// and design are deliberately absent — prewarm bypasses the L1, which
/// is what makes one warmed image servable to every design cell of a
/// figure row.
pub(crate) fn warm_outer_cache() -> &'static Mutex<HashMap<String, OuterHierarchy>> {
    static CACHE: OnceLock<Mutex<HashMap<String, OuterHierarchy>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Interned [`build_memory_image`]: clones a cached image when one
/// matches, builds and caches otherwise. Build failures propagate
/// uncached (they would recur identically, but they also carry context
/// a caller wants fresh).
fn memory_image(config: &RunConfig) -> Result<MemoryImage, SimError> {
    let key = memory_image_key(config);
    if let Some(img) = memory_images().lock().expect("memory image lock").get(&key) {
        return Ok(img.clone());
    }
    let img = build_memory_image(config)?;
    let mut cache = memory_images().lock().expect("memory image lock");
    if cache.len() >= MEMORY_IMAGE_CAP {
        cache.clear();
    }
    cache.insert(key, img.clone());
    Ok(img)
}

/// Builds the memory half of a system: physical memory fragmented by a
/// light system-noise allocator plus the configured memhog, then the
/// workload's footprint populated through the THP policy — so superpage
/// coverage emerges from the OS model, as on the paper's long-uptime
/// servers (§III-C, §V).
fn build_memory_image(config: &RunConfig) -> Result<MemoryImage, SimError> {
    let footprint = config.workload.footprint_bytes();
    // Physical memory is provisioned at 4x the footprint (min 128 MB):
    // like the paper's loaded servers, the workload is a substantial
    // fraction of memory, so memhog pressure actually bites.
    let pmem_bytes = (footprint * 4).max(128 << 20);
    let mut pmem = PhysicalMemory::new(pmem_bytes);

    // Long-uptime system noise: a thin layer of scattered allocations,
    // some pinned (kernel/network stack), always present.
    let mut noise = Memhog::new(MemhogConfig {
        fraction: 0.04,
        unmovable_fraction: 0.10,
        churn_factor: 0.1,
        seed: config.seed ^ 0x1105e,
    });
    noise.run(&mut pmem);

    // The co-running memhog at the configured pressure, clamped so the
    // workload's footprint still fits (the paper's real system would
    // swap; we don't model swap).
    let requested = f64::from(config.memhog_percent.min(95)) / 100.0;
    let max_fraction =
        (pmem.free_bytes() as f64 - 1.3 * footprint as f64) / pmem.total_bytes() as f64;
    let mut hog = Memhog::new(MemhogConfig {
        fraction: requested.min(max_fraction.max(0.0)),
        seed: config.seed ^ 0x109,
        ..MemhogConfig::default()
    });
    hog.run(&mut pmem);

    // Populate the workload's heap through transparent huge pages.
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, footprint, ThpPolicy::Always)
        .map_err(|source| SimError::Mem {
            context: "populating the workload footprint",
            source,
        })?;
    // Compaction during population may have migrated hog-owned blocks.
    let relocations = space.drain_foreign_relocations();
    hog.absorb_relocations(&relocations);
    noise.absorb_relocations(&relocations);
    space.drain_ops(); // initial mappings carry no stale state

    Ok(MemoryImage { pmem, space, vma })
}

impl System {
    /// Builds the system: physical memory is fragmented by a light
    /// system-noise allocator plus the configured memhog before the
    /// workload's footprint is populated through the THP policy — so
    /// superpage coverage emerges from the OS model, as on the paper's
    /// long-uptime servers (§III-C, §V).
    ///
    /// With [`RunConfig::cores`] > 1, N identical cores are built, each
    /// with its own TLBs, L1, and independently-seeded workload stream
    /// (all threads of one process: the address space is shared), and —
    /// under [`ProbeSource::Coherence`] — a functional MOESI directory
    /// (or snoopy bus, per [`RunConfig::snoopy`]) generates every
    /// coherence probe from real peer misses and upgrades.
    ///
    /// # Errors
    /// Returns [`SimError::Mem`] if physical memory cannot back the
    /// workload's footprint even with base pages (the THP path already
    /// degrades superpage failures to 4 KB fallback, counted in
    /// [`crate::RunResult::demotions`]).
    pub fn build(config: &RunConfig) -> Result<System, SimError> {
        let MemoryImage { pmem, space, vma } = memory_image(config)?;
        let sram = SramModel::tsmc28_scaled_22nm();
        let n = config.cores.max(1);
        let mut cores = Vec::with_capacity(n);
        let mut l1_design = None;
        for id in 0..n {
            let (l1, design) = build_l1(config, &sram);
            l1_design = Some(design);
            // Each core streams its own workload instance, decorrelated
            // by a Weyl stride; core 0 keeps the run's base seed so the
            // single-core stream is unchanged by the refactor.
            let lane = (id as u64).wrapping_mul(CORE_SEED_STRIDE);
            // Synthetic probe stream only when no directory generates the
            // real thing; snoopy protocols broadcast, multiplying
            // delivered probes (§VI-B).
            let traffic = (config.probe_source == ProbeSource::Synthetic).then(|| {
                let snoop_factor = if config.snoopy { 3.0 } else { 1.0 };
                CoherenceTraffic::new(CoherenceTrafficConfig {
                    probes_per_kilo_instruction: config.workload.coherence_pki * snoop_factor,
                    invalidate_fraction: 0.3,
                    targeted_fraction: 0.6,
                    seed: config.seed ^ 0xc0c0 ^ lane,
                })
            });
            cores.push(Core {
                id,
                tlbs: TlbHierarchy::new(Self::tlb_config(config)),
                l1,
                generator: TraceGenerator::new(&config.workload, config.seed ^ lane),
                hint: SchedulerHint::default(),
                traffic,
                checker: config.checker.then(ShadowChecker::new),
                injector: config.faults.map(|f| {
                    let per_core = FaultConfig {
                        seed: f.seed ^ lane,
                        ..f
                    };
                    // An explicit schedule for this core (shrinker replay)
                    // supersedes the seeded stream; missing entries keep it.
                    match config.fault_schedules.as_ref().and_then(|s| s.get(id)) {
                        Some(schedule) => FaultInjector::replay(per_core, schedule.clone()),
                        None => FaultInjector::new(per_core),
                    }
                }),
                elapsed: 0,
                xlate: TranslationIntern::new(vma.base().raw(), vma.bytes()),
                replay: Arc::from(Vec::new()),
                replay_cursor: 0,
            });
        }

        let l1_design = l1_design.expect("at least one core");
        let total_ways = cores[0].l1.total_ways();
        // The real coherence substrate: a functional model of every
        // core's L1 tag state under MOESI, sized like the timing L1s,
        // probing one partition per delivery for SEESAW designs.
        let coherence = (config.probe_source == ProbeSource::Coherence).then(|| {
            let geometry =
                CacheConfig::new(config.l1_size_kb << 10, total_ways, 64, IndexPolicy::Vipt);
            let mode = if config.snoopy {
                CoherenceMode::Snoopy
            } else {
                CoherenceMode::Directory
            };
            DirectoryController::new(n, geometry, mode, l1_design.probe_ways)
        });

        let outer_cfg = OuterHierarchyConfig::table_ii(config.frequency.ghz());
        let outer = match config.prefetch_degree {
            Some(degree) => OuterHierarchy::with_prefetcher(outer_cfg, degree),
            None => OuterHierarchy::new(outer_cfg),
        };
        let account = EnergyAccount::new(EnergyModel::new(sram), config.l1_size_kb, total_ways);

        Ok(System {
            config: config.clone(),
            l1_design,
            cores,
            uncore: Uncore {
                pmem,
                space,
                vma,
                outer,
                account,
                coherence,
                pressure_hogs: Vec::new(),
                run_demotions: 0,
            },
        })
    }

    pub(crate) fn tlb_config(config: &RunConfig) -> TlbHierarchyConfig {
        let mut tlb = match config.cpu {
            CpuKind::InOrder => TlbHierarchyConfig::atom(),
            CpuKind::OutOfOrder => TlbHierarchyConfig::sandybridge(),
        };
        if let Some(entries) = config.l1_tlb_4k_entries {
            tlb = tlb.with_l1_4k_entries(entries);
        }
        tlb
    }
}
