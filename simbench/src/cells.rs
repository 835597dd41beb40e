//! The three workloads as lists of simulator cells, and the guard that
//! keeps each list inside the simulator's process-wide artifact caches.

use seesaw_sim::experiments::DESIGN_LAB;
use seesaw_sim::{CpuKind, FaultConfig, Frequency, L1DesignKind, RunConfig};
use seesaw_workloads::catalog;
use std::collections::HashSet;

/// The seed a run uses when `--seed` is not given; it is
/// `RunConfig::paper`'s own default, and the seed the committed output
/// expectations were recorded at.
pub const DEFAULT_SEED: u64 = 0x5eea;

/// Entry caps of the memory-image, stream and warmed-outer caches in the
/// simulator's `build` module. Those caches evict by clearing everything,
/// so a cell list with more distinct keys than a cap turns warm cells cold.
pub const MEMORY_IMAGE_CAP: usize = 32;
/// See [`MEMORY_IMAGE_CAP`].
pub const STREAM_CACHE_CAP: usize = 32;
/// See [`MEMORY_IMAGE_CAP`].
pub const WARM_OUTER_CAP: usize = 24;

/// A benchmark workload: one fixed list of simulator cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 16 catalog workloads on every design of the lab, one core.
    Sweep1Core,
    /// The multithreaded workloads on four cores under real coherence.
    MulticoreCoherence,
    /// Page-table churn, fault injection and the shadow checker under
    /// memhog fragmentation.
    FragmentedChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Sweep1Core,
        Workload::MulticoreCoherence,
        Workload::FragmentedChurn,
    ];

    /// The name used on the command line and in cell labels.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep1Core => "sweep_1core",
            Workload::MulticoreCoherence => "multicore_coherence",
            Workload::FragmentedChurn => "fragmented_churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured instructions per core of every cell. Multi-core cells
    /// run four cores at about a quarter of the single-core rate, so
    /// they get a smaller per-core budget to keep a pass a few seconds.
    pub fn budget(self) -> u64 {
        match self {
            Workload::Sweep1Core | Workload::FragmentedChurn => 250_000,
            Workload::MulticoreCoherence => 100_000,
        }
    }
}

/// The catalog workload whose SEESAW cell the traced run replays layer by
/// layer: present in all three lists, write-heavy and multithreaded.
pub const REPRESENTATIVE: &str = "redis";

/// One simulator cell of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Unique label, `<workload>/<conditions>/<design>`.
    pub label: String,
    /// The label without its design: cells sharing it differ only in
    /// the L1 design.
    pub pair_key: String,
    /// The design's name in the lab roster.
    pub design: &'static str,
    /// The configuration the cell runs.
    pub config: RunConfig,
}

const MULTITHREADED: [&str; 7] = ["cann", "g500", "tunk", "nutch", "olio", "redis", "mongo"];
const WRITE_HEAVY: [&str; 4] = ["gups", "redis", "olio", "mongo"];
const READ_HEAVY: [&str; 4] = ["mumm", "tigr", "g500", "astar"];
const CHURN_MEMHOG: [u32; 2] = [40, 80];
/// Instructions between the legacy splinter/re-promote page operations.
const PAGE_OP_INTERVAL: u64 = 20_000;
const PAIR: [(&str, L1DesignKind); 2] = [
    ("baseline", L1DesignKind::BaselineVipt),
    ("seesaw", L1DesignKind::Seesaw),
];

/// The common configuration. The warmup is the simulator's default, a
/// third of the budget, set explicitly so the ledger can count its calls.
fn base(workload: &str, budget: u64, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper(workload)
        .instructions(budget)
        .warmup(budget / 3)
        .cpu(CpuKind::OutOfOrder)
        .l1_size(32)
        .frequency(Frequency::F1_33)
        .memhog(0);
    cfg.seed = seed;
    cfg
}

/// The cell list of `workload` at `seed`, in execution order.
pub fn cells(workload: Workload, seed: u64) -> Vec<Cell> {
    let budget = workload.budget();
    let prefix = workload.name();
    let mut out = Vec::new();
    let mut push = |pair_key: String, design: &'static str, config: RunConfig| {
        out.push(Cell {
            label: format!("{pair_key}/{design}"),
            pair_key,
            design,
            config,
        });
    };
    match workload {
        Workload::Sweep1Core => {
            for spec in catalog().iter().map(|w| w.name) {
                for (design, kind) in DESIGN_LAB {
                    push(
                        format!("{prefix}/{spec}"),
                        design,
                        base(spec, budget, seed).design(kind),
                    );
                }
            }
        }
        Workload::MulticoreCoherence => {
            for spec in MULTITHREADED {
                for (design, kind) in PAIR {
                    for snoopy in [false, true] {
                        let mut cfg = base(spec, budget, seed).cores(4).design(kind);
                        cfg.snoopy = snoopy;
                        let protocol = if snoopy { "snoopy" } else { "directory" };
                        push(format!("{prefix}/{spec}/{protocol}"), design, cfg);
                    }
                }
            }
        }
        Workload::FragmentedChurn => {
            for spec in WRITE_HEAVY.into_iter().chain(READ_HEAVY) {
                for memhog in CHURN_MEMHOG {
                    for (design, kind) in PAIR {
                        let mut cfg = base(spec, budget, seed)
                            .memhog(memhog)
                            .design(kind)
                            .with_checker()
                            .with_faults(FaultConfig::all(seed));
                        cfg.page_op_interval = Some(PAGE_OP_INTERVAL);
                        push(format!("{prefix}/{spec}/memhog{memhog}"), design, cfg);
                    }
                }
            }
        }
    }
    out
}

/// Distinct keys a cell list puts into each process-wide artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKeys {
    /// Reference streams: workload, seed, core and stream length.
    pub streams: usize,
    /// Warmed outer hierarchies: memory image, cores, stream length,
    /// frequency and prefetch degree.
    pub warm_outers: usize,
    /// Memory images: workload, seed and memhog pressure.
    pub images: usize,
}

/// Counts the distinct artifact-cache keys of `cells`, mirroring the
/// key construction of the simulator's `build` and `system` modules.
pub fn cache_keys(cells: &[Cell]) -> CacheKeys {
    let mut streams = HashSet::new();
    let mut warm = HashSet::new();
    let mut images = HashSet::new();
    for cell in cells {
        let c = &cell.config;
        let image = (c.workload.name, c.seed, c.memhog_percent);
        let prewarm_refs = c.instructions + c.instructions / 2;
        for core in 0..c.cores.max(1) {
            streams.insert((c.workload.name, c.seed, core, prewarm_refs));
        }
        warm.insert((image, c.cores, prewarm_refs, c.frequency, c.prefetch_degree));
        images.insert(image);
    }
    CacheKeys {
        streams: streams.len(),
        warm_outers: warm.len(),
        images: images.len(),
    }
}

/// Fails when any cache would exceed its cap during one pass.
pub fn guard_caps(cells: &[Cell]) -> Result<CacheKeys, String> {
    let keys = cache_keys(cells);
    let over: Vec<String> = [
        ("stream", keys.streams, STREAM_CACHE_CAP),
        ("warmed-outer", keys.warm_outers, WARM_OUTER_CAP),
        ("memory-image", keys.images, MEMORY_IMAGE_CAP),
    ]
    .into_iter()
    .filter(|(_, n, cap)| n > cap)
    .map(|(name, n, cap)| format!("{name} cache needs {n} keys, cap is {cap}"))
    .collect();
    if over.is_empty() {
        Ok(keys)
    } else {
        Err(over.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_lists_fit_the_artifact_caches() {
        let expect = [
            (Workload::Sweep1Core, 80, (16, 16, 16)),
            (Workload::MulticoreCoherence, 28, (28, 7, 7)),
            (Workload::FragmentedChurn, 32, (8, 16, 16)),
        ];
        for (workload, len, (streams, warm_outers, images)) in expect {
            let list = cells(workload, DEFAULT_SEED);
            assert_eq!(list.len(), len, "{}", workload.name());
            let keys = guard_caps(&list).expect("within caps");
            assert_eq!(
                keys,
                CacheKeys {
                    streams,
                    warm_outers,
                    images
                },
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn labels_are_unique_and_pairs_complete() {
        for workload in Workload::ALL {
            let list = cells(workload, 7);
            let labels: HashSet<&str> = list.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(labels.len(), list.len());
            for cell in list.iter().filter(|c| c.design == "seesaw") {
                assert!(list
                    .iter()
                    .any(|c| c.pair_key == cell.pair_key && c.design == "baseline"));
            }
        }
    }

    #[test]
    fn an_oversized_list_fails_the_guard() {
        let list: Vec<Cell> = (0..3)
            .flat_map(|seed| cells(Workload::MulticoreCoherence, seed))
            .collect();
        let err = guard_caps(&list).expect_err("84 stream keys exceed the cap");
        assert!(err.contains("stream cache needs 84 keys"), "{err}");
    }
}
