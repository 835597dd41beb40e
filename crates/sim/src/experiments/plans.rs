//! A name → cell registry over the figure and ablation drivers, for
//! distributed submission.
//!
//! The figure drivers in this module interleave grid construction with
//! result assembly, so they cannot hand their cells to another process
//! directly. This registry duplicates each driver's grid — same loop
//! order, same labels, same [`RunConfig`] builders — as a pure
//! `Vec<(label, config)>` that `seesaw-submit` can enqueue on the
//! [`crate::fabric`] job queue. Once workers have resolved every cell
//! into the shared store, re-running the real driver against that store
//! is all hits and reproduces the figure bit-identically.
//!
//! Fidelity is pinned by tests: because cell results are memoized
//! per-process by fingerprint, running a registry plan and then its
//! driver (or vice versa) must report zero additional memo misses.
//! Drivers whose cells are not plain [`RunConfig`] sweeps (fig2*, fig3
//! and the tables drive [`crate::System`] and the OS model directly)
//! are deliberately absent.

use seesaw_core::InsertionPolicy;
use seesaw_workloads::{catalog, cloud_subset, fig12_subset};

use super::designs::DESIGN_LAB;
use super::fig12::FIG12_MEMHOG;
use super::fig13::FIG13_TFT_ENTRIES;
use super::fig7::{runtime_cfg, SIZES_KB};
use super::multicore::{CORE_COUNTS, MULTICORE_WORKLOADS};
use super::scheduler::{MEMHOG_LEVELS, SQUASH_COSTS};
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SchedulerHintPolicy};

/// A labelled grid cell, exactly as the matching driver would
/// [`crate::runner::Plan::push`] it.
pub type PlanCell = (String, RunConfig);

/// Every plan name [`plan_cells`] accepts, in the order the paper
/// presents them.
pub const PLAN_NAMES: [&str; 14] = [
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "designs",
    "multicore",
    "scheduler",
    "partitions",
    "ablations",
];

/// Returns the names [`plan_cells`] accepts.
pub fn plan_names() -> &'static [&'static str] {
    &PLAN_NAMES
}

/// Returns the `(label, config)` grid the named driver would run at the
/// given instruction budget, or `None` for an unknown name.
pub fn plan_cells(name: &str, instructions: u64) -> Option<Vec<PlanCell>> {
    match name {
        "fig7" => Some(fig7_cells(instructions)),
        "fig8" => Some(freq_sweep_cells(CpuKind::OutOfOrder, instructions)),
        "fig9" => Some(freq_sweep_cells(CpuKind::InOrder, instructions)),
        "fig10" => Some(fig10_cells(instructions)),
        "fig11" => Some(fig11_cells(instructions)),
        "fig12" => Some(fig12_cells(instructions)),
        "fig13" => Some(fig13_cells(instructions)),
        "fig14" => Some(fig14_cells(instructions)),
        "fig15" => Some(fig15_cells(instructions)),
        "designs" => Some(designs_cells(instructions)),
        "multicore" => Some(multicore_cells(instructions)),
        "scheduler" => Some(scheduler_cells(instructions)),
        "partitions" => Some(partitions_cells(instructions)),
        "ablations" => Some(ablations_cells(instructions)),
        _ => None,
    }
}

fn base_seesaw(cells: &mut Vec<PlanCell>, prefix: &str, base_cfg: RunConfig) {
    cells.push((format!("{prefix}/base"), base_cfg.clone()));
    cells.push((
        format!("{prefix}/seesaw"),
        base_cfg.design(L1DesignKind::Seesaw),
    ));
}

fn fig7_cells(instructions: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for spec in catalog() {
        for &size_kb in &SIZES_KB {
            let base_cfg = runtime_cfg(
                spec.name,
                size_kb,
                Frequency::F1_33,
                CpuKind::OutOfOrder,
                instructions,
            );
            base_seesaw(
                &mut cells,
                &format!("{}/{}KB", spec.name, size_kb),
                base_cfg,
            );
        }
    }
    cells
}

fn freq_sweep_cells(cpu: CpuKind, instructions: u64) -> Vec<PlanCell> {
    let workloads = catalog();
    let mut cells = Vec::new();
    for freq in Frequency::ALL {
        for &size_kb in &SIZES_KB {
            for w in &workloads {
                let base_cfg = runtime_cfg(w.name, size_kb, freq, cpu, instructions);
                base_seesaw(&mut cells, &format!("{}/{}KB", w.name, size_kb), base_cfg);
            }
        }
    }
    cells
}

fn fig10_cells(instructions: u64) -> Vec<PlanCell> {
    let workloads = catalog();
    let mut cells = Vec::new();
    for (cpu, _core) in [(CpuKind::InOrder, "InO"), (CpuKind::OutOfOrder, "OOO")] {
        for freq in Frequency::ALL {
            for &size_kb in &SIZES_KB {
                for w in &workloads {
                    let base_cfg = runtime_cfg(w.name, size_kb, freq, cpu, instructions);
                    base_seesaw(&mut cells, &format!("{}/{}KB", w.name, size_kb), base_cfg);
                }
            }
        }
    }
    cells
}

fn fig11_cells(instructions: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for w in catalog() {
        let base_cfg = runtime_cfg(
            w.name,
            64,
            Frequency::F1_33,
            CpuKind::OutOfOrder,
            instructions,
        );
        base_seesaw(&mut cells, w.name, base_cfg);
    }
    cells
}

fn fig12_cells(instructions: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for spec in fig12_subset() {
        for &memhog in &FIG12_MEMHOG {
            let base_cfg = RunConfig::paper(spec.name)
                .l1_size(64)
                .frequency(Frequency::F1_33)
                .cpu(CpuKind::OutOfOrder)
                .memhog(memhog)
                .instructions(instructions);
            base_seesaw(&mut cells, &format!("{}/mh{}", spec.name, memhog), base_cfg);
        }
    }
    cells
}

fn fig13_cells(instructions: u64) -> Vec<PlanCell> {
    let workloads = catalog();
    let mut cells = Vec::new();
    for &tft_entries in &FIG13_TFT_ENTRIES {
        for &size_kb in &[32u64, 64, 128] {
            for w in &workloads {
                let mut cfg = RunConfig::paper(w.name)
                    .l1_size(size_kb)
                    .design(L1DesignKind::Seesaw)
                    .instructions(instructions);
                cfg.tft_entries = tft_entries;
                cells.push((format!("{}/tft{}/{}KB", w.name, tft_entries, size_kb), cfg));
            }
        }
    }
    cells
}

fn fig14_cells(instructions: u64) -> Vec<PlanCell> {
    let workloads = catalog();
    let mut cells = Vec::new();
    for freq in Frequency::ALL {
        let base_of = |w: &str| {
            RunConfig::paper(w)
                .l1_size(128)
                .frequency(freq)
                .cpu(CpuKind::OutOfOrder)
                .instructions(instructions)
        };
        for w in &workloads {
            cells.push((format!("{}/base", w.name), base_of(w.name)));
        }
        let mut queue = |design: L1DesignKind, tlb: Option<usize>, label: &str| {
            for w in &workloads {
                let mut cfg = base_of(w.name).design(design);
                cfg.l1_tlb_4k_entries = tlb;
                cells.push((format!("{}/{label}", w.name), cfg));
            }
        };
        queue(L1DesignKind::Seesaw, None, "seesaw");
        for ways in [2usize, 4, 8] {
            queue(L1DesignKind::Pipt { ways }, None, &format!("pipt-{ways}w"));
            queue(
                L1DesignKind::Pipt { ways },
                Some(64),
                &format!("pipt-{ways}w/tlb64"),
            );
        }
    }
    cells
}

fn fig15_cells(instructions: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for w in cloud_subset() {
        let base_cfg = RunConfig::paper(w.name)
            .l1_size(64)
            .frequency(Frequency::F1_33)
            .cpu(CpuKind::OutOfOrder)
            .instructions(instructions);
        cells.push((format!("{}/base", w.name), base_cfg.clone()));
        cells.push((
            format!("{}/wp", w.name),
            base_cfg
                .clone()
                .design(L1DesignKind::BaselineWithWayPrediction),
        ));
        cells.push((
            format!("{}/seesaw", w.name),
            base_cfg.clone().design(L1DesignKind::Seesaw),
        ));
        cells.push((
            format!("{}/wp+seesaw", w.name),
            base_cfg.design(L1DesignKind::SeesawWithWayPrediction),
        ));
    }
    cells
}

/// The design lab runs on redis, matching the `designs` binary.
fn designs_cells(instructions: u64) -> Vec<PlanCell> {
    let workload = "redis";
    let base_cfg = RunConfig::paper(workload)
        .l1_size(64)
        .frequency(Frequency::F1_33)
        .cpu(CpuKind::OutOfOrder)
        .instructions(instructions);
    DESIGN_LAB
        .iter()
        .map(|(name, kind)| (format!("{workload}/{name}"), base_cfg.clone().design(*kind)))
        .collect()
}

fn multicore_cells(instructions: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for workload in MULTICORE_WORKLOADS {
        for cores in CORE_COUNTS {
            let protocols: &[&'static str] = if cores == 1 {
                &["synthetic"]
            } else {
                &["directory", "snoopy"]
            };
            for &protocol in protocols {
                for design in [L1DesignKind::BaselineVipt, L1DesignKind::Seesaw] {
                    let mut cfg = RunConfig::paper(workload)
                        .design(design)
                        .instructions(instructions)
                        .cores(cores);
                    cfg.snoopy = protocol == "snoopy";
                    cells.push((format!("{workload}/{cores}c/{protocol}/{design:?}"), cfg));
                }
            }
        }
    }
    cells
}

fn scheduler_cells(instructions: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for &memhog in &MEMHOG_LEVELS {
        let base_cfg = RunConfig::paper("redis")
            .l1_size(64)
            .frequency(Frequency::F1_33)
            .cpu(CpuKind::OutOfOrder)
            .memhog(memhog)
            .instructions(instructions);
        cells.push((format!("redis/mh{memhog}/base"), base_cfg.clone()));
        for policy in [
            SchedulerHintPolicy::Occupancy,
            SchedulerHintPolicy::AlwaysFast,
            SchedulerHintPolicy::AlwaysSlow,
        ] {
            for &squash_cycles in &SQUASH_COSTS {
                let mut cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
                cfg.scheduler_hint = policy;
                cfg.hit_time_squash_cycles = squash_cycles;
                cells.push((
                    format!("redis/mh{memhog}/{policy:?}/sq{squash_cycles}"),
                    cfg,
                ));
            }
        }
    }
    cells
}

fn partitions_cells(instructions: u64) -> Vec<PlanCell> {
    let base_cfg = RunConfig::paper("redis")
        .l1_size(64)
        .frequency(Frequency::F1_33)
        .cpu(CpuKind::OutOfOrder)
        .instructions(instructions);
    let mut cells = vec![("redis/base".to_string(), base_cfg.clone())];
    for ways_per_partition in [2usize, 4, 8] {
        let partitions = 16 / ways_per_partition;
        let mut cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
        cfg.seesaw_partitions = Some(partitions);
        cells.push((format!("redis/{partitions}p"), cfg));
    }
    cells
}

/// All five prose-ablation grids in one plan (insertion, ASID flush,
/// snoopy, area control, prefetch), labels disambiguated per ablation.
fn ablations_cells(instructions: u64) -> Vec<PlanCell> {
    let cfg64 = |workload: &str| {
        RunConfig::paper(workload)
            .l1_size(64)
            .frequency(Frequency::F1_33)
            .cpu(CpuKind::OutOfOrder)
            .design(L1DesignKind::Seesaw)
            .instructions(instructions)
    };
    let mut cells = Vec::new();
    for w in cloud_subset() {
        let name = w.name;
        // insertion_ablation
        cells.push((format!("{name}/4way"), cfg64(name)));
        let mut four_eight = cfg64(name);
        four_eight.insertion = InsertionPolicy::FourWayEightWay;
        cells.push((format!("{name}/4way-8way"), four_eight));
        // asid_flush_ablation
        let mut flushing = cfg64(name);
        flushing.context_switch_interval = Some(100_000);
        cells.push((format!("{name}/flushing"), flushing));
        let mut ideal = cfg64(name);
        ideal.context_switch_interval = None;
        cells.push((format!("{name}/ideal"), ideal));
        // snoopy_ablation
        for (snoopy, label) in [(false, "directory"), (true, "snoopy")] {
            let mut base_cfg = cfg64(name).design(L1DesignKind::BaselineVipt);
            base_cfg.snoopy = snoopy;
            cells.push((format!("{name}/{label}/base"), base_cfg));
            let mut seesaw_cfg = cfg64(name);
            seesaw_cfg.snoopy = snoopy;
            cells.push((format!("{name}/{label}/seesaw"), seesaw_cfg));
        }
        // area_control
        let base_cfg = cfg64(name).design(L1DesignKind::BaselineVipt);
        cells.push((format!("{name}/base"), base_cfg.clone()));
        let mut bigger_cfg = base_cfg;
        bigger_cfg.l1_tlb_4k_entries = Some(136);
        cells.push((format!("{name}/tlb136"), bigger_cfg));
        cells.push((format!("{name}/seesaw"), cfg64(name)));
        // prefetch_ablation
        for (degree, label) in [(None, "no-prefetch"), (Some(4usize), "prefetch4")] {
            let mut base_cfg = cfg64(name).design(L1DesignKind::BaselineVipt);
            base_cfg.prefetch_degree = degree;
            cells.push((format!("{name}/{label}/base"), base_cfg));
            let mut seesaw_cfg = cfg64(name);
            seesaw_cfg.prefetch_degree = degree;
            cells.push((format!("{name}/{label}/seesaw"), seesaw_cfg));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::fingerprint;

    #[test]
    fn every_registered_name_resolves_and_unknowns_do_not() {
        for name in plan_names() {
            let cells = plan_cells(name, 10_000).unwrap_or_else(|| panic!("{name} registered"));
            assert!(!cells.is_empty(), "{name} must produce cells");
        }
        assert!(plan_cells("fig1", 10_000).is_none());
        assert!(plan_cells("", 10_000).is_none());
    }

    #[test]
    fn grid_shapes_match_the_drivers() {
        let n = catalog().len();
        let cloud = cloud_subset().len();
        let expect = [
            ("fig7", n * SIZES_KB.len() * 2),
            ("fig8", Frequency::ALL.len() * SIZES_KB.len() * n * 2),
            ("fig9", Frequency::ALL.len() * SIZES_KB.len() * n * 2),
            ("fig10", 2 * Frequency::ALL.len() * SIZES_KB.len() * n * 2),
            ("fig11", n * 2),
            ("fig12", cloud * FIG12_MEMHOG.len() * 2),
            ("fig13", FIG13_TFT_ENTRIES.len() * 3 * n),
            // base + seesaw + 3 PIPT ways × {full, halved} TLB.
            ("fig14", Frequency::ALL.len() * n * (2 + 6)),
            ("fig15", cloud * 4),
            ("designs", DESIGN_LAB.len()),
            // Per workload: 1 synthetic + 2 protocols × 2 core counts,
            // each a base/seesaw pair.
            ("multicore", MULTICORE_WORKLOADS.len() * 5 * 2),
            (
                "scheduler",
                MEMHOG_LEVELS.len() * (1 + 3 * SQUASH_COSTS.len()),
            ),
            ("partitions", 4),
            // insertion 2 + asid 2 + snoopy 4 + area 3 + prefetch 4.
            ("ablations", cloud * 15),
        ];
        for (name, count) in expect {
            assert_eq!(
                plan_cells(name, 10_000).unwrap().len(),
                count,
                "{name} cell count"
            );
        }
    }

    #[test]
    fn registry_cells_fingerprint_like_the_drivers_configs() {
        // Spot-check one cell per representative plan against a config
        // built exactly as the driver builds it.
        let cells = plan_cells("fig7", 40_000).unwrap();
        let driver_cfg = runtime_cfg("redis", 64, Frequency::F1_33, CpuKind::OutOfOrder, 40_000)
            .design(L1DesignKind::Seesaw);
        let (label, cfg) = cells
            .iter()
            .find(|(l, _)| l == "redis/64KB/seesaw")
            .expect("fig7 label present");
        assert_eq!(label, "redis/64KB/seesaw");
        assert_eq!(fingerprint(cfg), fingerprint(&driver_cfg));

        let cells = plan_cells("scheduler", 40_000).unwrap();
        let mut driver_cfg = RunConfig::paper("redis")
            .l1_size(64)
            .frequency(Frequency::F1_33)
            .cpu(CpuKind::OutOfOrder)
            .memhog(60)
            .instructions(40_000)
            .design(L1DesignKind::Seesaw);
        driver_cfg.scheduler_hint = SchedulerHintPolicy::AlwaysSlow;
        driver_cfg.hit_time_squash_cycles = 12;
        let (_, cfg) = cells
            .iter()
            .find(|(l, _)| l == "redis/mh60/AlwaysSlow/sq12")
            .expect("scheduler label present");
        assert_eq!(fingerprint(cfg), fingerprint(&driver_cfg));
    }

    /// Runs the real driver, then the registry plan at the same budget,
    /// and asserts the registry saw only memo hits with exactly
    /// `distinct` configurations. Budgets are unique per call site, so
    /// a hit can only come from the driver's own cells (the fingerprint
    /// includes the instruction budget); zero misses plus matching
    /// distinct counts pins set equality between the two grids.
    fn assert_registry_matches_driver(
        name: &str,
        budget: u64,
        distinct: usize,
        driver: impl FnOnce(u64),
    ) {
        driver(budget);
        let mut plan = crate::runner::Plan::new();
        for (label, cfg) in plan_cells(name, budget).unwrap() {
            plan.push(label, cfg);
        }
        let run = plan.run().unwrap();
        assert_eq!(run.memo.misses, 0, "{name}: registry ⊆ driver");
        assert_eq!(run.memo.entries, distinct, "{name}: registry ⊇ driver");
    }

    #[test]
    fn partitions_registry_covers_the_driver_exactly() {
        assert_registry_matches_driver("partitions", 31_415, 4, |b| {
            crate::experiments::partition_ablation(b).unwrap();
        });
    }

    #[test]
    fn scheduler_registry_covers_the_driver_exactly() {
        // 2 memhog levels × (1 baseline + 3 policies × 3 squash costs).
        assert_registry_matches_driver("scheduler", 27_183, 20, |b| {
            crate::experiments::scheduler_ablation(b).unwrap();
        });
    }

    #[test]
    fn fig15_registry_covers_the_driver_exactly() {
        assert_registry_matches_driver("fig15", 14_142, cloud_subset().len() * 4, |b| {
            crate::experiments::fig15(b).unwrap();
        });
    }
}
