//! One driver per table and figure in the paper's evaluation.
//!
//! Every driver takes an instruction (or reference) budget so the same
//! code backs the full experiment binaries (`cargo run -p seesaw-bench
//! --bin figN`) and the Criterion benches. Each returns structured rows
//! plus a [`crate::Table`] renderer, and `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.
//!
//! Every driver whose work is a plain [`RunConfig`] grid splits into a
//! grid function, which pushes its cells onto a [`Plan`] and returns the
//! row assembler, and the public driver, which runs that plan. The
//! [`plan_cells`] registry calls the same grid functions, so the cells
//! `seesaw-submit` enqueues are by construction the ones the driver
//! runs; re-running the driver against the shared store is then all
//! hits. Drivers that drive [`crate::System`] or the OS model directly
//! (fig2*, fig3 and the tables) have no grid and are not registered.

mod ablations;
mod designs;
mod fig10;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig2;
mod fig3;
mod fig7;
mod multicore;
mod partitions;
mod scheduler;
mod tables;

use crate::runner::{Plan, PlanRun};
use crate::{CpuKind, RunConfig, SimError};

pub use ablations::{
    ablation_table, area_control, asid_flush_ablation, insertion_ablation, prefetch_ablation,
    snoopy_ablation, AblationRow,
};
pub use designs::{
    all_design_kinds, design_fingerprint, designs, designs_table, DesignRow, DESIGN_LAB,
};
pub use fig10::{fig10, fig10_table, fig11, fig11_table, Fig10Row, Fig11Row};
pub use fig12::{fig12, fig12_table, Fig12Row};
pub use fig13::{fig13, fig13_table, Fig13Row};
pub use fig14::{fig14, fig14_table, Fig14Row};
pub use fig15::{fig15, fig15_table, Fig15Row};
pub use fig2::{fig2a, fig2a_table, fig2b, fig2bc_table, fig2c, Fig2aRow, Fig2bRow};
pub use fig3::{fig3, fig3_table, Fig3Row, FIG3_MEMHOG};
pub use fig7::{fig7, fig7_table, fig8, fig9, freq_sweep_table, Fig7Row, FreqSweepRow};
pub use multicore::{
    multicore_sweep, multicore_table, MulticoreRow, CORE_COUNTS, MULTICORE_WORKLOADS,
};
pub use partitions::{partition_ablation, partition_table, valid_partitioning, PartitionRow};
pub use scheduler::{
    scheduler_ablation, scheduler_table, SchedulerRow, MEMHOG_LEVELS, SQUASH_COSTS,
};
pub use tables::{table1, table1_table, table2, table3, table3_table, Table1Row, Table3Row};

/// A labelled grid cell, exactly as its driver [`Plan::push`]es it.
pub type PlanCell = (String, RunConfig);

/// Pushes one driver's cells for an instruction budget.
type Grid = fn(&mut Plan, u64);

/// Every distributable grid by name, in the order the paper presents
/// them. Each entry pushes the named driver's cells and drops its
/// assembler.
const GRIDS: [(&str, Grid); 14] = [
    ("fig7", |p, n| drop(fig7::fig7_grid(p, n))),
    ("fig8", |p, n| {
        drop(fig7::freq_sweep_grid(p, CpuKind::OutOfOrder, n))
    }),
    ("fig9", |p, n| {
        drop(fig7::freq_sweep_grid(p, CpuKind::InOrder, n))
    }),
    ("fig10", |p, n| drop(fig10::fig10_grid(p, n))),
    ("fig11", |p, n| drop(fig10::fig11_grid(p, n))),
    ("fig12", |p, n| drop(fig12::fig12_grid(p, n))),
    ("fig13", |p, n| drop(fig13::fig13_grid(p, n))),
    ("fig14", |p, n| drop(fig14::fig14_grid(p, n))),
    ("fig15", |p, n| drop(fig15::fig15_grid(p, n))),
    // The design lab runs on redis, matching the `designs` binary.
    ("designs", |p, n| drop(designs::designs_grid(p, "redis", n))),
    ("multicore", |p, n| drop(multicore::multicore_grid(p, n))),
    ("scheduler", |p, n| drop(scheduler::scheduler_grid(p, n))),
    ("partitions", |p, n| drop(partitions::partition_grid(p, n))),
    ("ablations", ablations::ablations_grid),
];

/// Returns the names [`plan_cells`] accepts.
pub fn plan_names() -> Vec<&'static str> {
    GRIDS.iter().map(|(name, _)| *name).collect()
}

/// Returns the `(label, config)` grid the named driver runs at the
/// given instruction budget, or `None` for an unknown name.
pub fn plan_cells(name: &str, instructions: u64) -> Option<Vec<PlanCell>> {
    let (_, grid) = GRIDS.iter().find(|(n, _)| *n == name)?;
    let mut plan = Plan::new();
    grid(&mut plan, instructions);
    Some(plan.into_cells())
}

/// Runs one grid as its own plan and assembles the rows.
fn sweep<A, R>(grid: impl FnOnce(&mut Plan) -> A) -> Result<R, SimError>
where
    A: FnOnce(&PlanRun) -> R,
{
    let mut plan = Plan::new();
    let assemble = grid(&mut plan);
    Ok(assemble(&plan.run()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frequency;
    use fig12::FIG12_MEMHOG;
    use fig13::FIG13_TFT_ENTRIES;
    use fig7::SIZES_KB;
    use seesaw_workloads::{catalog, cloud_subset};

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
}
