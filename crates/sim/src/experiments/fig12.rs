//! Fig. 12: SEESAW's benefits under increasing memory fragmentation
//! (memhog at 0/30/60 % of memory; 64 KB L1 at 1.33 GHz).

use seesaw_workloads::fig12_subset;

use super::sweep;
use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SimError, Table};

/// memhog pressures of Fig. 12.
pub const FIG12_MEMHOG: [u32; 3] = [0, 30, 60];

/// One workload × fragmentation cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Workload name.
    pub workload: &'static str,
    /// memhog percent.
    pub memhog: u32,
    /// Percent runtime improvement over the baseline at the same
    /// fragmentation.
    pub perf_pct: f64,
    /// Percent memory-hierarchy energy saved.
    pub energy_pct: f64,
    /// Superpage coverage the OS achieved at this pressure.
    pub coverage: f64,
}

/// Runs the fragmentation sweep as one plan (workload × memhog ×
/// {baseline, SEESAW}).
pub fn fig12(instructions: u64) -> Result<Vec<Fig12Row>, SimError> {
    sweep(|plan| fig12_grid(plan, instructions))
}

pub(super) fn fig12_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<Fig12Row> {
    let mut cells = Vec::new();
    for spec in fig12_subset() {
        for &memhog in &FIG12_MEMHOG {
            let base_cfg = RunConfig::paper(spec.name)
                .l1_size(64)
                .frequency(Frequency::F1_33)
                .cpu(CpuKind::OutOfOrder)
                .memhog(memhog)
                .instructions(instructions);
            let base = plan.push(format!("{}/mh{}/base", spec.name, memhog), base_cfg.clone());
            let seesaw = plan.push(
                format!("{}/mh{}/seesaw", spec.name, memhog),
                base_cfg.design(L1DesignKind::Seesaw),
            );
            cells.push((spec.name, memhog, base, seesaw));
        }
    }
    move |results| {
        cells
            .into_iter()
            .map(|(workload, memhog, base, seesaw)| Fig12Row {
                workload,
                memhog,
                perf_pct: results[seesaw].runtime_improvement_pct(&results[base]),
                energy_pct: results[seesaw].energy_savings_pct(&results[base]),
                coverage: results[seesaw].superpage_coverage,
            })
            .collect()
    }
}

/// Renders the rows grouped like the paper's figure (mh0/mh30/mh60 per
/// workload).
pub fn fig12_table(rows: &[Fig12Row]) -> Table {
    let mut table = Table::new(vec!["workload", "memhog", "perf", "energy", "coverage"]);
    for r in rows {
        table.row(vec![
            r.workload.into(),
            format!("mh{}", r.memhog),
            pct(r.perf_pct),
            pct(r.energy_pct),
            pct(r.coverage * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;

    #[test]
    fn benefits_shrink_but_survive_fragmentation() {
        // Paper: benefits "decrease but still remain in the 4-6% range in
        // the presence of heavy fragmentation (i.e., memhog of 60%)".
        let run = |memhog: u32| {
            let cfg = RunConfig::quick("redis").l1_size(64).memhog(memhog);
            let base = System::build(&cfg).unwrap().run().unwrap();
            let seesaw = System::build(&cfg.clone().design(L1DesignKind::Seesaw))
                .unwrap()
                .run()
                .unwrap();
            (
                seesaw.runtime_improvement_pct(&base),
                seesaw.superpage_coverage,
            )
        };
        let (perf0, cov0) = run(0);
        let (perf60, cov60) = run(60);
        assert!(cov60 < cov0, "fragmentation must reduce coverage");
        assert!(perf60 > 0.0, "benefit must survive at mh60: {perf60:.2}%");
        assert!(
            perf60 <= perf0 + 1.0,
            "benefit should shrink: {perf0:.2}% → {perf60:.2}%"
        );
    }

    #[test]
    fn table_renders() {
        let rows = vec![Fig12Row {
            workload: "olio",
            memhog: 30,
            perf_pct: 5.0,
            energy_pct: 8.0,
            coverage: 0.7,
        }];
        let t = fig12_table(&rows);
        assert!(t.to_string().contains("mh30"));
    }
}
