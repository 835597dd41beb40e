//! Figs. 7–9: runtime improvement of SEESAW over baseline VIPT.

use seesaw_workloads::catalog;

use super::sweep;
use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::stats::Summary;
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SimError, Table};

/// Cache sizes of the runtime studies.
pub const SIZES_KB: [u64; 3] = [32, 64, 128];

/// One Fig. 7 bar: a workload × cache size improvement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Workload name.
    pub workload: &'static str,
    /// L1 capacity in KB.
    pub size_kb: u64,
    /// Percent runtime improvement of SEESAW over baseline VIPT.
    pub improvement_pct: f64,
}

/// One Fig. 8/9 bar: a frequency × size summary over all workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqSweepRow {
    /// Frequency label.
    pub freq: &'static str,
    /// L1 capacity in KB.
    pub size_kb: u64,
    /// Mean/min/max improvement across all workloads.
    pub summary: Summary,
}

/// The shared baseline configuration of the runtime studies.
pub(crate) fn runtime_cfg(
    workload: &str,
    size_kb: u64,
    freq: Frequency,
    cpu: CpuKind,
    instructions: u64,
) -> RunConfig {
    RunConfig::paper(workload)
        .l1_size(size_kb)
        .frequency(freq)
        .cpu(cpu)
        .instructions(instructions)
}

/// Runs baseline and SEESAW for one configuration and returns the
/// runtime improvement (spot-check helper for the test suites; the
/// figure drivers batch whole grids instead).
#[cfg(test)]
pub(crate) fn improvement(
    workload: &str,
    size_kb: u64,
    freq: Frequency,
    cpu: CpuKind,
    instructions: u64,
) -> Result<f64, SimError> {
    let base_cfg = runtime_cfg(workload, size_kb, freq, cpu, instructions);
    let mut plan = Plan::new();
    let base = plan.push(format!("{workload}/base"), base_cfg.clone());
    let seesaw = plan.push(
        format!("{workload}/seesaw"),
        base_cfg.design(L1DesignKind::Seesaw),
    );
    let results = plan.run()?;
    Ok(results[seesaw].runtime_improvement_pct(&results[base]))
}

/// Fig. 7: per-workload runtime improvement on the out-of-order core at
/// 1.33 GHz, for 32/64/128 KB caches. The whole grid is one [`Plan`]:
/// every cell runs concurrently and the baselines are shared with any
/// other figure at the same geometry.
pub fn fig7(instructions: u64) -> Result<Vec<Fig7Row>, SimError> {
    sweep(|plan| fig7_grid(plan, instructions))
}

pub(super) fn fig7_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<Fig7Row> {
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
            let base = plan.push(
                format!("{}/{}KB/base", spec.name, size_kb),
                base_cfg.clone(),
            );
            let seesaw = plan.push(
                format!("{}/{}KB/seesaw", spec.name, size_kb),
                base_cfg.design(L1DesignKind::Seesaw),
            );
            cells.push((spec.name, size_kb, base, seesaw));
        }
    }
    move |results| {
        cells
            .into_iter()
            .map(|(workload, size_kb, base, seesaw)| Fig7Row {
                workload,
                size_kb,
                improvement_pct: results[seesaw].runtime_improvement_pct(&results[base]),
            })
            .collect()
    }
}

/// Fig. 8: frequency sweep on the out-of-order core (avg/min/max over all
/// workloads per size × frequency).
pub fn fig8(instructions: u64) -> Result<Vec<FreqSweepRow>, SimError> {
    sweep(|plan| freq_sweep_grid(plan, CpuKind::OutOfOrder, instructions))
}

/// Fig. 9: the same sweep on the in-order core (gains are higher).
pub fn fig9(instructions: u64) -> Result<Vec<FreqSweepRow>, SimError> {
    sweep(|plan| freq_sweep_grid(plan, CpuKind::InOrder, instructions))
}

pub(super) fn freq_sweep_grid(
    plan: &mut Plan,
    cpu: CpuKind,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<FreqSweepRow> {
    let workloads = catalog();
    let mut cells = Vec::new();
    for freq in Frequency::ALL {
        for &size_kb in &SIZES_KB {
            let pairs: Vec<(usize, usize)> = workloads
                .iter()
                .map(|w| {
                    let base_cfg = runtime_cfg(w.name, size_kb, freq, cpu, instructions);
                    let base =
                        plan.push(format!("{}/{}KB/base", w.name, size_kb), base_cfg.clone());
                    let seesaw = plan.push(
                        format!("{}/{}KB/seesaw", w.name, size_kb),
                        base_cfg.design(L1DesignKind::Seesaw),
                    );
                    (base, seesaw)
                })
                .collect();
            cells.push((freq, size_kb, pairs));
        }
    }
    move |results| {
        cells
            .into_iter()
            .map(|(freq, size_kb, pairs)| {
                let improvements: Vec<f64> = pairs
                    .into_iter()
                    .map(|(base, seesaw)| results[seesaw].runtime_improvement_pct(&results[base]))
                    .collect();
                FreqSweepRow {
                    freq: freq.label(),
                    size_kb,
                    summary: Summary::of(&improvements),
                }
            })
            .collect()
    }
}

/// Renders Fig. 7 rows (workloads × sizes).
pub fn fig7_table(rows: &[Fig7Row]) -> Table {
    let mut table = Table::new(vec!["workload", "32KB", "64KB", "128KB"]);
    for spec in catalog() {
        let cell = |size: u64| {
            rows.iter()
                .find(|r| r.workload == spec.name && r.size_kb == size)
                .map(|r| pct(r.improvement_pct))
                .unwrap_or_else(|| "-".into())
        };
        table.row(vec![spec.name.into(), cell(32), cell(64), cell(128)]);
    }
    table
}

/// Renders Fig. 8/9 rows.
pub fn freq_sweep_table(rows: &[FreqSweepRow]) -> Table {
    let mut table = Table::new(vec!["freq", "size", "avg", "min", "max"]);
    for r in rows {
        table.row(vec![
            r.freq.into(),
            format!("{}KB", r.size_kb),
            pct(r.summary.mean),
            pct(r.summary.min),
            pct(r.summary.max),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 120_000;

    #[test]
    fn every_workload_improves_at_64kb() {
        // Spot-check a diverse trio; "Every single one of our workloads
        // benefits from SEESAW" (§VI-A). The full 16 run in the binary.
        for name in ["redis", "astar", "g500"] {
            let imp = improvement(name, 64, Frequency::F1_33, CpuKind::OutOfOrder, QUICK).unwrap();
            assert!(imp > 0.0, "{name} regressed: {imp:.2}%");
        }
    }

    #[test]
    fn larger_caches_improve_more() {
        let small = improvement("mongo", 32, Frequency::F1_33, CpuKind::OutOfOrder, QUICK).unwrap();
        let large =
            improvement("mongo", 128, Frequency::F1_33, CpuKind::OutOfOrder, QUICK).unwrap();
        assert!(
            large > small,
            "128KB ({large:.2}%) should beat 32KB ({small:.2}%)"
        );
    }

    #[test]
    fn improvements_are_in_the_papers_band() {
        // Paper Fig. 7: averages of 5–11% across sizes, bars up to ~17%.
        let imp = improvement("redis", 64, Frequency::F1_33, CpuKind::OutOfOrder, QUICK).unwrap();
        assert!((0.5..25.0).contains(&imp), "got {imp:.2}%");
    }

    #[test]
    fn tables_render() {
        let rows = vec![Fig7Row {
            workload: "astar",
            size_kb: 32,
            improvement_pct: 4.0,
        }];
        assert_eq!(fig7_table(&rows).len(), 16);
        let rows = vec![FreqSweepRow {
            freq: "1.33GHz",
            size_kb: 32,
            summary: Summary::of(&[1.0, 2.0]),
        }];
        assert_eq!(freq_sweep_table(&rows).len(), 1);
    }
}
