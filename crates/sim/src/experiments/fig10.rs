//! Fig. 10: whole-hierarchy energy savings; Fig. 11: how those savings
//! split between CPU-side and coherence lookups.

use seesaw_workloads::catalog;

use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::stats::Summary;
use crate::{CpuKind, Frequency, L1DesignKind, SimError, Table};

use super::fig7::{runtime_cfg, SIZES_KB};
use super::sweep;

/// One Fig. 10 bar: energy savings summary for a core × size × frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Core kind label ("InO" / "OOO").
    pub core: &'static str,
    /// Frequency label.
    pub freq: &'static str,
    /// L1 capacity in KB.
    pub size_kb: u64,
    /// Mean/min/max percent memory-hierarchy energy saved.
    pub summary: Summary,
}

/// One Fig. 11 bar: the CPU-side vs coherence split of a workload's
/// savings.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Workload name.
    pub workload: &'static str,
    /// Share of the saving from CPU-side lookups (0–1).
    pub cpu_share: f64,
    /// Share of the saving from coherence lookups (0–1).
    pub coherence_share: f64,
}

#[cfg(test)]
pub(crate) fn energy_saving(
    workload: &str,
    size_kb: u64,
    freq: Frequency,
    cpu: CpuKind,
    instructions: u64,
) -> Result<(f64, f64, f64), SimError> {
    let base_cfg = runtime_cfg(workload, size_kb, freq, cpu, instructions);
    let mut plan = Plan::new();
    let base = plan.push(format!("{workload}/base"), base_cfg.clone());
    let seesaw = plan.push(
        format!("{workload}/seesaw"),
        base_cfg.design(L1DesignKind::Seesaw),
    );
    let results = plan.run()?;
    let saving = results[seesaw].energy_savings_pct(&results[base]);
    let (cpu_share, coh_share) = results[seesaw].energy.savings_split(&results[base].energy);
    Ok((saving, cpu_share, coh_share))
}

/// Fig. 10: energy savings per core kind × frequency × size, summarized
/// over all workloads. One plan covers the whole
/// core × frequency × size × workload grid; the baseline/SEESAW pairs it
/// shares with Figs. 7–9 are memoized, not re-run.
pub fn fig10(instructions: u64) -> Result<Vec<Fig10Row>, SimError> {
    sweep(|plan| fig10_grid(plan, instructions))
}

pub(super) fn fig10_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<Fig10Row> {
    let workloads = catalog();
    let mut cells = Vec::new();
    for (cpu, core) in [(CpuKind::InOrder, "InO"), (CpuKind::OutOfOrder, "OOO")] {
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
                cells.push((core, freq, size_kb, pairs));
            }
        }
    }
    move |results| {
        cells
            .into_iter()
            .map(|(core, freq, size_kb, pairs)| {
                let savings: Vec<f64> = pairs
                    .into_iter()
                    .map(|(base, seesaw)| results[seesaw].energy_savings_pct(&results[base]))
                    .collect();
                Fig10Row {
                    core,
                    freq: freq.label(),
                    size_kb,
                    summary: Summary::of(&savings),
                }
            })
            .collect()
    }
}

/// Fig. 11: per-workload CPU-side vs coherence shares (64 KB, 1.33 GHz,
/// out-of-order — the paper's configuration).
pub fn fig11(instructions: u64) -> Result<Vec<Fig11Row>, SimError> {
    sweep(|plan| fig11_grid(plan, instructions))
}

pub(super) fn fig11_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<Fig11Row> {
    let workloads = catalog();
    let pairs: Vec<(usize, usize)> = workloads
        .iter()
        .map(|w| {
            let base_cfg = runtime_cfg(
                w.name,
                64,
                Frequency::F1_33,
                CpuKind::OutOfOrder,
                instructions,
            );
            let base = plan.push(format!("{}/base", w.name), base_cfg.clone());
            let seesaw = plan.push(
                format!("{}/seesaw", w.name),
                base_cfg.design(L1DesignKind::Seesaw),
            );
            (base, seesaw)
        })
        .collect();
    move |results| {
        workloads
            .iter()
            .zip(pairs)
            .map(|(w, (base, seesaw))| {
                let (cpu_share, coherence_share) =
                    results[seesaw].energy.savings_split(&results[base].energy);
                Fig11Row {
                    workload: w.name,
                    cpu_share,
                    coherence_share,
                }
            })
            .collect()
    }
}

/// Renders Fig. 10.
pub fn fig10_table(rows: &[Fig10Row]) -> Table {
    let mut table = Table::new(vec!["core", "freq", "size", "avg", "min", "max"]);
    for r in rows {
        table.row(vec![
            r.core.into(),
            r.freq.into(),
            format!("{}KB", r.size_kb),
            pct(r.summary.mean),
            pct(r.summary.min),
            pct(r.summary.max),
        ]);
    }
    table
}

/// Renders Fig. 11.
pub fn fig11_table(rows: &[Fig11Row]) -> Table {
    let mut table = Table::new(vec!["workload", "CPU-side", "Coherence"]);
    for r in rows {
        table.row(vec![
            r.workload.into(),
            pct(r.cpu_share * 100.0),
            pct(r.coherence_share * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 120_000;

    #[test]
    fn seesaw_always_saves_energy() {
        for name in ["redis", "cann", "astar"] {
            let (saving, _, _) =
                energy_saving(name, 64, Frequency::F1_33, CpuKind::OutOfOrder, QUICK).unwrap();
            assert!(saving > 0.0, "{name}: saving {saving:.2}%");
        }
    }

    #[test]
    fn multithreaded_workloads_attribute_more_to_coherence() {
        // Paper Fig. 11: canneal/tunkrank attribute ≈⅓ of savings to
        // coherence; quiet SPEC workloads attribute much less.
        let coh = |name: &str| {
            energy_saving(name, 64, Frequency::F1_33, CpuKind::OutOfOrder, QUICK)
                .unwrap()
                .2
        };
        let cann = coh("cann");
        let astar = coh("astar");
        assert!(
            cann > astar,
            "canneal ({cann:.3}) must attribute more to coherence than astar ({astar:.3})"
        );
        assert!(
            cann > 0.1,
            "MT coherence share should be substantial: {cann:.3}"
        );
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let (_, cpu, coh) =
            energy_saving("tunk", 64, Frequency::F1_33, CpuKind::OutOfOrder, QUICK).unwrap();
        assert!((cpu + coh - 1.0).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&coh));
    }

    #[test]
    fn tables_render() {
        let rows = vec![Fig10Row {
            core: "OOO",
            freq: "1.33GHz",
            size_kb: 32,
            summary: Summary::of(&[10.0]),
        }];
        assert_eq!(fig10_table(&rows).len(), 1);
        let rows = vec![Fig11Row {
            workload: "cann",
            cpu_share: 0.7,
            coherence_share: 0.3,
        }];
        assert_eq!(fig11_table(&rows).len(), 1);
    }
}
