//! Ablations the paper reports in prose: the insertion-policy choice
//! (§IV-B1), the decision to skip TFT ASID tags (§IV-C3), snoopy-vs-
//! directory coherence (§VI-B), and the area-equivalent-baseline control
//! (§VI-A).

use seesaw_core::InsertionPolicy;
use seesaw_workloads::cloud_subset;

use super::sweep;
use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SimError, Table};

/// One ablation data point.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Workload name.
    pub workload: &'static str,
    /// The quantity being compared (percent; meaning depends on the
    /// ablation).
    pub value_a: f64,
    /// The comparison value.
    pub value_b: f64,
}

fn cfg64(workload: &str, instructions: u64) -> RunConfig {
    RunConfig::paper(workload)
        .l1_size(64)
        .frequency(Frequency::F1_33)
        .cpu(CpuKind::OutOfOrder)
        .design(L1DesignKind::Seesaw)
        .instructions(instructions)
}

/// Queues one cell per workload from `make` (which may queue several
/// plan cells and must return their indices) and returns the assembler
/// that maps each workload's indices to an [`AblationRow`] through `row`.
fn ablation<const N: usize>(
    plan: &mut Plan,
    make: impl Fn(&mut Plan, &'static str) -> [usize; N],
    row: impl Fn([&crate::RunResult; N]) -> (f64, f64),
) -> impl FnOnce(&PlanRun) -> Vec<AblationRow> {
    let workloads = cloud_subset();
    let cells: Vec<[usize; N]> = workloads.iter().map(|w| make(plan, w.name)).collect();
    move |results| {
        workloads
            .iter()
            .zip(cells)
            .map(|(w, indices)| {
                let (value_a, value_b) = row(indices.map(|i| &results[i]));
                AblationRow {
                    workload: w.name,
                    value_a,
                    value_b,
                }
            })
            .collect()
    }
}

/// Pushes all five ablation grids, in the `ablations` binary's order.
pub(super) fn ablations_grid(plan: &mut Plan, instructions: u64) {
    drop(insertion_grid(plan, instructions));
    drop(asid_flush_grid(plan, instructions));
    drop(snoopy_grid(plan, instructions));
    drop(area_control_grid(plan, instructions));
    drop(prefetch_grid(plan, instructions));
}

/// §IV-B1: `4way` vs `4way-8way` insertion. The paper saw "only a 1%
/// difference drop in hit rate with the 4way policy". Returns hit rates
/// (percent) as `(four_way, four_eight_way)`.
pub fn insertion_ablation(instructions: u64) -> Result<Vec<AblationRow>, SimError> {
    sweep(|plan| insertion_grid(plan, instructions))
}

fn insertion_grid(plan: &mut Plan, instructions: u64) -> impl FnOnce(&PlanRun) -> Vec<AblationRow> {
    ablation(
        plan,
        move |plan, name| {
            let four = plan.push(format!("{name}/4way"), cfg64(name, instructions));
            let mut cfg = cfg64(name, instructions);
            cfg.insertion = InsertionPolicy::FourWayEightWay;
            let four_eight = plan.push(format!("{name}/4way-8way"), cfg);
            [four, four_eight]
        },
        |[four, four_eight]| {
            (
                (1.0 - four.l1.miss_rate()) * 100.0,
                (1.0 - four_eight.l1.miss_rate()) * 100.0,
            )
        },
    )
}

/// §IV-C3: TFT flushing on context switches (the no-ASID design) versus
/// an ideal never-flushed TFT. The paper measured the flush cost at under
/// 1 % of performance. Returns cycles as `(flushing, ideal)` normalized
/// to the ideal (percent).
pub fn asid_flush_ablation(instructions: u64) -> Result<Vec<AblationRow>, SimError> {
    sweep(|plan| asid_flush_grid(plan, instructions))
}

fn asid_flush_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<AblationRow> {
    ablation(
        plan,
        move |plan, name| {
            // Aggressive switching: every 100k instructions.
            let mut flushing_cfg = cfg64(name, instructions);
            flushing_cfg.context_switch_interval = Some(100_000);
            let flushing = plan.push(format!("{name}/flushing"), flushing_cfg);
            let mut ideal_cfg = cfg64(name, instructions);
            ideal_cfg.context_switch_interval = None;
            let ideal = plan.push(format!("{name}/ideal"), ideal_cfg);
            [flushing, ideal]
        },
        |[flushing, ideal]| {
            (
                100.0 * flushing.totals.cycles as f64 / ideal.totals.cycles as f64,
                100.0,
            )
        },
    )
}

/// §VI-B: snoopy coherence amplifies probe traffic, so SEESAW's energy
/// savings grow by "an additional 2-5%" for multithreaded workloads.
/// Returns energy savings (percent) as `(directory, snoopy)`.
pub fn snoopy_ablation(instructions: u64) -> Result<Vec<AblationRow>, SimError> {
    sweep(|plan| snoopy_grid(plan, instructions))
}

fn snoopy_grid(plan: &mut Plan, instructions: u64) -> impl FnOnce(&PlanRun) -> Vec<AblationRow> {
    ablation(
        plan,
        move |plan, name| {
            let mut queue = |snoopy: bool, label: &str| {
                let mut base_cfg = cfg64(name, instructions).design(L1DesignKind::BaselineVipt);
                base_cfg.snoopy = snoopy;
                let mut seesaw_cfg = cfg64(name, instructions);
                seesaw_cfg.snoopy = snoopy;
                [
                    plan.push(format!("{name}/{label}/base"), base_cfg),
                    plan.push(format!("{name}/{label}/seesaw"), seesaw_cfg),
                ]
            };
            let [dir_base, dir_seesaw] = queue(false, "directory");
            let [snoop_base, snoop_seesaw] = queue(true, "snoopy");
            [dir_base, dir_seesaw, snoop_base, snoop_seesaw]
        },
        |[dir_base, dir_seesaw, snoop_base, snoop_seesaw]| {
            (
                dir_seesaw.energy_savings_pct(dir_base),
                snoop_seesaw.energy_savings_pct(snoop_base),
            )
        },
    )
}

/// §VI-A's control experiment: spending SEESAW's area budget (TFT +
/// partition muxes, well under 1 KB) on the baseline instead — here, as
/// extra 4 KB-TLB entries — "improved performance over the baseline by
/// less than 0.01% in all cases". Returns runtime improvement over the
/// plain baseline (percent) as `(area_equivalent_baseline, seesaw)`.
pub fn area_control(instructions: u64) -> Result<Vec<AblationRow>, SimError> {
    sweep(|plan| area_control_grid(plan, instructions))
}

fn area_control_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<AblationRow> {
    ablation(
        plan,
        move |plan, name| {
            let base_cfg = cfg64(name, instructions).design(L1DesignKind::BaselineVipt);
            let base = plan.push(format!("{name}/base"), base_cfg.clone());
            // The TFT's 86 bytes buy roughly 8 more TLB entries.
            let mut bigger_cfg = base_cfg;
            bigger_cfg.l1_tlb_4k_entries = Some(136);
            let bigger = plan.push(format!("{name}/tlb136"), bigger_cfg);
            let seesaw = plan.push(format!("{name}/seesaw"), cfg64(name, instructions));
            [base, bigger, seesaw]
        },
        |[base, bigger, seesaw]| {
            (
                bigger.runtime_improvement_pct(base),
                seesaw.runtime_improvement_pct(base),
            )
        },
    )
}

/// Robustness check: SEESAW's gains with and without an L2 stream
/// prefetcher. Prefetching attacks miss latency; SEESAW attacks hit
/// latency and lookup width, so the benefit must survive (it can shrink
/// a little: prefetching trims the miss stalls that dilute everything).
/// Returns runtime improvement (percent) as `(no_prefetch, prefetch)`.
pub fn prefetch_ablation(instructions: u64) -> Result<Vec<AblationRow>, SimError> {
    sweep(|plan| prefetch_grid(plan, instructions))
}

fn prefetch_grid(plan: &mut Plan, instructions: u64) -> impl FnOnce(&PlanRun) -> Vec<AblationRow> {
    ablation(
        plan,
        move |plan, name| {
            let mut queue = |degree: Option<usize>, label: &str| {
                let mut base_cfg = cfg64(name, instructions).design(L1DesignKind::BaselineVipt);
                base_cfg.prefetch_degree = degree;
                let mut seesaw_cfg = cfg64(name, instructions);
                seesaw_cfg.prefetch_degree = degree;
                [
                    plan.push(format!("{name}/{label}/base"), base_cfg),
                    plan.push(format!("{name}/{label}/seesaw"), seesaw_cfg),
                ]
            };
            let [np_base, np_seesaw] = queue(None, "no-prefetch");
            let [pf_base, pf_seesaw] = queue(Some(4), "prefetch4");
            [np_base, np_seesaw, pf_base, pf_seesaw]
        },
        |[np_base, np_seesaw, pf_base, pf_seesaw]| {
            (
                np_seesaw.runtime_improvement_pct(np_base),
                pf_seesaw.runtime_improvement_pct(pf_base),
            )
        },
    )
}

/// Renders ablation rows with the given column labels.
pub fn ablation_table(rows: &[AblationRow], label_a: &str, label_b: &str) -> Table {
    let mut table = Table::new(vec!["workload", label_a, label_b]);
    for r in rows {
        table.row(vec![r.workload.into(), pct(r.value_a), pct(r.value_b)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 100_000;

    #[test]
    fn four_way_insertion_costs_little_hit_rate() {
        let rows = insertion_ablation(QUICK).unwrap();
        for r in &rows {
            let delta = r.value_b - r.value_a;
            assert!(
                delta < 2.0,
                "{}: 4way hit rate {:.2}% vs 4way-8way {:.2}%",
                r.workload,
                r.value_a,
                r.value_b
            );
        }
    }

    #[test]
    fn tft_flushing_costs_under_a_percent() {
        let rows = asid_flush_ablation(QUICK).unwrap();
        for r in &rows {
            assert!(
                r.value_a < 101.0,
                "{}: flushing TFT cost {:.2}% of ideal runtime",
                r.workload,
                r.value_a
            );
        }
    }

    #[test]
    fn snoopy_increases_savings() {
        let rows = snoopy_ablation(QUICK).unwrap();
        let avg_dir: f64 = rows.iter().map(|r| r.value_a).sum::<f64>() / rows.len() as f64;
        let avg_snoop: f64 = rows.iter().map(|r| r.value_b).sum::<f64>() / rows.len() as f64;
        assert!(
            avg_snoop > avg_dir,
            "snoopy ({avg_snoop:.2}%) should beat directory ({avg_dir:.2}%)"
        );
    }

    #[test]
    fn seesaw_gains_survive_prefetching() {
        let rows = prefetch_ablation(QUICK).unwrap();
        for r in &rows {
            assert!(
                r.value_b > 0.0,
                "{}: SEESAW gain with prefetching {:.2}%",
                r.workload,
                r.value_b
            );
        }
    }

    #[test]
    fn area_equivalent_baseline_gains_almost_nothing() {
        let rows = area_control(QUICK).unwrap();
        for r in &rows {
            assert!(
                r.value_a < 1.0,
                "{}: area-equivalent baseline gained {:.3}%",
                r.workload,
                r.value_a
            );
            assert!(
                r.value_b > r.value_a,
                "{}: SEESAW ({:.2}%) must beat the area control ({:.3}%)",
                r.workload,
                r.value_b,
                r.value_a
            );
        }
    }

    #[test]
    fn table_renders() {
        let rows = vec![AblationRow {
            workload: "redis",
            value_a: 1.0,
            value_b: 2.0,
        }];
        assert!(ablation_table(&rows, "a", "b")
            .to_string()
            .contains("redis"));
    }
}
