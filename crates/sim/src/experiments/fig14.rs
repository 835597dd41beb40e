//! Fig. 14: scaling large L1s — SEESAW versus the other ways to rescue a
//! 128 KB VIPT cache's unacceptable latency (PIPT with lower
//! associativity, smaller/faster TLBs).

use seesaw_workloads::catalog;

use super::sweep;
use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::stats::Summary;
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SimError, Table};

/// One frequency's comparison: SEESAW versus the best alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Frequency label.
    pub freq: &'static str,
    /// Runtime improvement of SEESAW over the 128 KB VIPT baseline
    /// (avg/min/max over workloads).
    pub seesaw_perf: Summary,
    /// Runtime improvement of the best alternative design.
    pub others_perf: Summary,
    /// Energy savings of SEESAW.
    pub seesaw_energy: Summary,
    /// Energy savings of the best alternative.
    pub others_energy: Summary,
    /// Which alternative won ("pipt-4w", "pipt-8w/tlb64", …).
    pub best_other: String,
}

/// The alternative design points swept: PIPT associativities crossed with
/// full-size or halved 4 KB L1 TLBs (shrinking the TLB is how real PIPT
/// designs recover lookup latency, at the cost of TLB hit rate).
fn alternatives() -> Vec<(String, L1DesignKind, Option<usize>)> {
    let mut alts = Vec::new();
    for ways in [2usize, 4, 8] {
        alts.push((format!("pipt-{ways}w"), L1DesignKind::Pipt { ways }, None));
        alts.push((
            format!("pipt-{ways}w/tlb64"),
            L1DesignKind::Pipt { ways },
            Some(64),
        ));
    }
    alts
}

/// Runs the design-space comparison at 128 KB across the three clocks.
/// The whole panel — every frequency's baseline, SEESAW, and alternative
/// cells — is one plan; the best-alternative selection happens on the
/// collected results.
pub fn fig14(instructions: u64) -> Result<Vec<Fig14Row>, SimError> {
    sweep(|plan| fig14_grid(plan, instructions))
}

pub(super) fn fig14_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<Fig14Row> {
    let workloads = catalog();
    // Per frequency: baseline indices, SEESAW indices, and per-alternative
    // indices, one per workload.
    let mut cells = Vec::new();
    for freq in Frequency::ALL {
        let base_of = |w: &str| {
            RunConfig::paper(w)
                .l1_size(128)
                .frequency(freq)
                .cpu(CpuKind::OutOfOrder)
                .instructions(instructions)
        };
        let baselines: Vec<usize> = workloads
            .iter()
            .map(|w| plan.push(format!("{}/base", w.name), base_of(w.name)))
            .collect();
        let mut queue = |design: L1DesignKind, tlb: Option<usize>, label: &str| -> Vec<usize> {
            workloads
                .iter()
                .map(|w| {
                    let mut cfg = base_of(w.name).design(design);
                    cfg.l1_tlb_4k_entries = tlb;
                    plan.push(format!("{}/{label}", w.name), cfg)
                })
                .collect()
        };
        let seesaw = queue(L1DesignKind::Seesaw, None, "seesaw");
        let alts: Vec<(String, Vec<usize>)> = alternatives()
            .into_iter()
            .map(|(name, design, tlb)| {
                let indices = queue(design, tlb, &name);
                (name, indices)
            })
            .collect();
        cells.push((freq, baselines, seesaw, alts));
    }
    move |results| {
        let mut rows = Vec::new();
        for (freq, baselines, seesaw, alts) in cells {
            let eval = |indices: &[usize]| -> (Vec<f64>, Vec<f64>) {
                indices
                    .iter()
                    .zip(&baselines)
                    .map(|(&i, &b)| {
                        (
                            results[i].runtime_improvement_pct(&results[b]),
                            results[i].energy_savings_pct(&results[b]),
                        )
                    })
                    .unzip()
            };
            let (seesaw_perf, seesaw_energy) = eval(&seesaw);
            let mut best: Option<(String, Vec<f64>, Vec<f64>)> = None;
            for (name, indices) in alts {
                let (perf, energy) = eval(&indices);
                let mean = perf.iter().sum::<f64>() / perf.len() as f64;
                let better = best
                    .as_ref()
                    .map(|(_, p, _)| mean > p.iter().sum::<f64>() / p.len() as f64)
                    .unwrap_or(true);
                if better {
                    best = Some((name, perf, energy));
                }
            }
            let (best_other, others_perf, others_energy) = best.expect("non-empty alternatives");
            rows.push(Fig14Row {
                freq: freq.label(),
                seesaw_perf: Summary::of(&seesaw_perf),
                others_perf: Summary::of(&others_perf),
                seesaw_energy: Summary::of(&seesaw_energy),
                others_energy: Summary::of(&others_energy),
                best_other,
            });
        }
        rows
    }
}

/// Renders the rows.
pub fn fig14_table(rows: &[Fig14Row]) -> Table {
    let mut table = Table::new(vec![
        "freq",
        "SEESAW perf",
        "Others perf",
        "SEESAW energy",
        "Others energy",
        "best other",
    ]);
    for r in rows {
        table.row(vec![
            r.freq.into(),
            pct(r.seesaw_perf.mean),
            pct(r.others_perf.mean),
            pct(r.seesaw_energy.mean),
            pct(r.others_energy.mean),
            r.best_other.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;

    #[test]
    fn seesaw_beats_a_pipt_alternative_at_128kb() {
        // One workload, one alternative — the full panel runs in the
        // binary. SEESAW keeps the 32-way hit rate AND fast hits; PIPT
        // gives up associativity and serializes the TLB.
        let base_cfg = RunConfig::quick("olio").l1_size(128);
        let base = System::build(&base_cfg).unwrap().run().unwrap();
        let seesaw = System::build(&base_cfg.clone().design(L1DesignKind::Seesaw))
            .unwrap()
            .run()
            .unwrap();
        let pipt = System::build(&base_cfg.clone().design(L1DesignKind::Pipt { ways: 4 }))
            .unwrap()
            .run()
            .unwrap();
        let s = seesaw.runtime_improvement_pct(&base);
        let p = pipt.runtime_improvement_pct(&base);
        assert!(
            s > p,
            "SEESAW ({s:.2}%) must beat the PIPT alternative ({p:.2}%)"
        );
    }

    #[test]
    fn alternatives_list_is_nontrivial() {
        assert!(alternatives().len() >= 4);
    }

    #[test]
    fn table_renders() {
        let rows = vec![Fig14Row {
            freq: "1.33GHz",
            seesaw_perf: Summary::of(&[10.0]),
            others_perf: Summary::of(&[5.0]),
            seesaw_energy: Summary::of(&[12.0]),
            others_energy: Summary::of(&[6.0]),
            best_other: "pipt-4w".into(),
        }];
        assert!(fig14_table(&rows).to_string().contains("pipt-4w"));
    }
}
