//! The competing-design lab: every L1 design the simulator models,
//! head-to-head on one workload under identical conditions.
//!
//! Where the paper's figures each isolate one comparison (baseline vs
//! SEESAW, WP vs WP+SEESAW, PIPT points), this driver lines up the
//! whole design space — conventional VIPT, SEESAW with and without MRU
//! way prediction, VESPA's TFT-free always-fast lookup, and a
//! Zen2-style µtag predictor on the baseline — and reports the three
//! quantities a design review actually argues about: MPKI, energy, and
//! measured average hit latency.

use super::sweep;
use crate::report::{num, pct};
use crate::runner::{Plan, PlanRun};
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, RunResult, SimError, Table};

/// The head-to-head roster: the paper's designs plus the alternatives
/// from related work, with their display names. The baseline comes
/// first; every relative column in [`DesignRow`] is measured against it.
pub const DESIGN_LAB: [(&str, L1DesignKind); 5] = [
    ("baseline", L1DesignKind::BaselineVipt),
    ("seesaw", L1DesignKind::Seesaw),
    ("seesaw+mru", L1DesignKind::SeesawWithWayPrediction),
    ("vespa", L1DesignKind::Vespa),
    ("baseline+utag", L1DesignKind::BaselineMicroTag),
];

/// Every design kind the simulator can build, for exhaustive smoke
/// coverage (`scripts/check.sh designs_smoke`): [`DESIGN_LAB`] plus the
/// variants the head-to-head leaves out.
pub fn all_design_kinds() -> Vec<(&'static str, L1DesignKind)> {
    let mut kinds: Vec<(&str, L1DesignKind)> = DESIGN_LAB.to_vec();
    kinds.push(("baseline+mru", L1DesignKind::BaselineWithWayPrediction));
    kinds.push(("pipt8", L1DesignKind::Pipt { ways: 8 }));
    kinds.push(("vivt8", L1DesignKind::Vivt { ways: 8 }));
    kinds
}

/// One design's scorecard against the shared baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRow {
    /// Display name from [`DESIGN_LAB`].
    pub design: &'static str,
    /// L1 misses per kilo-instruction.
    pub mpki: f64,
    /// Runtime improvement over the baseline (positive = faster; zero
    /// for the baseline row itself).
    pub perf: f64,
    /// Memory-hierarchy energy savings over the baseline.
    pub energy: f64,
    /// Measured mean load-to-use latency over L1 hits, in cycles
    /// (`l1.avg_hit_latency_cycles`).
    pub hit_latency: f64,
    /// Mean ways probed per demand access (the dynamic-energy driver).
    pub ways_per_access: f64,
    /// Way-predictor accuracy, for the designs that carry one.
    pub wp_accuracy: Option<f64>,
}

/// Runs the whole [`DESIGN_LAB`] roster on one workload (64 KB L1 at
/// 1.33 GHz on the out-of-order core, Fig. 15's conditions) in a single
/// plan and scores every design against the shared baseline.
pub fn designs(workload: &'static str, instructions: u64) -> Result<Vec<DesignRow>, SimError> {
    sweep(|plan| designs_grid(plan, workload, instructions))
}

pub(super) fn designs_grid(
    plan: &mut Plan,
    workload: &'static str,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<DesignRow> {
    let base_cfg = RunConfig::paper(workload)
        .l1_size(64)
        .frequency(Frequency::F1_33)
        .cpu(CpuKind::OutOfOrder)
        .instructions(instructions);
    let cells: Vec<usize> = DESIGN_LAB
        .iter()
        .map(|(name, kind)| plan.push(format!("{workload}/{name}"), base_cfg.clone().design(*kind)))
        .collect();
    move |results| {
        let base = &results[cells[0]];
        DESIGN_LAB
            .iter()
            .zip(cells.iter())
            .map(|((name, _), &cell)| {
                let r = &results[cell];
                DesignRow {
                    design: name,
                    mpki: r.l1_mpki,
                    perf: r.runtime_improvement_pct(base),
                    energy: r.energy_savings_pct(base),
                    hit_latency: r
                        .metrics
                        .get_f64("l1.avg_hit_latency_cycles")
                        .unwrap_or(0.0),
                    ways_per_access: {
                        let accesses = r.l1.hits + r.l1.misses;
                        if accesses == 0 {
                            0.0
                        } else {
                            r.l1.ways_probed as f64 / accesses as f64
                        }
                    },
                    wp_accuracy: r.way_prediction_accuracy,
                }
            })
            .collect()
    }
}

/// Renders the rows.
pub fn designs_table(rows: &[DesignRow]) -> Table {
    let mut table = Table::new(vec![
        "design",
        "MPKI",
        "perf vs base",
        "energy vs base",
        "hit latency (cyc)",
        "ways/access",
        "WP accuracy",
    ]);
    for r in rows {
        table.row(vec![
            r.design.into(),
            num(r.mpki),
            pct(r.perf),
            pct(r.energy),
            num(r.hit_latency),
            num(r.ways_per_access),
            r.wp_accuracy.map_or_else(|| "-".into(), |a| pct(a * 100.0)),
        ]);
    }
    table
}

/// A stable digest of one run's architecturally visible outcome, for
/// the determinism smoke: the same configuration must fingerprint
/// identically across processes, and distinct designs must not collide
/// (they make different timing and probe decisions on the same
/// stream). FNV-1a over the counters that define the run.
pub fn design_fingerprint(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(r.totals.instructions);
    mix(r.totals.cycles);
    mix(r.l1.hits);
    mix(r.l1.misses);
    mix(r.l1.ways_probed);
    mix(r.walks);
    mix(r.energy.total_nj().to_bits());
    mix(r
        .metrics
        .get_f64("l1.avg_hit_latency_cycles")
        .unwrap_or(0.0)
        .to_bits());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;

    fn quick(kind: L1DesignKind) -> RunResult {
        let cfg = RunConfig::quick("redis").design(kind);
        System::build(&cfg).unwrap().run().unwrap()
    }

    #[test]
    fn lab_covers_the_required_roster() {
        let names: Vec<&str> = DESIGN_LAB.iter().map(|(n, _)| *n).collect();
        for required in ["baseline", "seesaw", "seesaw+mru", "vespa", "baseline+utag"] {
            assert!(names.contains(&required), "missing {required}");
        }
        assert!(all_design_kinds().len() > DESIGN_LAB.len());
    }

    #[test]
    fn head_to_head_scores_every_design() {
        let rows = designs("redis", 120_000).unwrap();
        assert_eq!(rows.len(), DESIGN_LAB.len());
        let base = &rows[0];
        assert_eq!(base.perf, 0.0);
        assert_eq!(base.energy, 0.0);
        for r in &rows {
            assert!(r.mpki >= 0.0, "{}: mpki {}", r.design, r.mpki);
            assert!(
                r.hit_latency > 0.0,
                "{}: hit latency {}",
                r.design,
                r.hit_latency
            );
            assert!(
                r.ways_per_access > 0.0,
                "{}: ways/access {}",
                r.design,
                r.ways_per_access
            );
        }
        // The predictors carry accuracies; the plain designs do not.
        let by_name = |n: &str| rows.iter().find(|r| r.design == n).unwrap();
        assert!(by_name("seesaw+mru").wp_accuracy.is_some());
        assert!(by_name("baseline+utag").wp_accuracy.is_some());
        assert!(by_name("baseline").wp_accuracy.is_none());
        assert!(by_name("vespa").wp_accuracy.is_none());
        // A µtag mispredict costs a second round, so its mean hit
        // latency cannot undercut the always-full-probe baseline.
        assert!(by_name("baseline+utag").hit_latency >= by_name("baseline").hit_latency - 1e-9);
        assert!(designs_table(&rows).to_string().contains("vespa"));
    }

    #[test]
    fn fingerprints_are_stable_and_design_sensitive() {
        let a = design_fingerprint(&quick(L1DesignKind::Vespa));
        let b = design_fingerprint(&quick(L1DesignKind::Vespa));
        assert_eq!(a, b, "same design + config must fingerprint identically");
        let c = design_fingerprint(&quick(L1DesignKind::BaselineMicroTag));
        assert_ne!(a, c, "distinct designs must not collide");
    }
}
