//! Output checks: every timed cell's result must match the committed
//! expectation at the default seed, and must satisfy invariants that
//! hold at any seed.

use std::collections::HashMap;

use seesaw_sim::experiments::design_fingerprint;
use seesaw_sim::{L1DesignKind, RunResult};

use crate::cells::{Cell, Workload, DEFAULT_SEED};
use crate::expected;

/// Expected `design_fingerprint` per cell label.
#[derive(Debug, Clone, Default)]
pub struct Expectations {
    fingerprints: HashMap<String, u64>,
}

impl Expectations {
    /// The committed expectations of `workload` when `seed` is the
    /// default seed; none otherwise (only the invariants apply then).
    pub fn for_run(workload: Workload, seed: u64) -> Expectations {
        let fingerprints = if seed == DEFAULT_SEED {
            expected::fingerprints(workload)
                .iter()
                .map(|&(label, fp)| (label.to_string(), fp))
                .collect()
        } else {
            HashMap::new()
        };
        Expectations { fingerprints }
    }

    /// Expectations taken from results, keyed by their cells' labels.
    #[cfg(test)]
    pub fn from_results<'a>(pairs: impl IntoIterator<Item = (&'a Cell, &'a RunResult)>) -> Self {
        Expectations {
            fingerprints: pairs
                .into_iter()
                .map(|(cell, r)| (cell.label.clone(), design_fingerprint(r)))
                .collect(),
        }
    }

    /// Replaces one cell's expected fingerprint.
    #[cfg(test)]
    pub fn set(&mut self, label: &str, fingerprint: u64) {
        self.fingerprints.insert(label.to_string(), fingerprint);
    }

    /// Checks one cell's result; the error names the first broken rule.
    pub fn check(&self, cell: &Cell, r: &RunResult) -> Result<(), String> {
        let cfg = &cell.config;
        let floor = cfg.instructions * cfg.cores.max(1) as u64;
        if r.totals.instructions < floor {
            return Err(format!(
                "measured {} instructions, budget x cores is {floor}",
                r.totals.instructions
            ));
        }
        if cfg.checker {
            let summary = r.checker.ok_or("checker enabled but no summary")?;
            let violations = summary.violations.total();
            if violations != 0 {
                return Err(format!("{violations} checker violations"));
            }
        }
        if matches!(
            cfg.design,
            L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction
        ) {
            let s = &r.seesaw;
            let cases = s.super_tft_hit_cache_hit
                + s.super_tft_hit_cache_miss
                + s.super_tft_miss
                + s.base_page;
            let demand = r.l1.hits + r.l1.misses;
            if cases != demand {
                return Err(format!(
                    "Table I cases sum to {cases}, demand L1 accesses are {demand}"
                ));
            }
        }
        if let Some(c) = r.coherence {
            let width = crate::ledger::probe_ways(cfg) as u64;
            if c.probe_ways != c.probes_delivered * width {
                return Err(format!(
                    "directory probed {} ways in {} deliveries, expected {width} ways each",
                    c.probe_ways, c.probes_delivered
                ));
            }
        }
        if let Some(&want) = self.fingerprints.get(&cell.label) {
            let got = design_fingerprint(r);
            if got != want {
                return Err(format!("fingerprint {got:#018x}, expected {want:#018x}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::cells;
    use seesaw_sim::System;

    /// A few short multi-design cells: enough to tell cells apart,
    /// quick enough for a unit test.
    fn sample() -> Vec<(Cell, RunResult)> {
        cells(Workload::Sweep1Core, DEFAULT_SEED)
            .into_iter()
            .filter(|c| c.label.starts_with("sweep_1core/astar/"))
            .map(|mut c| {
                c.config = c.config.instructions(20_000);
                let r = System::build(&c.config).expect("build").run().expect("run");
                (c, r)
            })
            .collect()
    }

    #[test]
    fn a_perturbed_expectation_fails_exactly_its_cell() {
        let runs = sample();
        assert_eq!(runs.len(), 5);
        let mut expect = Expectations::from_results(runs.iter().map(|(c, r)| (c, r)));
        for (cell, r) in &runs {
            assert_eq!(expect.check(cell, r), Ok(()), "{}", cell.label);
        }
        let victim = &runs[3].0.label;
        let fp = design_fingerprint(&runs[3].1);
        expect.set(victim, fp ^ 1);
        let failed: Vec<&str> = runs
            .iter()
            .filter(|(c, r)| expect.check(c, r).is_err())
            .map(|(c, _)| c.label.as_str())
            .collect();
        assert_eq!(failed, vec![victim.as_str()]);
    }

    #[test]
    fn a_short_run_fails_the_budget_invariant() {
        let (mut cell, r) = sample().swap_remove(0);
        cell.config = cell.config.instructions(r.totals.instructions + 1);
        let err = Expectations::default().check(&cell, &r).expect_err("short");
        assert!(err.contains("budget x cores"), "{err}");
    }

    #[test]
    fn directory_probes_are_held_to_the_designs_probe_width() {
        let cell = cells(Workload::MulticoreCoherence, DEFAULT_SEED)
            .into_iter()
            .find(|c| c.design == "seesaw" && c.label.contains("/directory/"))
            .expect("a SEESAW directory cell");
        assert_eq!(crate::ledger::probe_ways(&cell.config), 4);
        let short = cell.config.clone().instructions(5_000).warmup(1_000);
        let mut r = System::build(&short).expect("build").run().expect("run");
        let mut cell = cell;
        cell.config = short;
        let c = r.coherence.expect("a directory");
        assert!(c.probes_delivered > 0);
        assert_eq!(Expectations::default().check(&cell, &r), Ok(()));
        r.coherence = Some(seesaw_coherence::CoherenceStats {
            probe_ways: c.probe_ways + c.probes_delivered,
            ..c
        });
        let err = Expectations::default()
            .check(&cell, &r)
            .expect_err("too wide");
        assert!(err.contains("expected 4 ways each"), "{err}");
    }

    #[test]
    fn committed_expectations_cover_every_default_seed_cell() {
        for workload in Workload::ALL {
            let expect = Expectations::for_run(workload, DEFAULT_SEED);
            for cell in cells(workload, DEFAULT_SEED) {
                assert!(
                    expect.fingerprints.contains_key(&cell.label),
                    "{} has no expectation",
                    cell.label
                );
            }
            assert!(Expectations::for_run(workload, 1).fingerprints.is_empty());
        }
    }
}
