//! §IV-B3 ablation: the scheduler's hit-time assumption policy under a
//! range of squash costs and fragmentation levels.
//!
//! The paper motivates two mechanisms: speculatively assuming the *fast*
//! hit time (so superpage hits actually shorten the critical path), and
//! an occupancy counter on the superpage TLB that flips to the *slow*
//! assumption when superpages are scarce (so base-page-heavy phases don't
//! squash constantly). This experiment makes both effects visible: it
//! sweeps the squash cost (modelling deeper speculative wakeup) and the
//! memhog pressure (controlling how many base pages the workload sees),
//! for the three policies.

use super::sweep;
use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SchedulerHintPolicy, SimError, Table};

/// One cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerRow {
    /// Hit-time policy.
    pub policy: SchedulerHintPolicy,
    /// Cycles a hit-time mis-assumption costs.
    pub squash_cycles: u64,
    /// memhog pressure (percent).
    pub memhog: u32,
    /// Runtime improvement over the baseline VIPT design.
    pub improvement_pct: f64,
}

/// Squash costs swept (0 = the paper's quarter-cycle TFT re-schedule;
/// larger values model schedulers that wake dependents earlier).
pub const SQUASH_COSTS: [u64; 3] = [0, 4, 12];

/// Fragmentation levels swept.
pub const MEMHOG_LEVELS: [u32; 2] = [0, 60];

/// Runs the sweep on one representative workload (redis, 64 KB,
/// out-of-order at 1.33 GHz). One baseline cell per memhog level serves
/// every policy × squash cell — the baseline is hoisted out of the inner
/// loops entirely and shared through the plan.
pub fn scheduler_ablation(instructions: u64) -> Result<Vec<SchedulerRow>, SimError> {
    sweep(|plan| scheduler_grid(plan, instructions))
}

pub(super) fn scheduler_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<SchedulerRow> {
    let mut cells = Vec::new();
    for &memhog in &MEMHOG_LEVELS {
        let base_cfg = RunConfig::paper("redis")
            .l1_size(64)
            .frequency(Frequency::F1_33)
            .cpu(CpuKind::OutOfOrder)
            .memhog(memhog)
            .instructions(instructions);
        let baseline = plan.push(format!("redis/mh{memhog}/base"), base_cfg.clone());
        for policy in [
            SchedulerHintPolicy::Occupancy,
            SchedulerHintPolicy::AlwaysFast,
            SchedulerHintPolicy::AlwaysSlow,
        ] {
            for &squash_cycles in &SQUASH_COSTS {
                let mut cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
                cfg.scheduler_hint = policy;
                cfg.hit_time_squash_cycles = squash_cycles;
                let idx = plan.push(
                    format!("redis/mh{memhog}/{policy:?}/sq{squash_cycles}"),
                    cfg,
                );
                cells.push((policy, squash_cycles, memhog, baseline, idx));
            }
        }
    }
    move |results| {
        cells
            .into_iter()
            .map(
                |(policy, squash_cycles, memhog, baseline, idx)| SchedulerRow {
                    policy,
                    squash_cycles,
                    memhog,
                    improvement_pct: results[idx].runtime_improvement_pct(&results[baseline]),
                },
            )
            .collect()
    }
}

/// Renders the sweep.
pub fn scheduler_table(rows: &[SchedulerRow]) -> Table {
    let mut table = Table::new(vec!["memhog", "policy", "squash", "improvement"]);
    for r in rows {
        table.row(vec![
            format!("mh{}", r.memhog),
            format!("{:?}", r.policy),
            format!("{} cyc", r.squash_cycles),
            pct(r.improvement_pct),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;

    fn improvement(policy: SchedulerHintPolicy, squash: u64, memhog: u32) -> f64 {
        let base_cfg = RunConfig::quick("redis").l1_size(64).memhog(memhog);
        let baseline = System::build(&base_cfg).unwrap().run().unwrap();
        let mut cfg = base_cfg.design(L1DesignKind::Seesaw);
        cfg.scheduler_hint = policy;
        cfg.hit_time_squash_cycles = squash;
        System::build(&cfg)
            .unwrap()
            .run()
            .unwrap()
            .runtime_improvement_pct(&baseline)
    }

    #[test]
    fn always_slow_still_wins_but_less_than_fast() {
        // Slow assumption forfeits the latency benefit of fast hits; the
        // remaining gains come from fewer squashes and (in energy) narrow
        // lookups. Fast must beat Slow when superpages are plentiful.
        let fast = improvement(SchedulerHintPolicy::AlwaysFast, 0, 0);
        let slow = improvement(SchedulerHintPolicy::AlwaysSlow, 0, 0);
        assert!(
            fast > slow,
            "fast assumption ({fast:.2}%) must beat slow ({slow:.2}%) with ample superpages"
        );
    }

    #[test]
    fn occupancy_policy_tracks_the_better_static_choice() {
        // With ample superpages the occupancy counter stays in Fast mode,
        // so it should match AlwaysFast closely.
        let occupancy = improvement(SchedulerHintPolicy::Occupancy, 4, 0);
        let fast = improvement(SchedulerHintPolicy::AlwaysFast, 4, 0);
        assert!(
            (occupancy - fast).abs() < 2.0,
            "occupancy ({occupancy:.2}%) should track fast ({fast:.2}%) when superpages abound"
        );
    }

    #[test]
    fn expensive_squashes_hurt_always_fast_under_fragmentation() {
        // At heavy fragmentation with a costly squash, AlwaysFast pays for
        // every base-page hit; a 12-cycle penalty must show as a loss
        // versus the free-squash configuration.
        let cheap = improvement(SchedulerHintPolicy::AlwaysFast, 0, 80);
        let costly = improvement(SchedulerHintPolicy::AlwaysFast, 12, 80);
        assert!(
            costly < cheap,
            "12-cycle squashes ({costly:.2}%) must cost vs free ({cheap:.2}%)"
        );
    }
}
