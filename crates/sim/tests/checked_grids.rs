//! Every cell the paper's figures come from, audited: each of the 14
//! distributable grids (`plan_cells`) runs at 100,000 instructions with
//! the differential shadow checker in lockstep. That covers the
//! fragmentation, PIPT, VESPA, µtag and 4-core snoopy cells the figures
//! are computed from, not just test-picked configurations. No cell may
//! fail and no checker may report a violation.

use seesaw_sim::experiments::{plan_cells, plan_names};
use seesaw_sim::Plan;

#[test]
fn every_grid_cell_runs_clean_under_the_checker() {
    let mut plan = Plan::new().without_store();
    for name in plan_names() {
        for (label, cfg) in plan_cells(name, 100_000).expect("registered") {
            plan.push(format!("{name} {label}"), cfg.with_checker());
        }
    }
    let cells = plan.len();
    let outcomes = plan.run_each().outcomes;
    assert_eq!(outcomes.len(), cells);
    let mut checked_loads = 0;
    let mut bad = Vec::new();
    for outcome in &outcomes {
        match outcome {
            Ok(result) => {
                let summary = result.checker.expect("the checker ran");
                checked_loads += summary.loads_checked;
                if summary.violations.total() > 0 {
                    bad.push(format!("{:?}", summary.violations));
                }
            }
            Err(e) => bad.push(e.to_string()),
        }
    }
    assert!(bad.is_empty(), "{} of {cells} cells: {bad:#?}", bad.len());
    assert!(checked_loads > 0);
}
