//! §IV-C2 in action: the OS splinters superpages and promotes base pages
//! while SEESAW runs. The TFT invalidations (piggybacked on `invlpg`) and
//! the promotion-time L1 sweeps keep everything correct; this example
//! measures how little the churn costs.
//!
//! ```sh
//! cargo run --release --example page_table_churn
//! ```

use seesaw_sim::{L1DesignKind, RunConfig, System, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(vec![
        "page ops",
        "cycles",
        "slowdown",
        "TFT invalidations",
        "L1 sweeps",
        "swept lines",
    ]);

    let quiet_cycles = run(None)?.0;
    for interval in [None, Some(200_000u64), Some(50_000), Some(10_000)] {
        let (cycles, invalidations, sweeps, swept) = run(interval)?;
        let label = match interval {
            None => "none".to_string(),
            Some(i) => format!("every {}k", i / 1000),
        };
        table.row(vec![
            label,
            cycles.to_string(),
            format!(
                "{:+.2}%",
                100.0 * (cycles as f64 / quiet_cycles as f64 - 1.0)
            ),
            invalidations.to_string(),
            sweeps.to_string(),
            swept.to_string(),
        ]);
    }

    println!("redis on SEESAW (64KB @ 1.33GHz) under page-table churn\n");
    println!("{table}");
    println!("Note the intervals: even \"every 200k instructions\" is thousands of");
    println!("times more frequent than real khugepaged scans — chosen so the cost");
    println!("is visible at all in a short run. Most of the slowdown is time spent");
    println!("running with the hot region *splintered* (base-page lookups, 512 4KB");
    println!("TLB entries instead of one); the invalidation machinery itself — TFT");
    println!("invalidations riding invlpg, sweeps hiding in the 150-200-cycle");
    println!("shootdown window — costs nearly nothing, which is the paper's point.");
    Ok(())
}

fn run(page_op_interval: Option<u64>) -> Result<(u64, u64, u64, u64), Box<dyn std::error::Error>> {
    let mut cfg = RunConfig::paper("redis")
        .l1_size(64)
        .design(L1DesignKind::Seesaw)
        .instructions(800_000);
    cfg.page_op_interval = page_op_interval;
    let r = System::build(&cfg)?.run()?;
    Ok((
        r.totals.cycles,
        r.tft.invalidations,
        r.seesaw.sweeps,
        r.seesaw.swept_lines,
    ))
}
