//! Windowed telemetry: watch CPI, MPKI, TFT hit rate, walk MPKI, and
//! ways probed per access move as the workload's phases (hot-region
//! episodes) shift — the time-resolved view behind the aggregate numbers
//! of the paper's figures. Ends with the same series as CSV (the
//! machine-readable export) and a sampling of the flat metrics registry.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use seesaw_sim::{L1DesignKind, RunConfig, Sample, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = RunConfig::paper("olio")
        .l1_size(64)
        .design(L1DesignKind::Seesaw)
        .instructions(2_000_000);
    cfg.sample_interval = Some(100_000);
    let result = System::build(&cfg)?.run()?;

    println!("olio on SEESAW (64KB @ 1.33GHz), 100k-instruction windows\n");
    println!(
        "{:>12} {:>6} {:>7} {:>9} {:>9} {:>6}  CPI sparkline",
        "instrs", "CPI", "MPKI", "TFT hits", "walk/ki", "ways"
    );
    let max_cpi = result
        .samples
        .iter()
        .map(|s| s.cpi)
        .fold(f64::EPSILON, f64::max);
    for s in &result.samples {
        let bar_len = ((s.cpi / max_cpi) * 30.0).round() as usize;
        let bar: String = std::iter::repeat_n('▤', bar_len).collect();
        println!(
            "{:>12} {:>6.2} {:>7.1} {:>8.1}% {:>9.2} {:>6.2}  {bar}",
            s.instructions,
            s.cpi,
            s.mpki,
            s.tft_hit_rate * 100.0,
            s.walk_mpki,
            s.ways_per_access,
        );
    }
    println!(
        "\nrun totals: CPI {:.2}, MPKI {:.1}, TFT hit rate {:.1}%",
        result.totals.cpi(),
        result.l1_mpki,
        result.tft.hit_rate() * 100.0
    );
    println!("Watch for window-to-window movement when the generator re-seats its");
    println!("hot region and rotates an active 2MB region (cold misses + TFT churn).");

    println!("\nThe same series as CSV (first 3 rows):");
    for line in Sample::csv(&result.samples).lines().take(4) {
        println!("  {line}");
    }

    println!(
        "\nA few keys from the run's flat metrics registry ({} total):",
        result.metrics.len()
    );
    for key in [
        "cpu.cycles",
        "l1.misses",
        "tlb.walker.walks",
        "tlb.walk_latency.p95",
        "tft.hit_rate",
        "energy.total_nj",
    ] {
        if let Some(v) = result.metrics.get(key) {
            println!("  {key} = {v}");
        }
    }
    Ok(())
}
