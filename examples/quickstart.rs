//! Quickstart: run one workload on a baseline VIPT L1 and on SEESAW, and
//! compare runtime and memory-hierarchy energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seesaw_sim::{CpuKind, Frequency, L1DesignKind, RunConfig, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64 KB L1 on an out-of-order core at 1.33 GHz, running the redis
    // workload with unfragmented memory.
    let config = RunConfig::paper("redis")
        .l1_size(64)
        .frequency(Frequency::F1_33)
        .cpu(CpuKind::OutOfOrder)
        .instructions(1_000_000);

    println!("building baseline VIPT system (16-way, full-set lookups)…");
    let baseline = System::build(&config)?.run()?;
    println!("building SEESAW system (four 4-way partitions + 16-entry TFT)…");
    let seesaw = System::build(&config.clone().design(L1DesignKind::Seesaw))?.run()?;

    println!();
    println!("workload: redis, 64KB L1, OoO @ 1.33GHz");
    println!(
        "superpage coverage:      {:.1}% of footprint",
        seesaw.superpage_coverage * 100.0
    );
    println!(
        "superpage references:    {:.1}% of accesses",
        seesaw.superpage_ref_fraction * 100.0
    );
    println!(
        "TFT hit rate:            {:.1}%",
        seesaw.tft.hit_rate() * 100.0
    );
    println!();
    println!(
        "baseline: {:>12} cycles   {:>10.1} µJ",
        baseline.totals.cycles,
        baseline.energy.total_nj() / 1000.0
    );
    println!(
        "SEESAW:   {:>12} cycles   {:>10.1} µJ",
        seesaw.totals.cycles,
        seesaw.energy.total_nj() / 1000.0
    );
    println!();
    println!(
        "runtime improvement:     {:.2}%",
        seesaw.runtime_improvement_pct(&baseline)
    );
    println!(
        "energy savings:          {:.2}%",
        seesaw.energy_savings_pct(&baseline)
    );
    println!();
    println!("energy breakdown (baseline → SEESAW, µJ):");
    let (b, s) = (&baseline.energy, &seesaw.energy);
    for (label, lhs, rhs) in [
        ("L1 CPU lookups", b.l1_cpu_nj, s.l1_cpu_nj),
        ("L1 coherence", b.l1_coherence_nj, s.l1_coherence_nj),
        ("L1 fills", b.l1_fill_nj, s.l1_fill_nj),
        ("translation", b.translation_nj, s.translation_nj),
        ("TFT", b.tft_nj, s.tft_nj),
        ("L2 + LLC", b.outer_cache_nj, s.outer_cache_nj),
        ("DRAM", b.dram_nj, s.dram_nj),
        ("leakage", b.leakage_nj, s.leakage_nj),
    ] {
        println!(
            "  {label:<16} {:>8.1} → {:>8.1}",
            lhs / 1000.0,
            rhs / 1000.0
        );
    }
    Ok(())
}
