//! Design-space walk: every L1 design this library implements, on one
//! workload at the paper's most stressed geometry (128 KB, where baseline
//! VIPT needs 32 ways and 14 cycles at 1.33 GHz) — the Fig. 14/15 story
//! in one table.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use seesaw_sim::{Frequency, L1DesignKind, RunConfig, System, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let designs: [(&str, L1DesignKind); 8] = [
        ("baseline VIPT 32-way", L1DesignKind::BaselineVipt),
        (
            "VIPT + way prediction",
            L1DesignKind::BaselineWithWayPrediction,
        ),
        ("PIPT 2-way", L1DesignKind::Pipt { ways: 2 }),
        ("PIPT 4-way", L1DesignKind::Pipt { ways: 4 }),
        ("PIPT 8-way", L1DesignKind::Pipt { ways: 8 }),
        ("VIVT 8-way (synonym hw)", L1DesignKind::Vivt { ways: 8 }),
        ("SEESAW", L1DesignKind::Seesaw),
        (
            "SEESAW + way prediction",
            L1DesignKind::SeesawWithWayPrediction,
        ),
    ];

    let base_cfg = RunConfig::paper("mongo")
        .l1_size(128)
        .frequency(Frequency::F1_33)
        .instructions(600_000);
    let baseline = System::build(&base_cfg)?.run()?;

    let mut table = Table::new(vec![
        "design",
        "cycles",
        "vs baseline",
        "energy (µJ)",
        "vs baseline",
        "L1 MPKI",
    ]);
    for (name, design) in designs {
        let result = if design == L1DesignKind::BaselineVipt {
            baseline.clone()
        } else {
            System::build(&base_cfg.clone().design(design))?.run()?
        };
        table.row(vec![
            name.into(),
            result.totals.cycles.to_string(),
            format!("{:+.2}%", result.runtime_improvement_pct(&baseline)),
            format!("{:.1}", result.energy.total_nj() / 1000.0),
            format!("{:+.2}%", result.energy_savings_pct(&baseline)),
            format!("{:.1}", result.l1_mpki),
        ]);
    }

    println!("mongo, 128KB L1 @ 1.33GHz, out-of-order core\n");
    println!("{table}");
    println!("PIPT recovers latency by giving up associativity (hit rate) and");
    println!("serializing the TLB; SEESAW keeps the 32-way capacity and still");
    println!("gets 2-cycle superpage hits — the balance Fig. 14 credits it for.");
    println!("VIVT looks strong here because our traces contain no synonym abuse;");
    println!("the paper rejects it on synonym/coherence complexity, not raw speed.");
    Ok(())
}
