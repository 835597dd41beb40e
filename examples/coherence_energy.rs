//! Coherence deep-dive: drive the multi-core MOESI directory substrate
//! directly, then compare directory and snoopy probe costs on the full
//! system — the machinery behind the paper's §IV-C1 and Fig. 11.
//!
//! ```sh
//! cargo run --release --example coherence_energy
//! ```

use seesaw_cache::{CacheConfig, IndexPolicy};
use seesaw_coherence::{CoherenceMode, DirectoryController};
use seesaw_sim::{L1DesignKind, RunConfig, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the protocol substrate. Four cores share 64 lines under a
    // producer/consumer pattern; compare probe counts between directory
    // and snoopy delivery, and between 8-way (baseline) and 4-way
    // (SEESAW) probe widths.
    println!("== MOESI substrate: 4 cores, producer/consumer sharing ==\n");
    let l1 = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
    for (label, mode, probe_ways) in [
        (
            "directory, 8-way probes (baseline VIPT)",
            CoherenceMode::Directory,
            8,
        ),
        (
            "directory, 4-way probes (SEESAW)",
            CoherenceMode::Directory,
            4,
        ),
        (
            "snoopy,    8-way probes (baseline VIPT)",
            CoherenceMode::Snoopy,
            8,
        ),
        ("snoopy,    4-way probes (SEESAW)", CoherenceMode::Snoopy, 4),
    ] {
        let mut dir = DirectoryController::new(4, l1, mode, probe_ways);
        for round in 0..1000u64 {
            let line = round % 64;
            dir.write(0, line); // producer
            for consumer in 1..4 {
                dir.read(consumer, line);
            }
        }
        let stats = dir.stats();
        println!(
            "{label}: {:>6} probes, {:>7} ways probed",
            stats.probes_delivered, stats.probe_ways
        );
    }

    // Part 2: full-system energy with canneal, the paper's poster child
    // for coherence-heavy behavior.
    println!("\n== Full system: canneal, 64KB L1 @ 1.33GHz ==\n");
    for snoopy in [false, true] {
        let mut base_cfg = RunConfig::paper("cann").l1_size(64).instructions(500_000);
        base_cfg.snoopy = snoopy;
        let mut seesaw_cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
        seesaw_cfg.snoopy = snoopy;
        let base = System::build(&base_cfg)?.run()?;
        let seesaw = System::build(&seesaw_cfg)?.run()?;
        let (cpu_share, coh_share) = seesaw.energy.savings_split(&base.energy);
        println!(
            "{}: energy saving {:.2}% (CPU-side {:.0}%, coherence {:.0}%), {} probes",
            if snoopy { "snoopy   " } else { "directory" },
            seesaw.energy_savings_pct(&base),
            cpu_share * 100.0,
            coh_share * 100.0,
            seesaw.coherence_probes,
        );
    }
    println!("\nSnooping broadcasts every transaction, so SEESAW's narrow probes");
    println!("save even more there — the paper's 2-5% extra (§VI-B).");
    Ok(())
}
