//! Multi-core coherence in action: four cores share data through the
//! MOESI directory while each L1 pays baseline-width or SEESAW-width
//! probe costs — §IV-C1 measured on the protocol substrate itself.
//!
//! ```sh
//! cargo run --release --example multicore
//! ```

use seesaw_cache::{CacheConfig, IndexPolicy};
use seesaw_coherence::{CoherenceMode, DirectoryController};
use seesaw_energy::SramModel;

fn main() {
    let l1 = CacheConfig::new(64 << 10, 16, 64, IndexPolicy::Vipt);
    let sram = SramModel::tsmc28_scaled_22nm();
    println!("4 cores, 64KB 16-way L1s, MOESI; work-stealing sharing pattern\n");
    println!(
        "{:<32} {:>10} {:>12} {:>12}",
        "configuration", "probes", "ways probed", "probe µJ"
    );

    for (label, mode, probe_ways) in [
        (
            "directory + baseline (16-way)",
            CoherenceMode::Directory,
            16,
        ),
        ("directory + SEESAW (4-way)", CoherenceMode::Directory, 4),
        ("snoopy + baseline (16-way)", CoherenceMode::Snoopy, 16),
        ("snoopy + SEESAW (4-way)", CoherenceMode::Snoopy, 4),
    ] {
        let mut dir = DirectoryController::new(4, l1, mode, probe_ways);
        // A work-stealing pattern: each core produces into its own queue
        // region and occasionally steals (reads + invalidating writes)
        // from a neighbor's.
        let mut seed = 0x5eedu64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for step in 0..200_000u64 {
            let core = (step % 4) as usize;
            let own = core as u64 * 4096 + rand() % 512;
            if rand() % 10 < 7 {
                dir.write(core, own);
            } else {
                let victim = ((core + 1 + (rand() as usize % 3)) % 4) as u64;
                let line = victim * 4096 + rand() % 512;
                if rand() % 2 == 0 {
                    dir.read(core, line);
                } else {
                    dir.write(core, line);
                }
            }
        }
        let stats = dir.stats();
        let energy_uj =
            stats.probes_delivered as f64 * sram.lookup_energy_nj(64, 16, probe_ways) / 1000.0;
        println!(
            "{label:<32} {:>10} {:>12} {:>12.1}",
            stats.probes_delivered, stats.probe_ways, energy_uj
        );
    }
    println!();
    println!("SEESAW's 4-way insertion pins every line to its physical partition,");
    println!("so ALL probes narrow from 16 ways to 4 — and snoopy protocols, which");
    println!("broadcast every transaction, amplify the savings (§VI-B).");
}
