//! Prose-reported ablations: insertion policy, TFT flushing, snoopy
//! coherence, and the area-equivalent-baseline control.

use seesaw_bench::{finish, instruction_budget, ok_or_exit, FULL};
use seesaw_sim::experiments::{
    ablation_table, area_control, asid_flush_ablation, insertion_ablation, prefetch_ablation,
    snoopy_ablation,
};

fn main() {
    let n = instruction_budget(FULL);
    println!("Insertion policy (§IV-B1): L1 hit rate, 4way vs 4way-8way\n");
    println!(
        "{}",
        ablation_table(&ok_or_exit(insertion_ablation(n)), "4way", "4way-8way")
    );
    println!("\nTFT context-switch flushes (§IV-C3): runtime vs an ideal never-flushed TFT\n");
    println!(
        "{}",
        ablation_table(&ok_or_exit(asid_flush_ablation(n)), "flushing", "ideal")
    );
    println!("\nCoherence protocol (§VI-B): energy savings, directory vs snoopy\n");
    println!(
        "{}",
        ablation_table(&ok_or_exit(snoopy_ablation(n)), "directory", "snoopy")
    );
    println!("\nArea control (§VI-A): runtime improvement, area-equivalent baseline vs SEESAW\n");
    println!(
        "{}",
        ablation_table(&ok_or_exit(area_control(n)), "area-eq baseline", "SEESAW")
    );
    println!("\nPrefetcher robustness: SEESAW runtime gain without / with an L2 streamer\n");
    println!(
        "{}",
        ablation_table(
            &ok_or_exit(prefetch_ablation(n)),
            "no prefetch",
            "prefetch x4"
        )
    );
    finish("ablations");
}
