//! §IV-B3 ablation: hit-time assumption policy × squash cost ×
//! fragmentation.

use seesaw_bench::{finish, instruction_budget, ok_or_exit, FULL};
use seesaw_sim::experiments::{scheduler_ablation, scheduler_table};

fn main() {
    let n = instruction_budget(FULL);
    println!(
        "Scheduler hit-time assumption ablation (§IV-B3), redis 64KB OoO ({n} instructions)\n"
    );
    println!("{}", scheduler_table(&ok_or_exit(scheduler_ablation(n))));
    println!("With the paper's quarter-cycle TFT answer (squash = 0), Fast always");
    println!("wins and the counter is moot. When re-scheduling costs cycles, the");
    println!("Fast assumption collapses under fragmentation — the failure mode the");
    println!("occupancy counter exists to catch. Note the quarter-capacity");
    println!("threshold is coarse: at memhog(60) coverage (~40%) the 2MB TLB stays");
    println!("populated, so the counter still reads Fast; it only flips when");
    println!("superpages are truly scarce, exactly as §IV-B3 describes.");
    finish("scheduler");
}
