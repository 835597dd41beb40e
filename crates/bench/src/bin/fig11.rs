//! Fig. 11: CPU-side versus coherence share of the energy savings.

use seesaw_bench::{finish, instruction_budget, ok_or_exit, FULL};
use seesaw_sim::experiments::{fig11, fig11_table};

fn main() {
    let n = instruction_budget(FULL);
    println!("Fig. 11 — savings split, 64KB OoO @ 1.33GHz ({n} instructions)\n");
    println!("{}", fig11_table(&ok_or_exit(fig11(n))));
    println!(
        "Paper shape: every workload saves on both; canneal/tunkrank attribute ~1/3 to coherence."
    );
    finish("fig11");
}
