//! The competing-design lab: every L1 design head-to-head.
//!
//! * `designs [budget]` — the figure driver: runs the full
//!   [`DESIGN_LAB`] roster on redis under Fig. 15's conditions and
//!   prints the MPKI / energy / hit-latency scorecard.
//! * `designs --smoke [budget]` — the determinism smoke for
//!   `scripts/check.sh`: runs every `L1DesignKind` the simulator can
//!   build twice at a tiny budget, asserting each design's fingerprint
//!   is stable across runs and that no two designs collide.
//!
//! [`DESIGN_LAB`]: seesaw_sim::experiments::DESIGN_LAB

use seesaw_bench::{finish, ok_or_exit, FULL};
use seesaw_sim::experiments::{all_design_kinds, design_fingerprint, designs, designs_table};
use seesaw_sim::{RunConfig, System};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Every design twice: stable within a design, distinct across designs.
fn cmd_smoke(budget: u64) {
    let mut seen: Vec<(&str, u64)> = Vec::new();
    for (name, kind) in all_design_kinds() {
        let cfg = RunConfig::quick("redis").instructions(budget).design(kind);
        let run = |cfg: &RunConfig| {
            design_fingerprint(&ok_or_exit(System::build(cfg).and_then(System::run)))
        };
        let (a, b) = (run(&cfg), run(&cfg));
        if a != b {
            fail(format!(
                "{name}: fingerprint unstable across identical runs ({a:016x} vs {b:016x})"
            ));
        }
        if let Some((other, _)) = seen.iter().find(|(_, f)| *f == a) {
            fail(format!(
                "{name} and {other} produced the same fingerprint {a:016x}: \
                 the designs are not observably distinct"
            ));
        }
        println!("[designs] {name:<14} {a:016x}");
        seen.push((name, a));
    }
    println!(
        "[designs] smoke ok: {} designs, each stable across two runs, all distinct",
        seen.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let budget = args
            .get(1)
            .and_then(|s| s.replace('_', "").parse().ok())
            .unwrap_or(60_000);
        cmd_smoke(budget);
        return;
    }
    let n = args
        .first()
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(FULL);
    println!(
        "Competing-design lab — every L1 design on redis, 64KB @ 1.33GHz ({n} instructions)\n"
    );
    println!("{}", designs_table(&ok_or_exit(designs("redis", n))));
    println!("Columns are measured against the shared baseline row; hit latency is the");
    println!("mean load-to-use over L1 hits, so predictor mispredicts and VESPA's");
    println!("base-page rounds show up directly.");
    finish("designs");
}
