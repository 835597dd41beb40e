//! Fault-injection and differential-checking demo (DESIGN.md §7).
//!
//! Runs SEESAW under a seeded storm of splinters, promotions, TLB
//! shootdowns, TFT conflict storms, context switches, and memory
//! pressure, with the shadow checker verifying every access in lockstep —
//! then deliberately breaks the splinter→TFT-invalidation step to show
//! the structured diagnostic the checker produces.

use seesaw_check::{ChaosConfig, FaultConfig};
use seesaw_sim::{L1DesignKind, RunConfig, SimError, System};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = seesaw_bench_seed();
    println!("fault schedule seed: {seed:#x}\n");

    // 1. A correct simulator survives the full storm with zero violations.
    let cfg = RunConfig::quick("redis")
        .design(L1DesignKind::Seesaw)
        .memhog(40)
        .with_checker()
        .with_faults(FaultConfig::all(seed).mean_interval(5_000));
    let r = System::build(&cfg)?.run()?;
    let faults = r.faults.expect("injector attached");
    let checker = r.checker.expect("checker enabled");
    println!(
        "clean run: {} instructions, CPI {:.3}",
        r.totals.instructions,
        r.totals.cpi()
    );
    println!(
        "  faults fired: {} (splinters {}, promotions {}, shootdowns {}, \
         tft storms {}, context switches {}, pressure {}/{})",
        faults.total(),
        faults.splinters,
        faults.promotions,
        faults.shootdowns,
        faults.tft_storms,
        faults.context_switches,
        faults.mem_pressure,
        faults.mem_releases,
    );
    println!(
        "  checker: {} loads checked, {} stores tracked, {} audits, {} violations",
        checker.loads_checked,
        checker.stores_tracked,
        checker.audits,
        checker.violations.total(),
    );
    println!("  base-page demotions under pressure: {}\n", r.demotions);

    // 2. Break the §IV-C2 invalidation step: the checker catches the
    //    corruption and names the invariant, with event history.
    let chaos = ChaosConfig {
        drop_tft_invalidation_on_splinter: true,
        ..ChaosConfig::default()
    };
    let bad = cfg
        .clone()
        .with_faults(FaultConfig::all(seed).mean_interval(2_000).chaos(chaos));
    println!("re-running with the splinter's TFT invalidation dropped...");
    match System::build(&bad)?.run() {
        Err(SimError::Check(v)) => println!("caught, as required:\n\n{v}"),
        Ok(_) => println!("NOT caught — the checker missed a planted bug!"),
        Err(e) => return Err(e.into()),
    }
    Ok(())
}

/// Seed override via `SEESAW_SEED`, defaulting to a fixed value so the
/// demo is reproducible out of the box.
fn seesaw_bench_seed() -> u64 {
    std::env::var("SEESAW_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            s.strip_prefix("0x")
                .map_or_else(|| s.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
        })
        .unwrap_or(0xfa17_5eed)
}
