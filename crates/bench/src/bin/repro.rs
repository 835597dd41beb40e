//! Violation repro bundle workflow: record → shrink → replay.
//!
//! * `repro record [--cores N] [--out FILE]` — runs a chaos-armed,
//!   checker-enabled SEESAW configuration that is known to violate the
//!   splinter-precision invariant, and writes the resulting repro bundle
//!   as JSON (stdout by default). This seeds the workflow for the smoke
//!   test and the documentation walkthrough.
//! * `repro shrink <bundle.json> [--out FILE]` — delta-debugs the bundle
//!   to a minimal explicit fault schedule (budget bisection → greedy
//!   kind disable → ddmin) and writes the shrunk bundle. The shrink
//!   statistics go to stderr.
//! * `repro replay <bundle.json>` — re-runs the bundle's configuration
//!   verbatim, twice, and exits non-zero unless both replays reproduce
//!   the bundle's violation kind at the bundle's instruction.
//!
//! `scripts/check.sh` pipes the three together as the repro smoke test.

use seesaw_sim::repro::{record, replay, shrink, ReproError};
use seesaw_sim::{ChaosConfig, FaultConfig, L1DesignKind, ReproBundle, RunConfig};

/// The seeded failure `record` demonstrates: the same chaos arming the
/// checker tests use, at a horizon long enough for a splinter to land in
/// the workload's hot region.
fn seeded_failure(cores: usize) -> RunConfig {
    let chaos = ChaosConfig {
        drop_tft_invalidation_on_splinter: true,
        ..ChaosConfig::default()
    };
    RunConfig::paper("redis")
        .design(L1DesignKind::Seesaw)
        .cores(cores)
        .instructions(400_000)
        .with_checker()
        .with_faults(
            FaultConfig::all(0xfa17_5eed)
                .mean_interval(2_000)
                .chaos(chaos),
        )
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

fn write_out(out: Option<&str>, json: &str) {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json) {
                fail(format!("writing {path}: {e}"));
            }
            eprintln!("[repro] wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn load(path: &str) -> ReproBundle {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
    ReproBundle::from_json(&text).unwrap_or_else(|e| fail(e))
}

fn cmd_record(cores: usize, out: Option<&str>) {
    let bundle = record(&seeded_failure(cores)).unwrap_or_else(|e| fail(e));
    eprintln!(
        "[repro] recorded {} at instruction {} on core {} ({} fault points fired)",
        bundle.violation.kind,
        bundle.violation.instruction,
        bundle.violation.core,
        bundle.recorded_points()
    );
    write_out(out, &bundle.to_json());
}

fn cmd_shrink(path: &str, out: Option<&str>) {
    let original = load(path);
    let outcome = shrink(&original).unwrap_or_else(|e| fail(e));
    let r = &outcome.report;
    eprintln!(
        "[repro] shrunk {} points -> {} ({} kinds disabled: {:?}), budget {} -> {}, {} candidate runs, {} ddmin rounds",
        r.original_points,
        r.shrunk_points,
        r.kinds_disabled.len(),
        r.kinds_disabled,
        r.original_budget,
        r.shrunk_budget,
        r.candidates,
        r.rounds
    );
    write_out(out, &outcome.bundle.to_json());
}

fn cmd_replay(path: &str) {
    let bundle = load(path);
    for round in 1..=2 {
        match replay(&bundle) {
            Ok(report) if report.matched => {
                eprintln!(
                    "[repro] replay {round}/2: reproduced {} at instruction {}",
                    report.violation.kind, report.violation.instruction
                );
            }
            Ok(report) => fail(format!(
                "replay {round}/2 diverged: expected {} at {}, got {} at {}",
                bundle.violation.kind,
                bundle.violation.instruction,
                report.violation.kind,
                report.violation.instruction
            )),
            Err(ReproError::NoViolation) => {
                fail(format!("replay {round}/2: no violation reproduced"))
            }
            Err(e) => fail(format!("replay {round}/2: {e}")),
        }
    }
    println!(
        "replay ok: {} at instruction {}",
        bundle.violation.kind, bundle.violation.instruction
    );
}

/// Parses `[--cores N] [--out FILE]` style trailing options.
struct Opts {
    cores: usize,
    out: Option<String>,
    positional: Option<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        cores: 1,
        out: None,
        positional: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cores" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.cores = n,
                _ => fail("--cores needs a positive integer"),
            },
            "--out" => match it.next() {
                Some(path) => opts.out = Some(path.clone()),
                None => fail("--out needs a file path"),
            },
            other if !other.starts_with("--") && opts.positional.is_none() => {
                opts.positional = Some(other.to_string());
            }
            other => fail(format!("unknown option {other:?}")),
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let opts = parse_opts(&args[1..]);
            cmd_record(opts.cores, opts.out.as_deref());
        }
        Some("shrink") => {
            let opts = parse_opts(&args[1..]);
            match opts.positional {
                Some(path) => cmd_shrink(&path, opts.out.as_deref()),
                None => fail("shrink needs a bundle path"),
            }
        }
        Some("replay") => {
            let opts = parse_opts(&args[1..]);
            match opts.positional {
                Some(path) => cmd_replay(&path),
                None => fail("replay needs a bundle path"),
            }
        }
        _ => {
            eprintln!(
                "usage: repro <record [--cores N] [--out FILE] | shrink <bundle.json> [--out FILE] | replay <bundle.json>>"
            );
            std::process::exit(2);
        }
    }
}
