//! Traced smoke run for `scripts/check.sh`.
//!
//! Two modes, designed to be piped into each other:
//!
//! * `trace_smoke emit [--cores N]` — runs a tiny fault-injected,
//!   checker-enabled SEESAW simulation (N round-robin cores, with real
//!   directory coherence for N > 1) with event tracing on, verifies that
//!   the captured event counts reconcile exactly with the run's metrics
//!   snapshot — and, per core, with each core's own counters — and
//!   prints the JSONL event stream to stdout (progress goes to stderr).
//! * `trace_smoke validate` — reads a JSONL event stream from stdin,
//!   validates every line (object shape, numeric `at`, known event
//!   type), and prints a per-type tally.
//!
//! `trace_smoke emit | trace_smoke validate` therefore proves the whole
//! telemetry path end to end: emission in the hot loop, ring capture,
//! metrics reconciliation, JSONL export, and independent re-parse.

use std::io::Read;

use seesaw_bench::{ok_or_exit, reconcile};
use seesaw_sim::{FaultConfig, L1DesignKind, RunConfig, System};

fn emit(cores: usize) {
    let cfg = RunConfig::quick("redis")
        .design(L1DesignKind::Seesaw)
        .cores(cores)
        .with_checker()
        .with_faults(FaultConfig::all(0x7ace))
        .with_trace();
    let result = ok_or_exit(System::build(&cfg).and_then(System::run));
    let trace = result.trace.as_ref().expect("traced run returns a trace");
    if let Err(msg) = reconcile(trace, &result.metrics) {
        eprintln!("error: event trace diverges from metrics: {msg}");
        std::process::exit(1);
    }
    // Per-core reconciliation: the trace's per-core split must agree
    // with every core's own counters — attribution, not just totals.
    for core in &result.cores {
        let c = &trace.per_core[core.core];
        for (what, traced, counted) in [
            ("l1_misses", c.l1_misses, core.l1.misses),
            ("walk_ends", c.walk_ends, core.walks),
            (
                "coherence_probes",
                c.coherence_probes,
                core.coherence_probes,
            ),
        ] {
            if traced != counted {
                eprintln!(
                    "error: core {} {what}: trace says {traced}, counters say {counted}",
                    core.core
                );
                std::process::exit(1);
            }
        }
    }
    let split: Vec<u64> = trace.per_core.iter().map(|c| c.total()).collect();
    eprintln!(
        "[trace_smoke] {} events captured ({} dropped) across {} core(s) {:?}, {} metric keys, faults: {}",
        trace.events.len(),
        trace.dropped,
        result.cores.len(),
        split,
        result.metrics.len(),
        result
            .metrics
            .get_u64("faults.total")
            .unwrap_or_default()
    );
    print!("{}", trace.to_jsonl());
}

fn validate() {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        eprintln!("error: reading stdin: {e}");
        std::process::exit(1);
    }
    match seesaw_trace::jsonl::validate_jsonl(&text) {
        Ok(report) => {
            if report.lines == 0 {
                eprintln!("error: empty event stream");
                std::process::exit(1);
            }
            println!("[trace_smoke] {} valid JSONL events", report.lines);
            for (name, count) in &report.counts {
                println!("  {name}: {count}");
            }
        }
        Err(e) => {
            eprintln!("error: invalid JSONL event stream: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit") => {
            let cores = match args.get(1).map(String::as_str) {
                Some("--cores") => match args.get(2).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --cores needs a positive integer");
                        std::process::exit(2);
                    }
                },
                Some(other) => {
                    eprintln!("error: unknown option {other:?}");
                    std::process::exit(2);
                }
                None => 1,
            };
            emit(cores);
        }
        Some("validate") => validate(),
        _ => {
            eprintln!("usage: trace_smoke <emit [--cores N]|validate>");
            std::process::exit(2);
        }
    }
}
