//! `seesaw-worker`: one work-stealing member of a distributed sweep
//! fleet.
//!
//! ```text
//! seesaw-worker [--store DIR] [--id ID] [--max-jobs N] [--linger]
//!               [--lease-ms N] [--poll-ms N]
//! ```
//!
//! The worker loops claim → supervised run → store write-back over the
//! job queue under `<store>/fabric/`, renewing its lease from a
//! heartbeat thread and stealing jobs whose lease expired (a SIGKILLed
//! peer's claims become stealable one lease after its last renewal).
//! It exits once every queued job is resolved, unless `--linger` keeps
//! it polling for future submissions. Results land in the shared
//! content-addressed store exactly as a local `Plan::run_sweep` would
//! write them, so any number of workers produce bit-identical sweeps.
//!
//! The store directory comes from `--store` or `SEESAW_STORE`; the id,
//! lease, and poll interval default from `SEESAW_WORKER_ID`,
//! `SEESAW_FABRIC_LEASE_MS`, and `SEESAW_FABRIC_POLL_MS`. With
//! `SEESAW_TRACE` set, the worker leaves a validated
//! `worker-<id>.prom` textfile with its `fabric.*` counters next to
//! the other telemetry artifacts.

use std::sync::Arc;
use std::time::Duration;

use seesaw_sim::fabric::{run_worker, WorkerOptions};
use seesaw_sim::store::Store;
use seesaw_sim::SweepPolicy;
use seesaw_trace::Collect;

fn usage() -> ! {
    eprintln!(
        "usage: seesaw-worker [--store DIR] [--id ID] [--max-jobs N] [--linger]\n                     [--lease-ms N] [--poll-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store_dir = std::env::var("SEESAW_STORE").ok().filter(|s| !s.is_empty());
    let mut opts = WorkerOptions::from_env();
    fn value(args: &[String], i: &mut usize) -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => store_dir = Some(value(&args, &mut i)),
            "--id" => opts = opts.id(value(&args, &mut i)),
            "--max-jobs" => {
                let n = value(&args, &mut i).parse().unwrap_or_else(|_| usage());
                opts = opts.max_jobs(n);
            }
            "--linger" => opts = opts.linger(true),
            "--lease-ms" => {
                let ms: u64 = value(&args, &mut i).parse().unwrap_or_else(|_| usage());
                opts = opts.lease(Duration::from_millis(ms.max(50)));
            }
            "--poll-ms" => {
                let ms: u64 = value(&args, &mut i).parse().unwrap_or_else(|_| usage());
                opts = opts.poll(Duration::from_millis(ms.max(10)));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(store_dir) = store_dir else {
        eprintln!("error: no store directory (pass --store DIR or set SEESAW_STORE)");
        std::process::exit(2);
    };
    let store = match Store::open(&store_dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: cannot open store {store_dir}: {e}");
            std::process::exit(2);
        }
    };

    let id = opts.id.clone();
    println!(
        "[worker {id}] store {store_dir}, lease {}ms, poll {}ms",
        opts.lease.as_millis(),
        opts.poll.as_millis()
    );
    let stats = match run_worker(store, &opts, SweepPolicy::default()) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("error: worker {id}: {e}");
            std::process::exit(1);
        }
    };
    seesaw_bench::print_memo_stats();
    write_worker_prom(&id, &stats);
    // A worker that executed nothing is healthy (late joiner of a
    // drained queue); failures resolve through the store and are the
    // submitter's to report.
    println!(
        "[worker {id}] done: {} claims, {} steals, {} completed",
        stats.claims, stats.steals, stats.completed
    );
}

/// Writes this worker's `fabric.*` counters (plus the process's memo
/// and supervisor tallies) as a validated Prometheus textfile under
/// `SEESAW_TRACE`, one file per worker id so a node exporter can scrape
/// the whole fleet.
fn write_worker_prom(id: &str, stats: &seesaw_trace::FabricWorkerStats) {
    let Ok(dir) = std::env::var("SEESAW_TRACE") else {
        return;
    };
    let dir = if dir.is_empty() {
        std::path::PathBuf::from("target/trace")
    } else {
        std::path::PathBuf::from(dir)
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create trace dir {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut registry = seesaw_trace::MetricsRegistry::new();
    stats.collect("fabric", &mut registry);
    seesaw_sim::runner::memo_stats().collect("memo", &mut registry);
    seesaw_sim::runner::supervisor_stats().collect("supervisor", &mut registry);
    let mut prom = seesaw_trace::Prometheus::new("seesaw");
    prom.gauges(&registry);
    let text = prom.render();
    if let Err(e) = seesaw_trace::prometheus::validate(&text) {
        eprintln!("error: worker Prometheus textfile failed validation: {e}");
        std::process::exit(1);
    }
    let sanitized: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("worker-{sanitized}.prom"));
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "[trace] wrote {} ({} metrics)",
        path.display(),
        registry.len()
    );
}
