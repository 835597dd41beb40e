//! `seesaw-submit`: enqueues a figure/table plan on the distributed
//! sweep fabric, tails aggregate progress, and exits with a merged
//! report.
//!
//! ```text
//! seesaw-submit PLAN [N] [--store DIR] [--workers N] [--enqueue-only]
//!               [--poll-ms N] [--list]
//! ```
//!
//! `PLAN` is a registry name (`seesaw-submit --list` prints them); `N`
//! overrides the per-cell instruction budget (default 2,000,000,
//! underscores allowed). Every cell is serialized onto the job queue
//! under `<store>/fabric/` where any number of `seesaw-worker`
//! processes — spawned here with `--workers N`, or started by hand on
//! any machine sharing the store — claim and resolve them.
//!
//! While waiting, the submitter mirrors fleet progress onto the
//! standard status board, so `SEESAW_STATUS=target/status` plus
//! `seesaw-status --follow` shows the usual live aggregate view. The
//! final report is assembled by re-running the plan against the shared
//! store: worker-resolved cells are bit-identical store hits, and any
//! straggler (worker crash, error-marked job) is simulated locally, so
//! the merged result always equals a single-process run. Exits 0 when
//! every cell succeeded, 1 otherwise.

use std::process::{Child, Command};
use std::sync::Arc;
use std::time::Duration;

use seesaw_sim::experiments::{plan_cells, plan_names};
use seesaw_sim::fabric::Fabric;
use seesaw_sim::status::{status_dir_from_env, status_interval_from_env};
use seesaw_sim::store::Store;
use seesaw_sim::{StatusBoard, StatusWriter, SweepPolicy};

fn usage() -> ! {
    eprintln!(
        "usage: seesaw-submit PLAN [N] [--store DIR] [--workers N] [--enqueue-only]\n                     [--poll-ms N]\n       seesaw-submit --list"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store_dir = std::env::var("SEESAW_STORE").ok().filter(|s| !s.is_empty());
    let mut plan_name: Option<String> = None;
    let mut budget: Option<u64> = None;
    let mut workers = 0usize;
    let mut enqueue_only = false;
    let mut poll = Duration::from_millis(200);
    fn value(args: &[String], i: &mut usize) -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for name in plan_names() {
                    println!("{name}");
                }
                return;
            }
            "--store" => store_dir = Some(value(&args, &mut i)),
            "--workers" => workers = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--enqueue-only" => enqueue_only = true,
            "--poll-ms" => {
                let ms: u64 = value(&args, &mut i).parse().unwrap_or_else(|_| usage());
                poll = Duration::from_millis(ms.max(10));
            }
            "--help" | "-h" => usage(),
            a if a.starts_with('-') => usage(),
            a => {
                if plan_name.is_none() {
                    plan_name = Some(a.to_string());
                } else if budget.is_none() {
                    budget = Some(a.replace('_', "").parse().unwrap_or_else(|_| usage()));
                } else {
                    usage();
                }
            }
        }
        i += 1;
    }
    let Some(plan_name) = plan_name else { usage() };
    let budget = budget.unwrap_or(seesaw_bench::FULL);
    let Some(cells) = plan_cells(&plan_name, budget) else {
        eprintln!(
            "error: unknown plan '{plan_name}' (one of: {})",
            plan_names().join(", ")
        );
        std::process::exit(2);
    };
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
    let fabric = match Fabric::open(store) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot open fabric under {store_dir}: {e}");
            std::process::exit(2);
        }
    };
    let submission = match fabric.submit(&plan_name, cells) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: submitting {plan_name}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "[submit] {plan_name}: {} cells ({budget} instructions each) queued under {store_dir}",
        submission.cells().len()
    );
    if enqueue_only {
        return;
    }

    let mut children = spawn_workers(workers, &store_dir);
    let any_spawned = !children.is_empty();

    // The standard live status pipeline: board → atomic status.json →
    // `seesaw-status --follow`, aggregated over the whole fleet.
    let board_cells: Vec<(String, String)> = submission
        .cells()
        .iter()
        .zip(submission.digests())
        .map(|((label, _), d)| (label.clone(), d[..8].to_string()))
        .collect();
    let board = StatusBoard::new(&plan_name, &board_cells, workers.max(1));
    let writer = status_dir_from_env().and_then(|dir| {
        StatusWriter::spawn(board.clone(), &dir, status_interval_from_env())
            .map_err(|e| eprintln!("warning: status writer disabled: {e}"))
            .ok()
    });

    // Wait while at least one worker is still alive; with no spawned
    // workers, wait for the external fleet until the queue resolves.
    let outcome = submission.wait(&fabric, poll, Some(&board), || {
        !any_spawned || reap(&mut children) > 0
    });
    if let Some(writer) = writer {
        writer.finish();
    }
    if !outcome.complete {
        println!(
            "[submit] fleet exited with {}/{} cells unresolved; finishing locally",
            submission.cells().len() - outcome.resolved,
            submission.cells().len()
        );
    }
    for child in &mut children {
        let _ = child.wait();
    }

    // Merge: every resolved cell is a bit-identical store hit, any
    // straggler or error-marked cell is simulated here.
    let report = submission.assemble(&fabric, SweepPolicy::default());
    println!(
        "[submit] {plan_name}: {} cells merged, {} failed",
        report.outcomes.len(),
        report.failed.len()
    );
    for f in &report.failed {
        eprintln!(
            "  failed: {} ({}): {}",
            f.label,
            &f.fingerprint[..8],
            f.error
        );
        if let Some(detail) = fabric.error_detail(&submission.digests()[f.index]) {
            eprintln!("    fabric: {detail}");
        }
    }
    seesaw_bench::finish(&format!("submit-{plan_name}"));
    if !report.failed.is_empty() {
        std::process::exit(1);
    }
}

/// Spawns `n` `seesaw-worker` children (found next to this executable)
/// sharing the store, each with a distinct worker id.
fn spawn_workers(n: usize, store_dir: &str) -> Vec<Child> {
    if n == 0 {
        return Vec::new();
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate own executable: {e}");
        std::process::exit(1);
    });
    let worker = exe.with_file_name("seesaw-worker");
    if !worker.exists() {
        eprintln!(
            "error: {} not found (build it: cargo build -p seesaw-bench --bin seesaw-worker)",
            worker.display()
        );
        std::process::exit(1);
    }
    let pid = std::process::id();
    (0..n)
        .map(|i| {
            Command::new(&worker)
                .arg("--store")
                .arg(store_dir)
                .arg("--id")
                .arg(format!("w{pid}-{i}"))
                .spawn()
                .unwrap_or_else(|e| {
                    eprintln!("error: spawning {}: {e}", worker.display());
                    std::process::exit(1);
                })
        })
        .collect()
}

/// Returns how many children are still running (without blocking).
fn reap(children: &mut [Child]) -> usize {
    children
        .iter_mut()
        .filter_map(|c| c.try_wait().ok())
        .filter(|status| status.is_none())
        .count()
}
