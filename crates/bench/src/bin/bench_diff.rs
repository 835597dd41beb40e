//! `bench_diff`: cross-run regression attribution over two
//! `BENCH_runtime.json` snapshots.
//!
//! ```text
//! bench_diff OLD.json NEW.json [--threshold PCT] [--min-wall SECS]
//!            [--metrics OLD.csv NEW.csv]
//! ```
//!
//! Prints the ranked per-figure delta table with each regression
//! attributed to what the snapshots expose (more fresh cells, slower
//! simulation, or harness overhead); with `--metrics`, also diffs two
//! per-figure `*.metrics.csv` registry exports and ranks the counters
//! that moved. Exit status: 0 clean, 1 when any figure trips the
//! regression gate, 2 on usage or I/O errors. `scripts/bench.sh` runs
//! this automatically when its wall-clock gate fails, so the gate's
//! "slower" verdict arrives with a "because" attached.

use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff OLD.json NEW.json [--threshold PCT] [--min-wall SECS] [--metrics OLD.csv NEW.csv]"
    );
    std::process::exit(2);
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {}: {e}", path.display());
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut threshold_pct = 15.0f64;
    let mut min_wall = 0.5f64;
    let mut metrics: Option<(PathBuf, PathBuf)> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--min-wall" => {
                i += 1;
                min_wall = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--metrics" => {
                let (Some(o), Some(n)) = (args.get(i + 1), args.get(i + 2)) else {
                    usage();
                };
                metrics = Some((PathBuf::from(o), PathBuf::from(n)));
                i += 2;
            }
            "--help" | "-h" => usage(),
            a if a.starts_with('-') => usage(),
            a => positional.push(PathBuf::from(a)),
        }
        i += 1;
    }
    let [old_path, new_path] = positional.as_slice() else {
        usage();
    };

    let parse = |path: &PathBuf| {
        seesaw_sim::BenchRun::parse(&read(path)).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let old_run = parse(old_path);
    let new_run = parse(new_path);
    println!(
        "bench_diff: {} ({}) → {} ({})",
        old_path.display(),
        if old_run.git_sha.is_empty() {
            "?"
        } else {
            &old_run.git_sha
        },
        new_path.display(),
        if new_run.git_sha.is_empty() {
            "?"
        } else {
            &new_run.git_sha
        },
    );
    if old_run.budget_instructions != new_run.budget_instructions
        || old_run.threads != new_run.threads
    {
        println!(
            "note: runs differ in shape (budget {} vs {}, threads {} vs {}) — wall deltas reflect that too",
            old_run.budget_instructions,
            new_run.budget_instructions,
            old_run.threads,
            new_run.threads,
        );
    }
    let diff = seesaw_sim::BenchDiff::compare(&old_run, &new_run, threshold_pct, min_wall);
    print!("{}", diff.render());

    if let Some((old_csv, new_csv)) = metrics {
        let deltas =
            seesaw_sim::diff::diff_metrics_csv(&read(&old_csv), &read(&new_csv), threshold_pct);
        println!(
            "\nmetric movement past {threshold_pct:.0}% ({}):",
            deltas.len()
        );
        let fmt_v = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}"));
        for d in deltas.iter().take(25) {
            println!(
                "  {:<40} {:>14} → {:>14}  {}",
                d.key,
                fmt_v(d.old),
                fmt_v(d.new),
                if d.old.is_some() && d.new.is_some() {
                    format!("{:+.1}%", d.delta_pct)
                } else {
                    "added/removed".to_string()
                }
            );
        }
        if deltas.len() > 25 {
            println!("  … {} more", deltas.len() - 25);
        }
    }

    if !diff.regressions().is_empty() {
        std::process::exit(1);
    }
}
