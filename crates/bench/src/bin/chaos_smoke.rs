//! Chaos smoke for the crash-safe sweep harness (`scripts/check.sh`).
//!
//! * `chaos_smoke inject [budget]` — runs a sweep whose cells include an
//!   always-panicking cell and a hanging cell (via the injected chaos
//!   hook) next to healthy cells, under a degradation policy. The panic
//!   must be isolated, the hang must trip the watchdog, and every
//!   healthy cell must still complete.
//! * `chaos_smoke sweep <store-dir> [budget]` — sweeps a fixed grid into
//!   the given persistent store. This is the child process the
//!   crash-resume smoke SIGKILLs mid-run.
//! * `chaos_smoke crash-resume [budget]` — launches `sweep` as a child,
//!   kills it once at least two records are committed, corrupts one of
//!   the survivors, then resumes in-process against the same store and
//!   checks every outcome bit-identical to a direct serial simulation.
//! * no subcommand — `inject` then `crash-resume`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seesaw_bench::print_memo_stats;
use seesaw_sim::runner::{fingerprint, set_cell_chaos_hook};
use seesaw_sim::store::digest;
use seesaw_sim::{
    CellChaos, L1DesignKind, Plan, RunConfig, SimError, Store, StoredOutcome, SupervisorConfig,
    SweepPolicy, System,
};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The grid the `sweep`/`crash-resume` modes run: six cheap cells mixing
/// workloads, designs, and fragmentation so the store sees distinct
/// fingerprints.
fn grid(budget: u64) -> Vec<(String, RunConfig)> {
    vec![
        (
            "astar-base".into(),
            RunConfig::quick("astar").instructions(budget),
        ),
        (
            "astar-seesaw".into(),
            RunConfig::quick("astar")
                .instructions(budget)
                .design(L1DesignKind::Seesaw),
        ),
        (
            "gups-base".into(),
            RunConfig::quick("gups").instructions(budget),
        ),
        (
            "gups-frag".into(),
            RunConfig::quick("gups").instructions(budget).memhog(40),
        ),
        (
            "mcf-base".into(),
            RunConfig::quick("mcf").instructions(budget),
        ),
        (
            "redis-seesaw".into(),
            RunConfig::quick("redis")
                .instructions(budget)
                .design(L1DesignKind::Seesaw),
        ),
    ]
}

/// Panic + hang cells next to healthy ones: the degradation policy must
/// let the survivors finish and the report must classify both failures.
fn cmd_inject(budget: u64) {
    set_cell_chaos_hook(Some(Arc::new(|ctx| match ctx.label {
        "panic-cell" => CellChaos::Panic,
        "hang-cell" => CellChaos::HangMs(5_000),
        _ => CellChaos::Continue,
    })));

    let mut plan = Plan::new().without_store();
    for (label, cfg) in grid(budget) {
        plan.push(label, cfg);
    }
    plan.push("panic-cell", RunConfig::quick("tunk").instructions(budget));
    plan.push(
        "hang-cell",
        RunConfig::quick("tunk").instructions(budget + 1),
    );
    let cells = plan.len();

    let policy = SweepPolicy::default().max_failures(2).supervisor(
        SupervisorConfig::default()
            .timeout(Duration::from_millis(250))
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(8)),
    );
    let report = plan.run_sweep(policy);
    set_cell_chaos_hook(None);

    if report.failed.len() != 2 {
        fail(format!(
            "expected exactly the 2 injected failures, got {}:\n{}",
            report.failed.len(),
            report.summary()
        ));
    }
    for f in &report.failed {
        let ok = match (&f.label[..], &f.error) {
            ("panic-cell", SimError::Panic { message, .. }) => {
                message.contains("injected cell panic")
            }
            ("hang-cell", SimError::Timeout { .. }) => true,
            _ => false,
        };
        if !ok {
            fail(format!(
                "cell {:?} failed with an unexpected error: {}",
                f.label, f.error
            ));
        }
    }
    let healthy = report.outcomes.iter().filter(|o| o.is_ok()).count();
    if healthy != cells - 2 {
        fail(format!(
            "expected {} healthy survivors, got {healthy}",
            cells - 2
        ));
    }
    let sup = &report.supervisor;
    if sup.panics_caught < 2 || sup.timeouts < 1 || sup.retries < 2 {
        fail(format!("supervisor counters implausible: {sup:?}"));
    }
    println!(
        "[chaos] inject ok: {healthy} survivors, {} isolated failures ({} panics caught, {} timeouts, {} retries)",
        report.failed.len(),
        sup.panics_caught,
        sup.timeouts,
        sup.retries
    );
    print_memo_stats();
}

/// Child mode for `crash-resume`: sweep the grid serially into a store,
/// printing each committed cell so progress is observable.
fn cmd_sweep(dir: &str, budget: u64) {
    let store = Arc::new(Store::open(dir).unwrap_or_else(|e| fail(e)));
    let mut plan = Plan::with_threads(1).with_store(store.clone());
    for (label, cfg) in grid(budget) {
        println!("[sweep] {label} -> {}", digest(&fingerprint(&cfg)));
        plan.push(label, cfg);
    }
    let report = plan.run_sweep(SweepPolicy::from_env());
    if !report.all_ok() {
        fail(report.summary());
    }
    let s = store.stats();
    println!(
        "[store] {} hits / {} misses, {} writes, {} corrupt",
        s.hits, s.misses, s.writes, s.corrupt
    );
}

/// SIGKILL a `sweep` child mid-run, corrupt one committed record, resume
/// against the same store, and check bit-identical results throughout.
fn cmd_crash_resume(budget: u64) {
    let dir = std::env::temp_dir().join(format!("seesaw-chaos-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(e));
    let mut child = std::process::Command::new(exe)
        .arg("sweep")
        .arg(&dir)
        .arg(budget.to_string())
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(format!("spawning sweep child: {e}")));

    // Wait until at least two result records are durable, then kill the
    // child — mid-sweep if it is still running.
    let committed = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut v: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("r-") && n.ends_with(".rec"))
            })
            .collect();
        v.sort();
        v
    };
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        if committed(&dir).len() >= 2 {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            if committed(&dir).len() >= 2 {
                break;
            }
            fail(format!(
                "sweep child exited ({status}) before committing two records"
            ));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            fail("sweep child made no progress within 180s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    let survivors = committed(&dir);
    println!(
        "[chaos] killed sweep child with {} of 6 records committed",
        survivors.len()
    );

    // Corrupt one survivor: the resume must detect it and resimulate.
    let bytes = std::fs::read(&survivors[0]).unwrap_or_else(|e| fail(e));
    std::fs::write(&survivors[0], &bytes[..bytes.len() / 2]).unwrap_or_else(|e| fail(e));

    let store = Arc::new(Store::open(&dir).unwrap_or_else(|e| fail(e)));
    let mut plan = Plan::with_threads(2).with_store(store.clone());
    let cells = grid(budget);
    for (label, cfg) in cells.clone() {
        plan.push(label, cfg);
    }
    let report = plan.run_sweep(SweepPolicy::from_env());
    if !report.all_ok() {
        fail(report.summary());
    }
    let s = store.stats();
    if survivors.len() >= 2 && s.hits == 0 {
        fail("resume re-simulated every cell: the store served no hits");
    }
    if s.corrupt == 0 {
        fail("the corrupted record was not detected");
    }

    // Every resumed outcome must be bit-identical to a direct,
    // store-free serial simulation of the same config.
    for (i, (label, cfg)) in cells.iter().enumerate() {
        let resumed = report.outcomes[i]
            .as_ref()
            .unwrap_or_else(|e| fail(format!("cell {label}: {e}")));
        let direct = System::build(cfg)
            .and_then(System::run)
            .unwrap_or_else(|e| fail(format!("direct run of {label}: {e}")));
        if direct.totals.cycles != resumed.totals.cycles
            || direct.l1.misses != resumed.l1.misses
            || direct.runtime_ns.to_bits() != resumed.runtime_ns.to_bits()
            || direct.energy.total_nj().to_bits() != resumed.energy.total_nj().to_bits()
        {
            fail(format!("cell {label} diverged from the direct run"));
        }
        let Some(StoredOutcome::Result(_)) = store.get(&fingerprint(cfg)) else {
            fail(format!("cell {label} left no valid record after resume"));
        };
    }
    let (valid, corrupt) = store.verify();
    if (valid, corrupt) != (cells.len(), 0) {
        fail(format!(
            "store after resume: {valid} valid / {corrupt} corrupt records, expected {} / 0",
            cells.len()
        ));
    }
    println!(
        "[chaos] crash-resume ok: {} cells bit-identical, {} store hits, corrupt record repaired",
        cells.len(),
        s.hits
    );
    print_memo_stats();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget_at = |i: usize, default: u64| -> u64 {
        args.get(i)
            .map(|s| {
                s.replace('_', "")
                    .parse()
                    .unwrap_or_else(|_| fail(format!("bad budget {s:?}")))
            })
            .unwrap_or(default)
    };
    match args.first().map(String::as_str) {
        Some("inject") => cmd_inject(budget_at(1, 60_000)),
        Some("sweep") => match args.get(1) {
            Some(dir) => cmd_sweep(dir, budget_at(2, 95_000)),
            None => fail("sweep needs a store directory"),
        },
        Some("crash-resume") => cmd_crash_resume(budget_at(1, 95_000)),
        None => {
            cmd_inject(60_000);
            cmd_crash_resume(95_000);
        }
        Some(other) => {
            eprintln!(
                "usage: chaos_smoke [inject [budget] | sweep <store-dir> [budget] | crash-resume [budget]] (got {other:?})"
            );
            std::process::exit(2);
        }
    }
}
