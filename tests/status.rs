//! Live sweep operations layer (ISSUE 8): the status snapshot a sweep
//! publishes must always be a complete, parseable document — under
//! concurrent polling, after injected panics and watchdog kills — and
//! the heartbeat probe that feeds it must never perturb simulation
//! results. The cross-run diff must flag real regressions and stay
//! quiet inside the noise band.
//!
//! The chaos hook is process-global, so tests that install one
//! serialize on a lock (same discipline as `tests/chaos.rs`); cell
//! budgets are unique per test so the process-wide memo cache never
//! serves one test's cells to another.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use seesaw_sim::runner::set_cell_chaos_hook;
use seesaw_sim::{
    BenchDiff, BenchRun, CellChaos, L1DesignKind, Plan, RunConfig, SupervisorConfig, SweepPolicy,
    System,
};
use seesaw_trace::json::Json;

static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct HookGuard;

impl Drop for HookGuard {
    fn drop(&mut self) {
        set_cell_chaos_hook(None);
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seesaw-status-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_status(dir: &Path) -> Json {
    let path = dir.join("status.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("status.json must parse: {e}\n{text}"))
}

fn cells_of(doc: &Json) -> &[Json] {
    doc.get("cells")
        .and_then(Json::as_array)
        .expect("cells array")
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} string"))
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} u64"))
}

// ---------------------------------------------------------------------------
// Snapshot atomicity under concurrent polling.
// ---------------------------------------------------------------------------

/// A reader hammering `status.json` while a multi-threaded sweep runs
/// must never observe a torn or half-written document — every read
/// parses, and the schema fields are present. The terminal snapshot
/// reconciles exactly with the sweep's own report.
#[test]
fn status_json_is_always_complete_under_concurrent_reads() {
    let _guard = lock();
    let dir = tmp_dir("concurrent");

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = stop.clone();
        let path = dir.join("status.json");
        std::thread::spawn(move || {
            let mut parsed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    let doc = Json::parse(&text)
                        .unwrap_or_else(|e| panic!("torn status.json (parse error {e}): {text}"));
                    for key in ["sweep", "state", "cells", "rollup", "supervisor"] {
                        assert!(doc.get(key).is_some(), "snapshot missing {key:?}");
                    }
                    parsed += 1;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            parsed
        })
    };

    let workloads = ["astar", "redis", "gups", "mcf"];
    let mut plan = Plan::with_threads(2)
        .without_store()
        .named("status-concurrent")
        .with_status(&dir);
    for w in workloads {
        plan.push(
            format!("cell-{w}"),
            RunConfig::quick(w).instructions(51_000),
        );
    }
    let report = plan.run_sweep(SweepPolicy::from_env());
    assert!(report.all_ok());

    stop.store(true, Ordering::Relaxed);
    let parsed = reader.join().expect("reader thread");
    assert!(parsed > 0, "reader never saw a snapshot");

    // Terminal snapshot: state done, every cell done with full progress,
    // rollup agrees with the report's ops block.
    let doc = read_status(&dir);
    assert_eq!(str_field(&doc, "state"), "done");
    assert_eq!(u64_field(&doc, "threads"), 2);
    let cells = cells_of(&doc);
    assert_eq!(cells.len(), workloads.len());
    for cell in cells {
        assert_eq!(str_field(cell, "state"), "done");
        let fraction = cell.get("fraction").and_then(Json::as_f64).unwrap();
        assert!(fraction > 0.99, "terminal cell shows full progress");
        assert!(u64_field(cell, "instructions") >= 51_000);
        assert_eq!(str_field(cell, "digest").len(), 8);
    }
    let rollup = doc.get("rollup").unwrap();
    assert_eq!(u64_field(rollup, "cells"), report.ops.cells);
    assert_eq!(u64_field(rollup, "done"), workloads.len() as u64);
    assert_eq!(u64_field(rollup, "failed"), 0);
    assert_eq!(u64_field(rollup, "eta_seconds"), 0);
    let transitions = doc.get("transitions").and_then(Json::as_array).unwrap();
    assert!(!transitions.is_empty(), "transition log records lifecycle");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Heartbeats across panics and watchdog kills.
// ---------------------------------------------------------------------------

/// A cell that panics on its first attempt and succeeds on retry must
/// surface in the terminal snapshot as `done` with its retry counted;
/// a cell whose thread the watchdog leaks must land `failed` with a
/// frozen heartbeat — two back-to-back terminal snapshots render
/// byte-identically except the elapsed clock, proving the orphaned
/// thread no longer feeds the board.
#[test]
fn heartbeats_stop_on_panic_and_watchdog_kill() {
    let _guard = lock();
    let _hook_guard = HookGuard;
    let dir = tmp_dir("failures");

    set_cell_chaos_hook(Some(Arc::new(|ctx| {
        match (ctx.label, ctx.attempt) {
            // First attempt panics; the retry runs clean.
            ("panics-once", 0) => CellChaos::Panic,
            // Hangs past the watchdog on every attempt: permanent kill.
            ("wedged", _) => CellChaos::HangMs(60_000),
            _ => CellChaos::Continue,
        }
    })));

    let mut plan = Plan::with_threads(1)
        .without_store()
        .named("status-failures")
        .with_status(&dir);
    plan.push(
        "panics-once",
        RunConfig::quick("astar").instructions(52_000),
    );
    plan.push("wedged", RunConfig::quick("tunk").instructions(52_000));
    plan.push(
        "healthy",
        RunConfig::quick("redis")
            .instructions(52_000)
            .design(L1DesignKind::Seesaw),
    );
    let policy = SweepPolicy::from_env().supervisor(SupervisorConfig {
        timeout: Some(Duration::from_millis(300)),
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        ..SupervisorConfig::default()
    });
    let report = plan.run_sweep(policy);
    assert!(
        report.outcomes[0].is_ok(),
        "panicking cell recovers on retry"
    );
    assert!(report.outcomes[1].is_err(), "wedged cell fails permanently");
    assert!(report.outcomes[2].is_ok());

    let doc = read_status(&dir);
    assert_eq!(str_field(&doc, "state"), "done");
    let cells = cells_of(&doc);
    assert_eq!(str_field(&cells[0], "state"), "done");
    assert_eq!(u64_field(&cells[0], "retries"), 1, "panic retry recorded");
    assert_eq!(u64_field(&cells[0], "attempt"), 1);
    assert_eq!(str_field(&cells[1], "state"), "failed");
    assert_eq!(
        u64_field(&cells[1], "retries"),
        1,
        "watchdog kill retried once then gave up"
    );
    assert_eq!(str_field(&cells[2], "state"), "done");
    let rollup = doc.get("rollup").unwrap();
    assert_eq!(u64_field(rollup, "done"), 2);
    assert_eq!(u64_field(rollup, "failed"), 1);
    let sup = doc.get("supervisor").unwrap();
    assert_eq!(u64_field(sup, "panics_caught"), 1);
    assert_eq!(u64_field(sup, "timeouts"), 2);

    // The leaked watchdog-killed threads are still sleeping. Frozen
    // heartbeats mean repeated snapshots only differ in the wall clock.
    let strip_clock = |text: String| {
        // Only the wall clock (and the rate derived from it) may move
        // once the board is terminal.
        blank_number(&blank_number(&text, "elapsed_ms"), "minstr_per_sec")
    };
    let a = strip_clock(read_status_text(&dir));
    std::thread::sleep(Duration::from_millis(50));
    let b = strip_clock(read_status_text(&dir));
    assert_eq!(a, b, "terminal snapshot must be frozen");

    let _ = std::fs::remove_dir_all(&dir);
}

fn read_status_text(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("status.json")).expect("status.json")
}

/// Replaces every `"key":<number>` occurrence with `"key":0`.
fn blank_number(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find(&needle) {
        let after = i + needle.len();
        out.push_str(&rest[..after]);
        out.push('0');
        rest = &rest[after..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

// ---------------------------------------------------------------------------
// The heartbeat probe must not perturb simulation.
// ---------------------------------------------------------------------------

/// The same configuration run (a) directly with no observability, and
/// (b) inside a status-enabled sweep with tracing on — phase events in
/// the stream — must produce bit-identical simulation results. The
/// probe and the sink are observers, never participants.
#[test]
fn observed_run_is_bit_identical_to_unobserved() {
    let _guard = lock();
    let dir = tmp_dir("bitident");

    let cfg = RunConfig::quick("gups")
        .instructions(53_000)
        .design(L1DesignKind::Seesaw);

    // Unobserved: no board, no sink.
    let plain = System::build(&cfg).unwrap().run().unwrap();

    // Observed: heartbeat probe active (status sweep) and the traced
    // variant additionally emits ops phase events into the ring.
    let mut plan = Plan::with_threads(1)
        .without_store()
        .named("status-bitident")
        .with_status(&dir);
    plan.push("observed", cfg.clone());
    let report = plan.run_sweep(SweepPolicy::from_env());
    let observed = report.outcomes[0].as_ref().unwrap();

    assert_eq!(plain.totals.instructions, observed.totals.instructions);
    assert_eq!(plain.totals.cycles, observed.totals.cycles);
    assert_eq!(plain.runtime_ns.to_bits(), observed.runtime_ns.to_bits());
    assert_eq!(plain.l1.hits, observed.l1.hits);
    assert_eq!(plain.l1.misses, observed.l1.misses);
    assert_eq!(
        plain.energy.total_nj().to_bits(),
        observed.energy.total_nj().to_bits()
    );
    assert_eq!(plain.seesaw, observed.seesaw);
    assert_eq!(plain.walks, observed.walks);

    // Traced + observed: identical again, and the stream carries the
    // phase lifecycle markers (prewarm → warmup → measure).
    let traced = System::build(&cfg.clone().with_trace())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(plain.totals.cycles, traced.totals.cycles);
    assert_eq!(plain.l1.misses, traced.l1.misses);
    let trace = traced.trace.as_ref().expect("traced run returns a trace");
    assert_eq!(trace.counts.phase_marks, 3, "three phase boundaries");
    let jsonl = trace.to_jsonl();
    assert!(jsonl.contains("\"phase\""), "phase events serialize");
    seesaw_trace::jsonl::validate_jsonl(&jsonl).expect("stream with phase events validates");

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Cross-run regression attribution.
// ---------------------------------------------------------------------------

fn runtime_snapshot(wall: &[(&str, f64)]) -> String {
    let mut s = String::from(
        "{\"budget_instructions\":2000000,\"threads\":4,\"git_sha\":\"deadbeef\",\"figures\":{",
    );
    for (i, (name, w)) in wall.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{name}\":{{\"wall_seconds\":{w},\"sim_minstr_per_sec\":9.0,\
             \"memo_hits\":10,\"memo_misses\":96,\"store_hits\":0}}"
        ));
    }
    s.push_str("}}");
    s
}

/// The diff gate's contract from the issue: a 20% wall regression on a
/// substantial figure is flagged (exit-1 path), a 5% wobble is not.
#[test]
fn bench_diff_flags_20pct_and_ignores_5pct() {
    let old = BenchRun::parse(&runtime_snapshot(&[("fig10", 4.0), ("fig12", 4.0)])).unwrap();

    let regressed = BenchRun::parse(&runtime_snapshot(&[("fig10", 4.8), ("fig12", 4.0)])).unwrap();
    let diff = BenchDiff::compare(&old, &regressed, 15.0, 0.5);
    let regs = diff.regressions();
    assert_eq!(regs.len(), 1);
    assert_eq!(regs[0].name, "fig10");
    assert!(diff.render().contains("REGRESSION"));

    let wobble = BenchRun::parse(&runtime_snapshot(&[("fig10", 4.2), ("fig12", 3.9)])).unwrap();
    let diff = BenchDiff::compare(&old, &wobble, 15.0, 0.5);
    assert!(diff.regressions().is_empty());
    assert!(diff.render().contains("0 regression(s)"));

    // The committed BENCH_runtime.json parses with the same loader the
    // binary uses, so the gate's explanatory half can always run.
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_runtime.json"))
            .expect("committed runtime snapshot");
    let run = BenchRun::parse(&committed).expect("committed snapshot parses");
    assert!(!run.figures.is_empty());
}
