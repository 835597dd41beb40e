//! Multi-process integration tests for the distributed sweep fabric
//! (ISSUE 10): real worker subprocesses sharing one store must split a
//! queue without ever double-claiming a generation, steal a SIGKILLed
//! peer's lease, and produce a merged report bit-identical to a
//! single-process run.
//!
//! Child halves follow the `tests/chaos.rs` idiom: env-var-gated
//! `#[test]` functions this file re-executes by name
//! (`current_exe() <name> --exact`), so the "worker subprocess" is the
//! genuine claim → supervised run → store write-back loop in its own
//! process. Cell budgets are unique per test so the process-wide memo
//! cache never crosses test boundaries.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seesaw_sim::fabric::{run_worker, Fabric, WorkerOptions};
use seesaw_sim::{L1DesignKind, Plan, RunConfig, Store, SweepPolicy};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seesaw-fabric-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_fabric(dir: &Path) -> Fabric {
    let store = Arc::new(Store::open(dir).expect("open shared store"));
    Fabric::open(store).expect("open fabric")
}

/// Re-executes this test binary running exactly one named child test.
fn spawn_child(test_name: &str, envs: &[(&str, &str)]) -> std::process::Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(&exe);
    cmd.args([test_name, "--exact", "--nocapture"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn child process")
}

fn wait_until(deadline_secs: u64, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The fleet test's grid. The budget is unique to this file so no other
/// test's memo entries or store records can satisfy these cells.
fn fleet_grid() -> Vec<(String, RunConfig)> {
    let b = 141_000;
    vec![
        (
            "astar-base".into(),
            RunConfig::quick("astar").instructions(b),
        ),
        (
            "astar-seesaw".into(),
            RunConfig::quick("astar")
                .instructions(b)
                .design(L1DesignKind::Seesaw),
        ),
        ("gups-base".into(), RunConfig::quick("gups").instructions(b)),
        (
            "gups-frag".into(),
            RunConfig::quick("gups").instructions(b).memhog(40),
        ),
        ("mcf-base".into(), RunConfig::quick("mcf").instructions(b)),
        (
            "redis-seesaw".into(),
            RunConfig::quick("redis")
                .instructions(b)
                .design(L1DesignKind::Seesaw),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Child halves (no-ops unless the parent set their environment marker).
// ---------------------------------------------------------------------------

/// A real work-stealing worker over the shared store.
#[test]
fn child_fleet_worker() {
    let Ok(dir) = std::env::var("SEESAW_FABRIC_CHILD_WORKER") else {
        return;
    };
    let store = Arc::new(Store::open(&dir).expect("child opens the shared store"));
    let opts = WorkerOptions::from_env().poll(Duration::from_millis(25));
    let stats = run_worker(store, &opts, SweepPolicy::default()).expect("worker io");
    assert_eq!(stats.error_markers, 0, "no cell may poison the queue");
}

/// Runs [`fleet_grid`] as one conventional single-process sweep into its
/// own store — the golden the distributed store is compared against.
#[test]
fn child_fleet_golden() {
    let Ok(dir) = std::env::var("SEESAW_FABRIC_CHILD_GOLDEN") else {
        return;
    };
    let store = Arc::new(Store::open(&dir).expect("child opens the golden store"));
    let mut plan = Plan::with_threads(1).with_store(store);
    for (label, cfg) in fleet_grid() {
        plan.push(label, cfg);
    }
    assert!(plan.run_sweep(SweepPolicy::default()).all_ok());
}

/// Claims one job, then hangs without running it until SIGKILLed — the
/// crashed-worker half of the lease-steal test.
#[test]
fn child_claim_and_hang() {
    let Ok(dir) = std::env::var("SEESAW_FABRIC_CHILD_HANG") else {
        return;
    };
    let fabric = open_fabric(Path::new(&dir));
    let mut stats = seesaw_trace::FabricWorkerStats::default();
    let claimed = fabric
        .claim_next("hung-worker", Duration::from_millis(700), &mut stats)
        .expect("claim io")
        .expect("a job to claim");
    // Visible handshake for the parent, then hang holding the lease.
    std::fs::write(
        Path::new(&dir).join("hang-claimed"),
        claimed.job.digest.as_bytes(),
    )
    .expect("write handshake");
    std::thread::sleep(Duration::from_secs(120));
}

/// Attempts exactly one claim and records whether it won — the racer of
/// the duplicate-claim test.
#[test]
fn child_claim_once() {
    let Ok(dir) = std::env::var("SEESAW_FABRIC_CHILD_CLAIM") else {
        return;
    };
    let id = std::env::var("SEESAW_WORKER_ID").expect("racer id");
    let fabric = open_fabric(Path::new(&dir));
    // Rendezvous: spin until the parent drops the start flag so all
    // racers hit the claim window together.
    wait_until(30, "race start flag", || {
        Path::new(&dir).join("race-start").exists()
    });
    let mut stats = seesaw_trace::FabricWorkerStats::default();
    let claimed = fabric
        .claim_next(&id, Duration::from_secs(600), &mut stats)
        .expect("claim io");
    if claimed.is_some() {
        std::fs::write(Path::new(&dir).join(format!("winner-{id}")), b"1")
            .expect("write winner marker");
    }
}

// ---------------------------------------------------------------------------
// The tests proper.
// ---------------------------------------------------------------------------

/// Two real worker processes drain a submitted sweep; the merged report
/// is complete, and every store record is byte-identical to the one a
/// single-process sweep of the same grid writes.
#[test]
fn fleet_of_two_matches_single_process_golden_bit_for_bit() {
    let dir = tmp_dir("fleet");
    std::fs::create_dir_all(&dir).unwrap();
    let fabric = open_fabric(&dir);
    let submission = fabric
        .submit("fleet-test", fleet_grid())
        .expect("submit fleet grid");

    let mut children: Vec<_> = (0..2)
        .map(|i| {
            spawn_child(
                "child_fleet_worker",
                &[
                    ("SEESAW_FABRIC_CHILD_WORKER", dir.to_str().unwrap()),
                    ("SEESAW_WORKER_ID", &format!("fleet-{i}")),
                ],
            )
        })
        .collect();
    let outcome = submission.wait(&fabric, Duration::from_millis(50), None, || {
        children
            .iter_mut()
            .any(|c| matches!(c.try_wait(), Ok(None)))
    });
    for mut child in children {
        let status = child.wait().expect("worker exit status");
        assert!(status.success(), "worker subprocess failed: {status}");
    }
    assert!(outcome.complete, "fleet must resolve every cell");
    assert_eq!(outcome.errored, 0);

    // The merged report: all six cells come from the shared store.
    let report = submission.assemble(&fabric, SweepPolicy::default());
    assert!(report.all_ok());
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(
        report.memo.hits, 6,
        "every worker-resolved cell must be served from the store"
    );

    // Golden: the same grid swept conventionally in one fresh process.
    let golden_dir = tmp_dir("fleet-golden");
    std::fs::create_dir_all(&golden_dir).unwrap();
    let mut golden = spawn_child(
        "child_fleet_golden",
        &[("SEESAW_FABRIC_CHILD_GOLDEN", golden_dir.to_str().unwrap())],
    );
    let status = golden.wait().expect("golden exit status");
    assert!(status.success(), "golden sweep failed: {status}");

    for digest in submission.digests() {
        let name = format!("r-{digest}.rec");
        let fleet_bytes = std::fs::read(dir.join(&name))
            .unwrap_or_else(|e| panic!("fleet store lacks {name}: {e}"));
        let golden_bytes = std::fs::read(golden_dir.join(&name))
            .unwrap_or_else(|e| panic!("golden store lacks {name}: {e}"));
        assert_eq!(
            fleet_bytes, golden_bytes,
            "distributed record {name} must be bit-identical to the single-process record"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&golden_dir);
}

/// SIGKILL a worker holding a live lease: the claim must survive until
/// the lease expires, then be stolen at the next generation, and the
/// sweep must still complete with correct results.
#[test]
fn sigkilled_workers_lease_is_stolen_and_the_sweep_completes() {
    let dir = tmp_dir("steal");
    std::fs::create_dir_all(&dir).unwrap();
    let fabric = open_fabric(&dir);
    let b = 142_000;
    let submission = fabric
        .submit(
            "steal-test",
            vec![
                (
                    "omnet-base".into(),
                    RunConfig::quick("omnet").instructions(b),
                ),
                (
                    "omnet-seesaw".into(),
                    RunConfig::quick("omnet")
                        .instructions(b)
                        .design(L1DesignKind::Seesaw),
                ),
            ],
        )
        .expect("submit steal grid");

    let mut child = spawn_child(
        "child_claim_and_hang",
        &[("SEESAW_FABRIC_CHILD_HANG", dir.to_str().unwrap())],
    );
    wait_until(60, "hung child to claim a job", || {
        dir.join("hang-claimed").exists()
    });
    let hung_digest = std::fs::read_to_string(dir.join("hang-claimed")).unwrap();
    let (generation, record) = fabric.latest_claim(&hung_digest);
    assert_eq!(generation, 1);
    assert_eq!(record.expect("claim record readable").worker, "hung-worker");

    child.kill().expect("SIGKILL the lease holder");
    let _ = child.wait();

    // A surviving worker with a lease shorter than the orphaned one:
    // it must wait out the dead worker's 700 ms lease, steal at
    // generation 2, and drain the queue.
    let store = Arc::new(Store::open(&dir).expect("reopen store"));
    let opts = WorkerOptions::from_env()
        .id("survivor")
        .lease(Duration::from_millis(700))
        .poll(Duration::from_millis(25));
    let stats = run_worker(store, &opts, SweepPolicy::default()).expect("survivor io");
    assert!(stats.steals >= 1, "survivor must steal the orphaned lease");
    assert_eq!(stats.completed, 2, "survivor finishes both cells");

    let (generation, record) = fabric.latest_claim(&hung_digest);
    assert_eq!(generation, 2, "steal bumps the claim generation");
    assert_eq!(record.expect("stolen claim readable").worker, "survivor");

    let report = submission.assemble(&fabric, SweepPolicy::default());
    assert!(report.all_ok());
    assert_eq!(report.memo.hits, 2, "both cells resolve from the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four processes race one queued job after a shared start flag:
/// `O_EXCL` claim creation guarantees exactly one winner per generation.
#[test]
fn a_generation_has_exactly_one_winner_across_processes() {
    let dir = tmp_dir("race");
    std::fs::create_dir_all(&dir).unwrap();
    let fabric = open_fabric(&dir);
    fabric
        .enqueue("race-cell", &RunConfig::quick("tigr").instructions(143_000))
        .expect("enqueue race cell");

    let children: Vec<_> = (0..4)
        .map(|i| {
            spawn_child(
                "child_claim_once",
                &[
                    ("SEESAW_FABRIC_CHILD_CLAIM", dir.to_str().unwrap()),
                    ("SEESAW_WORKER_ID", &format!("racer-{i}")),
                ],
            )
        })
        .collect();
    std::fs::write(dir.join("race-start"), b"go").unwrap();
    for mut child in children {
        let status = child.wait().expect("racer exit status");
        assert!(status.success(), "racer subprocess failed: {status}");
    }

    let winners = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("winner-"))
        .count();
    assert_eq!(winners, 1, "exactly one process may win a claim generation");
    let _ = std::fs::remove_dir_all(&dir);
}
