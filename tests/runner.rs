//! Determinism guarantees of the parallel experiment engine (ISSUE 2):
//! a plan executed across the worker pool must be bit-identical to
//! running the same configurations serially, and a memo-cache hit must
//! return exactly what a fresh simulation would have produced.

use seesaw_sim::runner::fingerprint;
use seesaw_sim::{
    CpuKind, L1DesignKind, Plan, ProbeSource, RunConfig, RunResult, SweepPolicy, System,
};

const BUDGET: u64 = 60_000;

/// The grid the tests sweep: diverse enough to cover both CPU models,
/// three designs, fragmentation, and the checker-enabled path.
fn grid() -> Vec<RunConfig> {
    vec![
        RunConfig::quick("astar").instructions(BUDGET),
        RunConfig::quick("astar")
            .instructions(BUDGET)
            .design(L1DesignKind::Seesaw),
        RunConfig::quick("redis")
            .instructions(BUDGET)
            .cpu(CpuKind::OutOfOrder)
            .design(L1DesignKind::Seesaw),
        RunConfig::quick("gups")
            .instructions(BUDGET)
            .memhog(40)
            .design(L1DesignKind::Pipt { ways: 4 }),
        RunConfig::quick("mcf")
            .instructions(BUDGET)
            .design(L1DesignKind::Seesaw)
            .with_checker(),
    ]
}

/// Every field that feeds a figure or table, compared exactly. Floats are
/// compared by bit pattern: "bit-identical" means the parallel engine may
/// not even reorder a floating-point addition.
fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.totals.instructions, b.totals.instructions,
        "{label}: instructions"
    );
    assert_eq!(a.totals.cycles, b.totals.cycles, "{label}: cycles");
    assert_eq!(
        a.runtime_ns.to_bits(),
        b.runtime_ns.to_bits(),
        "{label}: runtime"
    );
    assert_eq!(
        a.energy.total_nj().to_bits(),
        b.energy.total_nj().to_bits(),
        "{label}: energy"
    );
    assert_eq!(a.l1.hits, b.l1.hits, "{label}: l1 hits");
    assert_eq!(a.l1.misses, b.l1.misses, "{label}: l1 misses");
    assert_eq!(a.l1_mpki.to_bits(), b.l1_mpki.to_bits(), "{label}: mpki");
    assert_eq!(a.walks, b.walks, "{label}: page walks");
    assert_eq!(a.seesaw, b.seesaw, "{label}: seesaw stats");
    assert_eq!(a.tft, b.tft, "{label}: tft stats");
    assert_eq!(
        a.superpage_coverage.to_bits(),
        b.superpage_coverage.to_bits(),
        "{label}: coverage"
    );
    assert_eq!(
        a.superpage_ref_fraction.to_bits(),
        b.superpage_ref_fraction.to_bits(),
        "{label}: superpage refs"
    );
    assert_eq!(a.coherence_probes, b.coherence_probes, "{label}: probes");
    assert_eq!(a.demotions, b.demotions, "{label}: demotions");
}

/// The memo key must cover every knob that changes a simulation — in
/// particular the multi-core fields, or a 2-core run could be served a
/// cached single-core result. Distinct configs, distinct keys; equal
/// configs, equal keys.
#[test]
fn memo_keys_never_collide_across_multicore_knobs() {
    let base = RunConfig::quick("astar").instructions(BUDGET);
    let mut snoopy_pair = base.clone().cores(2);
    snoopy_pair.snoopy = true;
    let mut forced_directory = base.clone();
    forced_directory.probe_source = ProbeSource::Coherence;
    let variants = [
        base.clone(),
        base.clone().cores(2),
        base.clone().cores(4),
        snoopy_pair,
        forced_directory,
    ];
    let keys: std::collections::HashSet<String> = variants.iter().map(fingerprint).collect();
    assert_eq!(
        keys.len(),
        variants.len(),
        "multicore knobs must all feed the memo key"
    );
    assert_eq!(
        fingerprint(&base),
        fingerprint(&RunConfig::quick("astar").instructions(BUDGET)),
        "equal configs must share a key"
    );
}

#[test]
fn parallel_plan_is_bit_identical_to_serial_execution() {
    let configs = grid();

    // Serial reference: the exact front-to-back execution the drivers
    // performed before the runner existed.
    let serial: Vec<RunResult> = configs
        .iter()
        .map(|cfg| System::build(cfg).unwrap().run().unwrap())
        .collect();

    // The same plan across a multi-worker pool (pinned to 4 workers so
    // the parallel path is exercised regardless of the host's cores).
    let mut plan = Plan::with_threads(4);
    for (i, cfg) in configs.iter().enumerate() {
        plan.push(format!("cell{i}"), cfg.clone());
    }
    let parallel = plan.run().unwrap();

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_identical(s, p, &format!("cell {i}"));
    }
}

#[test]
fn memo_hit_returns_the_same_result_as_a_fresh_run() {
    let cfg = RunConfig::quick("olio")
        .instructions(BUDGET)
        .design(L1DesignKind::Seesaw);

    // Fresh, uncached execution.
    let fresh = System::build(&cfg).unwrap().run().unwrap();

    // Prime the memo, then hit it.
    let mut prime = Plan::new();
    prime.push("prime", cfg.clone());
    let primed = prime.run().unwrap();

    // The plan's own memo tally, not the process-wide counters, which
    // sibling tests move while their plans run on parallel threads.
    let mut hit = Plan::new();
    hit.push("hit", cfg.clone());
    let report = hit.run_sweep(SweepPolicy::default());

    assert_eq!(
        report.memo.hits, 1,
        "second plan must be served from the memo"
    );
    assert_eq!(report.memo.misses, 0, "no re-simulation on a hit");
    assert_identical(&fresh, &primed[0], "fresh vs primed");
    let served = report.outcomes[0].as_ref().unwrap();
    assert_identical(&fresh, served, "fresh vs memo hit");
}

#[test]
fn duplicate_cells_in_one_plan_share_a_single_simulation() {
    let cfg = RunConfig::quick("tunk").instructions(BUDGET);
    let mut plan = Plan::with_threads(2);
    let a = plan.push("a", cfg.clone());
    let b = plan.push("b", cfg.clone());
    let c = plan.push("c", cfg.clone());
    let report = plan.run_sweep(SweepPolicy::default());
    // Three cells, at most one fresh simulation (zero if an earlier test
    // already cached this config in-process), counted by this plan alone.
    assert!(report.memo.misses <= 1);
    assert!(report.memo.hits >= 2);
    let results: Vec<&RunResult> = report
        .outcomes
        .iter()
        .map(|o| o.as_ref().unwrap())
        .collect();
    assert_identical(results[a], results[b], "a vs b");
    assert_identical(results[b], results[c], "b vs c");
}
