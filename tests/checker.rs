//! Acceptance tests for the fault-injection harness and the differential
//! shadow checker: long checker-enabled runs with every fault kind firing
//! must stay violation-free on every design, and deliberately breaking an
//! invalidation step must be caught.

use seesaw_check::{ChaosConfig, FaultConfig, ViolationKind};
use seesaw_sim::{L1DesignKind, RunConfig, SimError, System};

/// Fixed seed for the acceptance runs; printed by any diagnostic, so a
/// failure here is reproducible byte-for-byte.
const SEED: u64 = 0xfa17_5eed;

fn checked_config(design: L1DesignKind) -> RunConfig {
    RunConfig::paper("redis")
        .design(design)
        .instructions(1_000_000)
        .with_checker()
        .with_faults(FaultConfig::all(SEED))
}

/// The headline guarantee: one million instructions with splinters,
/// promotions, shootdowns, TFT storms, context switches, and memory
/// pressure all firing — and the shadow model never diverges, for the
/// baseline VIPT, SEESAW, VIVT, VESPA, and µtag designs alike.
#[test]
fn all_fault_kinds_run_clean_on_every_design() {
    for design in [
        L1DesignKind::BaselineVipt,
        L1DesignKind::Seesaw,
        L1DesignKind::Vivt { ways: 8 },
        L1DesignKind::Vespa,
        L1DesignKind::BaselineMicroTag,
    ] {
        let result = System::build(&checked_config(design))
            .unwrap_or_else(|e| panic!("{design:?}: build failed: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{design:?}: seed {SEED:#x}: {e}"));
        assert!(
            result.totals.instructions >= 1_000_000,
            "{design:?}: only {} instructions measured",
            result.totals.instructions
        );
        let checker = result.checker.expect("checker was enabled");
        assert_eq!(
            checker.violations.total(),
            0,
            "{design:?}: violations on a correct simulator"
        );
        assert!(
            checker.loads_checked > 0,
            "{design:?}: checker saw no loads"
        );
        assert!(
            checker.stores_tracked > 0,
            "{design:?}: checker saw no stores"
        );
        let faults = result.faults.expect("injector was attached");
        assert!(
            faults.total() > 10,
            "{design:?}: injector barely fired ({faults:?})"
        );
    }
}

/// The checker must be *able* to fail: dropping the TFT invalidation
/// that accompanies a splinter (the §IV-C2 precision invariant) has to
/// surface as a structured violation, not a silent wrong answer.
#[test]
fn dropping_splinter_invalidation_is_caught() {
    let chaos = ChaosConfig {
        drop_tft_invalidation_on_splinter: true,
        ..ChaosConfig::default()
    };
    let cfg = RunConfig::paper("redis")
        .design(L1DesignKind::Seesaw)
        .instructions(400_000)
        .with_checker()
        .with_faults(FaultConfig::all(SEED).mean_interval(2_000).chaos(chaos));
    let err = System::build(&cfg)
        .unwrap()
        .run()
        .expect_err("a lost TFT invalidation must not go unnoticed");
    match err {
        SimError::Check(v) => {
            assert_eq!(v.kind, ViolationKind::TftClaimsBasePage, "{v}");
            assert!(!v.history.is_empty(), "diagnostic must carry event history");
        }
        other => panic!("expected a checker violation, got: {other}"),
    }
}

/// Same for the other dangerous transition: a promotion whose L1 sweep is
/// skipped leaves stale lines of the migrated-away frames resident, and
/// the post-promotion audit must notice.
#[test]
fn dropping_promotion_sweep_is_caught() {
    let chaos = ChaosConfig {
        drop_promotion_sweep: true,
        ..ChaosConfig::default()
    };
    let cfg = RunConfig::paper("redis")
        .design(L1DesignKind::Seesaw)
        .instructions(400_000)
        .with_checker()
        .with_faults(FaultConfig::all(SEED).mean_interval(2_000).chaos(chaos));
    let err = System::build(&cfg)
        .unwrap()
        .run()
        .expect_err("a lost promotion sweep must not go unnoticed");
    match err {
        SimError::Check(v) => {
            let expected = matches!(
                v.kind,
                ViolationKind::SweptLineResident
                    | ViolationKind::DataDivergence
                    | ViolationKind::UseAfterFree
            );
            assert!(expected, "unexpected violation kind: {v}");
        }
        other => panic!("expected a checker violation, got: {other}"),
    }
}

/// The µtag aliasing invariant: a way predictor that serves a µtag hit
/// without verifying the physical tag delivers the wrong line whenever
/// two virtual tags fold to the same µtag in a set. The chaos knob
/// disables the verification round; the first alias the predictor
/// steers into must surface as a way-prediction-alias violation.
#[test]
fn skipping_way_verification_is_caught() {
    let chaos = ChaosConfig {
        skip_way_verification: true,
        ..ChaosConfig::default()
    };
    let cfg = RunConfig::paper("redis")
        .design(L1DesignKind::BaselineMicroTag)
        .instructions(400_000)
        .with_checker()
        .with_faults(FaultConfig::all(SEED).mean_interval(2_000).chaos(chaos));
    let err = System::build(&cfg)
        .unwrap()
        .run()
        .expect_err("an unverified µtag alias must not go unnoticed");
    match err {
        SimError::Check(v) => {
            // Unlike the page-table chaos knobs, the alias needs no
            // injected fault to manifest — only two vtags sharing a µtag
            // — so the event history may legitimately be empty.
            assert_eq!(v.kind, ViolationKind::WayPredictionAlias, "{v}");
        }
        other => panic!("expected a checker violation, got: {other}"),
    }
}

/// The interleaved 2-core run holds the same guarantee: per-core fault
/// injectors firing against the *shared* page table (so every splinter,
/// promotion, and shootdown is a genuine cross-core invalidation) and
/// per-core shadow checkers still agree with ground truth on every core,
/// deterministically.
#[test]
fn two_core_fault_injected_runs_stay_clean_and_deterministic() {
    let cfg = RunConfig::paper("redis")
        .design(L1DesignKind::Seesaw)
        .instructions(400_000)
        .cores(2)
        .with_checker()
        .with_faults(FaultConfig::all(SEED));
    let run = || {
        System::build(&cfg)
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("2-core seed {SEED:#x}: {e}"))
    };
    let a = run();
    let checker = a.checker.as_ref().expect("checker was enabled");
    assert_eq!(
        checker.violations.total(),
        0,
        "violations on a correct simulator"
    );
    assert!(checker.loads_checked > 0);
    let faults = a.faults.as_ref().expect("injector was attached");
    assert!(faults.total() > 0, "injectors never fired ({faults:?})");
    // Each core's own checker and injector did real work.
    assert_eq!(a.cores.len(), 2);
    for core in &a.cores {
        let c = core.checker.as_ref().expect("per-core checker");
        assert_eq!(c.violations.total(), 0, "core {} diverged", core.core);
        assert!(c.loads_checked > 0, "core {} checker idle", core.core);
    }
    let b = run();
    assert_eq!(a.totals.cycles, b.totals.cycles);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.checker, b.checker);
}

/// The fault schedule is part of the reproducibility contract: the same
/// seed must fire the same faults and produce the same counters.
#[test]
fn checked_runs_are_deterministic() {
    let run = || {
        System::build(&checked_config(L1DesignKind::Seesaw).instructions(150_000))
            .unwrap()
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.totals.cycles, b.totals.cycles);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.checker, b.checker);
    assert_eq!(a.demotions, b.demotions);
}
