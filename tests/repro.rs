//! Acceptance tests for violation repro bundles: a seeded checker
//! failure must produce a bundle that (a) survives its JSON round trip
//! bit-for-bit, (b) replays to the identical violation and counter
//! snapshot — twice, at one and at two cores — and (c) shrinks to a
//! minimal explicit fault schedule within the reduction targets
//! (schedule ≤ 25% of the recorded points, budget ≤ 50% of the
//! original horizon).

use seesaw_sim::repro::{record, replay, shrink};
use seesaw_sim::{ChaosConfig, FaultConfig, L1DesignKind, ReproBundle, RunConfig};

/// Same seed as `tests/checker.rs`: the acceptance failures stay
/// byte-for-byte reproducible.
const SEED: u64 = 0xfa17_5eed;

/// The seeded failure the whole workflow exercises: chaos drops the TFT
/// invalidation that must accompany a splinter, so the checker reports
/// `tft-claims-base-page` partway into the run.
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
        .with_faults(FaultConfig::all(SEED).mean_interval(2_000).chaos(chaos))
}

/// The round-trip property, at one and two cores: serialize → parse →
/// replay must reproduce the identical violation report (kind,
/// instruction, core) and the identical counter snapshot (fault and
/// checker totals at the moment of failure) — and do so twice in a row,
/// each replay a genuine re-simulation.
#[test]
fn bundle_round_trip_replays_identically_at_one_and_two_cores() {
    for cores in [1usize, 2] {
        let bundle = record(&seeded_failure(cores))
            .unwrap_or_else(|e| panic!("{cores} core(s): seeded chaos must violate: {e}"));
        assert_eq!(bundle.cores, cores);
        assert!(
            bundle.recorded_points() > 0,
            "{cores} core(s): nothing fired"
        );
        assert!(
            !bundle.event_tail.is_empty(),
            "{cores} core(s): recorded bundle must carry an event tail"
        );

        // (a) Exact JSON round trip.
        let json = bundle.to_json();
        let parsed =
            ReproBundle::from_json(&json).unwrap_or_else(|e| panic!("{cores} core(s): {e}"));
        assert_eq!(parsed, bundle, "{cores} core(s): JSON round trip drifted");

        // (b) Replay the parsed bundle twice; both must match.
        let first = replay(&parsed).unwrap_or_else(|e| panic!("{cores} core(s): {e}"));
        assert!(first.matched, "{cores} core(s): first replay diverged");
        assert_eq!(first.bundle.violation, bundle.violation);
        assert_eq!(first.bundle.stats, bundle.stats);
        assert_eq!(first.bundle.recorded, bundle.recorded);
        let second = replay(&parsed).unwrap_or_else(|e| panic!("{cores} core(s): {e}"));
        assert!(second.matched, "{cores} core(s): second replay diverged");
        assert_eq!(
            first.bundle, second.bundle,
            "{cores} core(s): replays disagree with each other"
        );
    }
}

/// The shrinker's acceptance contract on the single-core seeded failure:
/// the minimal explicit schedule keeps at most a quarter of the recorded
/// fault points, the bisected budget is at most half the original
/// horizon, and the shrunk bundle still replays to the same violation —
/// twice.
#[test]
fn shrink_meets_reduction_targets_and_stays_replayable() {
    let original = record(&seeded_failure(1)).expect("seeded chaos must violate");
    let outcome = shrink(&original).expect("shrink must converge on a deterministic failure");
    let r = &outcome.report;
    assert_eq!(r.original_points, original.recorded_points());
    assert!(
        r.shrunk_points * 4 <= r.original_points,
        "schedule not minimal enough: {} of {} points survive",
        r.shrunk_points,
        r.original_points
    );
    assert!(
        r.shrunk_budget * 2 <= r.original_budget,
        "budget not minimal enough: {} of {} instructions survive",
        r.shrunk_budget,
        r.original_budget
    );
    assert!(r.shrunk_points >= 1, "an empty schedule cannot violate");
    assert!(r.candidates > 0);

    let bundle = &outcome.bundle;
    assert_eq!(bundle.violation.kind, original.violation.kind);
    let schedules = bundle
        .schedules
        .as_ref()
        .expect("shrunk bundle is explicit");
    let explicit: usize = schedules.iter().map(|s| s.points.len()).sum();
    assert_eq!(explicit, r.shrunk_points);

    // The shrunk artifact is a bundle like any other: exact round trip,
    // replays the same violation twice.
    let parsed = ReproBundle::from_json(&bundle.to_json()).expect("shrunk bundle parses");
    assert_eq!(&parsed, bundle);
    let first = replay(&parsed).expect("shrunk bundle replays");
    assert!(first.matched, "shrunk replay diverged");
    let second = replay(&parsed).expect("shrunk bundle replays again");
    assert!(second.matched, "second shrunk replay diverged");
    assert_eq!(first.bundle, second.bundle);
}
