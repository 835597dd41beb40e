//! Cross-design simulation invariants: properties that must hold for any
//! workload × design combination, checked over a small matrix.

use seesaw_sim::{CpuKind, Frequency, L1DesignKind, RunConfig, System};

const BUDGET: u64 = 100_000;

fn designs() -> [L1DesignKind; 6] {
    [
        L1DesignKind::BaselineVipt,
        L1DesignKind::BaselineWithWayPrediction,
        L1DesignKind::Seesaw,
        L1DesignKind::SeesawWithWayPrediction,
        L1DesignKind::Pipt { ways: 4 },
        L1DesignKind::Vivt { ways: 8 },
    ]
}

#[test]
fn every_design_completes_and_reports_sane_stats() {
    for name in ["astar", "gups"] {
        for design in designs() {
            let cfg = RunConfig::paper(name).design(design).instructions(BUDGET);
            let r = System::build(&cfg).unwrap().run().unwrap();
            assert!(
                r.totals.instructions >= BUDGET,
                "{name}/{design:?}: too few instructions"
            );
            assert!(
                r.totals.cycles > r.totals.instructions / 4,
                "{name}/{design:?}"
            );
            assert!(r.l1.accesses() > 0, "{name}/{design:?}");
            assert!(r.energy.total_nj() > 0.0, "{name}/{design:?}");
            assert!(
                r.l1_mpki > 0.0 && r.l1_mpki < 500.0,
                "{name}/{design:?}: {:.1}",
                r.l1_mpki
            );
            assert!((0.0..=1.0).contains(&r.superpage_coverage));
            assert!((0.0..=1.0).contains(&r.superpage_ref_fraction));
        }
    }
}

#[test]
fn determinism_across_designs_and_cores() {
    for design in [L1DesignKind::Seesaw, L1DesignKind::BaselineVipt] {
        for cpu in [CpuKind::InOrder, CpuKind::OutOfOrder] {
            let cfg = RunConfig::paper("tigr")
                .design(design)
                .cpu(cpu)
                .instructions(BUDGET);
            let a = System::build(&cfg).unwrap().run().unwrap();
            let b = System::build(&cfg).unwrap().run().unwrap();
            assert_eq!(a.totals.cycles, b.totals.cycles, "{design:?}/{cpu:?}");
            assert_eq!(a.l1.misses, b.l1.misses);
            assert!((a.energy.total_nj() - b.energy.total_nj()).abs() < 1e-9);
        }
    }
}

#[test]
fn seesaw_design_only_differs_in_l1_behavior() {
    // Same trace, same translation path: baseline and SEESAW must retire
    // the same instruction count, touch the same number of L1 accesses,
    // and have (nearly) identical miss counts — SEESAW changes *where*
    // lines live and how many ways are probed, not what is accessed.
    let cfg = RunConfig::paper("xalanc").instructions(BUDGET);
    let base = System::build(&cfg).unwrap().run().unwrap();
    let seesaw = System::build(&cfg.clone().design(L1DesignKind::Seesaw))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(base.totals.instructions, seesaw.totals.instructions);
    assert_eq!(base.l1.accesses(), seesaw.l1.accesses());
    let miss_delta =
        (base.l1.misses as f64 - seesaw.l1.misses as f64).abs() / base.l1.misses.max(1) as f64;
    assert!(
        miss_delta < 0.15,
        "partition-local insertion changed misses by {:.1}%",
        miss_delta * 100.0
    );
    // But SEESAW probes far fewer ways for the same work.
    assert!(seesaw.l1.ways_probed < base.l1.ways_probed * 2 / 3);
}

#[test]
fn frequencies_scale_reported_runtime() {
    // Same design, higher clock → more cycles of DRAM latency but faster
    // wall-clock time.
    let run = |f: Frequency| {
        let cfg = RunConfig::paper("mumm")
            .frequency(f)
            .design(L1DesignKind::Seesaw)
            .instructions(BUDGET);
        System::build(&cfg).unwrap().run().unwrap()
    };
    let slow = run(Frequency::F1_33);
    let fast = run(Frequency::F4_00);
    assert!(
        fast.totals.cycles > slow.totals.cycles,
        "DRAM costs more cycles at 4GHz"
    );
    assert!(fast.runtime_ns < slow.runtime_ns, "but wall-clock shrinks");
}

#[test]
fn warmup_is_excluded_from_measurement() {
    // With an explicit huge warmup, the measured window sees a warm cache:
    // miss rates must be well below an unwarmed run's.
    let mut cold_cfg = RunConfig::paper("omnet").instructions(60_000);
    cold_cfg.warmup_instructions = Some(0);
    let mut warm_cfg = cold_cfg.clone();
    warm_cfg.warmup_instructions = Some(500_000);
    let cold = System::build(&cold_cfg).unwrap().run().unwrap();
    let warm = System::build(&warm_cfg).unwrap().run().unwrap();
    assert!(
        warm.l1.miss_rate() < cold.l1.miss_rate(),
        "warm {} vs cold {}",
        warm.l1.miss_rate(),
        cold.l1.miss_rate()
    );
}

#[test]
fn telemetry_samples_cover_the_measured_window() {
    let mut cfg = RunConfig::paper("astar")
        .design(L1DesignKind::Seesaw)
        .instructions(200_000);
    cfg.sample_interval = Some(50_000);
    let r = System::build(&cfg).unwrap().run().unwrap();
    assert!(
        (3..=5).contains(&r.samples.len()),
        "expected ~4 windows, got {}",
        r.samples.len()
    );
    for pair in r.samples.windows(2) {
        assert!(pair[1].instructions > pair[0].instructions);
    }
    for s in &r.samples {
        assert!(s.cpi > 0.0);
        assert!((0.0..=1.0).contains(&s.tft_hit_rate));
        assert!(s.mpki >= 0.0);
    }
    // Sampling off → no samples.
    let quiet = System::build(&RunConfig::quick("astar"))
        .unwrap()
        .run()
        .unwrap();
    assert!(quiet.samples.is_empty());
}

#[test]
fn snoopy_mode_multiplies_probe_traffic() {
    let mut dir_cfg = RunConfig::paper("cann")
        .design(L1DesignKind::Seesaw)
        .instructions(BUDGET);
    let mut snoop_cfg = dir_cfg.clone();
    dir_cfg.snoopy = false;
    snoop_cfg.snoopy = true;
    let dir = System::build(&dir_cfg).unwrap().run().unwrap();
    let snoop = System::build(&snoop_cfg).unwrap().run().unwrap();
    assert!(
        snoop.coherence_probes > dir.coherence_probes * 2,
        "snoopy {} vs directory {}",
        snoop.coherence_probes,
        dir.coherence_probes
    );
}
