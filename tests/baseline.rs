//! Single-core bit-identity regression (ISSUE 4, satellite a).
//!
//! The Core/Uncore split must leave `cores = 1` output bit-identical to
//! the pre-refactor commit. These goldens were captured on the commit
//! *before* the split (3e9430c) by running exactly these configs; every
//! field — including the float bit patterns — must still match.

use seesaw_sim::{CpuKind, L1DesignKind, RunConfig, RunResult};

/// A compact, bit-exact digest of everything the refactor must preserve.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    instructions: u64,
    cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    walks: u64,
    coherence_probes: u64,
    demotions: u64,
    energy_bits: u64,
    coverage_bits: u64,
    super_ref_bits: u64,
}

fn digest(r: &RunResult) -> Digest {
    Digest {
        instructions: r.totals.instructions,
        cycles: r.totals.cycles,
        l1_hits: r.l1.hits,
        l1_misses: r.l1.misses,
        walks: r.walks,
        coherence_probes: r.coherence_probes,
        demotions: r.demotions,
        energy_bits: r.energy.total_nj().to_bits(),
        coverage_bits: r.superpage_coverage.to_bits(),
        super_ref_bits: r.superpage_ref_fraction.to_bits(),
    }
}

fn configs() -> Vec<(&'static str, RunConfig)> {
    vec![
        (
            "redis/seesaw/ooo",
            RunConfig::quick("redis").design(L1DesignKind::Seesaw),
        ),
        (
            "astar/baseline/inorder",
            RunConfig::quick("astar").cpu(CpuKind::InOrder),
        ),
        (
            "mcf/seesaw/memhog40/checked",
            RunConfig::quick("mcf")
                .design(L1DesignKind::Seesaw)
                .memhog(40)
                .with_checker(),
        ),
        ("gups/seesaw/snoopy", {
            let mut c = RunConfig::quick("gups").design(L1DesignKind::SeesawWithWayPrediction);
            c.snoopy = true;
            c
        }),
    ]
}

fn goldens() -> Vec<Digest> {
    vec![
        Digest {
            instructions: 150002,
            cycles: 335446,
            l1_hits: 30816,
            l1_misses: 11479,
            walks: 0,
            coherence_probes: 10500,
            demotions: 0,
            energy_bits: 4666173103142098818,
            coverage_bits: 4607182418800017408,
            super_ref_bits: 4607182418800017408,
        },
        Digest {
            instructions: 150003,
            cycles: 289391,
            l1_hits: 40481,
            l1_misses: 4715,
            walks: 0,
            coherence_probes: 3750,
            demotions: 0,
            energy_bits: 4663126339781785582,
            coverage_bits: 4607182418800017408,
            super_ref_bits: 4607182418800017408,
        },
        Digest {
            instructions: 150001,
            cycles: 461761,
            l1_hits: 36870,
            l1_misses: 16183,
            walks: 0,
            coherence_probes: 4500,
            demotions: 6,
            energy_bits: 4667978019003899217,
            coverage_bits: 4603804719079489536,
            super_ref_bits: 4606687008409929492,
        },
        Digest {
            instructions: 150000,
            cycles: 852983,
            l1_hits: 14049,
            l1_misses: 23520,
            walks: 0,
            coherence_probes: 11250,
            demotions: 0,
            energy_bits: 4672033520336487288,
            coverage_bits: 4607182418800017408,
            super_ref_bits: 4607182418800017408,
        },
    ]
}

#[test]
fn single_core_output_is_bit_identical_to_pre_refactor_commit() {
    for ((label, config), want) in configs().into_iter().zip(goldens()) {
        let r = seesaw_sim::System::build(&config).unwrap().run().unwrap();
        assert_eq!(
            digest(&r),
            want,
            "config {label} drifted from pre-refactor golden"
        );
    }
}
