//! §IV-A1/§IV-B4 ablation: the partition size.
//!
//! The paper picks 4-way (16 KB) partitions "for its desirable latency and
//! energy characteristics" and keeps that grain at every capacity. This
//! sweep varies ways-per-partition for a fixed cache and shows the
//! trade-off: narrower partitions look up fewer ways (better latency and
//! energy for superpage hits) but concentrate insertion pressure (lower
//! effective associativity for the partition-local victim choice).

use seesaw_energy::SramModel;

use super::sweep;
use crate::report::pct;
use crate::runner::{Plan, PlanRun};
use crate::{CpuKind, Frequency, L1DesignKind, RunConfig, SimError, Table};

/// One partition-size data point.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// Ways per partition.
    pub ways_per_partition: usize,
    /// Partition count.
    pub partitions: usize,
    /// Superpage-hit lookup cycles at 1.33 GHz.
    pub fast_cycles: u64,
    /// Runtime improvement over baseline VIPT.
    pub perf_pct: f64,
    /// Energy savings over baseline VIPT.
    pub energy_pct: f64,
    /// L1 MPKI (insertion-pressure indicator).
    pub mpki: f64,
}

/// Sweeps ways-per-partition on the 64 KB, 16-way geometry for one
/// representative workload (redis, out-of-order, 1.33 GHz).
pub fn partition_ablation(instructions: u64) -> Result<Vec<PartitionRow>, SimError> {
    sweep(|plan| partition_grid(plan, instructions))
}

pub(super) fn partition_grid(
    plan: &mut Plan,
    instructions: u64,
) -> impl FnOnce(&PlanRun) -> Vec<PartitionRow> {
    let base_cfg = RunConfig::paper("redis")
        .l1_size(64)
        .frequency(Frequency::F1_33)
        .cpu(CpuKind::OutOfOrder)
        .instructions(instructions);
    let baseline = plan.push("redis/base", base_cfg.clone());
    let points: Vec<(usize, usize, usize)> = [2usize, 4, 8]
        .into_iter()
        .map(|ways_per_partition| {
            let partitions = 16 / ways_per_partition;
            let mut cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
            cfg.seesaw_partitions = Some(partitions);
            let idx = plan.push(format!("redis/{partitions}p"), cfg);
            (ways_per_partition, partitions, idx)
        })
        .collect();
    move |results| {
        let sram = SramModel::tsmc28_scaled_22nm();
        let baseline = &results[baseline];
        points
            .into_iter()
            .map(|(ways_per_partition, partitions, idx)| {
                let r = &results[idx];
                PartitionRow {
                    ways_per_partition,
                    partitions,
                    fast_cycles: sram.partition_lookup_cycles(64, 16, partitions, 1.33),
                    perf_pct: r.runtime_improvement_pct(baseline),
                    energy_pct: r.energy_savings_pct(baseline),
                    mpki: r.l1_mpki,
                }
            })
            .collect()
    }
}

/// Renders the sweep.
pub fn partition_table(rows: &[PartitionRow]) -> Table {
    let mut table = Table::new(vec![
        "ways/partition",
        "partitions",
        "fast cycles",
        "perf",
        "energy",
        "MPKI",
    ]);
    for r in rows {
        table.row(vec![
            r.ways_per_partition.to_string(),
            r.partitions.to_string(),
            r.fast_cycles.to_string(),
            pct(r.perf_pct),
            pct(r.energy_pct),
            format!("{:.1}", r.mpki),
        ]);
    }
    table
}

/// Validates a partition count against a SEESAW geometry (used by the
/// config plumbing).
pub fn valid_partitioning(size_kb: u64, partitions: usize) -> bool {
    let ways = ((size_kb << 10) / (64 * 64)) as usize;
    partitions > 0
        && partitions.is_power_of_two()
        && ways.is_multiple_of(partitions)
        && ways / partitions >= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;

    #[test]
    fn narrower_partitions_save_more_energy() {
        let base_cfg = RunConfig::quick("redis").l1_size(64);
        let baseline = System::build(&base_cfg).unwrap().run().unwrap();
        let energy = |partitions: usize| {
            let mut cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
            cfg.seesaw_partitions = Some(partitions);
            System::build(&cfg)
                .unwrap()
                .run()
                .unwrap()
                .energy_savings_pct(&baseline)
        };
        let two_way = energy(8); // 16 ways / 8 partitions = 2-way
        let eight_way = energy(2); // 16 ways / 2 partitions = 8-way
        assert!(
            two_way > eight_way,
            "2-way partitions ({two_way:.2}%) should out-save 8-way ({eight_way:.2}%)"
        );
    }

    #[test]
    fn narrower_partitions_pressure_insertion() {
        let base_cfg = RunConfig::quick("gems").l1_size(64);
        let mpki = |partitions: usize| {
            let mut cfg = base_cfg.clone().design(L1DesignKind::Seesaw);
            cfg.seesaw_partitions = Some(partitions);
            System::build(&cfg).unwrap().run().unwrap().l1_mpki
        };
        let narrow = mpki(8);
        let wide = mpki(2);
        assert!(
            narrow >= wide * 0.98,
            "2-way-partition insertion ({narrow:.1} MPKI) should not beat 8-way ({wide:.1})"
        );
    }

    #[test]
    fn partitioning_validation() {
        assert!(valid_partitioning(64, 4));
        assert!(valid_partitioning(64, 16));
        assert!(!valid_partitioning(64, 3));
        assert!(!valid_partitioning(64, 32));
        assert!(valid_partitioning(32, 2));
    }

    #[test]
    fn table_renders() {
        let rows = vec![PartitionRow {
            ways_per_partition: 4,
            partitions: 4,
            fast_cycles: 1,
            perf_pct: 10.0,
            energy_pct: 15.0,
            mpki: 50.0,
        }];
        assert!(partition_table(&rows).to_string().contains("4"));
    }
}
