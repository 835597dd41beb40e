//! Tables I–III: the lookup anatomy, the system parameters, and the L1
//! latency configurations.

use seesaw_core::{L1DataCache, L1Request, L1Timing, LookupCase, SeesawConfig, SeesawL1};
use seesaw_energy::SramModel;
use seesaw_mem::{PageSize, PhysAddr, VirtAddr};

use crate::runner::parallel_map;
use crate::{Frequency, Table};

/// One row of Table I: the anatomy of a SEESAW lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Page size of the access.
    pub page_size: &'static str,
    /// TFT outcome.
    pub tft: &'static str,
    /// Cache outcome.
    pub cache: &'static str,
    /// Observed lookup latency in cycles.
    pub cycles: u64,
    /// Observed ways probed.
    pub ways_probed: usize,
    /// Savings class versus the baseline.
    pub savings: &'static str,
}

/// Reproduces Table I by driving a 32 KB SEESAW L1 (1.33 GHz timing:
/// fast = 1 cycle, slow = 2) through the four cases.
pub fn table1() -> Vec<Table1Row> {
    let timing = L1Timing {
        fast_cycles: 1,
        slow_cycles: 2,
    };
    let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing);
    let super_req = |va: u64| {
        // Each 2 MB virtual region gets its own physical frame, preserving
        // the low 21 bits as a real superpage mapping would.
        let frame = 0x1_0000_0000 + (va >> 21 << 21);
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(frame | (va & 0x1f_ffff)),
            page_size: PageSize::Super2M,
            is_write: false,
        }
    };
    let base_req = L1Request {
        va: VirtAddr::new(0x7000_3040),
        pa: PhysAddr::new(0x9040),
        page_size: PageSize::Base4K,
        is_write: false,
    };
    let mut rows = Vec::new();
    let mut push = |page_size, tft, cache, out: seesaw_core::L1AccessOutcome| {
        let savings = match out.case {
            LookupCase::SuperTftHitCacheHit => "Latency + Energy",
            LookupCase::SuperTftHitCacheMiss => "Energy",
            _ => "None",
        };
        rows.push(Table1Row {
            page_size,
            tft,
            cache,
            cycles: out.latency_cycles,
            ways_probed: out.ways_probed,
            savings,
        });
    };

    // Row 1: 2MB, TFT hit, cache hit.
    let req = super_req(0x4000_1040);
    l1.tft_fill(req.va);
    l1.access(&req); // warm the line
    push("2MB", "Hit", "Hit", l1.access(&req));
    // Row 2: 2MB, TFT hit, cache miss.
    let req = super_req(0x4080_1040);
    l1.tft_fill(req.va);
    push("2MB", "Hit", "Miss", l1.access(&req));
    // Row 3: 2MB, TFT miss.
    let req = super_req(0x40c0_1040);
    push("2MB", "Miss", "*", l1.access(&req));
    // Row 4: 4KB (TFT always misses for base pages).
    push("4KB", "Miss", "*", l1.access(&base_req));
    rows
}

/// Renders Table I.
pub fn table1_table(rows: &[Table1Row]) -> Table {
    let mut table = Table::new(vec![
        "PageSize", "TFT", "Cache", "Cycles", "Ways", "Savings",
    ]);
    for r in rows {
        table.row(vec![
            r.page_size.into(),
            r.tft.into(),
            r.cache.into(),
            r.cycles.to_string(),
            r.ways_probed.to_string(),
            r.savings.into(),
        ]);
    }
    table
}

/// Table II: the target-system parameters, as configured in this
/// reproduction.
pub fn table2() -> Table {
    let mut t = Table::new(vec!["parameter", "value"]);
    let rows: [(&str, &str); 10] = [
        (
            "Out-of-order CPU",
            "~Sandybridge: 168-entry ROB, 54-entry scheduler, 4-wide",
        ),
        ("In-order CPU", "~Atom: dual-issue, 16-stage pipeline"),
        ("L1 cache", "private split L1I (32KB) + L1D (Table III)"),
        (
            "TLB (Atom)",
            "L1: 64-entry 4KB + 32-entry 2MB; 512-entry L2",
        ),
        (
            "TLB (Sandybridge)",
            "split L1: 128-entry 4KB + 16-entry 2MB",
        ),
        ("LLC", "unified, 24MB"),
        ("DRAM", "51ns round-trip"),
        ("Technology", "22nm (scaled from TSMC 28nm)"),
        ("Frequencies", "1.33, 2.80, 4.00 GHz"),
        ("Coherence", "MOESI directory (snoopy variant available)"),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v.into()]);
    }
    t
}

/// One row of Table III: an L1 configuration's access latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3Row {
    /// Capacity in KB.
    pub size_kb: u64,
    /// Baseline VIPT associativity.
    pub ways: usize,
    /// Frequency label.
    pub freq: &'static str,
    /// TFT lookup cycles (always 1).
    pub tft_cycles: u64,
    /// Full-set ("base page") lookup cycles.
    pub base_cycles: u64,
    /// Partition ("superpage") lookup cycles.
    pub super_cycles: u64,
}

/// Reproduces Table III from the SRAM model. Each geometry × frequency
/// cell is independent pure math, so the sweep rides the worker pool like
/// every other driver (it is trivially cheap either way).
pub fn table3() -> Vec<Table3Row> {
    let mut cells = Vec::new();
    for (size_kb, ways, partitions) in [(32u64, 8usize, 2usize), (64, 16, 4), (128, 32, 8)] {
        for freq in Frequency::ALL {
            cells.push((size_kb, ways, partitions, freq));
        }
    }
    parallel_map(&cells, |&(size_kb, ways, partitions, freq)| {
        let sram = SramModel::tsmc28_scaled_22nm();
        Table3Row {
            size_kb,
            ways,
            freq: freq.label(),
            tft_cycles: 1,
            base_cycles: sram.full_lookup_cycles(size_kb, ways, freq.ghz()),
            super_cycles: sram.partition_lookup_cycles(size_kb, ways, partitions, freq.ghz()),
        }
    })
}

/// Renders Table III.
pub fn table3_table(rows: &[Table3Row]) -> Table {
    let mut table = Table::new(vec![
        "size",
        "assoc",
        "freq",
        "TFT",
        "L1 base-page",
        "L1 superpage",
    ]);
    for r in rows {
        table.row(vec![
            format!("{}KB", r.size_kb),
            r.ways.to_string(),
            r.freq.into(),
            r.tft_cycles.to_string(),
            r.base_cycles.to_string(),
            r.super_cycles.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 4);
        // Row 1: fast, narrow, both savings.
        assert_eq!((rows[0].cycles, rows[0].ways_probed), (1, 4));
        assert_eq!(rows[0].savings, "Latency + Energy");
        // Row 2: narrow lookup, then the miss path.
        assert_eq!(rows[1].ways_probed, 4);
        assert_eq!(rows[1].savings, "Energy");
        // Rows 3-4: full lookup, no savings.
        for r in &rows[2..] {
            assert_eq!((r.cycles, r.ways_probed), (2, 8));
            assert_eq!(r.savings, "None");
        }
    }

    #[test]
    fn table3_matches_the_paper_exactly() {
        let rows = table3();
        let expect = [
            (32u64, "1.33GHz", 2u64, 1u64),
            (32, "2.80GHz", 4, 2),
            (32, "4.00GHz", 5, 3),
            (64, "1.33GHz", 5, 1),
            (64, "2.80GHz", 9, 2),
            (64, "4.00GHz", 13, 3),
            (128, "1.33GHz", 14, 2),
            (128, "2.80GHz", 30, 3),
            (128, "4.00GHz", 42, 4),
        ];
        for (size, freq, base, sup) in expect {
            let row = rows
                .iter()
                .find(|r| r.size_kb == size && r.freq == freq)
                .unwrap();
            assert_eq!(row.base_cycles, base, "{size}KB {freq} base");
            assert_eq!(row.super_cycles, sup, "{size}KB {freq} super");
            assert_eq!(row.tft_cycles, 1);
        }
    }

    #[test]
    fn tables_render() {
        assert_eq!(table1_table(&table1()).len(), 4);
        assert_eq!(table3_table(&table3()).len(), 9);
        assert!(table2().to_string().contains("MOESI"));
    }
}
