//! Fig. 2: the motivation study — MPKI, access latency, and access energy
//! as a function of associativity for 16 KB–256 KB caches.

use seesaw_cache::{CacheConfig, IndexPolicy, SetAssocCache, WayMask};
use seesaw_energy::SramModel;
use seesaw_workloads::{catalog, TraceGenerator, WorkloadSpec};

use crate::report::num;
use crate::runner::parallel_map;
use crate::Table;

/// Associativities swept by Fig. 2 (DM through 32-way).
pub const FIG2_ASSOCS: [usize; 5] = [1, 4, 8, 16, 32];

/// Cache sizes (KB) swept by Fig. 2a.
pub const FIG2A_SIZES_KB: [u64; 5] = [16, 32, 64, 128, 256];

/// One Fig. 2a cell: average MPKI at a geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2aRow {
    /// Cache size in KB.
    pub size_kb: u64,
    /// Associativity.
    pub ways: usize,
    /// MPKI averaged across all 16 workloads.
    pub avg_mpki: f64,
}

/// One Fig. 2b/2c cell: latency or energy at a geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2bRow {
    /// Cache size in KB.
    pub size_kb: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in ns (Fig. 2b) or energy in nJ (Fig. 2c).
    pub value: f64,
}

/// One functional cache simulation of `fig2a`'s sweep: a workload's
/// trace against one geometry.
fn fig2a_cell(spec: &WorkloadSpec, size_kb: u64, ways: usize, refs: usize) -> f64 {
    // Indexing policy is irrelevant for a hit-rate study; use
    // physical-style modulo indexing over the trace offsets.
    let config = CacheConfig::new(size_kb << 10, ways, 64, IndexPolicy::Pipt);
    let mut cache = SetAssocCache::new(config);
    let sets = config.sets();
    let full = WayMask::all(ways);
    let mut generator = TraceGenerator::new(spec, 0xf162a);
    let mut instructions = 0u64;
    for _ in 0..refs {
        let r = generator.next_ref();
        instructions += r.gap + 1;
        let ptag = r.offset / 64;
        let set = (ptag as usize) % sets;
        let hit = if r.is_write {
            cache.write(set, ptag, full).hit
        } else {
            cache.read(set, ptag, full).hit
        };
        if !hit {
            cache.fill(set, ptag, full, r.is_write);
        }
    }
    cache.stats().mpki(instructions)
}

/// Fig. 2a: average L1 MPKI versus associativity, per cache size.
/// Functional cache simulation over every workload's trace
/// (`refs_per_workload` references each), run across the worker pool —
/// one task per size × associativity × workload triple.
pub fn fig2a(refs_per_workload: usize) -> Vec<Fig2aRow> {
    let workloads = catalog();
    let mut triples = Vec::new();
    for &size_kb in &FIG2A_SIZES_KB {
        for &ways in &FIG2_ASSOCS {
            for spec in &workloads {
                triples.push((size_kb, ways, *spec));
            }
        }
    }
    let mpkis = parallel_map(&triples, |&(size_kb, ways, spec)| {
        fig2a_cell(&spec, size_kb, ways, refs_per_workload)
    });

    let mut rows = Vec::new();
    for &size_kb in &FIG2A_SIZES_KB {
        for &ways in &FIG2_ASSOCS {
            let mpki_sum: f64 = triples
                .iter()
                .zip(&mpkis)
                .filter(|((s, w, _), _)| *s == size_kb && *w == ways)
                .map(|(_, &mpki)| mpki)
                .sum();
            rows.push(Fig2aRow {
                size_kb,
                ways,
                avg_mpki: mpki_sum / workloads.len() as f64,
            });
        }
    }
    rows
}

/// Fig. 2b: access latency (ns) versus associativity, from the SRAM model.
pub fn fig2b() -> Vec<Fig2bRow> {
    sram_sweep(|sram, size, ways| sram.latency_ns(size, ways))
}

/// Fig. 2c: access energy (nJ) versus associativity, from the SRAM model.
pub fn fig2c() -> Vec<Fig2bRow> {
    sram_sweep(|sram, size, ways| sram.energy_nj(size, ways))
}

fn sram_sweep(f: impl Fn(&SramModel, u64, usize) -> f64) -> Vec<Fig2bRow> {
    let sram = SramModel::tsmc28_scaled_22nm();
    let mut rows = Vec::new();
    for &size_kb in &[16u64, 32, 64, 128] {
        for &ways in &[1usize, 2, 4, 8, 16, 32] {
            rows.push(Fig2bRow {
                size_kb,
                ways,
                value: f(&sram, size_kb, ways),
            });
        }
    }
    rows
}

/// Renders Fig. 2a rows as a size × associativity table.
pub fn fig2a_table(rows: &[Fig2aRow]) -> Table {
    let mut headers = vec!["size".to_string()];
    headers.extend(FIG2_ASSOCS.iter().map(|w| format!("{w}-way")));
    let mut table = Table::new(headers);
    for &size_kb in &FIG2A_SIZES_KB {
        let mut cells = vec![format!("{size_kb}KB")];
        for &ways in &FIG2_ASSOCS {
            let row = rows
                .iter()
                .find(|r| r.size_kb == size_kb && r.ways == ways)
                .expect("complete sweep");
            cells.push(num(row.avg_mpki));
        }
        table.row(cells);
    }
    table
}

/// Renders Fig. 2b/2c rows as a size × associativity table.
pub fn fig2bc_table(rows: &[Fig2bRow], unit: &str) -> Table {
    let assocs = [1usize, 2, 4, 8, 16, 32];
    let mut headers = vec!["size".to_string()];
    headers.extend(assocs.iter().map(|w| format!("{w}-way ({unit})")));
    let mut table = Table::new(headers);
    for &size_kb in &[16u64, 32, 64, 128] {
        let mut cells = vec![format!("{size_kb}KB")];
        for &ways in &assocs {
            let row = rows
                .iter()
                .find(|r| r.size_kb == size_kb && r.ways == ways)
                .expect("complete sweep");
            cells.push(format!("{:.3}", row.value));
        }
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_flattens_beyond_four_ways() {
        // The paper's central motivation claim: "Increasing associativity
        // beyond 4 does not significantly reduce miss rates."
        let rows = fig2a(40_000);
        for &size_kb in &FIG2A_SIZES_KB {
            let at = |ways: usize| {
                rows.iter()
                    .find(|r| r.size_kb == size_kb && r.ways == ways)
                    .unwrap()
                    .avg_mpki
            };
            let dm_to_4 = at(1) - at(4);
            let four_to_32 = at(4) - at(32);
            assert!(
                dm_to_4 > 2.0 * four_to_32.max(0.0),
                "{size_kb}KB: DM→4 saved {dm_to_4:.2} MPKI but 4→32 saved {four_to_32:.2}"
            );
        }
    }

    #[test]
    fn mpki_decreases_with_cache_size() {
        let rows = fig2a(20_000);
        let at = |size: u64| {
            rows.iter()
                .find(|r| r.size_kb == size && r.ways == 8)
                .unwrap()
                .avg_mpki
        };
        assert!(at(16) > at(64));
        assert!(at(64) > at(256));
    }

    #[test]
    fn latency_and_energy_grow_with_associativity() {
        for rows in [fig2b(), fig2c()] {
            for &size in &[16u64, 32, 64, 128] {
                let vals: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.size_kb == size)
                    .map(|r| r.value)
                    .collect();
                assert!(
                    vals.windows(2).all(|w| w[1] > w[0]),
                    "{size}KB not monotone"
                );
            }
        }
    }

    #[test]
    fn tables_render() {
        let t = fig2a_table(&fig2a(5_000));
        assert_eq!(t.len(), 5);
        let t = fig2bc_table(&fig2b(), "ns");
        assert_eq!(t.len(), 4);
    }
}
