//! The SRAM latency/energy model (§III-B, Fig. 2b/2c, Table III).
//!
//! ## Calibration
//!
//! Latency (ns) is a table over capacity × associativity, shaped so that:
//!
//! * each associativity doubling costs +10–25 % at low-to-mid
//!   associativity, blowing up at 16–32 ways where "the synthesis tool
//!   aggressively tries to meet timing" (§III-B);
//! * ceiling the latency at 1.33 / 2.80 / 4.00 GHz reproduces **every
//!   cycle count in Table III**, for both the baseline full-set lookups
//!   (2/4/5, 5/9/13, 14/30/42 cycles) and the SEESAW partition lookups
//!   (1/2/3, 1/2/3, 2/3/4 cycles).
//!
//! Energy (nJ) per full lookup grows ×1.45 per associativity doubling
//! (Fig. 2c's 40–50 % steps). Partial (way-masked) lookups are priced with
//! a fixed-plus-per-way decomposition `E ∝ F + k·w` with `F = 2.14·w`,
//! which yields the paper's measured 39.43 % saving for a 4-of-8-way
//! SEESAW lookup, including its 0.41 % partition-mux overhead.

const SIZES_KB: [u64; 6] = [16, 32, 64, 128, 256, 512];
const ASSOCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Access latency in ns: `LATENCY_NS[size_idx][assoc_idx]`.
const LATENCY_NS: [[f64; 6]; 6] = [
    // 1      2     4     8     16     32   ways
    [0.50, 0.58, 0.70, 0.85, 1.60, 4.20],  // 16 KB
    [0.62, 0.72, 0.88, 1.20, 2.20, 5.60],  // 32 KB
    [0.80, 0.92, 1.10, 1.45, 3.10, 7.20],  // 64 KB
    [1.00, 1.15, 1.40, 1.90, 4.30, 10.45], // 128 KB
    [1.30, 1.50, 1.80, 2.50, 5.50, 13.00], // 256 KB
    [1.70, 1.95, 2.35, 3.20, 7.00, 16.50], // 512 KB
];

/// Full-set lookup energy in nJ: `ENERGY_NJ[size_idx][assoc_idx]`.
const ENERGY_NJ: [[f64; 6]; 6] = [
    [0.010, 0.015, 0.021, 0.031, 0.045, 0.065], // 16 KB
    [0.014, 0.020, 0.029, 0.042, 0.061, 0.089], // 32 KB
    [0.019, 0.028, 0.040, 0.058, 0.085, 0.123], // 64 KB
    [0.026, 0.038, 0.055, 0.080, 0.116, 0.169], // 128 KB
    [0.036, 0.052, 0.076, 0.110, 0.160, 0.232], // 256 KB
    [0.049, 0.071, 0.104, 0.151, 0.219, 0.319], // 512 KB
];

/// Fixed lookup overhead (decoders, drivers, muxes) expressed in units of
/// one way's tag+data energy. Solving `(F + 4w)/(F + 8w) = 1 − 0.3943`
/// (the paper's measured saving) gives `F ≈ 2.14 w`.
const FIXED_OVERHEAD_WAYS: f64 = 2.14;

/// SEESAW's partition mux/decoder adds 0.41 % to a partition lookup
/// (§IV-A4).
const SEESAW_PARTITION_OVERHEAD: f64 = 1.0041;

/// Extra wire/decoder latency (ns) of selecting among `p` partitions;
/// measurable only at 8+ partitions (Table III's 128 KB row).
fn partition_decoder_extra_ns(partitions: usize) -> f64 {
    match partitions {
        0..=4 => 0.0,
        8 => 0.15,
        _ => 0.30,
    }
}

/// The SRAM compiler model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramModel {
    /// Latency scale factor relative to the calibrated 22 nm tables.
    pub latency_scale: f64,
    /// Energy scale factor relative to the calibrated 22 nm tables.
    pub energy_scale: f64,
    /// L1 leakage power in mW per KB of capacity.
    pub leakage_mw_per_kb: f64,
}

impl SramModel {
    /// The paper's configuration: TSMC 28 nm numbers scaled to 22 nm
    /// "using standard scaling factors" (§V). The tables are already in
    /// 22 nm terms, so scale factors are 1.
    pub fn tsmc28_scaled_22nm() -> Self {
        Self {
            latency_scale: 1.0,
            energy_scale: 1.0,
            leakage_mw_per_kb: 0.03,
        }
    }

    /// A 14 nm projection: the paper reports absolute L1 access time
    /// dropping 17 % from Sandybridge (32 nm) to Skylake (14 nm) while
    /// "the relative trend between associativities remains the same".
    pub fn projected_14nm() -> Self {
        Self {
            latency_scale: 0.83,
            energy_scale: 0.70,
            leakage_mw_per_kb: 0.02,
        }
    }

    /// Access latency of a full `size_kb`-KB, `ways`-way lookup, in ns.
    ///
    /// # Panics
    /// Panics if `size_kb` or `ways` is zero.
    pub fn latency_ns(&self, size_kb: u64, ways: usize) -> f64 {
        self.latency_scale * interp_2d(&LATENCY_NS, size_kb, ways)
    }

    /// Energy of a full `size_kb`-KB, `ways`-way lookup, in nJ.
    pub fn energy_nj(&self, size_kb: u64, ways: usize) -> f64 {
        self.energy_scale * interp_2d(&ENERGY_NJ, size_kb, ways)
    }

    /// Energy of probing `ways_probed` of the `total_ways` in a
    /// `size_kb`-KB cache, in nJ. The fixed-plus-per-way decomposition
    /// reproduces the paper's 39.43 % saving for 4-of-8 ways.
    pub fn lookup_energy_nj(&self, size_kb: u64, total_ways: usize, ways_probed: usize) -> f64 {
        assert!(
            ways_probed <= total_ways,
            "cannot probe more ways than exist"
        );
        if ways_probed == 0 {
            return 0.0;
        }
        let full = self.energy_nj(size_kb, total_ways);
        let f = FIXED_OVERHEAD_WAYS;
        let scale = (f + ways_probed as f64) / (f + total_ways as f64);
        let overhead = if ways_probed < total_ways {
            SEESAW_PARTITION_OVERHEAD
        } else {
            1.0
        };
        full * scale * overhead
    }

    /// Cycle count of a full-set lookup at `freq_ghz`, as the pipeline
    /// sees it (latency ceiled to whole cycles) — Table III's "L1
    /// base-page" column.
    pub fn full_lookup_cycles(&self, size_kb: u64, ways: usize, freq_ghz: f64) -> u64 {
        to_cycles(self.latency_ns(size_kb, ways), freq_ghz)
    }

    /// Cycle count of a SEESAW partition lookup: one `ways/partitions`-way
    /// probe of a `size_kb/partitions`-KB slice plus the partition
    /// decoder — Table III's "L1 superpage" column.
    ///
    /// # Panics
    /// Panics unless `partitions` divides both size and ways.
    pub fn partition_lookup_cycles(
        &self,
        size_kb: u64,
        ways: usize,
        partitions: usize,
        freq_ghz: f64,
    ) -> u64 {
        assert!(partitions > 0 && ways.is_multiple_of(partitions));
        assert!(size_kb.is_multiple_of(partitions as u64));
        let slice_kb = size_kb / partitions as u64;
        let slice_ways = ways / partitions;
        let ns = self.latency_ns(slice_kb, slice_ways)
            + self.latency_scale * partition_decoder_extra_ns(partitions);
        to_cycles(ns, freq_ghz)
    }

    /// L1 leakage power for a `size_kb`-KB cache, in mW.
    pub fn leakage_mw(&self, size_kb: u64) -> f64 {
        self.leakage_mw_per_kb * size_kb as f64
    }
}

fn to_cycles(latency_ns: f64, freq_ghz: f64) -> u64 {
    assert!(freq_ghz > 0.0, "frequency must be positive");
    (latency_ns * freq_ghz).ceil().max(1.0) as u64
}

/// Log-space bilinear interpolation over the calibration tables, clamped
/// at the edges.
fn interp_2d(table: &[[f64; 6]; 6], size_kb: u64, ways: usize) -> f64 {
    assert!(size_kb > 0 && ways > 0, "size and ways must be positive");
    let (si, sf) = axis_pos(size_kb as f64, &SIZES_KB.map(|v| v as f64));
    let (ai, af) = axis_pos(ways as f64, &ASSOCS.map(|v| v as f64));
    let at = |s: usize, a: usize| table[s][a];
    let lo = at(si, ai) * (1.0 - af) + at(si, (ai + 1).min(5)) * af;
    let hi = at((si + 1).min(5), ai) * (1.0 - af) + at((si + 1).min(5), (ai + 1).min(5)) * af;
    lo * (1.0 - sf) + hi * sf
}

/// Returns `(index, fraction)` such that `value` sits `fraction` of the
/// way (in log2 space) between `axis[index]` and `axis[index + 1]`.
fn axis_pos(value: f64, axis: &[f64; 6]) -> (usize, f64) {
    if value <= axis[0] {
        return (0, 0.0);
    }
    if value >= axis[5] {
        return (5, 0.0);
    }
    for i in 0..5 {
        if value < axis[i + 1] {
            let f = (value.log2() - axis[i].log2()) / (axis[i + 1].log2() - axis[i].log2());
            return (i, f);
        }
    }
    (5, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREQS: [f64; 3] = [1.33, 2.80, 4.00];

    #[test]
    fn table_iii_baseline_cycles_reproduced() {
        let sram = SramModel::tsmc28_scaled_22nm();
        let expected = [
            (32u64, 8usize, [2u64, 4, 5]),
            (64, 16, [5, 9, 13]),
            (128, 32, [14, 30, 42]),
        ];
        for (size, ways, cycles) in expected {
            for (f, want) in FREQS.iter().zip(cycles) {
                assert_eq!(
                    sram.full_lookup_cycles(size, ways, *f),
                    want,
                    "{size}KB {ways}-way at {f} GHz"
                );
            }
        }
    }

    #[test]
    fn table_iii_superpage_cycles_reproduced() {
        let sram = SramModel::tsmc28_scaled_22nm();
        // (size, ways, partitions) → superpage lookup cycles per frequency.
        let expected = [
            (32u64, 8usize, 2usize, [1u64, 2, 3]),
            (64, 16, 4, [1, 2, 3]),
            (128, 32, 8, [2, 3, 4]),
        ];
        for (size, ways, parts, cycles) in expected {
            for (f, want) in FREQS.iter().zip(cycles) {
                assert_eq!(
                    sram.partition_lookup_cycles(size, ways, parts, *f),
                    want,
                    "{size}KB {ways}-way {parts} partitions at {f} GHz"
                );
            }
        }
    }

    #[test]
    fn latency_grows_10_to_25_percent_per_step_at_low_assoc() {
        let sram = SramModel::tsmc28_scaled_22nm();
        for size in [16u64, 32, 64, 128] {
            for (a, b) in [(1usize, 2usize), (2, 4), (4, 8)] {
                let ratio = sram.latency_ns(size, b) / sram.latency_ns(size, a);
                assert!(
                    (1.10..=1.40).contains(&ratio),
                    "{size}KB {a}→{b} ways grew ×{ratio:.3}"
                );
            }
        }
    }

    #[test]
    fn energy_grows_40_to_50_percent_per_step() {
        let sram = SramModel::tsmc28_scaled_22nm();
        for size in [16u64, 32, 64, 128, 256] {
            for (a, b) in [(1usize, 2), (2, 4), (4, 8), (8, 16), (16, 32)] {
                let ratio = sram.energy_nj(size, b) / sram.energy_nj(size, a);
                assert!(
                    (1.37..=1.53).contains(&ratio),
                    "{size}KB {a}→{b} ways energy ×{ratio:.3}"
                );
            }
        }
    }

    #[test]
    fn seesaw_partial_lookup_saves_39_percent() {
        let sram = SramModel::tsmc28_scaled_22nm();
        let full = sram.lookup_energy_nj(32, 8, 8);
        let part = sram.lookup_energy_nj(32, 8, 4);
        let saving = 1.0 - part / full;
        assert!(
            (0.390..=0.399).contains(&saving),
            "expected ≈39.43% saving, got {:.2}%",
            saving * 100.0
        );
        assert_eq!(full, sram.energy_nj(32, 8));
    }

    #[test]
    fn zero_ways_probed_is_free() {
        let sram = SramModel::tsmc28_scaled_22nm();
        assert_eq!(sram.lookup_energy_nj(32, 8, 0), 0.0);
    }

    #[test]
    fn interpolation_is_monotone() {
        let sram = SramModel::tsmc28_scaled_22nm();
        // Off-grid points fall between their neighbors.
        let mid = sram.latency_ns(48, 8);
        assert!(mid > sram.latency_ns(32, 8) && mid < sram.latency_ns(64, 8));
        let mid_e = sram.energy_nj(96, 6);
        assert!(mid_e > sram.energy_nj(64, 4) && mid_e < sram.energy_nj(128, 8));
    }

    #[test]
    fn out_of_range_clamps() {
        let sram = SramModel::tsmc28_scaled_22nm();
        assert_eq!(sram.latency_ns(8, 1), sram.latency_ns(16, 1));
        assert_eq!(sram.latency_ns(1024, 64), sram.latency_ns(512, 32));
    }

    #[test]
    fn newer_node_is_faster_with_same_trend() {
        let old = SramModel::tsmc28_scaled_22nm();
        let new = SramModel::projected_14nm();
        assert!(new.latency_ns(32, 8) < old.latency_ns(32, 8));
        let trend_old = old.latency_ns(32, 16) / old.latency_ns(32, 8);
        let trend_new = new.latency_ns(32, 16) / new.latency_ns(32, 8);
        assert!(
            (trend_old - trend_new).abs() < 1e-9,
            "relative trend preserved"
        );
    }

    #[test]
    fn leakage_scales_with_capacity() {
        let sram = SramModel::tsmc28_scaled_22nm();
        assert!((sram.leakage_mw(64) - 2.0 * sram.leakage_mw(32)).abs() < 1e-12);
    }
}
