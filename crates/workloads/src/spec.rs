//! The workload catalog: one calibrated spec per paper workload.

/// Benchmark-suite provenance, as named in §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// SPEC CPU2006.
    Spec,
    /// PARSEC.
    Parsec,
    /// Biobench.
    Biobench,
    /// Cloudsuite and other cloud/server applications.
    Cloud,
    /// HPC/synthetic kernels (graph500, gups).
    Hpc,
}

/// The parameters that characterize one workload's memory behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Short name, matching the paper's figure labels.
    pub name: &'static str,
    /// Suite provenance.
    pub class: WorkloadClass,
    /// Heap footprint in MiB.
    pub footprint_mib: u64,
    /// Hot working-set size in KiB (captured by a healthy L1).
    pub hot_kib: u64,
    /// Fraction of references to the hot set.
    pub hot_fraction: f64,
    /// Fraction of references from a sequential streaming cursor.
    pub sequential_fraction: f64,
    /// Fraction of references that walk a small pool of 64 KB-strided
    /// addresses (set-conflict pressure; resolved by associativity).
    pub conflict_fraction: f64,
    /// Number of conflicting columns in the strided pool — DM caches
    /// thrash, `ways ≥ columns` captures the pool (Fig. 2a's flattening).
    pub conflict_columns: usize,
    /// Fraction of references that immediately repeat the previous
    /// address (line-level temporal locality; feeds MRU way prediction).
    pub repeat_fraction: f64,
    /// Number of 2 MB regions the non-hot random component cycles over —
    /// the 2 MB-region working set that the TFT and superpage TLB must
    /// track (small for phased applications, large for gups-style spray).
    pub active_regions: usize,
    /// Fraction of references that are writes.
    pub write_fraction: f64,
    /// Memory references per instruction.
    pub mem_ref_fraction: f64,
    /// Coherence probes per kilo-instruction (application + system);
    /// multithreaded graph/cloud workloads run high (Fig. 11).
    pub coherence_pki: f64,
    /// Whether the paper runs it multithreaded.
    pub multithreaded: bool,
}

impl WorkloadSpec {
    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_mib << 20
    }

    /// Mean non-memory instructions between two references.
    pub fn mean_gap(&self) -> f64 {
        (1.0 - self.mem_ref_fraction) / self.mem_ref_fraction
    }
}

macro_rules! spec {
    ($name:literal, $class:ident, fp: $fp:literal, hot: $hot:literal @ $hotf:literal,
     seq: $seq:literal, conflict: $cf:literal x $cols:literal, rep: $rep:literal,
     reg: $reg:literal, wr: $wr:literal, mem: $mem:literal, coh: $coh:literal,
     mt: $mt:literal) => {
        WorkloadSpec {
            name: $name,
            class: WorkloadClass::$class,
            footprint_mib: $fp,
            hot_kib: $hot,
            hot_fraction: $hotf,
            sequential_fraction: $seq,
            conflict_fraction: $cf,
            conflict_columns: $cols,
            repeat_fraction: $rep,
            active_regions: $reg,
            write_fraction: $wr,
            mem_ref_fraction: $mem,
            coherence_pki: $coh,
            multithreaded: $mt,
        }
    };
}

/// The 16 workloads of Figs. 3, 7, and 11, in the paper's order.
///
/// Coherence rates count *all* L1 probes a core receives in the paper's
/// 32-core system — peer misses to shared data, upgrades, and OS/network
/// coherence activity — which is why they are far above per-thread
/// sharing-miss rates; they are calibrated so the CPU-side/coherence
/// savings split reproduces Fig. 11 (≈10 % coherence share for
/// single-threaded SPEC, ≈⅓ for canneal/tunkrank).
pub fn catalog() -> Vec<WorkloadSpec> {
    vec![
        spec!("astar",  Spec,     fp: 16, hot: 24 @ 0.72, seq: 0.05, conflict: 0.12 x 3, rep: 0.45, reg: 6,  wr: 0.25, mem: 0.30, coh: 25.0,  mt: false),
        spec!("cactus", Spec,     fp: 24, hot: 40 @ 0.64, seq: 0.16, conflict: 0.11 x 3, rep: 0.45, reg: 6,  wr: 0.30, mem: 0.32, coh: 20.0,  mt: false),
        spec!("cann",   Parsec,   fp: 48, hot: 32 @ 0.51, seq: 0.05, conflict: 0.08 x 5, rep: 0.25, reg: 10, wr: 0.30, mem: 0.30, coh: 140.0, mt: true),
        spec!("gems",   Spec,     fp: 32, hot: 64 @ 0.62, seq: 0.18, conflict: 0.12 x 3, rep: 0.50, reg: 7,  wr: 0.35, mem: 0.35, coh: 20.0,  mt: false),
        spec!("g500",   Hpc,      fp: 64, hot: 48 @ 0.48, seq: 0.04, conflict: 0.07 x 7, rep: 0.15, reg: 10, wr: 0.20, mem: 0.30, coh: 100.0, mt: true),
        spec!("gups",   Hpc,      fp: 64, hot: 16 @ 0.36, seq: 0.02, conflict: 0.06 x 8, rep: 0.15, reg: 8, wr: 0.50, mem: 0.25, coh: 25.0,  mt: false),
        spec!("mcf",    Spec,     fp: 32, hot: 40 @ 0.56, seq: 0.08, conflict: 0.14 x 3, rep: 0.40, reg: 8,  wr: 0.30, mem: 0.35, coh: 30.0,  mt: false),
        spec!("mumm",   Biobench, fp: 24, hot: 32 @ 0.62, seq: 0.22, conflict: 0.10 x 3, rep: 0.50, reg: 6,  wr: 0.20, mem: 0.30, coh: 15.0,  mt: false),
        spec!("omnet",  Spec,     fp: 16, hot: 32 @ 0.68, seq: 0.08, conflict: 0.12 x 3, rep: 0.50, reg: 6,  wr: 0.30, mem: 0.32, coh: 20.0,  mt: false),
        spec!("tigr",   Biobench, fp: 24, hot: 24 @ 0.58, seq: 0.20, conflict: 0.11 x 3, rep: 0.45, reg: 6,  wr: 0.25, mem: 0.30, coh: 15.0,  mt: false),
        spec!("tunk",   Cloud,    fp: 48, hot: 48 @ 0.54, seq: 0.05, conflict: 0.08 x 5, rep: 0.30, reg: 9,  wr: 0.25, mem: 0.30, coh: 130.0, mt: true),
        spec!("xalanc", Spec,     fp: 16, hot: 32 @ 0.66, seq: 0.12, conflict: 0.12 x 3, rep: 0.50, reg: 6,  wr: 0.30, mem: 0.33, coh: 22.0,  mt: false),
        spec!("nutch",  Cloud,    fp: 32, hot: 40 @ 0.63, seq: 0.08, conflict: 0.10 x 3, rep: 0.60, reg: 7,  wr: 0.30, mem: 0.30, coh: 70.0,  mt: true),
        spec!("olio",   Cloud,    fp: 32, hot: 32 @ 0.56, seq: 0.04, conflict: 0.08 x 5, rep: 0.25, reg: 9,  wr: 0.35, mem: 0.30, coh: 80.0,  mt: true),
        spec!("redis",  Cloud,    fp: 48, hot: 48 @ 0.56, seq: 0.08, conflict: 0.11 x 3, rep: 0.55, reg: 8,  wr: 0.40, mem: 0.28, coh: 70.0,  mt: true),
        spec!("mongo",  Cloud,    fp: 48, hot: 64 @ 0.56, seq: 0.06, conflict: 0.11 x 3, rep: 0.50, reg: 8,  wr: 0.35, mem: 0.30, coh: 80.0,  mt: true),
    ]
}

/// The eight cloud-centric workloads of Fig. 15's way-prediction study.
pub fn cloud_subset() -> Vec<WorkloadSpec> {
    let pick = [
        "olio", "redis", "nutch", "tunk", "g500", "mongo", "cann", "mcf",
    ];
    let all = catalog();
    pick.iter()
        .map(|n| *all.iter().find(|w| w.name == *n).expect("known workload"))
        .collect()
}

/// The Fig. 12 fragmentation-sweep subset (same eight workloads).
pub fn fig12_subset() -> Vec<WorkloadSpec> {
    cloud_subset()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_papers_16_workloads() {
        let names: Vec<&str> = catalog().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "astar", "cactus", "cann", "gems", "g500", "gups", "mcf", "mumm", "omnet", "tigr",
                "tunk", "xalanc", "nutch", "olio", "redis", "mongo"
            ]
        );
    }

    #[test]
    fn fractions_are_sane() {
        for w in catalog() {
            let structured = w.hot_fraction + w.sequential_fraction + w.conflict_fraction;
            assert!(
                structured < 1.0,
                "{}: fractions must leave room for random",
                w.name
            );
            assert!((0.0..=1.0).contains(&w.write_fraction));
            assert!(w.mem_ref_fraction > 0.0 && w.mem_ref_fraction < 1.0);
            assert!(w.footprint_mib >= 16);
            assert!(w.conflict_columns >= 2);
            assert!((0.0..0.7).contains(&w.repeat_fraction));
            assert!(w.active_regions >= 4);
        }
    }

    #[test]
    fn multithreaded_workloads_have_high_coherence() {
        for w in catalog() {
            if w.multithreaded {
                assert!(w.coherence_pki >= 70.0, "{} is MT but quiet", w.name);
            } else {
                assert!(w.coherence_pki <= 30.0, "{} is ST but noisy", w.name);
            }
        }
    }

    #[test]
    fn cloud_subset_is_fig15s_eight() {
        let names: Vec<&str> = cloud_subset().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["olio", "redis", "nutch", "tunk", "g500", "mongo", "cann", "mcf"]
        );
    }

    #[test]
    fn mean_gap_matches_ref_fraction() {
        let w = catalog()[0];
        let gap = w.mean_gap();
        let implied = 1.0 / (1.0 + gap);
        assert!((implied - w.mem_ref_fraction).abs() < 1e-12);
    }
}
