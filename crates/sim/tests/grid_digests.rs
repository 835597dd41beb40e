//! Pins every distributable grid with an FNV-1a-64 digest of its cells.
//!
//! For each name `plan_cells` accepts, the digest covers the cell count
//! and the sorted `(label, fingerprint)` pairs at a fixed budget, so a
//! grid that gains, loses or changes a cell moves its digest, while a
//! grid that only reorders its cells does not (the fabric deduplicates
//! cells by content address, so order is free). No cell is simulated.

use seesaw_sim::experiments::{plan_cells, plan_names};
use seesaw_sim::runner::fingerprint;

const BUDGET: u64 = 100_000;

const PINNED: [(&str, usize, u64); 14] = [
    ("fig7", 96, 0x25cc6b99754b5f55),
    ("fig8", 288, 0xd94b68044026817b),
    ("fig9", 288, 0xccb6aaa8404d3785),
    ("fig10", 576, 0x53a162fe6775119b),
    ("fig11", 32, 0x415af432b534701b),
    ("fig12", 48, 0xd5e85cca44d5a085),
    ("fig13", 144, 0x4f582d3a851f1cac),
    ("fig14", 384, 0x9ce202958889c7fb),
    ("fig15", 32, 0x941c891dfd41e665),
    ("designs", 5, 0x8238aece70e08c68),
    ("multicore", 20, 0xcab3be2b78fd0f55),
    ("scheduler", 20, 0xce58c1058b2ce2ed),
    ("partitions", 4, 0x6da0508a2613405d),
    ("ablations", 120, 0x0c30608dde273633),
];

fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn grid_digest(name: &str) -> (usize, u64) {
    let mut pairs: Vec<(String, String)> = plan_cells(name, BUDGET)
        .unwrap_or_else(|| panic!("{name} is registered"))
        .into_iter()
        .map(|(label, cfg)| {
            let key = fingerprint(&cfg);
            (label, key)
        })
        .collect();
    pairs.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (label, key) in &pairs {
        fnv1a64(&mut hash, label.as_bytes());
        fnv1a64(&mut hash, &[0]);
        fnv1a64(&mut hash, key.as_bytes());
        fnv1a64(&mut hash, &[0xff]);
    }
    (pairs.len(), hash)
}

#[test]
fn every_grid_matches_its_pinned_digest() {
    let names: Vec<&str> = PINNED.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(plan_names(), names.as_slice(), "registered names");
    let mismatches: Vec<String> = PINNED
        .iter()
        .filter_map(|&(name, cells, digest)| {
            let got = grid_digest(name);
            (got != (cells, digest)).then(|| format!("(\"{name}\", {}, {:#018x}),", got.0, got.1))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "grids moved; now:\n{}",
        mismatches.join("\n")
    );
}
