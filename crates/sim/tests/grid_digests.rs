//! Pins every distributable grid with an FNV-1a-64 digest of its cells.
//!
//! For each name `plan_cells` accepts, the digest covers the cell count
//! and the sorted `(label, fingerprint)` pairs at a fixed budget, so a
//! grid that gains, loses or changes a cell moves its digest, while a
//! grid that only reorders its cells does not (the fabric deduplicates
//! cells by content address, so order is free). No cell is simulated.

use std::collections::HashSet;

use seesaw_sim::experiments::{plan_cells, plan_names};
use seesaw_sim::runner::fingerprint;

const BUDGET: u64 = 100_000;

const PINNED: [(&str, usize, u64); 14] = [
    ("fig7", 96, 0x7423af5de873a079),
    ("fig8", 288, 0xe02651645c420d89),
    ("fig9", 288, 0xd5776a9354563ac5),
    ("fig10", 576, 0x31ef9d3ad9332f85),
    ("fig11", 32, 0x8e2257b9429901f9),
    ("fig12", 48, 0x40dcc060804dc905),
    ("fig13", 144, 0x5b503adddae4dc03),
    ("fig14", 384, 0x570278ddac99f6d9),
    ("fig15", 32, 0x4887584fbfb173e9),
    ("designs", 5, 0x2ac9801e38e1dc68),
    ("multicore", 20, 0x521f8ef62f3d3f93),
    ("scheduler", 20, 0x969d2a9c941b3405),
    ("partitions", 4, 0x63c9af31a6908e01),
    ("ablations", 120, 0x61964ae0620d2773),
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

/// The content address tells apart exactly the cells the derived `Debug`
/// rendering (every field, nothing else) tells apart: across every grid,
/// each distinct configuration has one address and no two share one.
#[test]
fn addresses_separate_exactly_the_distinct_configs() {
    let mut addresses = HashSet::new();
    let mut renderings = HashSet::new();
    let mut pairs = HashSet::new();
    for name in plan_names() {
        for (_, cfg) in plan_cells(name, BUDGET).expect("registered") {
            let address = fingerprint(&cfg);
            let rendering = format!("{cfg:?}");
            addresses.insert(address.clone());
            renderings.insert(rendering.clone());
            pairs.insert((address, rendering));
        }
    }
    assert_eq!(addresses.len(), renderings.len());
    assert_eq!(pairs.len(), renderings.len());
    assert_eq!(addresses.len(), 1_109, "distinct cells across the 14 grids");
}
