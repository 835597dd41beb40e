//! Pins the directory controller's observable behaviour with FNV-1a-64
//! digests of long pseudo-random reference streams.
//!
//! Each stream mixes reads and writes from 2, 4 or 8 cores over about
//! 4,096 physical lines — eight times what one 32 KB 8-way L1 holds — so
//! fills evict and the sharer sets churn. The digest covers every
//! access's `local_hit` and deliveries (sorted by target, so the
//! delivery order is free to change), the final statistics, and the
//! MOESI state of every core × line. Any change to which probes go out,
//! what they find, or what the arrays end up holding moves a digest.

use seesaw_cache::{CacheConfig, IndexPolicy, MoesiState};
use seesaw_coherence::{CoherenceMode, DirectoryController, ProbeDelivery};

const OPS: usize = 20_000;
const LINES: u64 = 4_096;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn flag(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }
}

fn state_code(s: MoesiState) -> u8 {
    match s {
        MoesiState::Modified => 1,
        MoesiState::Owned => 2,
        MoesiState::Exclusive => 3,
        MoesiState::Shared => 4,
        MoesiState::Invalid => 5,
    }
}

fn digest(cores: usize, mode: CoherenceMode) -> u64 {
    let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
    let mut dir = DirectoryController::new(cores, cfg, mode, 4);
    let mut seed =
        0x5eed_0000_u64 ^ ((cores as u64) << 8) ^ u64::from(mode == CoherenceMode::Snoopy);
    let mut next = move || {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        seed >> 33
    };
    let mut h = Fnv::new();
    for _ in 0..OPS {
        let core = (next() % cores as u64) as usize;
        let ptag = next() % LINES;
        let is_write = next() % 3 == 0;
        let tx = dir.access(core, ptag, is_write);
        h.flag(tx.local_hit);
        let mut probes: Vec<ProbeDelivery> = tx.probes.to_vec();
        probes.sort_by_key(|p| p.target);
        h.u64(probes.len() as u64);
        for p in &probes {
            h.u64(p.target as u64);
            h.flag(p.invalidate);
            h.flag(p.writeback);
            h.flag(p.hit);
        }
    }
    let s = dir.stats();
    for v in [
        s.transactions,
        s.probes_delivered,
        s.probe_ways,
        s.invalidations,
        s.writebacks,
    ] {
        h.u64(v);
    }
    for core in 0..cores {
        for ptag in 0..LINES {
            h.bytes(&[state_code(dir.state_of(core, ptag))]);
        }
    }
    h.0
}

#[test]
fn directory_and_snoopy_streams_match_their_pinned_digests() {
    let pinned: [(usize, CoherenceMode, u64); 6] = [
        (2, CoherenceMode::Directory, 0xcfa16626e85d908d),
        (2, CoherenceMode::Snoopy, 0x67443e4c20908ba0),
        (4, CoherenceMode::Directory, 0xebe381ea7001e332),
        (4, CoherenceMode::Snoopy, 0x2abbb383cd83639d),
        (8, CoherenceMode::Directory, 0x26cd58d2ace3bed6),
        (8, CoherenceMode::Snoopy, 0xb0dd9e009379622c),
    ];
    let got: Vec<(usize, CoherenceMode, u64)> = pinned
        .iter()
        .map(|&(cores, mode, _)| (cores, mode, digest(cores, mode)))
        .collect();
    assert_eq!(
        got, pinned,
        "directory behaviour drifted from the pinned digests"
    );
}
