//! A fixed host-speed probe.
//!
//! On a shared host the same simulation runs faster or slower by a
//! quarter over minutes, as the neighbours' load comes and goes. The
//! probe is a fixed piece of work made of the kinds of work the
//! simulator's hot path does: dependent loads and stores into a table
//! that fits the core's private L2 and into one that does not, several
//! independent chains of such loads, and integer hashing with an
//! unpredictable branch. It runs in short slices between the measured
//! pieces of work, about ten per pass over a cell list; slicing after
//! every cell instead evicted a fifth of the simulator's speed from its
//! caches and TLBs.
//!
//! When the host slows down, the simulator slows down more than the
//! probe. On the reference host, over 206 passes in 18 runs of the three
//! workloads, the log of a pass's wall time followed the log of the
//! pass's median slice with slope 1.2 to 1.7 (correlation 0.44 to 0.86);
//! set-up times, measured against an earlier form of the probe, followed
//! it with slope 1.8 to 2.0. A measured time `t`
//! beside median slice `c` is therefore reported as
//! `t * (REFERENCE_SLICE_S / c) ^ ELASTICITY`, seconds at the reference
//! speed; that cut the spread of pass times from 9-10 % to 6-8 %. The
//! probe shares no code with the simulator, so a change of the simulator
//! moves the normalised figures as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 32 MiB, eight times a core's private L2.
const WORDS: usize = 1 << 22;
/// Entries of the table's prefix that the L2-sized chase walks (2 MiB).
const L2_WORDS: usize = 1 << 18;
/// Steps of each part of a slice; a slice takes about two milliseconds.
const L2_STEPS: u64 = 8_000;
const TABLE_STEPS: u64 = 3_000;
const CHAIN_STEPS: u64 = 1_500;
const HASH_STEPS: u64 = 100_000;
/// A typical median slice on the reference host (a 2-vCPU KVM guest on
/// an Intel Xeon, family 6 model 207); normalised times are in seconds
/// at this speed.
pub const REFERENCE_SLICE_S: f64 = 2.2e-3;
/// How much more than the probe the simulator slows down when the host
/// does: the middle of the slopes measured above.
const ELASTICITY: f64 = 1.6;
/// Probe slices per pass over a cell list.
const SLICES_PER_PASS: usize = 10;
/// Resident bytes the probe adds to the process, in MiB.
pub const RESIDENT_MIB: f64 = (WORDS * 8) as f64 / (1 << 20) as f64;

/// The probe and its table.
pub struct Probe {
    table: Vec<u64>,
    state: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 29)
}

impl Probe {
    /// A probe with its table filled from a fixed seed.
    pub fn new() -> Probe {
        let mut x: u64 = 0x5eed_ca11_b4a7_e000;
        let table = (0..WORDS)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                mix(mix(x, 0), x >> 31)
            })
            .collect();
        let mut probe = Probe {
            table,
            state: 0x0123_4567_89ab_cdef,
        };
        // The first slice finds nothing in the caches.
        probe.slice();
        probe
    }

    /// A dependent chain of `steps` read-modify-writes over the first
    /// `words` entries.
    fn chase(&mut self, words: usize, steps: u64) {
        let table = &mut self.table[..words];
        let mut h = self.state;
        let mut acc = 0u64;
        for step in 0..steps {
            let i = (h >> 17) as usize & (words - 1);
            let v = table[i];
            table[i] = v ^ step;
            h = mix(h, v);
            if h & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= h.rotate_left(7);
            }
        }
        self.state = black_box(h ^ acc);
    }

    /// Four independent chains over the whole table.
    fn chains(&mut self, steps: u64) {
        let mut h = [0, 1, 2, 3].map(|k| self.state ^ k);
        for step in 0..steps {
            for h in &mut h {
                let i = (*h >> 17) as usize & (WORDS - 1);
                let v = self.table[i];
                self.table[i] = v ^ step;
                *h = mix(*h, v);
            }
        }
        self.state = black_box(h[0] ^ h[1] ^ h[2] ^ h[3]);
    }

    /// Integer hashing with a data-dependent branch, no memory.
    fn hash(&mut self, steps: u64) {
        let mut h = self.state;
        let mut acc = 0u64;
        for step in 0..steps {
            h = mix(h, step);
            if h & 1 == 0 {
                acc = acc.wrapping_add(h);
            } else {
                acc ^= h.rotate_left(7);
            }
        }
        self.state = black_box(h ^ acc);
    }

    /// Runs one slice and returns its wall seconds.
    pub fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        self.chase(L2_WORDS, L2_STEPS);
        self.chase(WORDS, TABLE_STEPS);
        self.chains(CHAIN_STEPS);
        self.hash(HASH_STEPS);
        t0.elapsed().as_secs_f64()
    }
}

/// Whether a slice follows cell `index` of a list of `cells` cells:
/// after every `cells / SLICES_PER_PASS`-th cell, rounded up, and so
/// after the last cell when the division is exact.
pub fn slice_after(index: usize, cells: usize) -> bool {
    (index + 1).is_multiple_of(cells.div_ceil(SLICES_PER_PASS))
}

/// `seconds` at the reference speed, given the median slice measured
/// beside them.
pub fn normalise(seconds: f64, slice: f64) -> f64 {
    seconds * (REFERENCE_SLICE_S / slice).powf(ELASTICITY)
}
