//! Instruction-fetch stream generator.
//!
//! The paper applies SEESAW to the data cache but notes it "is also
//! possible to apply it to the instruction cache. This may be valuable
//! with the advent of cloud workloads that use considerably larger
//! instruction-side footprints" (§V). This generator produces a code
//! fetch stream for that extension study: mostly-sequential fetch within
//! functions, transfers between functions drawn from a skewed popularity
//! distribution, over a configurable code footprint.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an instruction-fetch stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IFetchConfig {
    /// Total code footprint in bytes.
    pub code_bytes: u64,
    /// Number of functions the footprint divides into.
    pub functions: usize,
    /// Probability per fetch of transferring to another function
    /// (call/return/taken branch leaving the current function).
    pub transfer_probability: f64,
    /// Skew of function popularity: fraction of transfers that target the
    /// hot 20 % of functions (0.8 = classic 80/20).
    pub hot_transfer_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl IFetchConfig {
    /// A SPEC-like instruction footprint: small code, tight loops.
    pub fn spec_like() -> Self {
        Self {
            code_bytes: 256 << 10,
            functions: 64,
            transfer_probability: 0.05,
            hot_transfer_fraction: 0.9,
            seed: 0x1f,
        }
    }

    /// A cloud/server-like footprint: the "considerably larger
    /// instruction-side footprints" of §V (megabytes of JIT-ed and
    /// framework code, flatter popularity).
    pub fn cloud_like() -> Self {
        Self {
            code_bytes: 8 << 20,
            functions: 4096,
            transfer_probability: 0.08,
            hot_transfer_fraction: 0.6,
            seed: 0x1f,
        }
    }
}

/// The generator. Yields byte offsets of 16-byte fetch blocks within the
/// code footprint (Table II: "16 byte I-fetches per cycle").
#[derive(Debug, Clone)]
pub struct IFetchGenerator {
    config: IFetchConfig,
    rng: StdRng,
    /// Function start offsets.
    starts: Vec<u64>,
    /// Current fetch cursor.
    cursor: u64,
    /// End of the current function.
    limit: u64,
}

impl IFetchGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the configuration has no functions or no code.
    pub fn new(config: IFetchConfig) -> Self {
        assert!(config.functions > 0 && config.code_bytes > 0);
        let size = config.code_bytes / config.functions as u64;
        assert!(size >= 32, "functions must hold at least two fetch blocks");
        let starts: Vec<u64> = (0..config.functions as u64).map(|i| i * size).collect();
        let mut generator = Self {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            starts,
            cursor: 0,
            limit: size,
        };
        generator.transfer();
        generator
    }

    /// Produces the next 16-byte-aligned fetch offset.
    pub fn next_fetch(&mut self) -> u64 {
        if self.cursor >= self.limit || self.rng.gen::<f64>() < self.config.transfer_probability {
            self.transfer();
        }
        let fetch = self.cursor;
        self.cursor += 16;
        fetch
    }

    fn transfer(&mut self) {
        let n = self.starts.len();
        let hot = (n / 5).max(1);
        let target = if self.rng.gen::<f64>() < self.config.hot_transfer_fraction {
            self.rng.gen_range(0..hot)
        } else {
            self.rng.gen_range(0..n)
        };
        let size = self.config.code_bytes / n as u64;
        // Land partway into the function (call) and run to its end.
        let entry_blocks = (size / 16).max(2);
        let entry = self.rng.gen_range(0..entry_blocks / 2) * 16;
        self.cursor = self.starts[target] + entry;
        self.limit = self.starts[target] + size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetches_stay_in_code_and_are_block_aligned() {
        let mut generator = IFetchGenerator::new(IFetchConfig::cloud_like());
        for _ in 0..100_000 {
            let f = generator.next_fetch();
            assert!(f < 8 << 20);
            assert_eq!(f % 16, 0);
        }
    }

    #[test]
    fn fetch_is_mostly_sequential() {
        let mut generator = IFetchGenerator::new(IFetchConfig::spec_like());
        let mut sequential = 0;
        let mut last = generator.next_fetch();
        for _ in 0..10_000 {
            let f = generator.next_fetch();
            if f == last + 16 {
                sequential += 1;
            }
            last = f;
        }
        assert!(
            sequential > 8_000,
            "fetch should be mostly sequential, got {sequential}/10000"
        );
    }

    #[test]
    fn cloud_code_touches_far_more_lines_than_spec() {
        let unique = |config: IFetchConfig| {
            let mut generator = IFetchGenerator::new(config);
            let mut lines = std::collections::HashSet::new();
            for _ in 0..200_000 {
                lines.insert(generator.next_fetch() / 64);
            }
            lines.len()
        };
        let spec = unique(IFetchConfig::spec_like());
        let cloud = unique(IFetchConfig::cloud_like());
        assert!(
            cloud > 4 * spec,
            "cloud code footprint ({cloud} lines) should dwarf SPEC ({spec})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut cfg = IFetchConfig::spec_like();
            cfg.seed = seed;
            let mut g = IFetchGenerator::new(cfg);
            (0..100).map(|_| g.next_fetch()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
