//! The CPU timing-model interface.

seesaw_trace::counters! {
    /// Final totals of a run.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct RunTotals {
        /// Cycles elapsed.
        pub cycles: u64,
        /// Instructions retired (memory references + gap instructions).
        pub instructions: u64,
        /// Squash/replay events charged.
        pub squashes: u64,
    }
    derived: ipc, cpi;
}

impl RunTotals {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// A trace-driven CPU timing model.
///
/// Call [`CpuModel::retire`] once per memory reference: `gap` non-memory
/// instructions execute, then a load/store with the given load-to-use
/// latency completes. `squash_cycles` charges a dependent-instruction
/// squash/replay of that cost (§IV-B3): the full pipeline-replay cost for
/// a mis-speculated L1 hit, a small bubble for a hit-time re-schedule,
/// zero when speculation held.
pub trait CpuModel {
    /// Accounts `gap` non-memory instructions followed by one memory
    /// reference of the given latency, plus any squash cost.
    fn retire(&mut self, gap: u64, load_latency: u64, squash_cycles: u64);

    /// Cycles elapsed so far.
    fn cycles(&self) -> u64;

    /// Instructions retired so far.
    fn instructions(&self) -> u64;

    /// Squash events charged so far.
    fn squashes(&self) -> u64;

    /// Snapshot of the totals.
    fn totals(&self) -> RunTotals {
        RunTotals {
            cycles: self.cycles(),
            instructions: self.instructions(),
            squashes: self.squashes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_derive_rates() {
        let t = RunTotals {
            cycles: 200,
            instructions: 100,
            squashes: 1,
        };
        assert!((t.ipc() - 0.5).abs() < 1e-12);
        assert!((t.cpi() - 2.0).abs() < 1e-12);
        let empty = RunTotals::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.cpi(), 0.0);
    }
}
