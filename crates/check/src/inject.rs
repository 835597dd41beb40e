//! The seeded fault injector.
//!
//! The simulator used to exercise page-table churn with a single
//! hard-coded toggle (one splinter, one promotion, alternating at a fixed
//! interval). The injector generalises that into a schedulable event
//! source: given a seed and a mean interval, it fires a randomized stream
//! of the transitions SEESAW must survive — splinters, promotions, TLB
//! shootdowns, TFT conflict storms, context switches, and
//! physical-memory pressure — at randomized points in the instruction
//! stream. The whole schedule is a pure function of the seed, so any
//! failure the checker reports can be reproduced by rerunning with the
//! printed seed.

/// The kinds of fault the injector can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Splinter a currently-promoted 2 MB region into base pages.
    Splinter,
    /// Promote a base-paged 2 MB region into a superpage.
    Promote,
    /// Deliver a spurious TLB shootdown for a mapped page.
    TlbShootdown,
    /// Storm the TFT with fills for conflicting superpage regions.
    TftStorm,
    /// Switch address-space context (flushes the TFT).
    ContextSwitch,
    /// Grab physical memory to fragment the allocator / force OOM paths.
    MemPressure,
    /// Release previously grabbed pressure memory.
    MemRelease,
}

impl FaultKind {
    /// Every kind, in a fixed order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Splinter,
        FaultKind::Promote,
        FaultKind::TlbShootdown,
        FaultKind::TftStorm,
        FaultKind::ContextSwitch,
        FaultKind::MemPressure,
        FaultKind::MemRelease,
    ];

    /// Stable kebab-case name, used by trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Splinter => "splinter",
            FaultKind::Promote => "promote",
            FaultKind::TlbShootdown => "tlb-shootdown",
            FaultKind::TftStorm => "tft-storm",
            FaultKind::ContextSwitch => "context-switch",
            FaultKind::MemPressure => "mem-pressure",
            FaultKind::MemRelease => "mem-release",
        }
    }

    /// The inverse of [`FaultKind::name`], for bundle parsing.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One fault firing, pinned to its exact position in a run.
///
/// `at` is the absolute instruction count the injector was polled with
/// when the fault fired; `rng_state` is the injector's internal RNG state
/// immediately after the kind was drawn, so an explicit replay can
/// restore it and the target choices (`pick`) the fault application makes
/// come out identical to the recorded run — even after *other* points
/// have been deleted from the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Absolute instruction count at which the fault fired.
    pub at: u64,
    /// The kind that fired.
    pub kind: FaultKind,
    /// RNG state to restore before applying the fault.
    pub rng_state: u64,
}

/// An explicit, ordered list of fault points for one injector.
///
/// The seeded injector derives its schedule from `FaultConfig::seed`; a
/// `FaultSchedule` instead replays exactly these points (and nothing
/// else), which is what makes delta-debugging possible: the shrinker can
/// delete individual points and re-run, something a seeded stream cannot
/// express.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The points to fire, in ascending `at` order.
    pub points: Vec<FaultPoint>,
}

impl FaultSchedule {
    /// A schedule replaying exactly `points` (must be in ascending `at`
    /// order, as recorded).
    pub fn new(points: Vec<FaultPoint>) -> Self {
        Self { points }
    }

    /// Number of scheduled points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Deliberate bug switches: each knob disables one invalidation step so
/// tests can prove the shadow checker catches the resulting corruption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Skip the TFT invalidation that must accompany a splinter
    /// (breaks the §IV-C2 precision invariant).
    pub drop_tft_invalidation_on_splinter: bool,
    /// Skip the L1 sweep that must accompany a promotion's frame
    /// migration (leaves stale lines of the freed frames resident).
    pub drop_promotion_sweep: bool,
    /// Skip the physical-tag verification that must follow a µtag way
    /// prediction (serves virtual-alias false hits as real hits).
    pub skip_way_verification: bool,
}

impl ChaosConfig {
    /// True if any deliberate bug is armed.
    pub fn any(&self) -> bool {
        self.drop_tft_invalidation_on_splinter
            || self.drop_promotion_sweep
            || self.skip_way_verification
    }
}

/// Injector schedule: which faults may fire, how often, and the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the fault schedule (print it to reproduce a failure).
    pub seed: u64,
    /// Mean instructions between faults (randomized per event).
    pub mean_interval: u64,
    /// Allow [`FaultKind::Splinter`].
    pub splinters: bool,
    /// Allow [`FaultKind::Promote`].
    pub promotions: bool,
    /// Allow [`FaultKind::TlbShootdown`].
    pub shootdowns: bool,
    /// Allow [`FaultKind::TftStorm`].
    pub tft_storms: bool,
    /// Allow [`FaultKind::ContextSwitch`].
    pub context_switches: bool,
    /// Allow [`FaultKind::MemPressure`] / [`FaultKind::MemRelease`].
    pub mem_pressure: bool,
    /// Deliberate bug switches (all off for correctness runs).
    pub chaos: ChaosConfig,
}

impl FaultConfig {
    /// Every fault kind enabled at the given seed, with a mean interval
    /// of 20 k instructions and no deliberate bugs.
    pub fn all(seed: u64) -> Self {
        Self {
            seed,
            mean_interval: 20_000,
            splinters: true,
            promotions: true,
            shootdowns: true,
            tft_storms: true,
            context_switches: true,
            mem_pressure: true,
            chaos: ChaosConfig::default(),
        }
    }

    /// Overrides the mean inter-fault interval.
    pub fn mean_interval(mut self, instructions: u64) -> Self {
        self.mean_interval = instructions.max(1);
        self
    }

    /// Arms the given deliberate bug switches.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    fn enabled_kinds(&self) -> Vec<FaultKind> {
        let mut kinds = Vec::new();
        if self.splinters {
            kinds.push(FaultKind::Splinter);
        }
        if self.promotions {
            kinds.push(FaultKind::Promote);
        }
        if self.shootdowns {
            kinds.push(FaultKind::TlbShootdown);
        }
        if self.tft_storms {
            kinds.push(FaultKind::TftStorm);
        }
        if self.context_switches {
            kinds.push(FaultKind::ContextSwitch);
        }
        if self.mem_pressure {
            kinds.push(FaultKind::MemPressure);
            kinds.push(FaultKind::MemRelease);
        }
        kinds
    }
}

seesaw_trace::counters! {
    /// Counts of faults actually fired, by kind.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct InjectionStats {
        /// Splinters fired.
        pub splinters: u64,
        /// Promotions fired.
        pub promotions: u64,
        /// Spurious TLB shootdowns fired.
        pub shootdowns: u64,
        /// TFT conflict storms fired.
        pub tft_storms: u64,
        /// Context switches fired.
        pub context_switches: u64,
        /// Memory-pressure grabs fired.
        pub mem_pressure: u64,
        /// Memory-pressure releases fired.
        pub mem_releases: u64,
    }
    derived: total;
}

impl InjectionStats {
    /// Total faults fired across every kind.
    pub fn total(&self) -> u64 {
        seesaw_trace::Counter::sum_leaves(self)
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Splinter => self.splinters += 1,
            FaultKind::Promote => self.promotions += 1,
            FaultKind::TlbShootdown => self.shootdowns += 1,
            FaultKind::TftStorm => self.tft_storms += 1,
            FaultKind::ContextSwitch => self.context_switches += 1,
            FaultKind::MemPressure => self.mem_pressure += 1,
            FaultKind::MemRelease => self.mem_releases += 1,
        }
    }
}

/// A seeded, schedulable fault source (see the module docs).
///
/// Two modes share the polling interface:
///
/// * **Seeded** ([`FaultInjector::new`]): the schedule is a pure function
///   of `config.seed`. Every firing is also recorded as a [`FaultPoint`]
///   (position, kind, RNG snapshot), so a failing run can be converted
///   into an explicit schedule after the fact.
/// * **Explicit replay** ([`FaultInjector::replay`]): fires exactly the
///   points of a [`FaultSchedule`], restoring the recorded RNG state at
///   each point so target selection matches the recorded run. This is the
///   mode the shrinker's delta-debugging candidates run in.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    kinds: Vec<FaultKind>,
    rng: SplitMix64,
    next_at: u64,
    stats: InjectionStats,
    /// Explicit mode: remaining points to fire plus a cursor.
    schedule: Option<(Vec<FaultPoint>, usize)>,
    /// Every point fired so far, in firing order (both modes).
    fired: Vec<FaultPoint>,
}

impl FaultInjector {
    /// Builds an injector whose schedule is fully determined by
    /// `config.seed`.
    pub fn new(config: FaultConfig) -> Self {
        let kinds = config.enabled_kinds();
        let mut rng = SplitMix64::new(config.seed);
        let next_at = interval(&mut rng, config.mean_interval);
        Self {
            config,
            kinds,
            rng,
            next_at,
            stats: InjectionStats::default(),
            schedule: None,
            fired: Vec::new(),
        }
    }

    /// Builds an injector that replays exactly `schedule`, ignoring the
    /// seed-derived stream. `config` is still consulted for the chaos
    /// switches (a replayed bug must stay armed to reproduce).
    pub fn replay(config: FaultConfig, schedule: FaultSchedule) -> Self {
        let mut injector = Self::new(config);
        injector.schedule = Some((schedule.points, 0));
        injector
    }

    /// True when the injector replays an explicit schedule instead of the
    /// seeded stream.
    pub fn is_replay(&self) -> bool {
        self.schedule.is_some()
    }

    /// The configuration the injector was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Every fault fired so far, in firing order, with the RNG snapshot
    /// that makes each one individually replayable.
    pub fn fired(&self) -> &[FaultPoint] {
        &self.fired
    }

    /// Asks whether a fault fires at the given executed-instruction count.
    /// Returns the kind to apply, advancing the schedule; `None` between
    /// scheduled points or when no kinds are enabled.
    pub fn poll(&mut self, executed: u64) -> Option<FaultKind> {
        if let Some((points, cursor)) = self.schedule.as_mut() {
            let point = *points.get(*cursor)?;
            if executed < point.at {
                return None;
            }
            *cursor += 1;
            // Restore the recorded RNG state so the `pick` calls the
            // fault application is about to make match the recorded run.
            self.rng.state = point.rng_state;
            self.stats.bump(point.kind);
            self.fired.push(point);
            return Some(point.kind);
        }
        if self.kinds.is_empty() || executed < self.next_at {
            return None;
        }
        self.next_at = executed + interval(&mut self.rng, self.config.mean_interval);
        let kind = self.kinds[(self.rng.next() % self.kinds.len() as u64) as usize];
        self.stats.bump(kind);
        self.fired.push(FaultPoint {
            at: executed,
            kind,
            rng_state: self.rng.state,
        });
        Some(kind)
    }

    /// A deterministic choice in `0..n`, for the fault-application code to
    /// pick targets (which region to splinter, which page to shoot down)
    /// from the same seeded stream.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        (self.rng.next() % n as u64) as usize
    }

    /// Counts of faults fired so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }
}

/// A randomized inter-fault gap in `[mean/2, 3*mean/2)` — jittered but
/// never degenerate, so every enabled kind gets exercised in a run.
fn interval(rng: &mut SplitMix64, mean: u64) -> u64 {
    let mean = mean.max(2);
    mean / 2 + rng.next() % mean
}

#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(config: FaultConfig, horizon: u64) -> Vec<(u64, FaultKind)> {
        let mut injector = FaultInjector::new(config);
        let mut fired = Vec::new();
        for executed in 0..horizon {
            if let Some(kind) = injector.poll(executed) {
                fired.push((executed, kind));
            }
        }
        fired
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = drain(FaultConfig::all(0xfa17).mean_interval(500), 100_000);
        let b = drain(FaultConfig::all(0xfa17).mean_interval(500), 100_000);
        assert_eq!(a, b);
        let c = drain(FaultConfig::all(0xdead).mean_interval(500), 100_000);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn every_enabled_kind_eventually_fires() {
        let fired = drain(FaultConfig::all(7).mean_interval(100), 200_000);
        for kind in FaultKind::ALL {
            assert!(
                fired.iter().any(|&(_, k)| k == kind),
                "{kind:?} never fired"
            );
        }
        let mut injector = FaultInjector::new(FaultConfig::all(7).mean_interval(100));
        for executed in 0..200_000 {
            injector.poll(executed);
        }
        assert_eq!(injector.stats().total(), fired.len() as u64);
    }

    #[test]
    fn disabled_kinds_never_fire() {
        let mut config = FaultConfig::all(9).mean_interval(100);
        config.splinters = false;
        config.mem_pressure = false;
        let fired = drain(config, 100_000);
        assert!(!fired.is_empty());
        assert!(fired.iter().all(|&(_, k)| k != FaultKind::Splinter
            && k != FaultKind::MemPressure
            && k != FaultKind::MemRelease));
    }

    #[test]
    fn intervals_are_jittered_around_the_mean() {
        let fired = drain(FaultConfig::all(11).mean_interval(1_000), 2_000_000);
        assert!(fired.len() > 1_000, "roughly one fault per mean interval");
        let gaps: Vec<u64> = fired.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps.iter().any(|&g| g != gaps[0]), "gaps vary");
        assert!(gaps.iter().all(|&g| (500..1_500).contains(&g)));
    }

    #[test]
    fn pick_stays_in_range() {
        let mut injector = FaultInjector::new(FaultConfig::all(3));
        for n in 1..50 {
            for _ in 0..20 {
                assert!(injector.pick(n) < n);
            }
        }
    }

    #[test]
    fn fired_points_record_the_seeded_stream() {
        let config = FaultConfig::all(0xfa17).mean_interval(500);
        let mut injector = FaultInjector::new(config);
        let mut fired = Vec::new();
        for executed in 0..50_000 {
            if let Some(kind) = injector.poll(executed) {
                fired.push((executed, kind));
            }
        }
        assert!(!fired.is_empty());
        assert_eq!(injector.fired().len(), fired.len());
        for (point, &(at, kind)) in injector.fired().iter().zip(&fired) {
            assert_eq!(point.at, at);
            assert_eq!(point.kind, kind);
        }
    }

    #[test]
    fn explicit_replay_reproduces_the_recorded_run() {
        let config = FaultConfig::all(0xbead).mean_interval(300);
        let mut original = FaultInjector::new(config);
        let mut picks = Vec::new();
        for executed in 0..30_000 {
            if original.poll(executed).is_some() {
                // Each fault application draws targets from the stream.
                picks.push((original.pick(17), original.pick(1024)));
            }
        }
        let schedule = FaultSchedule::new(original.fired().to_vec());
        assert!(!schedule.is_empty());

        let mut replayed = FaultInjector::replay(config, schedule.clone());
        assert!(replayed.is_replay());
        let mut replay_picks = Vec::new();
        for executed in 0..30_000 {
            if replayed.poll(executed).is_some() {
                replay_picks.push((replayed.pick(17), replayed.pick(1024)));
            }
        }
        assert_eq!(replayed.fired(), schedule.points.as_slice());
        assert_eq!(replayed.stats(), original.stats());
        assert_eq!(replay_picks, picks, "target picks must replay identically");
    }

    #[test]
    fn subset_replay_keeps_surviving_picks_identical() {
        let config = FaultConfig::all(0x50b5e7).mean_interval(200);
        let mut original = FaultInjector::new(config);
        let mut picks = Vec::new();
        for executed in 0..20_000 {
            if let Some(kind) = original.poll(executed) {
                picks.push((kind, original.pick(99)));
            }
        }
        let full = original.fired().to_vec();
        assert!(full.len() >= 4, "need enough points to subset");
        // Keep every other point: deleting points must not perturb the
        // targets the surviving ones pick.
        let subset: Vec<FaultPoint> = full.iter().copied().step_by(2).collect();
        let mut replayed = FaultInjector::replay(config, FaultSchedule::new(subset.clone()));
        let mut replay_picks = Vec::new();
        for executed in 0..20_000 {
            if let Some(kind) = replayed.poll(executed) {
                replay_picks.push((kind, replayed.pick(99)));
            }
        }
        let expected: Vec<_> = picks.iter().copied().step_by(2).collect();
        assert_eq!(replay_picks, expected);
        assert_eq!(replayed.fired(), subset.as_slice());
    }
}
