//! Run configuration (the knobs of Tables II and III) and the sweep
//! harness policies (supervision, failure tolerance).

use std::fmt::Write as _;
use std::time::Duration;

use seesaw_check::{FaultConfig, FaultSchedule};
use seesaw_core::InsertionPolicy;
use seesaw_trace::json::Json;
use seesaw_workloads::{catalog, WorkloadSpec};

/// How the out-of-order scheduler picks its assumed hit time for SEESAW
/// loads (§IV-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerHintPolicy {
    /// The paper's design: assume fast while the superpage TLB holds at
    /// least a quarter of its capacity, else assume slow.
    #[default]
    Occupancy,
    /// Always assume the fast hit time (ablation: shows the squash storms
    /// the occupancy counter prevents when superpages are scarce).
    AlwaysFast,
    /// Always assume the slow hit time (ablation: "a faster hit due to
    /// SEESAW may not translate to overall runtime reduction, but will
    /// still provide the same energy benefits").
    AlwaysSlow,
}

/// The three clock frequencies the paper evaluates (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frequency {
    /// 1.33 GHz.
    F1_33,
    /// 2.80 GHz.
    F2_80,
    /// 4.00 GHz.
    F4_00,
}

impl Frequency {
    /// All three, ascending.
    pub const ALL: [Frequency; 3] = [Frequency::F1_33, Frequency::F2_80, Frequency::F4_00];

    /// The frequency in GHz.
    pub fn ghz(self) -> f64 {
        match self {
            Frequency::F1_33 => 1.33,
            Frequency::F2_80 => 2.80,
            Frequency::F4_00 => 4.00,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Frequency::F1_33 => "1.33GHz",
            Frequency::F2_80 => "2.80GHz",
            Frequency::F4_00 => "4.00GHz",
        }
    }
}

/// Where coherence probes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeSource {
    /// The calibrated synthetic probe stream (`CoherenceTraffic`),
    /// modeling unsimulated peers — the single-core default, and the
    /// only mode that existed before the Core/Uncore split.
    #[default]
    Synthetic,
    /// The real MOESI directory/snoopy controller: every probe is
    /// generated by a peer core's actual miss or upgrade. Selected
    /// automatically by [`RunConfig::cores`] for `n > 1`.
    Coherence,
}

/// Which core the system models (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// ~Intel Atom: dual-issue in-order.
    InOrder,
    /// ~Intel Sandybridge: 168-entry ROB out-of-order.
    OutOfOrder,
}

/// The L1 design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1DesignKind {
    /// Conventional VIPT at the paper's baseline associativity
    /// (8/16/32 ways for 32/64/128 KB).
    BaselineVipt,
    /// The baseline with an MRU way predictor (Fig. 15's "WP").
    BaselineWithWayPrediction,
    /// SEESAW.
    Seesaw,
    /// SEESAW plus way prediction (Fig. 15's "WP+SEESAW").
    SeesawWithWayPrediction,
    /// A PIPT alternative with the given associativity and translation
    /// serialized before indexing (Fig. 14's design-space points).
    Pipt {
        /// Associativity of the PIPT design.
        ways: usize,
    },
    /// A VIVT alternative with synonym-tracking hardware (§II-A, §VII):
    /// hits bypass the TLB entirely, at the complexity cost the paper
    /// cites for rejecting it.
    Vivt {
        /// Associativity of the VIVT design.
        ways: usize,
    },
    /// VESPA (arXiv 1701.03499): superpage accesses always take the
    /// narrow partition lookup with translation confirming in parallel —
    /// no TFT — while base pages pay the full lookup plus the wasted
    /// narrow probe.
    Vespa,
    /// The baseline with a Zen2-style µtag way predictor: a hash of the
    /// virtual tag picks the single way to probe, virtual aliases cost a
    /// second full round, and the predictor flushes on context switches.
    BaselineMicroTag,
}

/// Declares [`RunConfig`] once: the struct, and its canonical encoding
/// in both directions. The encoding is one line of `field=value;` pairs,
/// every field in declaration order, each value spelled by its type's
/// [`ConfigValue`] impl (the closing `;` makes every truncation
/// detectable). It is the configuration's content address
/// ([`crate::runner::fingerprint`]): the memo, the store, fabric jobs and
/// repro bundles all key on it, so a new field joins every one of them by
/// being declared here.
macro_rules! config {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// The canonical encoding (see `config!`).
            pub(crate) fn encode(&self) -> String {
                let mut out = String::with_capacity(512);
                $(
                    out.push_str(concat!(stringify!($field), "="));
                    ConfigValue::put(&self.$field, &mut out);
                    out.push(';');
                )*
                out
            }

            /// Reads a configuration back from its content address
            /// ([`crate::runner::fingerprint`]).
            ///
            /// # Errors
            /// Any text the encoder could not have produced: a missing,
            /// unknown, repeated or reordered key, a malformed value, or
            /// a value spelled other than the encoder spells it.
            pub(crate) fn decode(text: &str) -> Result<$name, String> {
                let mut pairs = text.split(';');
                let config = $name {
                    $( $field: take(&mut pairs, stringify!($field))?, )*
                };
                if pairs.next() != Some("") || pairs.next().is_some() {
                    return Err("the encoding must end with its last key's `;`".to_string());
                }
                if config.encode() != text {
                    return Err("not in canonical form".to_string());
                }
                Ok(config)
            }
        }
    };
}

/// How a [`RunConfig`] field's value is spelled in the canonical
/// encoding: never containing `;`, and read back exactly.
trait ConfigValue: Sized {
    fn put(&self, out: &mut String);
    fn get(text: &str) -> Result<Self, String>;
}

/// Decodes the next `key=value` pair, which must carry `key`.
fn take<T: ConfigValue>(pairs: &mut std::str::Split<'_, char>, key: &str) -> Result<T, String> {
    let pair = pairs.next().ok_or_else(|| format!("missing key {key:?}"))?;
    match pair.split_once('=') {
        Some((k, value)) if k == key => T::get(value).map_err(|e| format!("{key}: {e}")),
        _ => Err(format!("expected key {key:?}, found {pair:?}")),
    }
}

/// Types spelled by their `Display` and read by their `FromStr`.
macro_rules! displayed {
    ($($ty:ty),*) => {$(
        impl ConfigValue for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get(text: &str) -> Result<Self, String> {
                text.parse().map_err(|_| format!("invalid value {text:?}"))
            }
        }
    )*};
}

displayed!(bool, u32, u64, usize);

/// Enums spelled by one fixed name per variant.
macro_rules! named {
    ($($ty:ident { $($variant:ident = $name:literal),+ $(,)? })*) => {$(
        impl ConfigValue for $ty {
            fn put(&self, out: &mut String) {
                out.push_str(match self { $($ty::$variant => $name),+ });
            }
            fn get(text: &str) -> Result<Self, String> {
                match text {
                    $($name => Ok($ty::$variant),)+
                    _ => Err(format!("unknown value {text:?}")),
                }
            }
        }
    )*};
}

named! {
    CpuKind { InOrder = "in-order", OutOfOrder = "out-of-order" }
    ProbeSource { Synthetic = "synthetic", Coherence = "coherence" }
    InsertionPolicy { FourWay = "4way", FourWayEightWay = "4way-8way" }
    SchedulerHintPolicy {
        Occupancy = "occupancy",
        AlwaysFast = "always-fast",
        AlwaysSlow = "always-slow",
    }
}

impl<T: ConfigValue> ConfigValue for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("none"),
        }
    }
    fn get(text: &str) -> Result<Self, String> {
        match text {
            "none" => Ok(None),
            _ => T::get(text).map(Some),
        }
    }
}

impl ConfigValue for Frequency {
    fn put(&self, out: &mut String) {
        out.push_str(self.label());
    }
    fn get(text: &str) -> Result<Self, String> {
        Frequency::ALL
            .into_iter()
            .find(|f| f.label() == text)
            .ok_or_else(|| format!("unknown frequency {text:?}"))
    }
}

impl ConfigValue for L1DesignKind {
    fn put(&self, out: &mut String) {
        let _ = match self {
            L1DesignKind::BaselineVipt => write!(out, "baseline-vipt"),
            L1DesignKind::BaselineWithWayPrediction => write!(out, "baseline-wp"),
            L1DesignKind::Seesaw => write!(out, "seesaw"),
            L1DesignKind::SeesawWithWayPrediction => write!(out, "seesaw-wp"),
            L1DesignKind::Pipt { ways } => write!(out, "pipt:{ways}"),
            L1DesignKind::Vivt { ways } => write!(out, "vivt:{ways}"),
            L1DesignKind::Vespa => write!(out, "vespa"),
            L1DesignKind::BaselineMicroTag => write!(out, "baseline-utag"),
        };
    }
    fn get(text: &str) -> Result<Self, String> {
        Ok(match text {
            "baseline-vipt" => L1DesignKind::BaselineVipt,
            "baseline-wp" => L1DesignKind::BaselineWithWayPrediction,
            "seesaw" => L1DesignKind::Seesaw,
            "seesaw-wp" => L1DesignKind::SeesawWithWayPrediction,
            "vespa" => L1DesignKind::Vespa,
            "baseline-utag" => L1DesignKind::BaselineMicroTag,
            _ => match text.split_once(':') {
                Some(("pipt", ways)) => L1DesignKind::Pipt {
                    ways: usize::get(ways)?,
                },
                Some(("vivt", ways)) => L1DesignKind::Vivt {
                    ways: usize::get(ways)?,
                },
                _ => return Err(format!("unknown design {text:?}")),
            },
        })
    }
}

/// The catalog entry named `name`.
pub(crate) fn catalog_entry(name: &str) -> Option<WorkloadSpec> {
    catalog().into_iter().find(|w| w.name == name)
}

/// A workload is spelled by its catalog name. A spec that differs from
/// its catalog entry cannot run ([`crate::System::build`] refuses it),
/// so it is marked with a leading `!` that no name decodes from: its
/// address can never be its entry's.
impl ConfigValue for WorkloadSpec {
    fn put(&self, out: &mut String) {
        if catalog_entry(self.name) != Some(*self) {
            out.push('!');
        }
        out.push_str(self.name);
    }
    fn get(text: &str) -> Result<Self, String> {
        catalog_entry(text).ok_or_else(|| format!("unknown workload {text:?}"))
    }
}

fn json(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| e.to_string())
}

impl ConfigValue for FaultConfig {
    fn put(&self, out: &mut String) {
        out.push_str(&self.to_json());
    }
    fn get(text: &str) -> Result<Self, String> {
        FaultConfig::from_json(&json(text)?).map_err(|e| e.message)
    }
}

/// Per-core schedules: a JSON array of [`FaultSchedule::to_json`].
impl ConfigValue for Vec<FaultSchedule> {
    fn put(&self, out: &mut String) {
        let schedules: Vec<String> = self.iter().map(FaultSchedule::to_json).collect();
        let _ = write!(out, "[{}]", schedules.join(", "));
    }
    fn get(text: &str) -> Result<Self, String> {
        json(text)?
            .as_array()
            .ok_or("expected an array of schedules")?
            .iter()
            .map(|s| FaultSchedule::from_json(s).map_err(|e| e.message))
            .collect()
    }
}

config! {
    /// Everything one simulation run needs.
    ///
    /// Start from [`RunConfig::paper`] (full-length paper defaults) or
    /// [`RunConfig::quick`] (short, for tests) and chain builders:
    ///
    /// ```
    /// use seesaw_sim::{CpuKind, Frequency, L1DesignKind, RunConfig};
    ///
    /// let cfg = RunConfig::quick("redis")
    ///     .design(L1DesignKind::Seesaw)
    ///     .cpu(CpuKind::OutOfOrder)
    ///     .cores(2)
    ///     .l1_size(64)
    ///     .frequency(Frequency::F2_80)
    ///     .memhog(30)
    ///     .instructions(200_000)
    ///     .warmup(50_000)
    ///     .with_checker();
    ///
    /// assert_eq!(cfg.cores, 2);
    /// assert_eq!(cfg.warmup_instructions, Some(50_000));
    /// assert!(cfg.checker);
    ///
    /// let result = seesaw_sim::System::build(&cfg).unwrap().run().unwrap();
    /// assert!(result.totals.instructions > 0);
    /// ```
    #[derive(Debug, Clone)]
    pub struct RunConfig {
        /// The workload.
        pub workload: WorkloadSpec,
        /// L1 capacity in KB (32, 64, or 128 in the paper).
        pub l1_size_kb: u64,
        /// Core clock.
        pub frequency: Frequency,
        /// Core kind.
        pub cpu: CpuKind,
        /// L1 design.
        pub design: L1DesignKind,
        /// Number of simulated cores, each running an independently-seeded
        /// stream of the workload over a shared address space, interleaved
        /// round-robin. `instructions` is the per-core budget.
        pub cores: usize,
        /// Where coherence probes come from (set by [`RunConfig::cores`]:
        /// synthetic for one core, the real controller for more).
        pub probe_source: ProbeSource,
        /// Instructions to simulate (per core).
        pub instructions: u64,
        /// memhog's share of physical memory, in percent (Fig. 3 / Fig. 12).
        pub memhog_percent: u32,
        /// TFT entries (Fig. 13 sweeps 12–20).
        pub tft_entries: usize,
        /// Override SEESAW's partition count (default: ways/4, the paper's
        /// 4-way partitions; §IV-B4's design-choice sweep uses this).
        pub seesaw_partitions: Option<usize>,
        /// Insertion policy (§IV-B1 ablation).
        pub insertion: InsertionPolicy,
        /// Snoopy instead of directory coherence (§VI-B): multiplies probe
        /// traffic by the broadcast factor.
        pub snoopy: bool,
        /// Attach an L2 stream prefetcher of this degree (`None` = off, the
        /// paper's unstated baseline; the robustness ablation turns it on).
        pub prefetch_degree: Option<usize>,
        /// Context-switch interval in instructions (TFT flush, §IV-C3);
        /// `None` disables switching.
        pub context_switch_interval: Option<u64>,
        /// Interval for OS page-table churn (splinter + later re-promote,
        /// §IV-C2); `None` disables it.
        pub page_op_interval: Option<u64>,
        /// Scale the 4 KB L1 TLB to this many entries (Fig. 14's
        /// smaller-TLB alternatives).
        pub l1_tlb_4k_entries: Option<usize>,
        /// How the scheduler picks its assumed hit time (§IV-B3).
        pub scheduler_hint: SchedulerHintPolicy,
        /// Squash cost (cycles) when the Fast hit-time assumption meets a
        /// base-page access. The TFT's quarter-cycle answer lets the paper's
        /// scheduler re-wake dependents before they issue, so the default is
        /// 0; raise it to model deeper speculative wakeup (§IV-B3).
        pub hit_time_squash_cycles: u64,
        /// Warmup instructions excluded from measurement; `None` = a third
        /// of the budget, capped at 500k.
        pub warmup_instructions: Option<u64>,
        /// Emit a telemetry [`crate::Sample`] every this many instructions of
        /// the measured window; `None` disables sampling.
        pub sample_interval: Option<u64>,
        /// Run the differential shadow checker in lockstep with the timing
        /// model (off by default: it costs a hash lookup per access).
        pub checker: bool,
        /// Attach a seeded fault injector firing splinters, promotions,
        /// shootdowns, TFT storms, context switches, and memory pressure at
        /// randomized points; `None` disables injection.
        pub faults: Option<FaultConfig>,
        /// Replace each core's seeded fault stream with an explicit
        /// [`FaultSchedule`] (index = core id; missing entries fall back to
        /// the seeded stream). This is how the shrinker deletes individual
        /// fault points from a failing run: [`crate::repro`] records the fired
        /// points, then replays subsets of them. Requires `faults` to be set —
        /// the schedule controls *when and what* fires, while `faults` still
        /// supplies the chaos knobs and the RNG used for target selection.
        pub fault_schedules: Option<Vec<FaultSchedule>>,
        /// Halt each core once it has executed this many instructions in
        /// total (warmup + measured), even mid-phase. The shrinker uses this
        /// to cut a failing run off right after its violation instead of
        /// simulating the full budget; `None` runs to the configured budget.
        pub stop_at_instruction: Option<u64>,
        /// Capture a typed event trace of the measured window into
        /// [`crate::RunResult::trace`] (off by default: with this false the
        /// hot loop monomorphizes with the null sink and emits nothing).
        pub trace: bool,
        /// RNG seed.
        pub seed: u64,
    }
}

impl RunConfig {
    /// Default instruction budget for full experiment runs.
    pub const DEFAULT_INSTRUCTIONS: u64 = 2_000_000;

    /// A full-length run for the named workload with paper defaults:
    /// 32 KB SEESAW-capable geometry, 1.33 GHz, out-of-order, baseline
    /// VIPT design.
    ///
    /// # Panics
    /// Panics if the workload name is unknown.
    pub fn paper(workload: &str) -> Self {
        let spec = catalog_entry(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
        Self {
            workload: spec,
            l1_size_kb: 32,
            frequency: Frequency::F1_33,
            cpu: CpuKind::OutOfOrder,
            design: L1DesignKind::BaselineVipt,
            cores: 1,
            probe_source: ProbeSource::Synthetic,
            instructions: Self::DEFAULT_INSTRUCTIONS,
            memhog_percent: 0,
            tft_entries: 16,
            seesaw_partitions: None,
            insertion: InsertionPolicy::FourWay,
            snoopy: false,
            prefetch_degree: None,
            scheduler_hint: SchedulerHintPolicy::Occupancy,
            context_switch_interval: Some(1_000_000),
            page_op_interval: None,
            l1_tlb_4k_entries: None,
            hit_time_squash_cycles: 0,
            warmup_instructions: None,
            sample_interval: None,
            checker: false,
            faults: None,
            fault_schedules: None,
            stop_at_instruction: None,
            trace: false,
            seed: 0x5eea,
        }
    }

    /// A short run for tests and doc examples.
    pub fn quick(workload: &str) -> Self {
        Self {
            instructions: 150_000,
            ..Self::paper(workload)
        }
    }

    /// Builder: set the L1 design.
    pub fn design(mut self, design: L1DesignKind) -> Self {
        self.design = design;
        self
    }

    /// Builder: set the core kind.
    pub fn cpu(mut self, cpu: CpuKind) -> Self {
        self.cpu = cpu;
        self
    }

    /// Builder: simulate `n` cores. Multi-core runs switch the probe
    /// source to the real coherence controller; `cores(1)` restores the
    /// synthetic single-core default.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn cores(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one core");
        self.cores = n;
        self.probe_source = if n > 1 {
            ProbeSource::Coherence
        } else {
            ProbeSource::Synthetic
        };
        self
    }

    /// Builder: set the L1 capacity in KB.
    pub fn l1_size(mut self, kb: u64) -> Self {
        self.l1_size_kb = kb;
        self
    }

    /// Builder: set the clock.
    pub fn frequency(mut self, f: Frequency) -> Self {
        self.frequency = f;
        self
    }

    /// Builder: set memhog pressure.
    pub fn memhog(mut self, percent: u32) -> Self {
        self.memhog_percent = percent;
        self
    }

    /// Builder: set the instruction budget.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Builder: enable the differential shadow checker.
    pub fn with_checker(mut self) -> Self {
        self.checker = true;
        self
    }

    /// Builder: attach a fault injector.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder: replay explicit per-core fault schedules instead of the
    /// seeded stream (see [`RunConfig::fault_schedules`]).
    pub fn with_fault_schedules(mut self, schedules: Vec<FaultSchedule>) -> Self {
        self.fault_schedules = Some(schedules);
        self
    }

    /// Builder: halt each core after `n` total executed instructions
    /// (see [`RunConfig::stop_at_instruction`]).
    pub fn stop_at(mut self, n: u64) -> Self {
        self.stop_at_instruction = Some(n);
        self
    }

    /// Builder: set the warmup window explicitly (`0` measures from the
    /// first instruction — what repro bundles record so that replayed
    /// fault positions are phase-independent).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup_instructions = Some(n);
        self
    }

    /// Builder: capture a typed event trace of the measured window.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// The paper's baseline associativity for this capacity (Fig. 1c:
    /// 64 sets, grow by ways).
    pub fn baseline_ways(&self) -> usize {
        ((self.l1_size_kb << 10) / (64 * 64)) as usize
    }
}

/// How the runner supervises one plan cell (see `runner` module docs):
/// the per-cell wall-clock watchdog and the retry/backoff schedule for
/// transient failures. These are *harness* knobs — they never enter the
/// [`RunConfig`] fingerprint, so supervision cannot change what a cell
/// computes, only whether and when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-cell wall-clock budget; `None` disables the watchdog (the
    /// default — simulations are CPU-bound and normally cannot wedge).
    pub timeout: Option<Duration>,
    /// Retries granted after the first attempt of a cell, spent only on
    /// transient failures ([`crate::SimError::is_retryable`]).
    pub max_retries: u32,
    /// First backoff delay; attempt `n` waits `backoff_base << n` plus
    /// jitter, capped at [`SupervisorConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter: the delay before any
    /// retry is a pure function of (seed, cell fingerprint, attempt), so
    /// a replayed sweep backs off identically.
    pub jitter_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            timeout: None,
            max_retries: 1,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x5ee5_a05a_fe5e_ed01,
        }
    }
}

impl SupervisorConfig {
    /// The defaults, overridden by the environment:
    /// `SEESAW_CELL_TIMEOUT_MS` (0 or unset = no watchdog) and
    /// `SEESAW_CELL_RETRIES`.
    pub fn from_env() -> Self {
        let mut cfg = SupervisorConfig::default();
        if let Some(ms) = env_u64("SEESAW_CELL_TIMEOUT_MS") {
            cfg.timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(n) = env_u64("SEESAW_CELL_RETRIES") {
            cfg.max_retries = n as u32;
        }
        cfg
    }

    /// Builder: set the per-cell watchdog.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// Builder: set the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder: set the backoff schedule's base delay and cap (tests use
    /// millisecond-scale values to keep retry loops fast).
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// The deterministic backoff delay before retry `attempt` (0-based)
    /// of the cell whose fingerprint digest is `cell_digest`:
    /// exponential in the attempt, capped, plus up-to-50% jitter drawn
    /// from a splitmix64 of (seed, digest, attempt). Pure, so tests can
    /// pin the whole schedule.
    pub fn backoff_delay(&self, cell_digest: u64, attempt: u32) -> Duration {
        let shift = attempt.min(16);
        let base = self
            .backoff_base
            .saturating_mul(1u32 << shift.min(31))
            .min(self.backoff_cap);
        let base_ms = base.as_millis() as u64;
        if base_ms == 0 {
            return base;
        }
        let mut x = self
            .jitter_seed
            .wrapping_add(cell_digest)
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // splitmix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let jitter_ms = x % (base_ms / 2 + 1);
        base + Duration::from_millis(jitter_ms)
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|s| s.parse().ok())
}

/// The graceful-degradation policy of a supervised sweep
/// (`Plan::run_sweep`): how failures are supervised, and how many
/// *permanent* cell failures the sweep tolerates before it stops
/// starting new cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepPolicy {
    /// Permanent cell failures the sweep tolerates: once the running
    /// count *exceeds* this, cells that have not started yet are skipped
    /// ([`crate::SimError::Skipped`]) — so `Some(n)` means n failures do
    /// not abort the sweep, and even past the budget, cells already in
    /// flight complete. `None` = unlimited: every survivor completes no
    /// matter how many cells fail.
    pub max_failures: Option<usize>,
    /// Per-cell supervision.
    pub supervisor: SupervisorConfig,
}

impl SweepPolicy {
    /// Unlimited failure tolerance with environment-derived supervision
    /// — the default for `Plan::run_sweep`.
    pub fn from_env() -> Self {
        SweepPolicy {
            max_failures: None,
            supervisor: SupervisorConfig::from_env(),
        }
    }

    /// Builder: stop starting new cells once more than `n` cells have
    /// permanently failed.
    pub fn max_failures(mut self, n: usize) -> Self {
        self.max_failures = Some(n);
        self
    }

    /// Builder: set the supervision config.
    pub fn supervisor(mut self, s: SupervisorConfig) -> Self {
        self.supervisor = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::fingerprint;
    use proptest::prelude::*;
    use seesaw_check::{ChaosConfig, FaultKind, FaultPoint};

    /// Integers the JSON fault codecs carry exactly (the parser reads
    /// numbers as f64).
    const JSON_EXACT: u64 = 1 << 53;

    /// A configuration with every field drawn from `w`: `w[0]` holds the
    /// flags (bools and `Some`/`None`), the other words the values.
    fn random_config(w: &[u64]) -> RunConfig {
        let flag = |bit: u32| w[0] >> bit & 1 == 1;
        let pick = |word: u64, n: usize| (word % n as u64) as usize;
        let names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
        let designs = [
            L1DesignKind::BaselineVipt,
            L1DesignKind::BaselineWithWayPrediction,
            L1DesignKind::Seesaw,
            L1DesignKind::SeesawWithWayPrediction,
            L1DesignKind::Pipt {
                ways: w[5] as usize,
            },
            L1DesignKind::Vivt {
                ways: w[5] as usize,
            },
            L1DesignKind::Vespa,
            L1DesignKind::BaselineMicroTag,
        ];
        let hints = [
            SchedulerHintPolicy::Occupancy,
            SchedulerHintPolicy::AlwaysFast,
            SchedulerHintPolicy::AlwaysSlow,
        ];
        let mut c = RunConfig::paper(names[pick(w[1], names.len())]);
        c.l1_size_kb = w[2];
        c.frequency = Frequency::ALL[pick(w[3], 3)];
        c.cpu = [CpuKind::InOrder, CpuKind::OutOfOrder][pick(w[4], 2)];
        c.design = designs[pick(w[6], designs.len())];
        c.cores = w[7] as usize;
        c.probe_source = [ProbeSource::Synthetic, ProbeSource::Coherence][pick(w[8], 2)];
        c.instructions = w[9];
        c.memhog_percent = w[10] as u32;
        c.tft_entries = w[11] as usize;
        c.seesaw_partitions = flag(1).then_some(w[12] as usize);
        c.insertion = [InsertionPolicy::FourWay, InsertionPolicy::FourWayEightWay][pick(w[13], 2)];
        c.snoopy = flag(2);
        c.prefetch_degree = flag(3).then_some(w[14] as usize);
        c.context_switch_interval = flag(4).then_some(w[15]);
        c.page_op_interval = flag(5).then_some(w[16]);
        c.l1_tlb_4k_entries = flag(6).then_some(w[17] as usize);
        c.scheduler_hint = hints[pick(w[18], 3)];
        c.hit_time_squash_cycles = w[19];
        c.warmup_instructions = flag(7).then_some(w[20]);
        c.sample_interval = flag(8).then_some(w[21]);
        c.checker = flag(9);
        c.faults = flag(10).then_some(FaultConfig {
            seed: w[22],
            mean_interval: w[23] % JSON_EXACT,
            splinters: flag(11),
            promotions: flag(12),
            shootdowns: flag(13),
            tft_storms: flag(14),
            context_switches: flag(15),
            mem_pressure: flag(16),
            chaos: ChaosConfig {
                drop_tft_invalidation_on_splinter: flag(17),
                drop_promotion_sweep: flag(18),
                skip_way_verification: flag(19),
            },
        });
        c.fault_schedules = flag(20).then(|| {
            (0..pick(w[24], 4))
                .map(|core| {
                    let points = (0..pick(w[25] >> (8 * core), 4))
                        .map(|i| FaultPoint {
                            at: w[26].rotate_left(7 * (core + i) as u32) % JSON_EXACT,
                            kind: FaultKind::ALL[pick(w[27] >> (3 * i), 7)],
                            rng_state: w[28].rotate_left(11 * i as u32),
                        })
                        .collect();
                    FaultSchedule::new(points)
                })
                .collect()
        });
        c.stop_at_instruction = flag(21).then_some(w[29]);
        c.trace = flag(22);
        c.seed = w[30];
        c
    }

    proptest! {
        /// Every configuration decodes from its address to itself: the
        /// derived `Debug` rendering (every field) comes back unchanged.
        #[test]
        fn every_config_round_trips_through_its_address(
            w in prop::collection::vec(any::<u64>(), 31..32),
        ) {
            let cfg = random_config(&w);
            let text = fingerprint(&cfg);
            prop_assert!(!text.contains('\n'));
            let back = RunConfig::decode(&text).expect("decodes");
            prop_assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
            prop_assert_eq!(fingerprint(&back), text);
        }
    }

    /// A configuration using every optional and nested field.
    fn rich_config() -> RunConfig {
        random_config(&[
            u64::MAX,
            3,
            64,
            1,
            0,
            12,
            4,
            2,
            1,
            400_000,
            30,
            20,
            2,
            1,
            4,
            50_000,
            40_000,
            32,
            2,
            9,
            7_000,
            10_000,
            u64::MAX - 7,
            2_000,
            2,
            0x0302,
            123_456,
            0x1234,
            0xdead_beef,
            99_999,
            0x5eea,
        ])
    }

    /// Every `key=value;` pair of an encoding, in order.
    fn pairs(text: &str) -> Vec<String> {
        text.split_inclusive(';').map(str::to_string).collect()
    }

    #[test]
    fn truncated_inputs_are_errors() {
        let text = fingerprint(&rich_config());
        assert!(text.contains("faults={") && text.contains("fault_schedules=[["));
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(RunConfig::decode(&text[..end]).is_err(), "{}", &text[..end]);
        }
    }

    #[test]
    fn missing_unknown_and_duplicate_keys_are_errors() {
        let all = pairs(&fingerprint(&rich_config()));
        for i in 0..all.len() {
            let mut missing = all.clone();
            missing.remove(i);
            assert!(
                RunConfig::decode(&missing.concat()).is_err(),
                "without {}",
                all[i]
            );
            let mut unknown = all.clone();
            unknown.insert(i, "bogus=1;".to_string());
            assert!(
                RunConfig::decode(&unknown.concat()).is_err(),
                "bogus before {}",
                all[i]
            );
            let mut duplicate = all.clone();
            duplicate.insert(i, all[i].clone());
            assert!(
                RunConfig::decode(&duplicate.concat()).is_err(),
                "twice {}",
                all[i]
            );
            let mut swapped = all.clone();
            swapped.swap(i, (i + 1) % all.len());
            assert!(
                RunConfig::decode(&swapped.concat()).is_err(),
                "moved {}",
                all[i]
            );
        }
        let mut trailing = all.concat();
        trailing.push_str("bogus=1;");
        assert!(RunConfig::decode(&trailing).is_err());
    }

    /// A flipped bit never panics. In a key or a delimiter it is always
    /// an error; inside a value it is an error unless it spells another
    /// valid value, and then the text is that other configuration's own
    /// address (the store's record checksums are what catch corruption).
    #[test]
    fn bit_flipped_inputs_never_decode_to_a_different_address() {
        let text = fingerprint(&rich_config());
        let mut structural = vec![false; text.len()];
        let mut at = 0;
        for pair in pairs(&text) {
            let key_end = pair.find('=').expect("every pair has a key");
            structural[at..=at + key_end].fill(true);
            structural[at + pair.len() - 1] = true;
            at += pair.len();
        }
        let (mut errors, mut other_configs) = (0, 0);
        for i in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                let Ok(flipped) = String::from_utf8(bytes) else {
                    continue;
                };
                match RunConfig::decode(&flipped) {
                    Err(_) => errors += 1,
                    Ok(cfg) => {
                        assert!(!structural[i], "flip at {i} in a key decoded: {flipped}");
                        assert_eq!(fingerprint(&cfg), flipped);
                        other_configs += 1;
                    }
                }
            }
        }
        assert!(
            errors > other_configs,
            "{errors} errors, {other_configs} other configs"
        );
    }

    #[test]
    fn malformed_values_are_errors() {
        let text = fingerprint(&rich_config());
        for (from, to) in [
            ("cores=2;", "cores=02;"),
            ("cores=2;", "cores=+2;"),
            ("cores=2;", "cores=-2;"),
            ("snoopy=true;", "snoopy=TRUE;"),
            ("frequency=2.80GHz;", "frequency=2.8GHz;"),
            ("design=pipt:12;", "design=pipt:;"),
            ("design=pipt:12;", "design=quantum;"),
            ("workload=gems;", "workload=doom;"),
            ("seesaw_partitions=2;", "seesaw_partitions=None;"),
            (
                "\"mean_interval\": 2000",
                "\"mean_interval\": 9007199254740993",
            ),
            ("\"kind\": \"", "\"kind\": \"x"),
            ("seed=", "seed=0x"),
        ] {
            assert!(text.contains(from), "{from}");
            let bad = text.replacen(from, to, 1);
            assert!(RunConfig::decode(&bad).is_err(), "{to}");
        }
        let deep = text.replacen("faults={", &format!("faults={}", "[".repeat(100_000)), 1);
        assert!(RunConfig::decode(&deep).is_err(), "deep nesting");
        for hostile in [
            "",
            ";",
            "=",
            "workload=",
            "workload=astar",
            "\u{0}",
            "é;é=é;",
        ] {
            assert!(RunConfig::decode(hostile).is_err(), "{hostile:?}");
        }
    }

    /// A spec that differs from its catalog entry never shares the
    /// entry's address, does not decode, and cannot run — so neither the
    /// memo nor a fabric worker can hand it the entry's result.
    #[test]
    fn modified_workload_specs_have_their_own_unrunnable_address() {
        let entry = RunConfig::quick("redis").instructions(20_000);
        let mut modified = entry.clone();
        modified.workload.hot_fraction += 0.01;
        assert_ne!(fingerprint(&modified), fingerprint(&entry));
        assert!(RunConfig::decode(&fingerprint(&modified)).is_err());
        assert!(matches!(
            crate::System::build(&modified),
            Err(crate::SimError::Workload { name: "redis" })
        ));
        let mut plan = crate::Plan::new().without_store();
        plan.push("entry", entry);
        plan.push("modified", modified);
        let outcomes = plan.run_each().outcomes;
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], Err(crate::SimError::Workload { .. })));
    }

    #[test]
    fn frequencies_match_table_iii() {
        let ghz: Vec<f64> = Frequency::ALL.iter().map(|f| f.ghz()).collect();
        assert_eq!(ghz, vec![1.33, 2.80, 4.00]);
    }

    #[test]
    fn baseline_ways_track_capacity() {
        assert_eq!(RunConfig::paper("astar").l1_size(32).baseline_ways(), 8);
        assert_eq!(RunConfig::paper("astar").l1_size(64).baseline_ways(), 16);
        assert_eq!(RunConfig::paper("astar").l1_size(128).baseline_ways(), 32);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        RunConfig::paper("doom");
    }

    #[test]
    fn builder_chains() {
        let cfg = RunConfig::quick("redis")
            .design(L1DesignKind::Seesaw)
            .cpu(CpuKind::InOrder)
            .l1_size(64)
            .frequency(Frequency::F4_00)
            .memhog(30)
            .instructions(1000);
        assert_eq!(cfg.l1_size_kb, 64);
        assert_eq!(cfg.instructions, 1000);
        assert_eq!(cfg.memhog_percent, 30);
        assert_eq!(cfg.design, L1DesignKind::Seesaw);
    }

    #[test]
    fn cores_builder_selects_the_probe_source() {
        let cfg = RunConfig::quick("redis");
        assert_eq!(cfg.cores, 1);
        assert_eq!(cfg.probe_source, ProbeSource::Synthetic);
        let cfg = cfg.cores(4);
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.probe_source, ProbeSource::Coherence);
        let cfg = cfg.cores(1);
        assert_eq!(cfg.probe_source, ProbeSource::Synthetic);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        RunConfig::quick("redis").cores(0);
    }
}
