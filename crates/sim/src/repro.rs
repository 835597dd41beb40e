//! Violation repro bundles: record → shrink → replay.
//!
//! When a fault-injected run trips the differential checker, the
//! simulator attaches a [`ReproBundle`] to the [`SimError::Check`] it
//! returns (and autosaves it as JSON when `SEESAW_REPRO=<dir>` is set).
//! The bundle pins down everything a second process needs: the full
//! [`RunConfig`] in its canonical encoding (its content address, which
//! `RunConfig::decode` reads back), the base injector configuration
//! with its seed, the fault points that actually fired per core, the
//! violation summary, checker counters, the traced event tail, and
//! provenance (git SHA).
//!
//! Three entry points operate on bundles:
//!
//! * [`record`] — run a fault-injected configuration with the checker
//!   and tracer forced on and return the bundle of its first violation.
//! * [`replay`] — re-run a bundle's configuration verbatim and report
//!   whether the identical violation (kind and instruction) recurred.
//!   Replays bypass the runner's memo cache: a replay must re-simulate,
//!   not fetch its own previous answer.
//! * [`shrink`] — delta-debug a bundle down to a minimal explicit
//!   [`FaultSchedule`]: bisect the instruction budget to the first
//!   failing prefix, greedily disable whole fault kinds, then ddmin the
//!   surviving points. Candidate runs batch through [`Plan::run_each`],
//!   so they execute in parallel and recurring candidates are served
//!   from the failure memo.
//!
//! # Determinism and the warmup normalization
//!
//! Shrinking is sound because a run is a pure function of its
//! `RunConfig` and fault positions are *global* instruction counts
//! (warmup + measured), so truncating the budget leaves the surviving
//! prefix bit-identical. One normalization is applied and then
//! *verified, not assumed*: [`shrink`] rewrites the warmup split to zero
//! so the whole horizon is one phase. The context-switch / page-op /
//! sample schedules are phase-local (they reset at each phase boundary),
//! so this rewrite can shift those events when their intervals are
//! shorter than a phase; the shrinker therefore re-runs the normalized
//! configuration first and refuses to proceed (`ReproError::Mismatch`)
//! if the violation kind changed. Explicit-schedule replays restore the
//! injector's RNG snapshot before every surviving point, so deleting a
//! point never perturbs the target selection of the points that remain.

use seesaw_check::{
    BundleViolation, FaultConfig, FaultKind, FaultPoint, FaultSchedule, InjectionStats,
    ReproBundle, Violation, BUNDLE_VERSION,
};
use seesaw_trace::{Collect, MetricsRegistry};

use crate::core::Core;
use crate::runner::{fingerprint, Plan};
use crate::{RunConfig, SimError, System};

/// How many trailing trace events a bundle captures.
pub const EVENT_TAIL_LINES: usize = 256;

/// Why a record / replay / shrink operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReproError {
    /// The bundle document was malformed (wraps [`seesaw_check::BundleError`]).
    Bundle(String),
    /// The bundle's configuration could not be decoded into a [`RunConfig`].
    Config(String),
    /// The run completed without any checker violation.
    NoViolation,
    /// A violation occurred, but not the one the bundle describes.
    Mismatch {
        /// The violation kind the bundle expects.
        expected: String,
        /// The violation kind the run produced.
        got: String,
    },
    /// The simulation failed for a non-checker reason.
    Sim(String),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Bundle(m) => write!(f, "malformed bundle: {m}"),
            ReproError::Config(m) => write!(f, "bundle config: {m}"),
            ReproError::NoViolation => write!(f, "the run completed without a checker violation"),
            ReproError::Mismatch { expected, got } => {
                write!(f, "violation mismatch: expected {expected}, got {got}")
            }
            ReproError::Sim(m) => write!(f, "simulation failed: {m}"),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<seesaw_check::BundleError> for ReproError {
    fn from(e: seesaw_check::BundleError) -> Self {
        ReproError::Bundle(e.message)
    }
}

/// The tree's git SHA for bundle provenance: `SEESAW_GIT_SHA` when set
/// (CI can pin it without a work tree), else `git rev-parse`, else
/// `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("SEESAW_GIT_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Assembles the bundle for a violation caught by `core`'s checker.
/// Called by the simulator at the moment of failure, while the cores
/// still hold their injectors' fired-point logs.
pub(crate) fn build_bundle(
    config: &RunConfig,
    fault: FaultConfig,
    cores: &[Core],
    core: usize,
    violation: &Violation,
    event_tail: Vec<String>,
) -> ReproBundle {
    let recorded = cores
        .iter()
        .map(|c| {
            FaultSchedule::new(
                c.injector
                    .as_ref()
                    .map(|inj| inj.fired().to_vec())
                    .unwrap_or_default(),
            )
        })
        .collect();
    let mut faults = InjectionStats::default();
    for c in cores {
        if let Some(inj) = c.injector.as_ref() {
            let InjectionStats {
                splinters,
                promotions,
                shootdowns,
                tft_storms,
                context_switches,
                mem_pressure,
                mem_releases,
            } = inj.stats();
            faults.splinters += splinters;
            faults.promotions += promotions;
            faults.shootdowns += shootdowns;
            faults.tft_storms += tft_storms;
            faults.context_switches += context_switches;
            faults.mem_pressure += mem_pressure;
            faults.mem_releases += mem_releases;
        }
    }
    let summary = cores[core]
        .checker
        .as_ref()
        .map(|c| c.summary())
        .unwrap_or_default();
    ReproBundle {
        version: BUNDLE_VERSION,
        git_sha: git_sha(),
        cores: config.cores,
        violation: BundleViolation {
            kind: violation.kind.name().to_string(),
            instruction: violation.instruction,
            core,
            detail: violation.detail.clone(),
        },
        fault,
        schedules: config.fault_schedules.clone(),
        recorded,
        config: fingerprint(config),
        stats: seesaw_check::BundleStats {
            faults,
            loads_checked: summary.loads_checked,
            stores_tracked: summary.stores_tracked,
            audits: summary.audits,
        },
        event_tail,
    }
}

/// Best-effort autosave: when `SEESAW_REPRO=<dir>` is set, every bundle
/// the simulator attaches is also written to
/// `<dir>/repro-<kind>-<instruction>.json`, and the path is returned so
/// the violation (and the persistent result store's failure marker) can
/// carry a durable pointer to it. IO failures — an unwritable or
/// missing directory — log a warning and return `None`: a diagnostics
/// path must never turn a reported violation into a different error,
/// and the in-memory bundle still travels on the violation itself.
pub(crate) fn autosave(bundle: &ReproBundle) -> Option<std::path::PathBuf> {
    let dir = std::env::var("SEESAW_REPRO").ok()?;
    if dir.is_empty() {
        return None;
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "warning: SEESAW_REPRO={dir} could not be created ({e}); \
             the repro bundle stays in-memory only"
        );
        return None;
    }
    let path = std::path::Path::new(&dir).join(format!(
        "repro-{}-{}.json",
        bundle.violation.kind, bundle.violation.instruction
    ));
    match std::fs::write(&path, bundle.to_json()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "warning: repro bundle autosave to {} failed ({e}); \
                 the bundle stays in-memory only",
                path.display()
            );
            None
        }
    }
}

// ---------------------------------------------------------------------------
// record / replay
// ---------------------------------------------------------------------------

fn decode(config: &str) -> Result<RunConfig, ReproError> {
    RunConfig::decode(config).map_err(ReproError::Config)
}

fn run_direct(config: &RunConfig) -> Result<Option<Box<Violation>>, ReproError> {
    let outcome = System::build(config)
        .map_err(|e| ReproError::Sim(e.to_string()))?
        .run();
    match outcome {
        Ok(_) => Ok(None),
        Err(SimError::Check(v)) => Ok(Some(v)),
        Err(e) => Err(ReproError::Sim(e.to_string())),
    }
}

fn bundle_of(v: Violation) -> Result<ReproBundle, ReproError> {
    v.repro
        .map(|b| *b)
        .ok_or_else(|| ReproError::Sim("violation carried no repro bundle".to_string()))
}

/// Runs a fault-injected configuration and returns the bundle of its
/// first checker violation.
///
/// The configuration is normalized before running — checker and tracer
/// forced on, warmup split set to zero so every fault position is a
/// plain global instruction count — and the *normalized* configuration
/// is what the bundle stores, so replays are exactly self-consistent.
///
/// # Errors
/// [`ReproError::Config`] when no injector is configured,
/// [`ReproError::NoViolation`] when the run completes cleanly.
pub fn record(config: &RunConfig) -> Result<ReproBundle, ReproError> {
    if config.faults.is_none() {
        return Err(ReproError::Config(
            "record needs a fault injector (RunConfig::with_faults)".to_string(),
        ));
    }
    let mut cfg = config.clone();
    cfg.checker = true;
    cfg.trace = true;
    cfg.warmup_instructions = Some(0);
    match run_direct(&cfg)? {
        Some(v) => bundle_of(*v),
        None => Err(ReproError::NoViolation),
    }
}

/// The outcome of replaying a bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The violation the replay produced.
    pub violation: BundleViolation,
    /// True when kind and instruction both match the original bundle.
    pub matched: bool,
    /// The fresh bundle the replay emitted (its stats must match the
    /// original's for a bit-identical reproduction).
    pub bundle: ReproBundle,
}

/// Re-runs a bundle's configuration verbatim and checks that the same
/// violation recurs. Goes through [`System`] directly — never the memo
/// cache — so every replay is a genuine re-simulation.
///
/// # Errors
/// [`ReproError::NoViolation`] when the replay completes cleanly,
/// [`ReproError::Mismatch`] when a *different* violation kind fired.
pub fn replay(original: &ReproBundle) -> Result<ReplayReport, ReproError> {
    let mut config = decode(&original.config)?;
    config.checker = true;
    let v = run_direct(&config)?.ok_or(ReproError::NoViolation)?;
    let got_kind = v.kind.name().to_string();
    if got_kind != original.violation.kind {
        return Err(ReproError::Mismatch {
            expected: original.violation.kind.clone(),
            got: got_kind,
        });
    }
    let bundle = bundle_of(*v)?;
    let matched = bundle.violation.kind == original.violation.kind
        && bundle.violation.instruction == original.violation.instruction;
    Ok(ReplayReport {
        violation: bundle.violation.clone(),
        matched,
        bundle,
    })
}

// ---------------------------------------------------------------------------
// shrink
// ---------------------------------------------------------------------------

/// What the shrinker did, for logs and the `repro.*` metrics namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkReport {
    /// Scheduled points in the input bundle.
    pub original_points: usize,
    /// Points in the minimal explicit schedule.
    pub shrunk_points: usize,
    /// Instruction budget of the input bundle.
    pub original_budget: u64,
    /// Instruction budget of the shrunk bundle (first failing prefix).
    pub shrunk_budget: u64,
    /// Fault kinds removed wholesale by the greedy pass.
    pub kinds_disabled: Vec<String>,
    /// Candidate simulations evaluated (memo hits included).
    pub candidates: u64,
    /// ddmin rounds executed.
    pub rounds: u64,
}

impl Collect for ShrinkReport {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let ShrinkReport {
            original_points,
            shrunk_points,
            original_budget,
            shrunk_budget,
            kinds_disabled,
            candidates,
            rounds,
        } = self;
        out.set_u64(
            &format!("{prefix}.original_points"),
            *original_points as u64,
        );
        out.set_u64(&format!("{prefix}.shrunk_points"), *shrunk_points as u64);
        out.set_u64(&format!("{prefix}.original_budget"), *original_budget);
        out.set_u64(&format!("{prefix}.shrunk_budget"), *shrunk_budget);
        out.set_u64(
            &format!("{prefix}.kinds_disabled"),
            kinds_disabled.len() as u64,
        );
        out.set_u64(&format!("{prefix}.candidates"), *candidates);
        out.set_u64(&format!("{prefix}.rounds"), *rounds);
    }
}

/// A shrunk bundle plus the statistics of the shrink that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkOutcome {
    /// The minimal bundle: explicit schedules, truncated budget, fresh
    /// event tail from the final reproducing run.
    pub bundle: ReproBundle,
    /// What the shrinker did.
    pub report: ShrinkReport,
}

/// Batches candidate configurations through the runner (parallel
/// workers, failure memoization) and maps each outcome to the violation
/// it produced, if any.
fn probe_batch(configs: &[RunConfig], candidates: &mut u64) -> Vec<Option<Box<Violation>>> {
    *candidates += configs.len() as u64;
    // Shrinker probes fail by construction and never recur across
    // processes, so they must not pollute a sweep's persistent store.
    let mut plan = Plan::new().without_store();
    for (i, cfg) in configs.iter().enumerate() {
        plan.push(format!("shrink-probe-{i}"), cfg.clone());
    }
    plan.run_each()
        .outcomes
        .into_iter()
        .map(|o| match o {
            Err(SimError::Check(v)) => Some(v),
            _ => None,
        })
        .collect()
}

fn fails_with(v: &Option<Box<Violation>>, kind: &str) -> bool {
    v.as_ref().is_some_and(|v| v.kind.name() == kind)
}

fn to_schedules(flat: &[(usize, FaultPoint)], cores: usize) -> Vec<FaultSchedule> {
    let mut per_core: Vec<Vec<FaultPoint>> = vec![Vec::new(); cores];
    for (core, point) in flat {
        per_core[*core].push(*point);
    }
    per_core.into_iter().map(FaultSchedule::new).collect()
}

/// Delta-debugs a bundle down to a minimal explicit schedule (see the
/// module docs for the three phases and the soundness argument).
///
/// # Errors
/// [`ReproError::Mismatch`] when the warmup-normalized configuration no
/// longer produces the bundle's violation kind (the one normalization
/// this module applies is verified, not assumed), [`ReproError::Sim`]
/// when a minimized schedule unexpectedly stops reproducing.
pub fn shrink(original: &ReproBundle) -> Result<ShrinkOutcome, ReproError> {
    let target = original.violation.kind.clone();
    let mut base = decode(&original.config)?;
    base.checker = true;
    base.trace = false;
    base.warmup_instructions = Some(0);
    base.stop_at_instruction = None;
    let original_budget = base.instructions;
    let mut candidates = 0u64;

    // Validate the normalization: the full-horizon run must still fail
    // with the bundle's violation kind.
    let v0 = probe_batch(std::slice::from_ref(&base), &mut candidates)
        .pop()
        .flatten()
        .ok_or(ReproError::NoViolation)?;
    if v0.kind.name() != target {
        return Err(ReproError::Mismatch {
            expected: target,
            got: v0.kind.name().to_string(),
        });
    }
    let mut best = bundle_of(*v0)?;

    // Phase A: bisect the instruction budget to the first failing
    // prefix. Probing three interior quartiles per round keeps the
    // workers busy while still converging like a bisection.
    let mut lo = 0u64; // zero instructions cannot fail
    let mut hi = original_budget; // known to fail (v0)
    while hi - lo > 1 {
        let span = hi - lo;
        let mut probes: Vec<u64> = [span / 4, span / 2, span - span / 4]
            .into_iter()
            .map(|d| lo + d)
            .filter(|&b| b > lo && b < hi)
            .collect();
        probes.dedup();
        if probes.is_empty() {
            break;
        }
        let cfgs: Vec<RunConfig> = probes
            .iter()
            .map(|&b| base.clone().instructions(b))
            .collect();
        let outs = probe_batch(&cfgs, &mut candidates);
        for (b, out) in probes.into_iter().zip(outs) {
            if fails_with(&out, &target) {
                hi = b;
                best = bundle_of(*out.expect("checked by fails_with"))?;
                break;
            }
            lo = lo.max(b);
        }
    }
    let shrunk_budget = hi;
    base.instructions = shrunk_budget;
    base.stop_at_instruction = Some(best.violation.instruction + 1);

    // The recorded points of the minimal-budget failing run are the raw
    // material for the schedule minimization.
    let mut flat: Vec<(usize, FaultPoint)> = Vec::new();
    for (core, sched) in best.recorded.iter().enumerate() {
        for p in &sched.points {
            flat.push((core, *p));
        }
    }

    // Phase B: greedily disable whole fault kinds. Each round batches
    // one candidate per surviving kind and adopts the removal that
    // deletes the most points while still reproducing.
    let mut kinds_disabled: Vec<String> = Vec::new();
    loop {
        let mut kinds: Vec<FaultKind> = Vec::new();
        for (_, p) in &flat {
            if !kinds.contains(&p.kind) {
                kinds.push(p.kind);
            }
        }
        if kinds.len() <= 1 {
            break;
        }
        let trials: Vec<(FaultKind, Vec<(usize, FaultPoint)>)> = kinds
            .into_iter()
            .map(|k| {
                let kept: Vec<(usize, FaultPoint)> =
                    flat.iter().filter(|(_, p)| p.kind != k).copied().collect();
                (k, kept)
            })
            .collect();
        let cfgs: Vec<RunConfig> = trials
            .iter()
            .map(|(_, kept)| {
                base.clone()
                    .with_fault_schedules(to_schedules(kept, base.cores))
            })
            .collect();
        let outs = probe_batch(&cfgs, &mut candidates);
        let adopted = trials
            .into_iter()
            .zip(outs)
            .filter(|(_, out)| fails_with(out, &target))
            .min_by_key(|((_, kept), _)| kept.len());
        match adopted {
            Some(((kind, kept), _)) => {
                flat = kept;
                kinds_disabled.push(kind.name().to_string());
            }
            None => break,
        }
    }

    // Phase C: ddmin over the surviving (core, point) list. Subsets
    // first (can a single chunk reproduce alone?), then complements
    // (is a single chunk deletable?); granularity doubles when neither
    // makes progress.
    let mut rounds = 0u64;
    let mut n = 2usize;
    while flat.len() >= 2 && n <= flat.len() {
        rounds += 1;
        let chunk = flat.len().div_ceil(n);
        let chunks: Vec<&[(usize, FaultPoint)]> = flat.chunks(chunk).collect();
        let mut trials: Vec<Vec<(usize, FaultPoint)>> = Vec::new();
        for c in &chunks {
            trials.push(c.to_vec());
        }
        for i in 0..chunks.len() {
            let complement: Vec<(usize, FaultPoint)> = chunks
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, c)| c.iter().copied())
                .collect();
            trials.push(complement);
        }
        let cfgs: Vec<RunConfig> = trials
            .iter()
            .map(|t| {
                base.clone()
                    .with_fault_schedules(to_schedules(t, base.cores))
            })
            .collect();
        let outs = probe_batch(&cfgs, &mut candidates);
        let reduced = trials
            .into_iter()
            .zip(outs)
            .filter(|(t, out)| t.len() < flat.len() && fails_with(out, &target))
            .min_by_key(|(t, _)| t.len());
        match reduced {
            Some((t, _)) => {
                flat = t;
                n = 2;
            }
            None if n < flat.len() => n = (n * 2).min(flat.len()),
            None => break,
        }
    }

    // Final run: the minimal explicit schedule, traced, so the shrunk
    // bundle ships a fresh event tail and its own violation summary.
    let mut final_cfg = base.clone();
    final_cfg.trace = true;
    final_cfg.fault_schedules = Some(to_schedules(&flat, base.cores));
    let v = run_direct(&final_cfg)?.ok_or_else(|| {
        ReproError::Sim("the minimized schedule no longer reproduces the violation".to_string())
    })?;
    if v.kind.name() != target {
        return Err(ReproError::Mismatch {
            expected: target,
            got: v.kind.name().to_string(),
        });
    }
    let bundle = bundle_of(*v)?;
    let report = ShrinkReport {
        original_points: original.schedule_points(),
        shrunk_points: flat.len(),
        original_budget,
        shrunk_budget,
        kinds_disabled,
        candidates,
        rounds,
    };
    Ok(ShrinkOutcome { bundle, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_sha_is_never_empty() {
        assert!(!git_sha().is_empty());
    }

    #[test]
    fn record_requires_an_injector() {
        let err = record(&RunConfig::quick("redis")).unwrap_err();
        assert!(matches!(err, ReproError::Config(_)));
    }
}
