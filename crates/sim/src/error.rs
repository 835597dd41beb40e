//! Typed simulation errors.
//!
//! `System::build` and `System::run` used to panic (via `expect`) on
//! allocation failure and unmapped accesses. They now return `SimError`,
//! so drivers can degrade gracefully — fall back to smaller
//! configurations, report the failing run and continue a sweep — and so
//! the differential checker can surface an invariant [`Violation`] as an
//! ordinary error value instead of a crash.

use seesaw_check::Violation;
use seesaw_mem::MemError;

/// Why a simulation could not be built or completed.
///
/// `Clone` so the runner's memo cache can record failures the same way it
/// records results: a deterministic config that fails once fails
/// identically every time, and the shrinker's delta-debugging candidates
/// (which fail by design) would otherwise be re-simulated on every
/// recurrence.
#[derive(Debug, Clone)]
pub enum SimError {
    /// Physical memory could not satisfy an allocation the run needs
    /// (after graceful degradation was already attempted).
    Mem {
        /// What the simulator was doing when the allocation failed.
        context: &'static str,
        /// The underlying allocator error.
        source: MemError,
    },
    /// A generated reference touched an unmapped virtual address — a bug
    /// in the workload model or a fault-injection unmap gone wrong.
    PageFault {
        /// The faulting virtual address.
        va: u64,
    },
    /// The configuration's workload spec differs from the catalog entry
    /// of the same name. Content addresses and the artifact caches name a
    /// workload by its catalog name, so only catalog specs can run.
    Workload {
        /// The spec's name.
        name: &'static str,
    },
    /// The differential shadow checker caught an invariant violation.
    /// Boxed because the diagnostic carries the event history.
    Check(Box<Violation>),
    /// The cell's simulation panicked and the supervisor isolated it
    /// (`catch_unwind`): the sweep survives, this cell reports the panic.
    Panic {
        /// Label of the plan cell that panicked.
        cell: String,
        /// Short content digest of the cell's configuration fingerprint
        /// (the store's record name), so the failing config can be found
        /// without replaying the whole plan.
        fingerprint: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The supervisor's watchdog expired before the cell finished
    /// (simulation or store write-back wedged past the configured
    /// per-cell wall-clock budget).
    Timeout {
        /// Label of the plan cell that timed out.
        cell: String,
        /// The wall-clock budget that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// The sweep's failure budget ([`crate::SweepPolicy::max_failures`])
    /// was already exhausted, so this cell was never started.
    Skipped {
        /// Label of the plan cell that was skipped.
        cell: String,
    },
}

impl SimError {
    /// Whether a supervised runner should retry this failure.
    ///
    /// Simulations are pure functions of their configuration, so every
    /// simulation-level error ([`SimError::Mem`], [`SimError::PageFault`],
    /// [`SimError::Workload`], [`SimError::Check`]) recurs identically on
    /// a retry — those are *permanent*. Only harness-level failures are
    /// *transient*: a panic may come from an exhausted resource, and a
    /// timeout from a loaded machine or a wedged store write-back, so both
    /// earn the supervisor's capped backoff-and-retry treatment.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SimError::Panic { .. } | SimError::Timeout { .. })
    }

    /// The autosaved repro-bundle path, when this is a checker violation
    /// that was persisted under `SEESAW_REPRO` (see
    /// [`Violation::autosaved`]).
    pub fn bundle_path(&self) -> Option<&std::path::Path> {
        match self {
            SimError::Check(v) => v.autosaved.as_deref(),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Mem { context, source } => {
                write!(f, "memory allocation failed while {context}: {source}")
            }
            SimError::PageFault { va } => {
                write!(f, "simulated page fault: va {va:#x} is not mapped")
            }
            SimError::Workload { name } => {
                write!(f, "workload spec {name:?} differs from its catalog entry")
            }
            SimError::Check(violation) => write!(f, "{violation}"),
            SimError::Panic {
                cell,
                fingerprint,
                message,
            } => write!(
                f,
                "cell {cell:?} (config {fingerprint}) panicked: {message}"
            ),
            SimError::Timeout { cell, timeout_ms } => {
                write!(f, "cell {cell:?} exceeded its {timeout_ms} ms watchdog")
            }
            SimError::Skipped { cell } => {
                write!(f, "cell {cell:?} skipped: sweep failure budget exhausted")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<Violation> for SimError {
    fn from(violation: Violation) -> Self {
        SimError::Check(Box::new(violation))
    }
}
