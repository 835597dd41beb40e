//! Deterministic parallel experiment engine with memoized, supervised,
//! crash-safe runs.
//!
//! The paper's evaluation is a large grid of *independent* simulations:
//! every figure and table sweeps workloads × designs × knobs, and many
//! cells (most prominently the baseline-VIPT runs every comparison
//! divides by) recur across sweeps. This module gives every driver the
//! same engine, in layers:
//!
//! * **A scoped worker pool.** [`Plan`] collects `(label, RunConfig)`
//!   cells and [`Plan::run`] executes them across `std::thread::scope`
//!   workers (no external dependencies — see the rand/proptest/criterion
//!   path shims for why the workspace builds offline). Results come back
//!   in plan order, and because every run is seeded purely by its own
//!   [`RunConfig`], the parallel output is bit-identical to executing the
//!   same plan serially.
//! * **A content-addressed memo cache.** Each config is fingerprinted
//!   (its full `Debug` rendering — every field participates, so two
//!   configs collide only when they are equal) and finished
//!   [`RunResult`]s are kept in a process-wide table. A config that
//!   recurs — across cells of one plan, across plans, across figures in
//!   one binary, or across `cargo test` threads — is simulated once per
//!   process and served from the cache afterwards. Determinism makes
//!   this sound: a memoized result is the result a fresh run would
//!   produce.
//! * **A persistent store behind the cache.** With `SEESAW_STORE=<dir>`
//!   set (or an explicit [`Plan::with_store`]), a memo miss consults the
//!   on-disk [`crate::store`] before simulating, and every fresh outcome
//!   is committed there from inside the supervised cell. A sweep killed
//!   mid-run — `SIGKILL` included — re-executes only the cells that had
//!   not committed, and the resumed results are bit-identical to an
//!   undisturbed serial run (pinned by `tests/chaos.rs`).
//! * **Per-cell supervision.** Every cell executes on its own named
//!   thread under [`SupervisorConfig`]: a panicking cell is isolated
//!   (`catch_unwind`) and reported as [`SimError::Panic`] carrying the
//!   cell label and config digest; a wedged cell trips a wall-clock
//!   watchdog ([`SimError::Timeout`]); transient failures earn capped
//!   exponential backoff retries whose jitter is a pure function of
//!   (seed, cell digest, attempt). Simulation-level failures are
//!   permanent — determinism means they recur identically — and are
//!   never retried.
//! * **Graceful degradation.** [`Plan::run_sweep`] takes a
//!   [`SweepPolicy`]: up to `max_failures` *permanent* cell failures do
//!   not abort the sweep — survivors complete, cells past the budget are
//!   skipped without running, and the [`SweepReport`] lists every failed
//!   cell with its config digest and autosaved repro-bundle path.
//!   [`Plan::run`] keeps fail-fast semantics for drivers that treat any
//!   failure as fatal.
//! * **A multi-process layer on top.** [`crate::fabric`] serializes the
//!   same `(label, RunConfig)` cells onto a work-stealing job queue
//!   inside the store directory; `seesaw-worker` processes execute each
//!   claimed cell through this exact engine (a single-cell
//!   [`Plan::run_sweep`] with the store attached, so supervision and
//!   write-back are shared, not reimplemented), and assembly re-runs the
//!   plan locally where every worker-resolved cell is a store hit —
//!   bit-identical to a single-process run. DESIGN.md §16 specifies the
//!   wire protocol; docs/DISTRIBUTED.md is the operator's handbook.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with the `SEESAW_THREADS` environment variable (used by
//! `scripts/check.sh` and `scripts/bench.sh`).
//!
//! # Example
//!
//! ```
//! use seesaw_sim::{runner::Plan, L1DesignKind, RunConfig};
//!
//! let mut plan = Plan::new();
//! let base = plan.push("base", RunConfig::quick("redis"));
//! let seesaw = plan.push("seesaw", RunConfig::quick("redis").design(L1DesignKind::Seesaw));
//! let results = plan.run().unwrap();
//! assert!(results[seesaw].runtime_improvement_pct(&results[base]) > 0.0);
//! ```

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use seesaw_trace::ops::{CellProgress, CellState, OpsSweepStats};
use seesaw_trace::{ChromeTrace, Collect, Log2Histogram, MetricsRegistry};

use crate::status::{self, StatusBoard, StatusWriter};
use crate::store::{self, Store, StoreStats, StoredOutcome};
use crate::{RunConfig, RunResult, SimError, SupervisorConfig, SweepPolicy, System};

/// A memoized failure: the error plus the durable pointer to its
/// autosaved repro bundle, so a sweep resumed from the memo (or the
/// persistent store behind it) still reports where the bundle lives.
#[derive(Debug, Clone)]
struct FailureEntry {
    error: SimError,
    bundle_path: Option<PathBuf>,
}

impl FailureEntry {
    fn new(error: SimError) -> Self {
        let bundle_path = error.bundle_path().map(|p| p.to_path_buf());
        FailureEntry { error, bundle_path }
    }
}

/// Process-wide memo cache state. Failures are memoized alongside
/// results: runs are deterministic, so a config that failed once fails
/// identically forever, and the repro shrinker leans on this — most of
/// its delta-debugging candidates *fail by construction* and recur across
/// bisection rounds. Only simulation-level failures are memoized;
/// harness-level ones ([`SimError::Panic`], [`SimError::Timeout`],
/// [`SimError::Skipped`]) are circumstances of one execution, so a later
/// plan retries those cells.
struct MemoState {
    results: HashMap<String, RunResult>,
    failures: HashMap<String, FailureEntry>,
    hits: u64,
    misses: u64,
}

static MEMO: OnceLock<Mutex<MemoState>> = OnceLock::new();

fn memo() -> &'static Mutex<MemoState> {
    MEMO.get_or_init(|| {
        Mutex::new(MemoState {
            results: HashMap::new(),
            failures: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    })
}

/// A snapshot of the process-wide memo cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Plan cells served from the cache (including duplicates inside one
    /// plan, which are simulated once, and cells served from the
    /// persistent store).
    pub hits: u64,
    /// Plan cells that required a fresh simulation.
    pub misses: u64,
    /// Distinct configurations currently cached.
    pub entries: usize,
}

/// The process-wide wall-clock origin every plan journal is stamped
/// against, so spans from successive plans in one binary land on one
/// consistent Chrome-trace timeline.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

fn process_origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

/// Every cell journaled by every [`Plan::run`] in this process, in
/// completion order of the plans.
static SESSION: OnceLock<Mutex<Vec<CellRecord>>> = OnceLock::new();

fn session() -> &'static Mutex<Vec<CellRecord>> {
    SESSION.get_or_init(|| Mutex::new(Vec::new()))
}

/// A copy of the process-wide plan journal: one [`CellRecord`] per cell
/// of every plan run so far, stamped against one shared origin.
pub fn session_journal() -> Vec<CellRecord> {
    session().lock().expect("session lock").clone()
}

/// Renders the process-wide plan journal as a Chrome `trace_event`
/// document (see [`PlanRun::chrome_trace`] for the per-plan variant).
pub fn session_chrome_trace(name: &str) -> String {
    chrome_trace_of(name, &session_journal())
}

/// Shared Chrome-trace renderer: one track per worker, complete spans
/// for fresh simulations, instant events for memo hits.
fn chrome_trace_of(plan_name: &str, journal: &[CellRecord]) -> String {
    let mut t = ChromeTrace::new();
    t.process_name(1, plan_name);
    t.thread_name(1, 0, "memo cache");
    let mut workers: Vec<usize> = journal
        .iter()
        .filter(|c| !c.memo_hit)
        .map(|c| c.worker)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        t.thread_name(1, w as u64 + 1, &format!("worker {w}"));
    }
    for cell in journal {
        if cell.memo_hit {
            t.instant(&cell.label, "memo", 1, 0, cell.start_us, &[("memo", "hit")]);
        } else {
            t.complete(
                &cell.label,
                "cell",
                1,
                cell.worker as u64 + 1,
                cell.start_us,
                cell.dur_us,
                &[("memo", "miss")],
            );
        }
    }
    t.render()
}

impl Collect for MemoStats {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let MemoStats {
            hits,
            misses,
            entries,
        } = *self;
        out.set_u64(&format!("{prefix}.hits"), hits);
        out.set_u64(&format!("{prefix}.misses"), misses);
        out.set_u64(&format!("{prefix}.entries"), entries as u64);
    }
}

/// Returns the memo-cache counters accumulated so far in this process.
pub fn memo_stats() -> MemoStats {
    let m = memo().lock().expect("memo lock");
    MemoStats {
        hits: m.hits,
        misses: m.misses,
        entries: m.results.len(),
    }
}

/// The content address of a configuration: its complete `Debug`
/// rendering. Every `RunConfig` field derives `Debug`, so the fingerprint
/// changes whenever any knob changes and two fingerprints are equal only
/// for equal configs — no hand-maintained hash to fall out of sync.
pub fn fingerprint(config: &RunConfig) -> String {
    format!("{config:?}")
}

/// The worker count: `SEESAW_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn worker_threads() -> usize {
    match std::env::var("SEESAW_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// An ordered parallel map: applies `f` to every item across the worker
/// pool and returns the outputs in input order. Used directly by drivers
/// whose unit of work is not a full [`RunConfig`] simulation (e.g. the
/// Fig. 2a functional cache sweep) and by [`Plan::run`] underneath.
pub fn parallel_map<T, R>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    parallel_map_with(worker_threads(), items, f)
}

fn parallel_map_with<T, R>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = threads.clamp(1, items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every slot filled by a worker")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Supervision: chaos hook, panic silencing, supervised cell execution.
// ---------------------------------------------------------------------------

/// What the chaos hook tells a cell to do (see [`set_cell_chaos_hook`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellChaos {
    /// Run normally.
    Continue,
    /// Panic before simulating — exercises the supervisor's
    /// `catch_unwind` isolation.
    Panic,
    /// Sleep this long before simulating — exercises the watchdog.
    HangMs(u64),
    /// Simulate normally, then sleep this long before the store
    /// write-back completes — exercises a timeout firing during
    /// write-back.
    HangAfterRunMs(u64),
}

/// What the chaos hook sees about the cell it is deciding for.
#[derive(Debug)]
pub struct CellContext<'a> {
    /// The plan label of the cell.
    pub label: &'a str,
    /// Which attempt this is (0 = first).
    pub attempt: u32,
}

/// The chaos hook's type: called with the cell's context, returns the
/// fault to inject (or [`CellChaos::Continue`]).
pub type ChaosHook = Arc<dyn Fn(&CellContext<'_>) -> CellChaos + Send + Sync>;

static CHAOS_HOOK: OnceLock<Mutex<Option<ChaosHook>>> = OnceLock::new();

fn chaos_hook_slot() -> &'static Mutex<Option<ChaosHook>> {
    CHAOS_HOOK.get_or_init(|| Mutex::new(None))
}

/// Installs (or with `None`, removes) the process-wide chaos hook the
/// supervisor consults at the top of every cell attempt — *inside* the
/// supervised thread, so injected panics and hangs travel the real
/// `catch_unwind`/watchdog paths. Test-only machinery: the chaos tests
/// and `chaos_smoke` use it to fault the harness on demand; production
/// sweeps never install one.
pub fn set_cell_chaos_hook(hook: Option<ChaosHook>) {
    *chaos_hook_slot().lock().expect("chaos hook lock") = hook;
}

fn consult_chaos(ctx: &CellContext<'_>) -> CellChaos {
    let hook = chaos_hook_slot().lock().expect("chaos hook lock").clone();
    match hook {
        Some(h) => h(ctx),
        None => CellChaos::Continue,
    }
}

/// Prefix of every supervised cell thread's name; the panic silencer
/// keys on it.
const CELL_THREAD_PREFIX: &str = "seesaw-cell-";

/// Installs (once per process) a panic hook that suppresses the default
/// stderr backtrace for supervised cell threads — their panics are
/// *caught*, converted to [`SimError::Panic`], and reported through the
/// sweep, so the default print would be noise (and the chaos tests panic
/// on purpose, hundreds of times). Every other thread keeps the previous
/// hook's behavior.
fn install_cell_panic_silencer() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let silenced = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(CELL_THREAD_PREFIX));
            if !silenced {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-plan supervision tally, folded into the process-wide counters
/// when the plan finishes.
#[derive(Default)]
struct SupervisorTally {
    cells: AtomicU64,
    panics_caught: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    permanent_failures: AtomicU64,
    cells_skipped: AtomicU64,
}

impl SupervisorTally {
    fn snapshot(&self) -> SupervisorStats {
        SupervisorStats {
            cells: self.cells.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            permanent_failures: self.permanent_failures.load(Ordering::Relaxed),
            cells_skipped: self.cells_skipped.load(Ordering::Relaxed),
        }
    }
}

seesaw_trace::counters! {
    /// Counters of supervised cell execution, exported under the
    /// `supervisor.*` namespace. [`SweepReport::supervisor`] carries one
    /// plan's tally; [`supervisor_stats`] the process-wide accumulation.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SupervisorStats {
        /// Cells executed under supervision (not counting retries).
        pub cells: u64,
        /// Panics isolated by `catch_unwind` across all attempts.
        pub panics_caught: u64,
        /// Watchdog expirations across all attempts.
        pub timeouts: u64,
        /// Retry attempts granted (each preceded by a backoff sleep).
        pub retries: u64,
        /// Cells whose final outcome was a permanent failure.
        pub permanent_failures: u64,
        /// Cells never started because the sweep's failure budget
        /// ([`SweepPolicy::max_failures`]) was already exhausted.
        pub cells_skipped: u64,
    }
}

static SUPERVISOR_TOTALS: OnceLock<Mutex<SupervisorStats>> = OnceLock::new();

fn supervisor_totals() -> &'static Mutex<SupervisorStats> {
    SUPERVISOR_TOTALS.get_or_init(|| Mutex::new(SupervisorStats::default()))
}

/// The supervision counters accumulated so far in this process.
pub fn supervisor_stats() -> SupervisorStats {
    *supervisor_totals().lock().expect("supervisor lock")
}

fn fold_supervisor_totals(delta: SupervisorStats) {
    supervisor_totals()
        .lock()
        .expect("supervisor lock")
        .merge(&delta);
}

static SESSION_OPS: OnceLock<Mutex<OpsSweepStats>> = OnceLock::new();

fn session_ops_slot() -> &'static Mutex<OpsSweepStats> {
    SESSION_OPS.get_or_init(|| Mutex::new(OpsSweepStats::default()))
}

fn fold_session_ops(delta: &OpsSweepStats) {
    let mut t = session_ops_slot().lock().expect("session ops lock");
    t.cells += delta.cells;
    t.done += delta.done;
    t.failed += delta.failed;
    t.skipped += delta.skipped;
    t.cached += delta.cached;
    t.instructions += delta.instructions;
}

/// The process-wide accumulation of every sweep's terminal ops rollup
/// (cell state counts, fresh-simulation instructions), with the
/// throughput recomputed over the process journal origin — the
/// `ops.sweep.*` numbers the bench epilogue exports to Prometheus.
pub fn session_ops() -> OpsSweepStats {
    let mut s = *session_ops_slot().lock().expect("session ops lock");
    let elapsed = process_origin().elapsed().as_secs_f64();
    if elapsed > 0.0 {
        s.minstr_per_sec = s.instructions as f64 / elapsed / 1e6;
    }
    s
}

/// One attempt of one cell on its own named thread. The simulation, the
/// chaos hook, and the store write-back all happen *inside* the thread,
/// behind `catch_unwind`, so a panic anywhere in that path is isolated
/// and a wedge anywhere in that path (write-back included) trips the
/// watchdog. A timed-out thread is leaked — safe Rust cannot kill a
/// thread — which is harmless: its eventual store write (if any) goes
/// through the same atomic tmp+rename commit as everyone else's.
fn attempt_cell(
    label: &str,
    key: &str,
    config: &RunConfig,
    attempt: u32,
    store_handle: Option<&Arc<Store>>,
    timeout: Option<Duration>,
    progress: Option<Arc<CellProgress>>,
) -> Result<RunResult, SimError> {
    install_cell_panic_silencer();
    let digest = store::digest(key);
    let (tx, rx) = mpsc::channel::<Result<RunResult, SimError>>();
    let thread_label = label.to_string();
    let thread_key = key.to_string();
    let thread_config = config.clone();
    let thread_store = store_handle.cloned();
    let thread_digest = digest.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("{CELL_THREAD_PREFIX}{}", &digest[..8]))
        .spawn(move || {
            // The heartbeat is per *attempt*: this fresh thread installs
            // its own Arc, so a previous watchdog-killed attempt — still
            // running somewhere, unkillable in safe Rust — keeps writing
            // into an Arc the status board no longer reads.
            status::set_cell_progress(progress);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut hang_after_ms = None;
                match consult_chaos(&CellContext {
                    label: &thread_label,
                    attempt,
                }) {
                    CellChaos::Continue => {}
                    CellChaos::Panic => panic!("chaos: injected cell panic"),
                    CellChaos::HangMs(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    CellChaos::HangAfterRunMs(ms) => hang_after_ms = Some(ms),
                }
                let result = System::build(&thread_config).and_then(System::run);
                if let Some(ms) = hang_after_ms {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                if let Some(store) = &thread_store {
                    match &result {
                        Ok(r) => store.put_result(&thread_key, r),
                        Err(e) => store.put_failure(&thread_key, e),
                    }
                }
                result
            }));
            let message = match outcome {
                Ok(result) => result,
                Err(payload) => Err(SimError::Panic {
                    cell: thread_label,
                    fingerprint: thread_digest,
                    message: panic_message(payload),
                }),
            };
            let _ = tx.send(message);
        });
    if let Err(e) = spawned {
        return Err(SimError::Panic {
            cell: label.to_string(),
            fingerprint: digest,
            message: format!("cell thread could not be spawned: {e}"),
        });
    }
    match timeout {
        Some(t) => rx.recv_timeout(t).unwrap_or_else(|_| {
            Err(SimError::Timeout {
                cell: label.to_string(),
                timeout_ms: t.as_millis() as u64,
            })
        }),
        None => rx.recv().unwrap_or_else(|_| {
            Err(SimError::Panic {
                cell: label.to_string(),
                fingerprint: digest,
                message: "cell thread exited without reporting".to_string(),
            })
        }),
    }
}

/// Supervised execution of one cell: attempts under
/// [`attempt_cell`], retrying transient failures per the config's
/// backoff schedule. Pure control flow — all nondeterminism (which
/// attempt succeeds) comes from the chaos hook or the host, and the
/// backoff delays themselves are a pure function of (seed, digest,
/// attempt).
fn run_supervised(
    label: &str,
    key: &str,
    config: &RunConfig,
    sup: &SupervisorConfig,
    store_handle: Option<&Arc<Store>>,
    tally: &SupervisorTally,
    status: Option<(&StatusBoard, &[usize])>,
) -> Result<RunResult, SimError> {
    tally.cells.fetch_add(1, Ordering::Relaxed);
    let digest = store::digest64(key);
    let mut attempt = 0u32;
    loop {
        let progress = status.map(|(board, cells)| board.start_attempt(cells, attempt));
        let outcome = attempt_cell(
            label,
            key,
            config,
            attempt,
            store_handle,
            sup.timeout,
            progress,
        );
        match &outcome {
            Err(SimError::Panic { .. }) => {
                tally.panics_caught.fetch_add(1, Ordering::Relaxed);
            }
            Err(SimError::Timeout { .. }) => {
                tally.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        match outcome {
            Ok(result) => {
                if let Some((board, cells)) = status {
                    board.finish(cells, CellState::Done);
                }
                return Ok(result);
            }
            Err(e) if e.is_retryable() && attempt < sup.max_retries => {
                tally.retries.fetch_add(1, Ordering::Relaxed);
                if let Some((board, cells)) = status {
                    board.retrying(cells, attempt + 1);
                }
                std::thread::sleep(sup.backoff_delay(digest, attempt));
                attempt += 1;
            }
            Err(e) => {
                if let Some((board, cells)) = status {
                    board.finish(cells, CellState::Failed);
                }
                return Err(e);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plans.
// ---------------------------------------------------------------------------

/// Which persistent store a plan consults (and commits to).
#[derive(Debug, Clone, Default)]
enum StoreMode {
    /// The process store named by `SEESAW_STORE`, when set.
    #[default]
    Env,
    /// An explicit store handle (tests use this to avoid env coupling).
    Explicit(Arc<Store>),
    /// No persistence, even if `SEESAW_STORE` is set.
    Disabled,
}

/// Where a sweep publishes live `status.json` snapshots (mirrors
/// [`StoreMode`]).
#[derive(Debug, Clone, Default)]
enum StatusMode {
    /// The directory named by `SEESAW_STATUS`, when set.
    #[default]
    Env,
    /// An explicit directory (tests use this to avoid env coupling).
    Explicit(PathBuf),
    /// No live status, even if `SEESAW_STATUS` is set.
    Disabled,
}

/// An ordered grid of labelled simulation cells.
///
/// Drivers push one cell per `System::build(..)?.run()?` they need,
/// remember the returned indices, call [`Plan::run`] once, and assemble
/// their rows from the ordered results. A figure driver's grid function
/// does the pushing, so [`crate::experiments::plan_cells`] can take the
/// same cells unrun through [`Plan::into_cells`] for `seesaw-submit`.
/// See the module docs for the execution, memoization, persistence, and
/// supervision model.
#[derive(Debug, Default)]
pub struct Plan {
    cells: Vec<(String, RunConfig)>,
    threads: Option<usize>,
    store: StoreMode,
    status: StatusMode,
    name: Option<String>,
}

impl Plan {
    /// An empty plan using the default worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty plan pinned to `threads` workers (tests use this to
    /// exercise the parallel path regardless of the host's core count).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
            ..Self::default()
        }
    }

    /// Builder: persist and resume through this explicit store instead
    /// of the `SEESAW_STORE` process store.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = StoreMode::Explicit(store);
        self
    }

    /// Builder: never touch a persistent store, even if `SEESAW_STORE`
    /// is set (replays and shrinker probes use this — their cells fail
    /// by construction and must not pollute a sweep's store).
    pub fn without_store(mut self) -> Self {
        self.store = StoreMode::Disabled;
        self
    }

    /// Builder: names the sweep (shown in `status.json` and the
    /// `seesaw-status` CLI; defaults to `"sweep"`).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builder: publish live status snapshots to this directory instead
    /// of (or regardless of) `SEESAW_STATUS`.
    pub fn with_status(mut self, dir: impl Into<PathBuf>) -> Self {
        self.status = StatusMode::Explicit(dir.into());
        self
    }

    /// Builder: never publish live status, even if `SEESAW_STATUS` is
    /// set (replays and shrinker probes use this — dozens of throwaway
    /// probe plans would otherwise fight over one `status.json`).
    pub fn without_status(mut self) -> Self {
        self.status = StatusMode::Disabled;
        self
    }

    fn resolve_store(&self) -> Option<Arc<Store>> {
        match &self.store {
            StoreMode::Env => store::process_store().cloned(),
            StoreMode::Explicit(s) => Some(s.clone()),
            StoreMode::Disabled => None,
        }
    }

    fn resolve_status_dir(&self) -> Option<PathBuf> {
        match &self.status {
            StatusMode::Env => status::status_dir_from_env(),
            StatusMode::Explicit(d) => Some(d.clone()),
            StatusMode::Disabled => None,
        }
    }

    /// Appends a cell and returns its index into [`Plan::run`]'s output.
    pub fn push(&mut self, label: impl Into<String>, config: RunConfig) -> usize {
        self.cells.push((label.into(), config));
        self.cells.len() - 1
    }

    /// Number of cells queued.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The queued `(label, config)` cells in push order, unrun.
    pub fn into_cells(self) -> Vec<(String, RunConfig)> {
        self.cells
    }

    /// Executes every cell — distinct configurations in parallel, each
    /// simulated at most once per process — and returns the results in
    /// plan order, along with this plan's memo-cache deltas and a
    /// wall-clock journal of which worker simulated which cell when.
    ///
    /// # Errors
    /// Returns the error of the earliest cell (in plan order) whose
    /// simulation failed — the same error a serial front-to-back
    /// execution of the plan would have surfaced first.
    pub fn run(self) -> Result<PlanRun, SimError> {
        let PlanOutcomes {
            outcomes,
            memo,
            journal,
            threads,
        } = self.run_each();
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            results.push(outcome?);
        }
        Ok(PlanRun {
            results,
            memo,
            journal,
            threads,
        })
    }

    /// Like [`Plan::run`], but a failing cell does not abort the plan:
    /// every cell's outcome comes back in plan order as its own
    /// `Result`. This is the entry point for callers that *expect*
    /// failures — the repro shrinker probes dozens of configurations per
    /// round precisely to learn which ones still violate the checker.
    ///
    /// Equivalent to [`Plan::run_sweep`] with the environment-derived
    /// [`SweepPolicy`] (unlimited failure tolerance).
    pub fn run_each(self) -> PlanOutcomes {
        self.run_sweep(SweepPolicy::from_env()).into_outcomes()
    }

    /// The crash-safe sweep entry point: executes every cell under
    /// supervision (see the module docs), tolerating up to
    /// `policy.max_failures` permanent cell failures — survivors
    /// complete, cells past the budget are skipped without running
    /// ([`SimError::Skipped`]) — and reports every failure with its
    /// config digest and autosaved repro-bundle path.
    ///
    /// With more than one worker, *which* cells land past the budget
    /// depends on completion timing; pin the plan to one thread
    /// ([`Plan::with_threads`]) when a test needs the skip set to be
    /// deterministic. Everything else — results, failures, backoff
    /// delays — is deterministic at any worker count.
    pub fn run_sweep(self, policy: SweepPolicy) -> SweepReport {
        let sweep_started = Instant::now();
        let threads = self.threads.unwrap_or_else(worker_threads);
        let origin = process_origin();
        let store_handle = self.resolve_store();
        let status_dir = self.resolve_status_dir();
        let sweep_name = self.name.clone().unwrap_or_else(|| "sweep".to_string());
        let keys: Vec<String> = self.cells.iter().map(|(_, c)| fingerprint(c)).collect();

        // Distinct configurations not already memoized become jobs —
        // after a detour through the persistent store, which turns a
        // relaunched sweep's would-be jobs back into hits. Each cell's
        // resolution is classified on the way for the status board:
        // served from cache (ok or failure), or produced by job `j`.
        enum CellSource {
            CachedOk,
            CachedFailed,
            Job(usize),
        }
        let mut sources: Vec<CellSource> = Vec::with_capacity(self.cells.len());
        let mut jobs: Vec<(String, String, RunConfig)> = Vec::new();
        {
            let mut m = memo().lock().expect("memo lock");
            let mut queued: HashMap<&str, usize> = HashMap::new();
            for ((label, cfg), key) in self.cells.iter().zip(&keys) {
                if m.results.contains_key(key.as_str()) {
                    sources.push(CellSource::CachedOk);
                    continue;
                }
                if m.failures.contains_key(key.as_str()) {
                    sources.push(CellSource::CachedFailed);
                    continue;
                }
                if let Some(&j) = queued.get(key.as_str()) {
                    sources.push(CellSource::Job(j));
                    continue;
                }
                if let Some(store) = &store_handle {
                    match store.get(key) {
                        Some(StoredOutcome::Result(result)) => {
                            m.results.insert(key.clone(), *result);
                            sources.push(CellSource::CachedOk);
                            continue;
                        }
                        Some(StoredOutcome::Failure(error)) => {
                            m.failures.insert(key.clone(), FailureEntry::new(error));
                            sources.push(CellSource::CachedFailed);
                            continue;
                        }
                        None => {}
                    }
                }
                queued.insert(key.as_str(), jobs.len());
                sources.push(CellSource::Job(jobs.len()));
                jobs.push((key.clone(), label.clone(), cfg.clone()));
            }
        }

        // Live status (`SEESAW_STATUS`): cached cells resolve on the
        // board instantly; each job updates every plan cell it serves
        // (duplicates share one simulation, hence one heartbeat).
        let job_cells: Vec<Vec<usize>> = {
            let mut v = vec![Vec::new(); jobs.len()];
            for (i, s) in sources.iter().enumerate() {
                if let CellSource::Job(j) = s {
                    v[*j].push(i);
                }
            }
            v
        };
        let board_writer: Option<(Arc<StatusBoard>, StatusWriter)> = status_dir.and_then(|dir| {
            let meta: Vec<(String, String)> = self
                .cells
                .iter()
                .zip(&keys)
                .map(|((label, _), key)| (label.clone(), store::digest(key)[..8].to_string()))
                .collect();
            let board = StatusBoard::new(&sweep_name, &meta, threads);
            for (i, s) in sources.iter().enumerate() {
                match s {
                    CellSource::CachedOk => board.cached(i, false),
                    CellSource::CachedFailed => board.cached(i, true),
                    CellSource::Job(_) => {}
                }
            }
            match StatusWriter::spawn(board.clone(), &dir, status::status_interval_from_env()) {
                Ok(writer) => Some((board, writer)),
                Err(e) => {
                    // Live status is best-effort; the sweep is not.
                    eprintln!("[status] disabled: cannot write {}: {e}", dir.display());
                    None
                }
            }
        });

        // Like `parallel_map_with`, but each worker runs its jobs under
        // the supervisor, honors the sweep's failure budget, and stamps
        // its outputs with its own index and the job's wall-clock span,
        // so the plan journal can reconstruct the schedule.
        type JobOutcome = (Result<RunResult, SimError>, usize, u64, u64);
        let workers = threads.clamp(1, jobs.len().max(1));
        let next = AtomicUsize::new(0);
        let permanent = AtomicUsize::new(0);
        let tally = SupervisorTally::default();
        let slots: Vec<Mutex<Option<JobOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let next = &next;
                let permanent = &permanent;
                let tally = &tally;
                let slots = &slots;
                let jobs = &jobs;
                let store_handle = &store_handle;
                let sup = &policy.supervisor;
                let board_writer = &board_writer;
                let job_cells = &job_cells;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let (key, label, cfg) = &jobs[i];
                    let status = board_writer
                        .as_ref()
                        .map(|(board, _)| (board.as_ref(), job_cells[i].as_slice()));
                    let start_us = origin.elapsed().as_micros() as u64;
                    let budget_spent = policy
                        .max_failures
                        .is_some_and(|n| permanent.load(Ordering::Relaxed) > n);
                    let outcome = if budget_spent {
                        tally.cells_skipped.fetch_add(1, Ordering::Relaxed);
                        if let Some((board, cells)) = status {
                            board.finish(cells, CellState::Skipped);
                        }
                        Err(SimError::Skipped {
                            cell: label.clone(),
                        })
                    } else {
                        let out = run_supervised(
                            label,
                            key,
                            cfg,
                            sup,
                            store_handle.as_ref(),
                            tally,
                            status,
                        );
                        if out.as_ref().is_err() {
                            tally.permanent_failures.fetch_add(1, Ordering::Relaxed);
                            permanent.fetch_add(1, Ordering::Relaxed);
                        }
                        out
                    };
                    let dur_us = (origin.elapsed().as_micros() as u64)
                        .saturating_sub(start_us)
                        .max(1);
                    *slots[i].lock().expect("slot lock") = Some((outcome, w, start_us, dur_us));
                });
            }
        });
        let job_outcomes: Vec<JobOutcome> = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot lock")
                    .expect("every slot filled by a worker")
            })
            .collect();

        let memo_delta = MemoStats {
            hits: (keys.len() - jobs.len()) as u64,
            misses: jobs.len() as u64,
            entries: {
                let mut distinct: HashSet<&str> = HashSet::new();
                keys.iter().for_each(|k| {
                    distinct.insert(k);
                });
                distinct.len()
            },
        };

        // Memoize fresh outcomes. Harness-level failures (panic,
        // timeout, skip) are circumstances of this execution, not
        // properties of the configuration, so they stay local — a later
        // plan (or a relaunch) retries those cells.
        let mut local: HashMap<String, Result<RunResult, SimError>> = HashMap::new();
        let mut spans: HashMap<String, (usize, u64, u64)> = HashMap::new();
        {
            let mut m = memo().lock().expect("memo lock");
            m.misses += jobs.len() as u64;
            m.hits += (keys.len() - jobs.len()) as u64;
            for ((key, _, _), (outcome, worker, start_us, dur_us)) in
                jobs.into_iter().zip(job_outcomes)
            {
                spans.insert(key.clone(), (worker, start_us, dur_us));
                match &outcome {
                    Ok(result) => {
                        m.results.insert(key.clone(), result.clone());
                    }
                    Err(
                        e
                        @ (SimError::Check(_) | SimError::Mem { .. } | SimError::PageFault { .. }),
                    ) => {
                        m.failures.insert(key.clone(), FailureEntry::new(e.clone()));
                    }
                    Err(
                        SimError::Panic { .. }
                        | SimError::Timeout { .. }
                        | SimError::Skipped { .. },
                    ) => {}
                }
                local.insert(key, outcome);
            }
        }

        // Per-cell journal in plan order: cells whose config was freshly
        // simulated carry that job's span; the rest are memo hits served
        // at assembly time.
        let journal: Vec<CellRecord> = {
            let mut seen: HashSet<&str> = HashSet::new();
            self.cells
                .iter()
                .zip(&keys)
                .map(|((label, _), key)| match spans.get(key.as_str()) {
                    Some(&(worker, start_us, dur_us)) if seen.insert(key) => CellRecord {
                        label: label.clone(),
                        worker,
                        start_us,
                        dur_us,
                        memo_hit: false,
                    },
                    _ => CellRecord {
                        label: label.clone(),
                        worker: 0,
                        start_us: origin.elapsed().as_micros() as u64,
                        dur_us: 0,
                        memo_hit: true,
                    },
                })
                .collect()
        };

        session()
            .lock()
            .expect("session lock")
            .extend(journal.iter().cloned());

        // Assemble plan-order outcomes and the failure summary.
        let mut outcomes: Vec<Result<RunResult, SimError>> = Vec::with_capacity(keys.len());
        let mut failed: Vec<FailedCell> = Vec::new();
        {
            let m = memo().lock().expect("memo lock");
            for (i, ((label, _), key)) in self.cells.iter().zip(&keys).enumerate() {
                let outcome = match local.get(key.as_str()) {
                    Some(o) => o.clone(),
                    None => match m.results.get(key.as_str()) {
                        Some(r) => Ok(r.clone()),
                        None => Err(m.failures[key.as_str()].error.clone()),
                    },
                };
                if let Err(error) = &outcome {
                    let bundle_path = m
                        .failures
                        .get(key.as_str())
                        .and_then(|f| f.bundle_path.clone())
                        .or_else(|| error.bundle_path().map(|p| p.to_path_buf()));
                    failed.push(FailedCell {
                        index: i,
                        label: label.clone(),
                        fingerprint: store::digest(key),
                        bundle_path,
                        error: error.clone(),
                    });
                }
                outcomes.push(outcome);
            }
        }

        let supervisor = tally.snapshot();
        fold_supervisor_totals(supervisor);

        // Terminal ops rollup — computed from the outcomes whether or
        // not a status board was live, so `SweepReport::metrics` always
        // carries `ops.sweep.*`. Instructions count the fresh
        // simulations' measured windows; the rate is over this sweep's
        // own wall clock.
        let ops = {
            let mut ops = OpsSweepStats {
                cells: keys.len() as u64,
                cached: memo_delta.hits,
                ..OpsSweepStats::default()
            };
            for outcome in &outcomes {
                match outcome {
                    Ok(_) => ops.done += 1,
                    Err(SimError::Skipped { .. }) => ops.skipped += 1,
                    Err(_) => ops.failed += 1,
                }
            }
            ops.instructions = local
                .values()
                .filter_map(|o| o.as_ref().ok())
                .map(|r| r.totals.instructions)
                .sum();
            let wall = sweep_started.elapsed().as_secs_f64();
            if wall > 0.0 {
                ops.minstr_per_sec = ops.instructions as f64 / wall / 1e6;
            }
            ops
        };
        fold_session_ops(&ops);

        let store_stats = store_handle.map(|s| s.stats());
        if let Some((board, writer)) = board_writer {
            board.set_rollup(supervisor, store_stats);
            board.mark_done();
            writer.finish();
        }

        SweepReport {
            outcomes,
            failed,
            memo: memo_delta,
            journal,
            threads,
            supervisor,
            store: store_stats,
            ops,
        }
    }
}

/// The outcome of [`Plan::run_each`]: one `Result` per cell, in plan
/// order, plus the same memo deltas and journal as [`PlanRun`].
#[derive(Debug)]
pub struct PlanOutcomes {
    /// Per-cell outcomes in plan order.
    pub outcomes: Vec<Result<RunResult, SimError>>,
    /// Memo traffic attributable to this plan alone.
    pub memo: MemoStats,
    /// Per-cell schedule, in plan order.
    pub journal: Vec<CellRecord>,
    /// Worker threads the plan ran with.
    pub threads: usize,
}

/// One failed cell in a [`SweepReport`].
#[derive(Debug, Clone)]
pub struct FailedCell {
    /// The cell's index in plan order.
    pub index: usize,
    /// The label the driver pushed the cell with.
    pub label: String,
    /// The 128-bit content digest of the cell's configuration
    /// fingerprint — the persistent store's record name, so the failing
    /// config can be located without replaying the plan.
    pub fingerprint: String,
    /// Where the autosaved repro bundle lives (checker violations under
    /// `SEESAW_REPRO` only).
    pub bundle_path: Option<PathBuf>,
    /// The failure itself.
    pub error: SimError,
}

/// The outcome of [`Plan::run_sweep`]: per-cell outcomes plus the
/// sweep's failure summary, supervision tally, and store traffic.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-cell outcomes in plan order.
    pub outcomes: Vec<Result<RunResult, SimError>>,
    /// Every cell whose outcome is an error, in plan order (skipped
    /// cells included, distinguishable by [`SimError::Skipped`]).
    pub failed: Vec<FailedCell>,
    /// Memo traffic attributable to this plan alone.
    pub memo: MemoStats,
    /// Per-cell schedule, in plan order.
    pub journal: Vec<CellRecord>,
    /// Worker threads the plan ran with.
    pub threads: usize,
    /// This plan's supervision tally.
    pub supervisor: SupervisorStats,
    /// The consulted store's cumulative traffic counters (`None` when
    /// the plan ran without persistence).
    pub store: Option<StoreStats>,
    /// Terminal operations rollup (cell state counts, fresh-simulation
    /// instructions, and this sweep's throughput) — the same numbers the
    /// final live `status.json` snapshot reports.
    pub ops: OpsSweepStats,
}

impl SweepReport {
    /// True when every cell completed.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Cells skipped because the failure budget was exhausted.
    pub fn skipped(&self) -> impl Iterator<Item = &FailedCell> {
        self.failed
            .iter()
            .filter(|f| matches!(f.error, SimError::Skipped { .. }))
    }

    /// Drops the sweep-specific summary, keeping the per-cell outcomes
    /// (the [`Plan::run_each`] return shape).
    pub fn into_outcomes(self) -> PlanOutcomes {
        let SweepReport {
            outcomes,
            failed: _,
            memo,
            journal,
            threads,
            supervisor: _,
            store: _,
            ops: _,
        } = self;
        PlanOutcomes {
            outcomes,
            memo,
            journal,
            threads,
        }
    }

    /// The sweep-level counters as a metrics registry — `memo.*` and
    /// `supervisor.*` always, `store.*` when a persistent store was
    /// active — so harness health exports through the same telemetry
    /// surface as simulation results.
    pub fn metrics(&self) -> seesaw_trace::MetricsRegistry {
        use seesaw_trace::Collect;
        let mut m = seesaw_trace::MetricsRegistry::new();
        self.memo.collect("memo", &mut m);
        self.supervisor.collect("supervisor", &mut m);
        if let Some(s) = &self.store {
            s.collect("store", &mut m);
        }
        self.ops.collect("ops.sweep", &mut m);
        // Wall-clock distribution of the freshly simulated cells (memo
        // hits are excluded — they resolve in microseconds and would
        // drown the signal).
        let mut wall_ms = Log2Histogram::new();
        for cell in self.journal.iter().filter(|c| !c.memo_hit) {
            wall_ms.record(cell.dur_us / 1000);
        }
        wall_ms.collect("ops.cell.wall_ms", &mut m);
        m
    }

    /// A human-readable failure summary, one line per failed cell (empty
    /// string when all cells completed) — what the sweep binaries print
    /// before exiting nonzero.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for f in &self.failed {
            out.push_str(&format!(
                "cell {} ({}, config {}): {}",
                f.index,
                f.label,
                &f.fingerprint[..8.min(f.fingerprint.len())],
                f.error
            ));
            if let Some(p) = &f.bundle_path {
                out.push_str(&format!(" [repro: {}]", p.display()));
            }
            out.push('\n');
        }
        out
    }
}

/// One cell's entry in a [`PlanRun`] journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The label the driver pushed the cell with.
    pub label: String,
    /// Index of the worker thread that simulated it (0 for memo hits).
    pub worker: usize,
    /// Microseconds after [`Plan::run`] began when simulation started
    /// (for memo hits: when the cached result was served).
    pub start_us: u64,
    /// Wall-clock microseconds the simulation took (0 for memo hits).
    pub dur_us: u64,
    /// True when the cell was served from the process-wide memo cache
    /// instead of being simulated by this plan.
    pub memo_hit: bool,
}

/// The outcome of [`Plan::run`]: results in plan order, this plan's
/// memo-cache deltas, and a per-cell wall-clock journal.
///
/// Indexes like the `Vec<RunResult>` it used to be, so drivers keep
/// writing `results[cell]`.
#[derive(Debug, Clone)]
pub struct PlanRun {
    results: Vec<RunResult>,
    /// Memo traffic attributable to this plan alone: `hits` cells served
    /// from cache, `misses` freshly simulated, `entries` distinct
    /// configurations in the plan (contrast with the process-wide
    /// [`memo_stats`]).
    pub memo: MemoStats,
    /// Per-cell schedule, in plan order.
    pub journal: Vec<CellRecord>,
    /// Worker threads the plan ran with.
    pub threads: usize,
}

impl PlanRun {
    /// Number of results (one per pushed cell).
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when the plan had no cells.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Iterates the results in plan order.
    pub fn iter(&self) -> std::slice::Iter<'_, RunResult> {
        self.results.iter()
    }

    /// The results in plan order, as a slice.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Renders the plan's schedule as a Chrome `trace_event` document
    /// (loadable in `chrome://tracing` or Perfetto): one track per worker
    /// thread, one complete span per freshly simulated cell, and one
    /// instant event per memo hit on a dedicated track.
    pub fn chrome_trace(&self, plan_name: &str) -> String {
        chrome_trace_of(plan_name, &self.journal)
    }
}

impl std::ops::Index<usize> for PlanRun {
    type Output = RunResult;

    fn index(&self, i: usize) -> &RunResult {
        &self.results[i]
    }
}

impl<'a> IntoIterator for &'a PlanRun {
    type Item = &'a RunResult;
    type IntoIter = std::slice::Iter<'a, RunResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.results.iter()
    }
}

impl IntoIterator for PlanRun {
    type Item = RunResult;
    type IntoIter = std::vec::IntoIter<RunResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.results.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::L1DesignKind;

    #[test]
    fn fingerprints_distinguish_configs() {
        let a = RunConfig::quick("redis");
        let b = RunConfig::quick("redis").design(L1DesignKind::Seesaw);
        let c = RunConfig::quick("redis").memhog(10);
        assert_eq!(fingerprint(&a), fingerprint(&RunConfig::quick("redis")));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_with(4, &items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_plan_runs() {
        assert!(Plan::new().run().unwrap().is_empty());
        assert!(Plan::new().is_empty());
    }

    #[test]
    fn duplicate_cells_simulate_once() {
        let cfg = RunConfig::quick("astar").instructions(40_000);
        let mut plan = Plan::with_threads(2);
        let a = plan.push("first", cfg.clone());
        let b = plan.push("second", cfg.clone());
        let results = plan.run().unwrap();
        assert_eq!(results[a].totals.cycles, results[b].totals.cycles);
        // At most one fresh simulation for the pair; the sibling cell is
        // a hit (the config itself may already be cached process-wide).
        // The plan-local counters are immune to sibling tests' plans.
        assert!(results.memo.misses <= 1);
        assert!(results.memo.hits >= 1);
    }

    #[test]
    fn plan_reports_memo_deltas_and_journal() {
        let cfg = RunConfig::quick("tunk").instructions(30_000);
        let mut plan = Plan::with_threads(2);
        plan.push("one", cfg.clone());
        plan.push("two", cfg.clone());
        let run = plan.run().unwrap();
        // Per-plan deltas: two cells, one distinct config, so at least
        // one cell was a memo hit regardless of process-wide state.
        assert_eq!(run.memo.hits + run.memo.misses, 2);
        assert_eq!(run.memo.entries, 1);
        assert!(run.memo.hits >= 1);
        assert_eq!(run.journal.len(), 2);
        assert_eq!(run.journal[0].label, "one");
        assert!(run.journal[1].memo_hit, "duplicate cell must be a hit");
        let fresh = run.journal.iter().filter(|c| !c.memo_hit).count();
        assert_eq!(fresh as u64, run.memo.misses);
        assert!(run
            .journal
            .iter()
            .filter(|c| !c.memo_hit)
            .all(|c| c.dur_us > 0));
    }

    #[test]
    fn plan_chrome_trace_is_valid_json() {
        let cfg = RunConfig::quick("tunk").instructions(30_000);
        let mut plan = Plan::with_threads(2);
        plan.push("cell a", cfg.clone());
        plan.push("cell a again", cfg);
        let run = plan.run().unwrap();
        let doc = seesaw_trace::json::Json::parse(&run.chrome_trace("test plan"))
            .expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(seesaw_trace::json::Json::as_array)
            .expect("traceEvents array");
        // Metadata + at least one record per journal cell.
        assert!(events.len() >= run.journal.len());
        assert!(events
            .iter()
            .any(|e| { e.get("ph").and_then(seesaw_trace::json::Json::as_str) == Some("i") }));
    }

    #[test]
    fn run_each_returns_per_cell_outcomes_and_memoizes_failures() {
        let chaos = seesaw_check::ChaosConfig {
            drop_tft_invalidation_on_splinter: true,
            ..Default::default()
        };
        let bad = RunConfig::quick("redis")
            .design(L1DesignKind::Seesaw)
            .with_checker()
            .with_faults(
                seesaw_check::FaultConfig::all(0xfa17_5eed)
                    .mean_interval(2_000)
                    .chaos(chaos),
            );
        let good = RunConfig::quick("astar").instructions(30_000);
        let mut plan = Plan::with_threads(2);
        plan.push("bad", bad.clone());
        plan.push("good", good);
        let out = plan.run_each();
        assert!(matches!(out.outcomes[0], Err(SimError::Check(_))));
        assert!(out.outcomes[1].is_ok());
        assert_eq!(out.journal.len(), 2);

        // The failure is memoized: a second plan serves it from cache.
        let mut plan = Plan::with_threads(2);
        plan.push("bad again", bad.clone());
        let again = plan.run_each();
        assert!(matches!(again.outcomes[0], Err(SimError::Check(_))));
        assert_eq!(again.memo.misses, 0, "cached failure re-simulated");

        // `run()` surfaces the same error for the earliest failing cell.
        let mut plan = Plan::with_threads(2);
        plan.push("bad once more", bad);
        assert!(matches!(plan.run(), Err(SimError::Check(_))));
    }

    #[test]
    fn run_sweep_reports_failed_cells_with_digests() {
        let chaos = seesaw_check::ChaosConfig {
            drop_tft_invalidation_on_splinter: true,
            ..Default::default()
        };
        let bad = RunConfig::quick("redis")
            .design(L1DesignKind::Seesaw)
            .with_checker()
            .with_faults(
                seesaw_check::FaultConfig::all(0xfa17_5eed)
                    .mean_interval(2_000)
                    .chaos(chaos),
            );
        let good = RunConfig::quick("astar").instructions(35_000);
        let mut plan = Plan::with_threads(2);
        plan.push("violates", bad.clone());
        plan.push("fine", good);
        let report = plan.run_sweep(SweepPolicy::from_env());
        assert!(!report.all_ok());
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!(f.index, 0);
        assert_eq!(f.label, "violates");
        assert_eq!(f.fingerprint, store::digest(&fingerprint(&bad)));
        assert!(matches!(f.error, SimError::Check(_)));
        assert!(report.outcomes[1].is_ok());
        assert!(report.summary().contains("violates"));
        assert_eq!(report.skipped().count(), 0);
    }

    #[test]
    fn plan_matches_serial_execution() {
        let configs = [
            RunConfig::quick("astar").instructions(40_000),
            RunConfig::quick("astar")
                .instructions(40_000)
                .design(L1DesignKind::Seesaw),
        ];
        let mut plan = Plan::with_threads(2);
        for (i, cfg) in configs.iter().enumerate() {
            plan.push(format!("cell{i}"), cfg.clone());
        }
        let parallel = plan.run().unwrap();
        for (cfg, got) in configs.iter().zip(&parallel) {
            let serial = System::build(cfg).unwrap().run().unwrap();
            assert_eq!(serial.totals.cycles, got.totals.cycles);
            assert_eq!(serial.l1.misses, got.l1.misses);
            assert_eq!(
                serial.energy.total_nj().to_bits(),
                got.energy.total_nj().to_bits()
            );
        }
    }
}
