//! The distributed sweep fabric: a multi-process work-stealing job
//! queue layered on the persistent store (`SEESAW_STORE`).
//!
//! One process submits a sweep; any number of `seesaw-worker` processes
//! — on this machine or on any machine sharing the store directory —
//! claim its cells, run them under the full PR 6 supervision stack
//! (panic isolation, watchdog, seeded retries), and commit the results
//! into the store. The submitter tails aggregate progress and finally
//! assembles a merged [`SweepReport`] that is
//! bit-identical to a single-process run, because every cell flows back
//! through the same store round-trip the chaos tests already pin.
//!
//! Everything lives in `<store>/fabric/` as checksummed records in the
//! store's own wire format (DESIGN.md §16 is the normative spec):
//!
//! * **Jobs** (`j-<digest>.rec`) — one queued cell: its label and its
//!   configuration fingerprint, the canonical encoding a worker rebuilds
//!   the [`RunConfig`] from (`RunConfig::decode`). The digest is the same
//!   128-bit content digest the store files the result under, so "is
//!   this job done?" is a file-existence check.
//! * **Claims** (`c-<digest>.g<N>.rec`) — generation `N`'s exclusive
//!   lease on a job. A claim is taken with `O_EXCL` (`create_new`), so
//!   at most one worker ever owns a generation: duplicate claims are
//!   impossible by construction. The owner's heartbeat atomically
//!   rewrites the record to extend `expires_ms`; when a lease expires
//!   (the worker was SIGKILLed, lost power, or its machine vanished)
//!   any other worker *steals* the job by claiming generation `N+1`.
//! * **Error markers** (`x-<digest>.rec`) — terminal non-checker
//!   failures (the store only persists checker violations), written so
//!   a poisoned cell stops bouncing between workers. Jobs whose claim
//!   generation exceeds [`MAX_GENERATIONS`] are marked too.
//! * **Manifests** (`s-<sweep>.rec`) — the submitted sweep's name and
//!   cell roster, for operators inspecting a queue.
//!
//! A stolen job may end up executed twice when a presumed-dead worker
//! was merely slow: that is safe, not an error. Cells are deterministic
//! and store commits are atomic whole-file renames of byte-identical
//! records, so the second writer changes nothing.
//!
//! # Example
//!
//! Submit one tiny cell, drain it with an in-process worker, and read
//! the merged report back (real deployments run `seesaw-worker`
//! processes instead — the loop is the same [`run_worker`]):
//!
//! ```
//! use std::sync::Arc;
//! use seesaw_sim::fabric::{run_worker, Fabric, WorkerOptions};
//! use seesaw_sim::{RunConfig, Store, SweepPolicy};
//!
//! let dir = std::env::temp_dir().join(format!("fabric-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = Arc::new(Store::open(&dir).unwrap());
//! let fabric = Fabric::open(store.clone()).unwrap();
//!
//! let cells = vec![("demo".to_string(), RunConfig::quick("gups").instructions(20_000))];
//! let submission = fabric.submit("doc-sweep", cells).unwrap();
//!
//! let opts = WorkerOptions::from_env().id("doc-worker");
//! let stats = run_worker(store, &opts, SweepPolicy::from_env()).unwrap();
//! assert_eq!(stats.claims, 1);
//! assert_eq!(stats.completed, 1);
//!
//! let report = submission.assemble(&fabric, SweepPolicy::from_env());
//! assert!(report.all_ok());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use seesaw_trace::{CellState, FabricWorkerStats};

use crate::runner::{fingerprint, Plan};
use crate::status::StatusBoard;
use crate::store::{commit_record, digest, fnv1a64, read_record_at, record_bytes, Dec, Enc, Store};
use crate::{RunConfig, SimError, SweepPolicy, SweepReport};

/// Claim generations a job may burn through before it is marked
/// poisoned: each generation is one worker's ownership, so reaching the
/// cap means the job crashed (or wedged past its lease) this many
/// owners in a row.
pub const MAX_GENERATIONS: u64 = 6;

/// Milliseconds since the Unix epoch — the clock leases are written in.
/// Workers sharing a store over a network filesystem should have
/// roughly synchronized clocks; skew eats into (or pads) the lease, it
/// never breaks exclusivity.
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.parse().ok()
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a submission or claim failed.
#[derive(Debug)]
pub enum FabricError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// A cell's configuration cannot ride the fabric: it does not decode
    /// from its fingerprint (a workload spec that differs from its
    /// catalog entry, which no system can run either) or its result
    /// would never persist (captured event traces). Run these cells
    /// in-process instead.
    Unsupported {
        /// Label of the offending cell.
        label: String,
        /// What about it the fabric cannot express.
        detail: String,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Io(e) => write!(f, "fabric I/O error: {e}"),
            FabricError::Unsupported { label, detail } => {
                write!(f, "cell {label:?} cannot be distributed: {detail}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// One queued cell, decoded from its `j-<digest>.rec` job record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The 128-bit content digest (file-name stem, store record key).
    pub digest: String,
    /// The configuration fingerprint the digest was derived from.
    pub fingerprint: String,
    /// The label the submitter pushed the cell with.
    pub label: String,
    /// The rebuilt configuration, fingerprint-verified.
    pub config: RunConfig,
}

fn encode_job(label: &str, config: &RunConfig) -> (String, String) {
    let fp = fingerprint(config);
    let mut e = Enc::new(&fp);
    e.s("label", label);
    (digest(&fp), e.out)
}

fn decode_job(digest_hint: &str, payload: &str) -> Result<JobRecord, String> {
    let d = Dec::new(payload);
    let fp = d.s("fingerprint")?;
    let label = d.s("label")?;
    let config = RunConfig::decode(&fp).map_err(|e| format!("job {digest_hint}: {e}"))?;
    Ok(JobRecord {
        digest: digest_hint.to_string(),
        fingerprint: fp,
        label,
        config,
    })
}

/// One generation's lease on a job, decoded from `c-<digest>.g<N>.rec`.
#[derive(Debug, Clone)]
pub struct ClaimRecord {
    /// The owning worker's id.
    pub worker: String,
    /// The owning worker's pid (diagnostic only — pids recycle).
    pub pid: u64,
    /// Claim generation (1 = first owner, each steal increments).
    pub generation: u64,
    /// Epoch-ms when the claim was taken.
    pub born_ms: u64,
    /// Epoch-ms after which the lease is stealable.
    pub expires_ms: u64,
}

impl ClaimRecord {
    /// True when the lease is still live at `now` (epoch ms).
    pub fn live_at(&self, now: u64) -> bool {
        now < self.expires_ms
    }
}

fn encode_claim(c: &ClaimRecord) -> String {
    let mut e = Enc::raw();
    e.s("worker", &c.worker);
    e.u("pid", c.pid);
    e.u("generation", c.generation);
    e.u("born_ms", c.born_ms);
    e.u("expires_ms", c.expires_ms);
    e.out
}

fn decode_claim(payload: &str) -> Result<ClaimRecord, String> {
    let d = Dec::new(payload);
    Ok(ClaimRecord {
        worker: d.s("worker")?,
        pid: d.u("pid")?,
        generation: d.u("generation")?,
        born_ms: d.u("born_ms")?,
        expires_ms: d.u("expires_ms")?,
    })
}

// ---------------------------------------------------------------------------
// The fabric handle.
// ---------------------------------------------------------------------------

/// Aggregate state of one fabric queue at a glance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Job records in the queue.
    pub jobs: usize,
    /// Jobs with a terminal outcome: a stored result, a persisted
    /// checker failure, or an error marker.
    pub resolved: usize,
    /// Unresolved jobs currently under a live lease.
    pub claimed: usize,
    /// Jobs resolved by an error marker.
    pub errored: usize,
}

impl QueueSnapshot {
    /// Jobs still needing a worker (unclaimed or under an expired
    /// lease).
    pub fn unresolved(&self) -> usize {
        self.jobs - self.resolved
    }
}

/// A handle on the job queue under one store's `fabric/` directory.
#[derive(Debug)]
pub struct Fabric {
    store: Arc<Store>,
    dir: PathBuf,
}

impl Fabric {
    /// Opens (creating if needed) the fabric directory of `store`.
    ///
    /// # Errors
    /// Returns the I/O error when the directory cannot be created.
    pub fn open(store: Arc<Store>) -> std::io::Result<Fabric> {
        let dir = store.dir().join("fabric");
        fs::create_dir_all(&dir)?;
        Ok(Fabric { store, dir })
    }

    /// The fabric directory (`<store>/fabric`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store the fabric feeds.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Enqueues one cell, returning its digest. Idempotent: a job record
    /// that already exists is left untouched (same config → same bytes).
    ///
    /// # Errors
    /// [`FabricError::Unsupported`] when the configuration cannot ride
    /// the fabric (see [`FabricError`]); I/O errors from the commit.
    pub fn enqueue(&self, label: &str, config: &RunConfig) -> Result<String, FabricError> {
        if config.trace {
            return Err(FabricError::Unsupported {
                label: label.to_string(),
                detail: "traced results are never persisted, so the job could not resolve"
                    .to_string(),
            });
        }
        let (d, payload) = encode_job(label, config);
        if let Err(e) = decode_job(&d, &payload) {
            return Err(FabricError::Unsupported {
                label: label.to_string(),
                detail: e,
            });
        }
        let name = format!("j-{d}.rec");
        if !self.dir.join(&name).exists() {
            commit_record(&self.dir, &name, "job", &payload)?;
        }
        Ok(d)
    }

    /// Submits a whole sweep: every cell enqueued plus a manifest
    /// record, returning the [`Submission`] to wait on.
    ///
    /// # Errors
    /// The first unsupported cell or I/O error; nothing is rolled back
    /// (job records are idempotent and harmless on their own).
    pub fn submit(
        &self,
        sweep: &str,
        cells: Vec<(String, RunConfig)>,
    ) -> Result<Submission, FabricError> {
        let mut digests = Vec::with_capacity(cells.len());
        for (label, config) in &cells {
            digests.push(self.enqueue(label, config)?);
        }
        let mut e = Enc::raw();
        e.s("sweep", sweep);
        e.u("cells.len", cells.len() as u64);
        for (i, ((label, _), d)) in cells.iter().zip(&digests).enumerate() {
            e.s(&format!("cells.{i}.label"), label);
            e.s(&format!("cells.{i}.digest"), d);
        }
        let slug: String = sweep
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        commit_record(&self.dir, &format!("s-{slug}.rec"), "manifest", &e.out)?;
        Ok(Submission {
            sweep: sweep.to_string(),
            cells,
            digests,
        })
    }

    /// Every queued job's digest, sorted.
    pub fn job_digests(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<String> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.strip_prefix("j-")?
                    .strip_suffix(".rec")
                    .map(str::to_string)
            })
            .collect();
        out.sort();
        out
    }

    /// Reads and decodes one job record. `None` when absent or
    /// undecodable (the error string is in the `Err` arm of the inner
    /// result consumers see via [`Fabric::claim_next`]).
    pub fn job(&self, digest: &str) -> Option<JobRecord> {
        let (kind, payload) = read_record_at(&self.dir.join(format!("j-{digest}.rec")))?;
        if kind != "job" {
            return None;
        }
        decode_job(digest, &payload).ok()
    }

    /// True when the job has a terminal outcome: a stored result, a
    /// persisted checker failure, or an error marker.
    pub fn resolved(&self, digest: &str) -> bool {
        self.store.dir().join(format!("r-{digest}.rec")).exists()
            || self.store.dir().join(format!("f-{digest}.rec")).exists()
            || self.dir.join(format!("x-{digest}.rec")).exists()
    }

    /// True when the job resolved through an error marker.
    pub fn errored(&self, digest: &str) -> bool {
        self.dir.join(format!("x-{digest}.rec")).exists()
    }

    fn claim_path(&self, digest: &str, generation: u64) -> PathBuf {
        self.dir.join(format!("c-{digest}.g{generation}.rec"))
    }

    /// The job's highest claim generation (0 when never claimed) and
    /// that generation's decoded record, if readable.
    pub fn latest_claim(&self, digest: &str) -> (u64, Option<ClaimRecord>) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (0, None);
        };
        let prefix = format!("c-{digest}.g");
        let max_gen = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.strip_prefix(prefix.as_str())?
                    .strip_suffix(".rec")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0);
        if max_gen == 0 {
            return (0, None);
        }
        let record = read_record_at(&self.claim_path(digest, max_gen))
            .filter(|(kind, _)| kind == "claim")
            .and_then(|(_, payload)| decode_claim(&payload).ok());
        (max_gen, record)
    }

    /// Whether the job's newest lease is live. An unreadable claim file
    /// (a concurrent `create_new` writer mid-record, or crash debris) is
    /// treated as live until its mtime is a full `lease` old — the
    /// exclusivity of the *file's existence* is what matters, and the
    /// grace period lets an interrupted writer either finish or age out.
    fn claim_live(
        &self,
        digest: &str,
        generation: u64,
        record: Option<&ClaimRecord>,
        lease: Duration,
    ) -> bool {
        match record {
            Some(c) => c.live_at(now_ms()),
            None => fs::metadata(self.claim_path(digest, generation))
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age < lease),
        }
    }

    /// Atomically takes generation `generation` of `digest` for
    /// `worker`: wins iff this call created the claim file (`O_EXCL`).
    fn try_claim(
        &self,
        digest: &str,
        generation: u64,
        worker: &str,
        lease: Duration,
    ) -> std::io::Result<bool> {
        let path = self.claim_path(digest, generation);
        let mut f = match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => return Err(e),
        };
        let now = now_ms();
        let claim = ClaimRecord {
            worker: worker.to_string(),
            pid: u64::from(std::process::id()),
            generation,
            born_ms: now,
            expires_ms: now + lease.as_millis() as u64,
        };
        f.write_all(record_bytes("claim", &encode_claim(&claim)).as_bytes())?;
        f.sync_all()?;
        Ok(true)
    }

    /// Extends a held lease by atomically rewriting its claim record.
    /// Returns `false` — without writing — when a higher generation
    /// already exists: the lease expired and another worker stole the
    /// job (the current run should finish anyway; duplicate execution
    /// is safe).
    pub fn renew(&self, claim: &ClaimedJob) -> bool {
        let (max_gen, _) = self.latest_claim(&claim.job.digest);
        if max_gen > claim.generation {
            return false;
        }
        let now = now_ms();
        let record = ClaimRecord {
            worker: claim.worker.clone(),
            pid: u64::from(std::process::id()),
            generation: claim.generation,
            born_ms: claim.born_ms,
            expires_ms: now + claim.lease.as_millis() as u64,
        };
        commit_record(
            &self.dir,
            &format!("c-{}.g{}.rec", claim.job.digest, claim.generation),
            "claim",
            &encode_claim(&record),
        )
        .is_ok()
    }

    /// Writes the terminal error marker that resolves a job outside the
    /// store (non-checker failure, undecodable job record, or
    /// generation cap).
    pub fn mark_error(&self, digest: &str, worker: &str, detail: &str) {
        let mut e = Enc::raw();
        e.s("digest", digest);
        e.s("worker", worker);
        e.s("detail", detail);
        e.u("at_ms", now_ms());
        let _ = commit_record(&self.dir, &format!("x-{digest}.rec"), "error", &e.out);
    }

    /// Reads an error marker's detail line, if present.
    pub fn error_detail(&self, digest: &str) -> Option<String> {
        let (kind, payload) = read_record_at(&self.dir.join(format!("x-{digest}.rec")))?;
        if kind != "error" {
            return None;
        }
        Dec::new(&payload).s("detail").ok()
    }

    /// Claims the next runnable job for `worker`, stealing expired
    /// leases. `None` when every job is resolved or under a live lease.
    ///
    /// The scan starts at a worker-specific rotation of the sorted
    /// digest list so concurrent workers mostly try different jobs
    /// first; when they do collide, `create_new` picks exactly one
    /// winner and the loser moves on (counted in
    /// [`FabricWorkerStats::races_lost`]).
    ///
    /// # Errors
    /// Only unexpected I/O errors; contention and corruption are not
    /// errors.
    pub fn claim_next(
        &self,
        worker: &str,
        lease: Duration,
        stats: &mut FabricWorkerStats,
    ) -> std::io::Result<Option<ClaimedJob>> {
        let digests = self.job_digests();
        if digests.is_empty() {
            return Ok(None);
        }
        let start = (fnv1a64(worker.as_bytes()) as usize) % digests.len();
        for i in 0..digests.len() {
            let d = &digests[(start + i) % digests.len()];
            if self.resolved(d) {
                continue;
            }
            let (gen, record) = self.latest_claim(d);
            if gen > 0 && self.claim_live(d, gen, record.as_ref(), lease) {
                continue;
            }
            let next_gen = gen + 1;
            if next_gen > MAX_GENERATIONS {
                self.mark_error(
                    d,
                    worker,
                    &format!("claim generation cap ({MAX_GENERATIONS}) exceeded: the job keeps killing its workers"),
                );
                stats.error_markers += 1;
                continue;
            }
            if !self.try_claim(d, next_gen, worker, lease)? {
                stats.races_lost += 1;
                continue;
            }
            stats.claims += 1;
            if gen > 0 {
                stats.steals += 1;
            }
            let Some(job) = self.job(d) else {
                // The claim is ours, but the job record is corrupt or
                // its config no longer decodes (version skew): resolve
                // it so the queue drains rather than ping-pongs.
                self.mark_error(d, worker, "job record unreadable or undecodable");
                stats.error_markers += 1;
                continue;
            };
            return Ok(Some(ClaimedJob {
                job,
                worker: worker.to_string(),
                generation: next_gen,
                born_ms: now_ms(),
                lease,
            }));
        }
        Ok(None)
    }

    /// One pass over the queue, counting states.
    pub fn snapshot(&self, lease: Duration) -> QueueSnapshot {
        let mut snap = QueueSnapshot::default();
        for d in self.job_digests() {
            snap.jobs += 1;
            if self.resolved(&d) {
                snap.resolved += 1;
                if self.errored(&d) {
                    snap.errored += 1;
                }
                continue;
            }
            let (gen, record) = self.latest_claim(&d);
            if gen > 0 && self.claim_live(&d, gen, record.as_ref(), lease) {
                snap.claimed += 1;
            }
        }
        snap
    }
}

/// A lease this process holds on one job.
#[derive(Debug, Clone)]
pub struct ClaimedJob {
    /// The decoded job.
    pub job: JobRecord,
    /// The claiming worker's id.
    pub worker: String,
    /// The generation this claim owns.
    pub generation: u64,
    /// When the claim was taken (epoch ms).
    pub born_ms: u64,
    /// The lease duration renewals extend by.
    pub lease: Duration,
}

// ---------------------------------------------------------------------------
// The worker loop.
// ---------------------------------------------------------------------------

/// Knobs of one worker process (see also the environment defaults in
/// [`WorkerOptions::from_env`]).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker id written into claim records (`SEESAW_WORKER_ID`,
    /// default `w<pid>`). Make it unique per process across the fleet.
    pub id: String,
    /// Lease duration (`SEESAW_FABRIC_LEASE_MS`, default 30 000 ms).
    /// The heartbeat renews at a third of this, so a worker survives
    /// pauses up to ~2/3 of the lease; a SIGKILLed worker's jobs become
    /// stealable one lease after its last renewal.
    pub lease: Duration,
    /// Idle poll interval (`SEESAW_FABRIC_POLL_MS`, default 200 ms).
    pub poll: Duration,
    /// Stop after this many executed jobs (`None` = unbounded).
    pub max_jobs: Option<u64>,
    /// Keep polling for new work after the queue drains instead of
    /// exiting (fleet mode; the default `false` exits once every job is
    /// resolved).
    pub linger: bool,
}

impl WorkerOptions {
    /// Defaults, overridden by `SEESAW_WORKER_ID`,
    /// `SEESAW_FABRIC_LEASE_MS`, and `SEESAW_FABRIC_POLL_MS`.
    pub fn from_env() -> WorkerOptions {
        WorkerOptions {
            id: std::env::var("SEESAW_WORKER_ID")
                .ok()
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| format!("w{}", std::process::id())),
            lease: Duration::from_millis(
                env_u64("SEESAW_FABRIC_LEASE_MS").unwrap_or(30_000).max(50),
            ),
            poll: Duration::from_millis(env_u64("SEESAW_FABRIC_POLL_MS").unwrap_or(200).max(10)),
            max_jobs: None,
            linger: false,
        }
    }

    /// Builder: set the worker id.
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Builder: set the lease duration.
    pub fn lease(mut self, lease: Duration) -> Self {
        self.lease = lease;
        self
    }

    /// Builder: set the idle poll interval.
    pub fn poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Builder: stop after `n` executed jobs.
    pub fn max_jobs(mut self, n: u64) -> Self {
        self.max_jobs = Some(n);
        self
    }

    /// Builder: keep polling after the queue drains.
    pub fn linger(mut self, linger: bool) -> Self {
        self.linger = linger;
        self
    }
}

/// The process-wide fabric tally [`run_worker`] accumulates into — the
/// `[fabric]` line of [`crate::OpsSummary`] and the worker binary's
/// Prometheus textfile read it.
pub fn session_fabric() -> FabricWorkerStats {
    *session_fabric_cell().lock().expect("fabric stats lock")
}

fn session_fabric_cell() -> &'static Mutex<FabricWorkerStats> {
    static CELL: OnceLock<Mutex<FabricWorkerStats>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(FabricWorkerStats::default()))
}

fn merge_session(delta: &FabricWorkerStats) {
    let mut s = session_fabric_cell().lock().expect("fabric stats lock");
    s.claims += delta.claims;
    s.steals += delta.steals;
    s.races_lost += delta.races_lost;
    s.renewals += delta.renewals;
    s.renewals_lost += delta.renewals_lost;
    s.completed += delta.completed;
    s.check_failures += delta.check_failures;
    s.error_markers += delta.error_markers;
    s.idle_polls += delta.idle_polls;
    s.busy_ms += delta.busy_ms;
}

/// Runs one claimed job to resolution: a single-cell
/// [`Plan::run_sweep`] with the shared store attached, so the full
/// supervision stack (catch_unwind isolation, watchdog, seeded
/// backoff retries) and the store write-back are exactly the
/// single-process code path. A heartbeat thread renews the lease at a
/// third of its duration until the cell resolves.
pub fn run_claimed(
    fabric: &Fabric,
    claimed: &ClaimedJob,
    policy: SweepPolicy,
    stats: &mut FabricWorkerStats,
) {
    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let renewals = Arc::new(AtomicU64::new(0));
    let renewals_lost = Arc::new(AtomicU64::new(0));
    let heartbeat = {
        let stop = stop.clone();
        let renewals = renewals.clone();
        let renewals_lost = renewals_lost.clone();
        let fabric_dir = fabric.dir().to_path_buf();
        let store = fabric.store().clone();
        let claimed = claimed.clone();
        std::thread::Builder::new()
            .name(format!("seesaw-lease-{}", &claimed.job.digest[..8]))
            .spawn(move || {
                // Re-open cheap handles: the heartbeat must not borrow
                // from the worker loop's lifetime.
                let fabric = Fabric {
                    store,
                    dir: fabric_dir,
                };
                let interval = claimed.lease / 3;
                loop {
                    let mut waited = Duration::ZERO;
                    while waited < interval {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let step = interval
                            .saturating_sub(waited)
                            .min(Duration::from_millis(25));
                        std::thread::sleep(step);
                        waited += step;
                    }
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if fabric.renew(&claimed) {
                        renewals.fetch_add(1, Ordering::Relaxed);
                    } else {
                        renewals_lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .expect("spawn lease heartbeat")
    };

    let mut plan = Plan::with_threads(1)
        .with_store(fabric.store().clone())
        .without_status()
        .named(format!("fabric-{}", claimed.worker));
    plan.push(claimed.job.label.clone(), claimed.job.config.clone());
    let report = plan.run_sweep(policy);

    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    stats.renewals += renewals.load(Ordering::Relaxed);
    stats.renewals_lost += renewals_lost.load(Ordering::Relaxed);
    stats.busy_ms += t0.elapsed().as_millis() as u64;

    if report.all_ok() {
        stats.completed += 1;
        return;
    }
    match report.failed.first().map(|f| &f.error) {
        Some(SimError::Check(_)) => {
            // The store persisted the failure marker: resolved.
            stats.check_failures += 1;
        }
        Some(err) => {
            fabric.mark_error(&claimed.job.digest, &claimed.worker, &err.to_string());
            stats.error_markers += 1;
        }
        None => {
            // all_ok() false with no failed cell cannot happen, but a
            // wedged queue is worse than a spurious marker.
            fabric.mark_error(&claimed.job.digest, &claimed.worker, "unknown failure");
            stats.error_markers += 1;
        }
    }
}

/// The worker main loop: claim → supervised run → store write-back →
/// repeat, stealing expired leases along the way. Exits when the queue
/// is fully resolved (unless [`WorkerOptions::linger`]) or
/// [`WorkerOptions::max_jobs`] is reached. Returns this worker's tally
/// (also merged into [`session_fabric`]).
///
/// # Errors
/// Only unexpected I/O errors on the fabric directory; job failures
/// resolve through the store or error markers instead.
pub fn run_worker(
    store: Arc<Store>,
    opts: &WorkerOptions,
    policy: SweepPolicy,
) -> std::io::Result<FabricWorkerStats> {
    let fabric = Fabric::open(store)?;
    let mut stats = FabricWorkerStats::default();
    let mut executed = 0u64;
    loop {
        if opts.max_jobs.is_some_and(|max| executed >= max) {
            break;
        }
        match fabric.claim_next(&opts.id, opts.lease, &mut stats)? {
            Some(claimed) => {
                run_claimed(&fabric, &claimed, policy, &mut stats);
                executed += 1;
            }
            None => {
                if !opts.linger && fabric.snapshot(opts.lease).unresolved() == 0 {
                    break;
                }
                stats.idle_polls += 1;
                std::thread::sleep(opts.poll);
            }
        }
    }
    merge_session(&stats);
    Ok(stats)
}

// ---------------------------------------------------------------------------
// The submit side.
// ---------------------------------------------------------------------------

/// What [`Submission::wait`] observed by the time it returned.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaitOutcome {
    /// Cells with a terminal outcome.
    pub resolved: usize,
    /// Cells resolved through an error marker.
    pub errored: usize,
    /// True when every cell resolved (false: the caller's
    /// `keep_waiting` gave up first).
    pub complete: bool,
}

/// A submitted sweep: the cells, their digests, and the ways to wait on
/// and merge the distributed outcome.
#[derive(Debug)]
pub struct Submission {
    sweep: String,
    cells: Vec<(String, RunConfig)>,
    digests: Vec<String>,
}

impl Submission {
    /// The sweep's name.
    pub fn sweep(&self) -> &str {
        &self.sweep
    }

    /// The submitted cells, in plan order.
    pub fn cells(&self) -> &[(String, RunConfig)] {
        &self.cells
    }

    /// The cells' digests, in plan order.
    pub fn digests(&self) -> &[String] {
        &self.digests
    }

    /// Polls the queue until every cell resolves, mirroring progress
    /// onto `board` (claims become `Running`, generation bumps become
    /// `Retrying`, resolutions become `Done`/`Failed`) so
    /// `seesaw-status` renders a live aggregate view of the whole
    /// fleet. `keep_waiting` is consulted between polls; returning
    /// `false` stops early (the caller can then fall back to local
    /// execution via [`Submission::assemble`], which self-heals
    /// stragglers).
    pub fn wait(
        &self,
        fabric: &Fabric,
        poll: Duration,
        board: Option<&StatusBoard>,
        mut keep_waiting: impl FnMut() -> bool,
    ) -> WaitOutcome {
        #[derive(Clone, Copy, PartialEq)]
        enum Tracked {
            Queued,
            Running(u64),
            Terminal,
        }
        let mut tracked = vec![Tracked::Queued; self.digests.len()];
        // A generous default lease for liveness classification when the
        // submitter doesn't know the workers' setting; only affects the
        // displayed Running/Queued split, never correctness.
        let lease = WorkerOptions::from_env().lease;
        loop {
            let mut outcome = WaitOutcome::default();
            for (i, d) in self.digests.iter().enumerate() {
                if fabric.resolved(d) {
                    outcome.resolved += 1;
                    let failed = fabric.errored(d)
                        || fabric.store().dir().join(format!("f-{d}.rec")).exists();
                    if failed {
                        outcome.errored += 1;
                    }
                    if tracked[i] != Tracked::Terminal {
                        if let Some(b) = board {
                            b.finish(
                                &[i],
                                if failed {
                                    CellState::Failed
                                } else {
                                    CellState::Done
                                },
                            );
                        }
                        tracked[i] = Tracked::Terminal;
                    }
                    continue;
                }
                let (gen, record) = fabric.latest_claim(d);
                let live = gen > 0 && fabric.claim_live(d, gen, record.as_ref(), lease);
                match tracked[i] {
                    Tracked::Queued if live => {
                        if let Some(b) = board {
                            b.start_attempt(&[i], gen as u32);
                        }
                        tracked[i] = Tracked::Running(gen);
                    }
                    Tracked::Running(seen) if live && gen > seen => {
                        if let Some(b) = board {
                            b.retrying(&[i], gen as u32);
                            b.start_attempt(&[i], gen as u32);
                        }
                        tracked[i] = Tracked::Running(gen);
                    }
                    _ => {}
                }
            }
            if outcome.resolved == self.digests.len() {
                outcome.complete = true;
                if let Some(b) = board {
                    b.mark_done();
                }
                return outcome;
            }
            if !keep_waiting() {
                return outcome;
            }
            std::thread::sleep(poll);
        }
    }

    /// Re-runs the plan through the standard [`Plan::run_sweep`] path
    /// with the shared store attached: every worker-resolved cell is a
    /// store hit (bit-identical by the store round-trip the chaos tests
    /// pin), and any straggler — an unresolved or error-marked cell —
    /// is simulated locally, so the merged report is always complete.
    pub fn assemble(&self, fabric: &Fabric, policy: SweepPolicy) -> SweepReport {
        let mut plan = Plan::new()
            .with_store(fabric.store().clone())
            .named(self.sweep.clone());
        for (label, config) in &self.cells {
            plan.push(label.clone(), config.clone());
        }
        plan.run_sweep(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_fabric(tag: &str) -> Fabric {
        let dir =
            std::env::temp_dir().join(format!("seesaw-fabric-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open test store"));
        Fabric::open(store).expect("open test fabric")
    }

    fn teardown(fabric: &Fabric) {
        let _ = fs::remove_dir_all(fabric.store().dir());
    }

    fn cell() -> RunConfig {
        RunConfig::quick("gups").instructions(20_000)
    }

    #[test]
    fn job_records_round_trip() {
        let fabric = tmp_fabric("roundtrip");
        let cfg = cell();
        let d = fabric.enqueue("a cell", &cfg).expect("enqueue");
        assert_eq!(d, digest(&fingerprint(&cfg)));
        // Idempotent: a second enqueue of the same cell is a no-op.
        assert_eq!(d, fabric.enqueue("a cell", &cfg).expect("re-enqueue"));
        let job = fabric.job(&d).expect("job decodes");
        assert_eq!(job.label, "a cell");
        assert_eq!(fingerprint(&job.config), fingerprint(&cfg));
        assert_eq!(fabric.job_digests(), vec![d]);
        teardown(&fabric);
    }

    #[test]
    fn unsupported_configs_are_rejected_up_front() {
        let fabric = tmp_fabric("unsupported");
        // Traced results never persist, so the job could never resolve.
        let traced = cell().with_trace();
        assert!(matches!(
            fabric.enqueue("traced", &traced),
            Err(FabricError::Unsupported { .. })
        ));
        assert!(fabric.job_digests().is_empty());
        // A fault-injected cell rides the fabric: its job record carries
        // the injector and the explicit schedules, and decodes to them.
        let point = crate::FaultPoint {
            at: 5_000,
            kind: crate::FaultKind::Splinter,
            rng_state: u64::MAX,
        };
        let faulty = cell()
            .with_faults(crate::FaultConfig::all(u64::MAX - 7))
            .with_fault_schedules(vec![crate::FaultSchedule::new(vec![point])]);
        let d = fabric.enqueue("faulty", &faulty).expect("enqueue");
        let job = fabric.job(&d).expect("job decodes");
        assert_eq!(job.config.faults, faulty.faults);
        assert_eq!(job.config.fault_schedules, faulty.fault_schedules);
        assert_eq!(fingerprint(&job.config), fingerprint(&faulty));
        teardown(&fabric);
    }

    #[test]
    fn claim_generation_has_exactly_one_winner() {
        let fabric = tmp_fabric("exclusive");
        let d = fabric.enqueue("c", &cell()).expect("enqueue");
        let fabric = Arc::new(fabric);
        let wins: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let fabric = fabric.clone();
                    let d = d.clone();
                    s.spawn(move || {
                        fabric
                            .try_claim(&d, 1, &format!("w{i}"), Duration::from_secs(60))
                            .expect("claim attempt")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().filter(|&&w| w).count(), 1);
        let (gen, record) = fabric.latest_claim(&d);
        assert_eq!(gen, 1);
        let record = record.expect("winning claim decodes");
        assert!(record.live_at(now_ms()));
        teardown(&fabric);
    }

    #[test]
    fn expired_lease_is_stolen_at_the_next_generation() {
        let fabric = tmp_fabric("steal");
        let d = fabric.enqueue("c", &cell()).expect("enqueue");
        // A zero-length lease is born expired — the worker vanished.
        assert!(fabric
            .try_claim(&d, 1, "dead-worker", Duration::ZERO)
            .expect("claim"));
        let mut stats = FabricWorkerStats::default();
        let claimed = fabric
            .claim_next("thief", Duration::from_secs(60), &mut stats)
            .expect("scan")
            .expect("steals the expired lease");
        assert_eq!(claimed.generation, 2);
        assert_eq!(stats.claims, 1);
        assert_eq!(stats.steals, 1);
        // While the thief's lease is live, nobody else can claim.
        let mut other = FabricWorkerStats::default();
        assert!(fabric
            .claim_next("third", Duration::from_secs(60), &mut other)
            .expect("scan")
            .is_none());
        assert_eq!(other.claims, 0);
        teardown(&fabric);
    }

    #[test]
    fn renew_extends_until_stolen() {
        let fabric = tmp_fabric("renew");
        let d = fabric.enqueue("c", &cell()).expect("enqueue");
        let mut stats = FabricWorkerStats::default();
        let claimed = fabric
            .claim_next("owner", Duration::from_secs(60), &mut stats)
            .expect("scan")
            .expect("claims");
        assert!(fabric.renew(&claimed));
        let (_, record) = fabric.latest_claim(&d);
        let first_expiry = record.expect("claim decodes").expires_ms;
        assert!(fabric.renew(&claimed));
        let (_, record) = fabric.latest_claim(&d);
        assert!(record.expect("claim decodes").expires_ms >= first_expiry);
        // A steal at the next generation makes renewal report the loss.
        assert!(fabric
            .try_claim(&d, claimed.generation + 1, "thief", Duration::from_secs(60))
            .expect("steal"));
        assert!(!fabric.renew(&claimed));
        teardown(&fabric);
    }

    #[test]
    fn generation_cap_resolves_a_poison_job() {
        let fabric = tmp_fabric("poison");
        let d = fabric.enqueue("c", &cell()).expect("enqueue");
        for gen in 1..=MAX_GENERATIONS {
            assert!(fabric
                .try_claim(&d, gen, "crashy", Duration::ZERO)
                .expect("claim"));
        }
        let mut stats = FabricWorkerStats::default();
        assert!(fabric
            .claim_next("survivor", Duration::from_secs(60), &mut stats)
            .expect("scan")
            .is_none());
        assert_eq!(stats.error_markers, 1);
        assert!(fabric.resolved(&d));
        assert!(fabric.errored(&d));
        assert!(fabric
            .error_detail(&d)
            .expect("marker carries a detail line")
            .contains("generation cap"));
        let snap = fabric.snapshot(Duration::from_secs(60));
        assert_eq!(snap.jobs, 1);
        assert_eq!(snap.resolved, 1);
        assert_eq!(snap.errored, 1);
        assert_eq!(snap.unresolved(), 0);
        teardown(&fabric);
    }
}
