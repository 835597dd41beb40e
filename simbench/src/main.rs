//! End-to-end and per-layer benchmark of the SEESAW simulator.
//!
//! ```text
//! simbench --workload <sweep_1core|multicore_coherence|fragmented_churn|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one simulation thread, closed loop: every timed cell is a
//! single-cell `Plan` run through `run_sweep`, the path every figure
//! binary takes, and the next cell starts when the previous one returns.
//! Before timing, an untimed warm pass builds every cell once with
//! `stop_at(1)`, filling the simulator's process-wide stream,
//! warmed-outer and memory-image caches; that set-up is reported as
//! `setup_s`. Timed passes over the whole cell list repeat until
//! `--seconds` have elapsed, and every cell of every pass is checked
//! against the committed expectations (default seed) and the
//! seed-independent invariants. Host times are normalised by a fixed
//! probe that runs between the measured pieces of work (see [`calib`]),
//! so the reported times are seconds at the probe's reference speed.
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. The
//! exit code is non-zero when any cell fails its check.

mod calib;
mod cells;
mod check;
mod expected;
mod ledger;
mod report;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use seesaw_sim::experiments::design_fingerprint;
use seesaw_sim::{Plan, RunResult, SweepPolicy, System};

use calib::{normalise, Probe};
use cells::{Cell, Workload, DEFAULT_SEED};
use check::Expectations;
use report::{median, Metric, Report};

/// Set-up runs per invocation (this process plus child processes that
/// stop after set-up); `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    print_expected: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        print_expected: false,
    };
    let mut all = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name == "all" {
                    all = true;
                } else {
                    args.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
                }
            }
            "--seed" => args.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--print-expected" => args.print_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !all && !args.print_expected {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad --seed {s}"))
}

/// Makes the C allocator keep freed memory in the process: one arena,
/// no per-allocation mappings, no trimming of the heap. The simulator
/// clones its cached artifacts into every cell, and with the default
/// settings each clone faults fresh pages in from the kernel; that was a
/// sixth to a fifth of a run's time, and on a virtual machine its cost
/// swings with the hypervisor's load. Retained memory is faulted in once.
fn retain_freed_memory() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_MAX: i32 = -4;
    const M_ARENA_MAX: i32 = -8;
    for (param, value) in [
        (M_ARENA_MAX, 1),
        (M_MMAP_MAX, 0),
        (M_TRIM_THRESHOLD, i32::MAX),
        (M_TOP_PAD, 64 << 20),
    ] {
        // SAFETY: `mallopt` only sets allocator parameters; no other
        // thread exists yet to allocate concurrently.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) refused"));
        }
    }
    Ok(())
}

/// Removes every `SEESAW_*` variable: the store, status, trace, thread,
/// phase-timing and repro knobs each add I/O or threads to a run.
fn isolate_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SEESAW_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Runs one cell as a single-cell plan, on one thread, without store or
/// status. `pass` goes into the config's `stop_at` far beyond the budget:
/// the result is unchanged, but the fingerprint differs per pass, so no
/// timed cell is ever served from the runner's memo cache.
pub(crate) fn run_cell(cell: &Cell, pass: u64) -> Result<RunResult, String> {
    let mut plan = Plan::with_threads(1).without_store().without_status();
    plan.push(
        cell.label.clone(),
        cell.config.clone().stop_at(u64::MAX - pass),
    );
    let report = plan.run_sweep(SweepPolicy::default());
    report
        .outcomes
        .into_iter()
        .next()
        .expect("a one-cell plan yields one outcome")
        .map_err(|e| e.to_string())
}

/// The set-up of one process: building the cell list and the warm pass.
#[derive(Debug, Clone, Copy)]
struct Setup {
    /// Wall seconds building the cell list and checking its cache keys.
    list_s: f64,
    /// Wall seconds of the warm pass.
    warm_s: f64,
    /// The median probe slice beside the warm pass, in seconds.
    slice_s: f64,
}

impl Setup {
    /// The whole set-up at the probe's reference speed.
    fn normalised_s(&self) -> f64 {
        normalise(self.list_s + self.warm_s, self.slice_s)
    }
}

/// Fills the process-wide artifact caches: builds every cell and stops
/// it after its first instruction. Probe slices run between cells,
/// outside the returned warm time; returns (warm seconds, slices).
fn warm(cells: &[Cell], probe: &mut Probe) -> Result<(f64, Vec<f64>), String> {
    let mut seconds = 0.0;
    let mut slices = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let t0 = Instant::now();
        System::build(&cell.config.clone().stop_at(1))
            .and_then(System::run)
            .map_err(|e| format!("{}: warm pass: {e}", cell.label))?;
        seconds += t0.elapsed().as_secs_f64();
        if calib::slice_after(i, cells.len()) {
            slices.push(probe.slice());
        }
    }
    Ok((seconds, slices))
}

/// The outcome of a timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds of every cell in every pass: `seconds[cell][pass]`.
    pub seconds: Vec<Vec<f64>>,
    /// The median probe slice of every pass, in seconds.
    pub slices: Vec<f64>,
    /// Measured-window instructions of every cell (the same each pass).
    pub instructions: Vec<u64>,
    /// The first pass's results, in cell order (`None` where a cell failed).
    pub first: Vec<Option<RunResult>>,
    /// Cells run.
    pub attempted: u64,
    /// Cells that failed to complete or failed their check.
    pub failures: Vec<String>,
    /// Peak resident set after the first pass, without the probe's
    /// table. Later passes add only runner memo entries for their
    /// pass-numbered fingerprints, which a sweep running each cell once
    /// never holds, so reading the peak at exit would grow with the
    /// host's speed.
    pub peak_rss_mib: f64,
}

impl Timed {
    /// Simulated Minstr per second at the probe's reference speed (see
    /// [`normalised_minstr_per_s`]).
    pub fn minstr_per_s(&self) -> f64 {
        normalised_minstr_per_s(&self.instructions, &self.seconds, &self.slices)
    }

    /// Simulated Minstr per host second, from each cell's median wall
    /// time, for the log.
    pub fn raw_minstr_per_s(&self) -> f64 {
        let seconds: f64 = self.seconds.iter().map(|s| median(s.clone())).sum();
        self.instructions.iter().sum::<u64>() as f64 / seconds / 1e6
    }

    /// Passes completed.
    pub fn passes(&self) -> usize {
        self.seconds.first().map_or(0, Vec::len)
    }

    /// Minstr/s of each whole pass, for the log.
    pub fn pass_rates(&self) -> Vec<f64> {
        let instructions = self.instructions.iter().sum::<u64>() as f64;
        (0..self.passes())
            .map(|p| instructions / self.seconds.iter().map(|s| s[p]).sum::<f64>() / 1e6)
            .collect()
    }

    /// An empty record for `cells` cells.
    pub fn new(cells: usize) -> Timed {
        Timed {
            seconds: vec![Vec::new(); cells],
            instructions: vec![0; cells],
            ..Timed::default()
        }
    }

    /// Runs and times one pass over `cells`, checking every result, with
    /// probe slices between cells. `pass` numbers the pass (see
    /// [`run_cell`]).
    pub fn run_pass(
        &mut self,
        cells: &[Cell],
        expect: &Expectations,
        pass: u64,
        probe: &mut Probe,
    ) {
        let mut results = Vec::with_capacity(cells.len());
        let mut slices = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let t0 = Instant::now();
            let outcome = run_cell(cell, pass);
            self.seconds[i].push(t0.elapsed().as_secs_f64());
            if calib::slice_after(i, cells.len()) {
                slices.push(probe.slice());
            }
            results.push(outcome);
        }
        self.slices.push(median(slices));
        for (i, (cell, outcome)) in cells.iter().zip(&results).enumerate() {
            self.attempted += 1;
            match outcome.as_ref().map_err(String::clone).and_then(|r| {
                expect.check(cell, r)?;
                Ok(r.totals.instructions)
            }) {
                Ok(instructions) => self.instructions[i] = instructions,
                Err(e) => self.failures.push(format!("{}: {e}", cell.label)),
            }
        }
        if self.first.is_empty() {
            self.first = results.into_iter().map(Result::ok).collect();
            self.peak_rss_mib = peak_rss_mib() - calib::RESIDENT_MIB;
        }
    }
}

/// Measured-window instructions of all cells over the sum of each
/// cell's median normalised time, in Minstr/s at the probe's reference
/// speed. `seconds[cell][pass]` is a cell's wall time and `slices[pass]`
/// the median probe slice of its pass. A median does not
/// drift with the number of passes, so a faster or slower simulator
/// does not bias its own estimate by fitting more or fewer passes.
pub(crate) fn normalised_minstr_per_s(
    instructions: &[u64],
    seconds: &[Vec<f64>],
    slices: &[f64],
) -> f64 {
    let total: f64 = seconds
        .iter()
        .map(|s| {
            median(
                s.iter()
                    .zip(slices)
                    .map(|(&s, &c)| normalise(s, c))
                    .collect(),
            )
        })
        .sum();
    instructions.iter().sum::<u64>() as f64 / total / 1e6
}

/// Runs whole passes over `cells` until `seconds` have elapsed.
fn timed_phase(cells: &[Cell], expect: &Expectations, seconds: f64, probe: &mut Probe) -> Timed {
    let mut timed = Timed::new(cells.len());
    let start = Instant::now();
    for pass in 0.. {
        timed.run_pass(cells, expect, pass, probe);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    timed
}

/// Mean over every baseline/SEESAW pair of `f(seesaw, baseline)`.
fn pair_mean(
    cells: &[Cell],
    results: &[Option<RunResult>],
    f: fn(&RunResult, &RunResult) -> f64,
) -> f64 {
    let find = |key: &str, design: &str| {
        cells
            .iter()
            .zip(results)
            .find(|(c, _)| c.pair_key == key && c.design == design)
            .and_then(|(_, r)| r.as_ref())
    };
    let values: Vec<f64> = cells
        .iter()
        .filter(|c| c.design == "seesaw")
        .filter_map(|c| {
            Some(f(
                find(&c.pair_key, "seesaw")?,
                find(&c.pair_key, "baseline")?,
            ))
        })
        .collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Normalised set-up time of fresh child processes that stop after
/// set-up.
fn child_setups(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workload = args.workload.expect("set-up runs one workload").name();
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &args.seed.to_string(),
                    "--setup-only",
                ])
                .output()
                .map_err(|e| format!("spawn set-up run: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            let normalised = last.split_whitespace().next().unwrap_or("");
            match (out.status.success(), normalised.parse::<f64>()) {
                (true, Ok(s)) => Ok(s),
                _ => Err(format!(
                    "set-up run failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Prints the committed-expectations source for every workload at the
/// default seed (`src/expected_data.rs`).
fn print_expected() -> Result<(), String> {
    println!("{}", expected::HEADER);
    for workload in Workload::ALL {
        println!(
            "\nconst {}: &[(&str, u64)] = &[",
            expected::table_name(workload)
        );
        for cell in cells::cells(workload, DEFAULT_SEED) {
            let r = System::build(&cell.config)
                .and_then(System::run)
                .map_err(|e| format!("{}: {e}", cell.label))?;
            println!("    ({:?}, {:#018x}),", cell.label, design_fingerprint(&r));
        }
        println!("];");
    }
    Ok(())
}

/// Runs each workload in a child process and prints every metric under
/// `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all = Report::default();
    for workload in Workload::ALL {
        let out = Command::new(&exe)
            .args([
                "--workload",
                workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            eprintln!("[{}] {line}", workload.name());
        }
        let child = Report::parse(text.lines().last().unwrap_or("")).ok_or(format!(
            "{}: no result ({})",
            workload.name(),
            out.status
        ))?;
        all.absorb(workload.name(), child);
    }
    Ok(all)
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload.expect("one workload");
    let mut probe = Probe::new();
    let t0 = Instant::now();
    let cells = cells::cells(workload, args.seed);
    let keys = cells::guard_caps(&cells)?;
    let list_s = t0.elapsed().as_secs_f64();
    let (warm_s, slices) = warm(&cells, &mut probe)?;
    let setup = Setup {
        list_s,
        warm_s,
        slice_s: median(slices),
    };
    if args.setup_only {
        println!(
            "{} list_s={list_s} warm_s={warm_s} slice_s={}",
            setup.normalised_s(),
            setup.slice_s
        );
        return Ok(Report::default());
    }
    println!(
        "workload={} cells={} seed={} threads=1 nproc={} cache_keys=streams:{}/warm_outers:{}/images:{}",
        workload.name(),
        cells.len(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        keys.streams,
        keys.warm_outers,
        keys.images
    );
    let expect = Expectations::for_run(workload, args.seed);
    if args.trace {
        return ledger::traced_run(workload, &cells, &expect, args.seconds, &mut probe);
    }
    let mut setups = child_setups(args, SETUP_SAMPLES - 1)?;
    setups.push(setup.normalised_s());
    println!(
        "setup: this process list_s={list_s:.4} warm_s={warm_s:.4} slice_s={:.6}; normalised set-ups {setups:?}",
        setup.slice_s
    );

    let timed = timed_phase(&cells, &expect, args.seconds, &mut probe);
    println!(
        "passes={} raw_minstr_per_s={:.4} median_slice_s={:.6} pass_minstr_per_s={:?} pass_slice_s={:?}",
        timed.passes(),
        timed.raw_minstr_per_s(),
        median(timed.slices.clone()),
        timed.pass_rates(),
        timed.slices
    );
    let mut report = Report {
        attempted: timed.attempted,
        failures: timed.failures.clone(),
        ..Report::default()
    };
    report.push(Metric::new(
        "sim_minstr_per_s",
        timed.minstr_per_s(),
        "Minstr/s",
    ));
    report.push(Metric::new("setup_s", median(setups), "s"));
    report.push(Metric::new("peak_rss_mib", timed.peak_rss_mib, "MiB"));
    report.push(Metric::new(
        "cell_ok_ratio",
        (timed.attempted - timed.failures.len() as u64) as f64 / timed.attempted as f64,
        "ratio",
    ));
    report.push(Metric::new(
        "seesaw_runtime_ratio",
        pair_mean(&cells, &timed.first, |s, b| {
            s.totals.cycles as f64 / b.totals.cycles as f64
        }),
        "ratio",
    ));
    report.push(Metric::new(
        "seesaw_energy_ratio",
        pair_mean(&cells, &timed.first, |s, b| {
            s.energy.total_nj() / b.energy.total_nj()
        }),
        "ratio",
    ));
    Ok(report)
}

fn main() -> ExitCode {
    if let Err(e) = retain_freed_memory() {
        eprintln!("simbench: {e}");
        return ExitCode::FAILURE;
    }
    let cleared = isolate_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_expected {
        return match print_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !cleared.is_empty() && !args.setup_only {
        println!("cleared environment: {}", cleared.join(" "));
    }
    let outcome = match args.workload {
        Some(_) => run(&args),
        None => run_all(&args),
    };
    match outcome {
        Ok(_) if args.setup_only => ExitCode::SUCCESS,
        Ok(report) => {
            for failure in &report.failures {
                eprintln!("simbench: FAILED {failure}");
            }
            eprint!("{}", report.table());
            println!("{}", report.json());
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_takes_each_cells_median_normalised_pass() {
        // Two cells of 1 M and 3 M instructions. With every slice at the
        // reference speed, their median passes take 0.15 s and 0.4 s.
        let r = calib::REFERENCE_SLICE_S;
        let seconds = vec![vec![0.2, 0.1, 0.15], vec![0.3, 0.9, 0.4]];
        let slices = vec![r; 3];
        let rate = normalised_minstr_per_s(&[1_000_000, 3_000_000], &seconds, &slices);
        assert!((rate - 4.0 / 0.55).abs() < 1e-9, "{rate}");
        // A slower host stretches the slices, and the cells by the
        // probe's elasticity.
        let slow = |v: &Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            v.iter()
                .map(|c| c.iter().map(|x| x * 1.1f64.powf(1.6)).collect())
                .collect()
        };
        let slow_slices: Vec<f64> = slices.iter().map(|x| 1.1 * x).collect();
        let again = normalised_minstr_per_s(&[1_000_000, 3_000_000], &slow(&seconds), &slow_slices);
        assert!((again - rate).abs() < 1e-9, "{again}");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload fragmented_churn --seed 0x10 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::FragmentedChurn));
        assert_eq!((a.seed, a.seconds, a.trace), (16, 2.5, true));
        assert_eq!(
            parse_args(&argv("--workload all")).expect("all").workload,
            None
        );
        for bad in [
            "",
            "--workload nope",
            "--workload sweep_1core --trace 2",
            "--workload sweep_1core --seconds 0",
            "--workload sweep_1core --seed x",
            "--workload sweep_1core --frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
