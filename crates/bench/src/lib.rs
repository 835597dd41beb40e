//! Benchmark harness for the SEESAW reproduction.
//!
//! * `src/bin/` — one binary per paper table/figure (`fig2a` … `fig15`,
//!   `table1` … `table3`, `ablations`): each regenerates the rows the
//!   paper reports and prints them as an aligned table. Every binary
//!   accepts an optional first argument overriding the per-configuration
//!   instruction budget (default 2,000,000).
//! * `benches/` — Criterion micro/macro benchmarks: `components` measures
//!   the hot data structures (cache lookups, TFT, TLB, buddy allocator),
//!   `figures` times a representative slice of each experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Reads the instruction budget from the first CLI argument, defaulting
/// to `default` when absent or unparsable.
pub fn instruction_budget(default: u64) -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(default)
}

/// Unwraps an experiment driver's result, printing the error to stderr
/// and exiting with status 1 on failure (binaries have no caller to
/// propagate to).
pub fn ok_or_exit<T>(result: Result<T, seesaw_sim::SimError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Prints the process-wide memo-cache counters to stderr. Sweep binaries
/// call this last, so the run's log (and `scripts/bench.sh`, which
/// scrapes it) shows how many grid cells the content-addressed cache
/// deduplicated, while stdout stays the figure alone. When the persistent
/// store (`SEESAW_STORE`) is active, or any supervised cell panicked /
/// timed out / was retried, the matching `[store]` and `[supervisor]`
/// lines follow.
pub fn print_memo_stats() {
    // One structured emitter owns these lines now (`OpsSummary`); the
    // `[memo]` / `[store]` shapes are scraped by `scripts/bench.sh`, so
    // its renderer pins them with a test.
    eprintln!("{}", seesaw_sim::OpsSummary::process().render());
}

/// Standard sweep-binary epilogue: prints the memo counters, and — when
/// the `SEESAW_TRACE` environment variable is set — writes the process's
/// telemetry artifacts under that directory (empty value: `target/trace`)
/// and reports each on a `[trace]` stderr line:
///
/// * `{name}.chrome.json` — the plan journal as a Chrome `trace_event`
///   document (worker threads as tracks, cells as spans, memo hits as
///   instant events), loadable in Perfetto.
/// * `{name}.events.jsonl` — the typed event stream of one traced
///   representative SEESAW run, after verifying that its per-line event
///   counts reconcile exactly with the run's [`MetricsRegistry`]
///   snapshot (exits 1 on divergence: the trace would be lying).
///
/// [`MetricsRegistry`]: seesaw_trace::MetricsRegistry
pub fn finish(name: &str) {
    print_memo_stats();
    let Ok(dir) = std::env::var("SEESAW_TRACE") else {
        return;
    };
    let dir = if dir.is_empty() {
        std::path::PathBuf::from("target/trace")
    } else {
        std::path::PathBuf::from(dir)
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create trace dir {}: {e}", dir.display());
        std::process::exit(1);
    }

    let chrome = seesaw_sim::runner::session_chrome_trace(name);
    let chrome_path = dir.join(format!("{name}.chrome.json"));
    if let Err(e) = std::fs::write(&chrome_path, &chrome) {
        eprintln!("error: writing {}: {e}", chrome_path.display());
        std::process::exit(1);
    }
    eprintln!(
        "[trace] wrote {} ({} plan cells)",
        chrome_path.display(),
        seesaw_sim::runner::session_journal().len()
    );

    // One traced representative cell, so every sweep binary also leaves
    // behind a JSONL event stream that provably matches its metrics.
    let cfg = seesaw_sim::RunConfig::quick("redis")
        .design(seesaw_sim::L1DesignKind::Seesaw)
        .with_trace();
    let result = ok_or_exit(seesaw_sim::System::build(&cfg).and_then(seesaw_sim::System::run));
    let trace = result.trace.as_ref().expect("traced run returns a trace");
    match reconcile(trace, &result.metrics) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("error: event trace diverges from metrics: {msg}");
            std::process::exit(1);
        }
    }
    let jsonl = trace.to_jsonl();
    if let Err(e) = seesaw_trace::jsonl::validate_jsonl(&jsonl) {
        eprintln!("error: emitted JSONL failed validation: {e}");
        std::process::exit(1);
    }
    let jsonl_path = dir.join(format!("{name}.events.jsonl"));
    if let Err(e) = std::fs::write(&jsonl_path, &jsonl) {
        eprintln!("error: writing {}: {e}", jsonl_path.display());
        std::process::exit(1);
    }
    eprintln!(
        "[trace] wrote {} ({} events, {} dropped from ring)",
        jsonl_path.display(),
        trace.events.len(),
        trace.dropped
    );

    // Prometheus textfile + metrics CSV: the traced run's full registry
    // widened with the process-wide harness counters (`memo.*`,
    // `supervisor.*`, `store.*`, `ops.sweep.*`) as gauges, and the
    // latency/wall-clock log2 histograms as native Prometheus
    // histograms. Validated with the independent parser before it
    // lands, same two-sided discipline as the JSONL stream.
    use seesaw_trace::Collect;
    let mut registry = result.metrics.clone();
    seesaw_sim::runner::memo_stats().collect("memo", &mut registry);
    seesaw_sim::runner::supervisor_stats().collect("supervisor", &mut registry);
    if let Some(store) = seesaw_sim::store::process_store() {
        store.stats().collect("store", &mut registry);
    }
    seesaw_sim::runner::session_ops().collect("ops.sweep", &mut registry);
    seesaw_sim::fabric::session_fabric().collect("fabric", &mut registry);
    let mut cell_wall_ms = seesaw_trace::Log2Histogram::new();
    for cell in seesaw_sim::runner::session_journal()
        .iter()
        .filter(|c| !c.memo_hit)
    {
        cell_wall_ms.record(cell.dur_us / 1000);
    }
    cell_wall_ms.collect("ops.cell.wall_ms", &mut registry);

    let mut prom = seesaw_trace::Prometheus::new("seesaw");
    prom.histogram("tlb.walk_latency", &result.walk_latency);
    prom.histogram("l1.miss_penalty", &result.miss_penalty);
    prom.histogram("ops.cell.wall_ms", &cell_wall_ms);
    prom.gauges(&registry);
    let prom_text = prom.render();
    if let Err(e) = seesaw_trace::prometheus::validate(&prom_text) {
        eprintln!("error: emitted Prometheus textfile failed validation: {e}");
        std::process::exit(1);
    }
    let prom_path = dir.join(format!("{name}.prom"));
    if let Err(e) = std::fs::write(&prom_path, &prom_text) {
        eprintln!("error: writing {}: {e}", prom_path.display());
        std::process::exit(1);
    }
    let csv_path = dir.join(format!("{name}.metrics.csv"));
    if let Err(e) = std::fs::write(&csv_path, registry.to_csv()) {
        eprintln!("error: writing {}: {e}", csv_path.display());
        std::process::exit(1);
    }
    eprintln!(
        "[trace] wrote {} ({} metrics) and {}",
        prom_path.display(),
        registry.len(),
        csv_path.display()
    );
}

/// Checks that a run's captured [`seesaw_trace::EventCounts`] agree with
/// the `trace.events.*` keys of its metrics snapshot (they are collected
/// from the same counters, so any divergence means an exporter bug).
pub fn reconcile(
    trace: &seesaw_trace::TraceData,
    metrics: &seesaw_trace::MetricsRegistry,
) -> Result<(), String> {
    use seesaw_trace::Collect;
    let mut expected = seesaw_trace::MetricsRegistry::new();
    trace.counts.collect("trace.events", &mut expected);
    for (key, want) in expected.iter() {
        let got = metrics.get(key);
        if got != Some(want) {
            return Err(format!("{key}: trace says {want}, metrics say {got:?}"));
        }
    }
    if trace.counts.total() != trace.emitted() {
        return Err(format!(
            "ring accounting: counts total {} != events {} + dropped {}",
            trace.counts.total(),
            trace.events.len(),
            trace.dropped
        ));
    }
    Ok(())
}

/// The standard full-experiment budget.
pub const FULL: u64 = 2_000_000;

/// A reduced budget for quick looks.
pub const QUICK: u64 = 250_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_when_no_args() {
        // Tests run without meaningful argv[1]; expect the default.
        assert_eq!(instruction_budget(123), 123);
    }
}
