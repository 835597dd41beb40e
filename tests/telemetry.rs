//! Telemetry-layer integration tests: registry completeness, trace ↔
//! metrics reconciliation, zero-overhead-off bit-identity, exporter
//! schemas, and the new windowed-sample fields.

use seesaw_sim::{runner::Plan, FaultConfig, L1DesignKind, RunConfig, RunResult, Sample, System};
use seesaw_trace::json::Json;
use seesaw_trace::jsonl::validate_jsonl;
use seesaw_trace::{EventCounts, MetricValue};

fn traced_run() -> RunResult {
    let mut cfg = RunConfig::quick("redis")
        .design(L1DesignKind::Seesaw)
        .with_checker()
        .with_faults(FaultConfig::all(0x7e1e))
        .with_trace();
    cfg.sample_interval = Some(25_000);
    System::build(&cfg).unwrap().run().unwrap()
}

/// Every subsystem's counters must land in the flat registry. The
/// per-field completeness comes from the single `counters!` declaration
/// of each stats struct, which exports every field it declares; this
/// test pins the namespaces themselves so no subsystem silently drops
/// out of the snapshot assembly in `System::run`.
#[test]
fn registry_covers_every_subsystem() {
    let r = traced_run();
    let prefixes = [
        "cpu",
        "l1",
        "l1.miss_penalty",
        "tlb.l1",
        "tlb.l2",
        "tlb.walker",
        "tlb.walk_latency",
        "seesaw",
        "tft",
        "energy",
        "outer.l2",
        "outer.llc",
        "os.thp",
        "os.buddy",
        "faults",
        "checker",
        "checker.violations",
        "trace.events",
    ];
    for prefix in prefixes {
        assert!(
            r.metrics.keys_under(prefix).next().is_some(),
            "no metrics under {prefix:?}; have: {:?}",
            r.metrics.keys().collect::<Vec<_>>()
        );
    }
    // Spot-check exact keys and cross-struct consistency.
    assert_eq!(r.metrics.get_u64("cpu.cycles"), Some(r.totals.cycles));
    assert_eq!(r.metrics.get_u64("l1.misses"), Some(r.l1.misses));
    assert_eq!(r.metrics.get_u64("tlb.walker.walks"), Some(r.walks));
    assert_eq!(r.metrics.get_u64("tft.hits"), Some(r.tft.hits));
    assert_eq!(
        r.metrics.get_u64("coherence.probes"),
        Some(r.coherence_probes)
    );
    assert_eq!(
        r.metrics.get_f64("energy.total_nj"),
        Some(r.energy.total_nj())
    );
}

/// The events the hot loop emitted must agree exactly with the stat
/// deltas of the measured window — the trace and the counters are two
/// views of the same execution.
#[test]
fn events_reconcile_with_stats() {
    let r = traced_run();
    let t = r.trace.as_ref().expect("traced run captures a trace");
    let c = &t.counts;
    // One TLB lookup and one partition lookup per reference.
    assert_eq!(
        c.tlb_l1_hits + c.tlb_l2_hits + c.tlb_walks,
        c.l1_hits + c.l1_misses
    );
    // Every page walk ended.
    assert_eq!(c.tlb_walks, c.walk_ends);
    assert_eq!(c.walk_ends, r.walks);
    // L1 outcome events match the cache's own counters.
    assert_eq!(c.l1_hits, r.l1.hits);
    assert_eq!(c.l1_misses, r.l1.misses);
    assert_eq!(c.ways_probed, r.l1.ways_probed);
    // TFT verdict events match the TFT's counters.
    assert_eq!(c.tft_hits, r.tft.hits);
    assert_eq!(c.tft_misses, r.tft.misses);
    // Coherence probes observed by the trace are the ones the run billed.
    assert_eq!(c.coherence_probes, r.coherence_probes);
    // The L2 TLB counters cover the measured window too: every L2 hit
    // answered a translation, and every L2 lookup either hit or walked.
    let l2_hits = r
        .metrics
        .get_u64("tlb.l2.hits")
        .expect("an L2 TLB is configured");
    let l2_misses = r.metrics.get_u64("tlb.l2.misses").unwrap();
    assert_eq!(l2_hits, c.tlb_l2_hits);
    assert_eq!(l2_hits + l2_misses, c.tlb_l2_hits + c.tlb_walks);
    // Ring accounting: everything emitted is either retained or counted
    // as dropped.
    assert_eq!(c.total(), t.emitted());
    // And the registry snapshot carries the same counts.
    assert_eq!(
        r.metrics.get_u64("trace.events.walk_ends"),
        Some(c.walk_ends)
    );
    assert_eq!(
        r.metrics.get_u64("trace.events.l1_misses"),
        Some(c.l1_misses)
    );
}

/// Turning tracing on must not change the simulation: same cycles, same
/// misses, bit-identical energy. (The sink is a monomorphized generic;
/// with `NullSink` every emit site compiles away.)
#[test]
fn tracing_does_not_perturb_results() {
    let cfg = RunConfig::quick("astar").design(L1DesignKind::Seesaw);
    let off = System::build(&cfg).unwrap().run().unwrap();
    let on = System::build(&cfg.clone().with_trace())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(off.totals.cycles, on.totals.cycles);
    assert_eq!(off.totals.instructions, on.totals.instructions);
    assert_eq!(off.l1.misses, on.l1.misses);
    assert_eq!(off.walks, on.walks);
    assert_eq!(
        off.energy.total_nj().to_bits(),
        on.energy.total_nj().to_bits()
    );
    assert!(off.trace.is_none(), "untraced run must not allocate a ring");
    assert!(on.trace.is_some());
}

/// The JSONL export round-trips through the independent validator, and
/// the validator's per-type tally matches the ring's own counts for the
/// retained events.
#[test]
fn jsonl_export_validates_and_tallies() {
    let r = traced_run();
    let t = r.trace.as_ref().unwrap();
    let report = validate_jsonl(&t.to_jsonl()).expect("exported JSONL must validate");
    assert_eq!(report.lines, t.events.len() as u64);
    if t.dropped == 0 {
        assert_eq!(report.count("walk_end"), t.counts.walk_ends);
        assert_eq!(report.count("fault"), t.counts.faults);
    }
}

/// Golden schema for the runner's Chrome trace: a deterministic
/// two-cell plan must produce a `traceEvents` document whose records
/// carry exactly the fields Perfetto needs (`ph`, `pid`, `tid`, and
/// `ts`/`dur` for spans), with process/thread metadata, at least one
/// complete span, and a memo-hit instant for the duplicated cell.
#[test]
fn chrome_trace_matches_golden_schema() {
    let cfg = RunConfig::quick("tunk").instructions(30_000);
    let mut plan = Plan::with_threads(2);
    plan.push("golden/base", cfg.clone());
    plan.push("golden/duplicate", cfg);
    let run = plan.run().unwrap();
    let doc = Json::parse(&run.chrome_trace("golden plan")).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut phases: Vec<&str> = Vec::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every record has ph");
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("name").and_then(Json::as_str).is_some());
        match ph {
            "M" => {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata record {name:?}"
                );
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                assert!(e.get("ts").and_then(Json::as_u64).is_some());
                assert!(e.get("dur").and_then(Json::as_u64).is_some());
                assert_eq!(
                    e.get("args")
                        .and_then(|a| a.get("memo"))
                        .and_then(Json::as_str),
                    Some("miss")
                );
            }
            "i" => {
                assert!(e.get("ts").and_then(Json::as_u64).is_some());
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
        phases.push(ph);
    }
    assert!(phases.contains(&"M"));
    assert!(
        phases.contains(&"i"),
        "duplicate cell must appear as memo-hit instant"
    );
    // The duplicated config simulates at most once, so at most one span —
    // and exactly one when this test ran it fresh (another test in this
    // process may have warmed the memo cache first).
    assert!(phases.iter().filter(|&&p| p == "X").count() <= 1);
}

/// Per-core reconciliation at cores = 2: the trace's per-core event
/// split must agree *exactly* with each core's own counters — attribution
/// as well as totals — and the exporters must keep the cores apart (a
/// numbered JSONL `core` field on every line, one Chrome thread track
/// per core).
#[test]
fn per_core_events_reconcile_exactly() {
    let cfg = RunConfig::quick("redis")
        .design(L1DesignKind::Seesaw)
        .cores(2)
        .with_trace();
    let r = System::build(&cfg).unwrap().run().unwrap();
    let t = r.trace.as_ref().expect("traced run captures a trace");

    assert_eq!(t.per_core.len(), 2, "one event split per core");
    assert_eq!(r.cores.len(), 2);
    for core in &r.cores {
        let c = &t.per_core[core.core];
        assert_eq!(c.l1_hits, core.l1.hits, "core {}: l1 hits", core.core);
        assert_eq!(c.l1_misses, core.l1.misses, "core {}: l1 misses", core.core);
        assert_eq!(
            c.ways_probed, core.l1.ways_probed,
            "core {}: ways",
            core.core
        );
        assert_eq!(c.tft_hits, core.tft.hits, "core {}: tft hits", core.core);
        assert_eq!(
            c.tft_misses, core.tft.misses,
            "core {}: tft misses",
            core.core
        );
        assert_eq!(c.walk_ends, core.walks, "core {}: walks", core.core);
        assert_eq!(
            c.coherence_probes, core.coherence_probes,
            "core {}: probes must be attributed to the core that received them",
            core.core
        );
    }
    // The split partitions the aggregate with nothing lost.
    let split: u64 = t.per_core.iter().map(EventCounts::total).sum();
    assert_eq!(split, t.counts.total());

    // JSONL: every line carries a numeric core, and the retained window
    // holds events from both cores (round-robin interleave guarantees
    // the tail is mixed).
    let report = validate_jsonl(&t.to_jsonl()).expect("core-tagged JSONL must validate");
    assert!(report.core_count(0) > 0, "no retained events for core 0");
    assert!(report.core_count(1) > 0, "no retained events for core 1");

    // Chrome export: one named thread track per core.
    let doc = Json::parse(&t.to_chrome("2-core run")).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let tracks: Vec<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        })
        .collect();
    assert_eq!(tracks, vec!["core 0", "core 1"]);
}

/// The new windowed-sample fields are populated and NaN-free, the CSV
/// export matches its header, and a design with no TFT (the baseline)
/// carries the hit rate through zero-lookup windows instead of emitting
/// NaN or a bogus 0-to-rate flap.
#[test]
fn samples_have_new_fields_and_carry_tft_rate() {
    let mut cfg = RunConfig::quick("olio").design(L1DesignKind::Seesaw);
    cfg.sample_interval = Some(20_000);
    let r = System::build(&cfg).unwrap().run().unwrap();
    assert!(!r.samples.is_empty());
    for s in &r.samples {
        assert!(s.walk_mpki.is_finite() && s.walk_mpki >= 0.0);
        assert!(s.ways_per_access.is_finite() && s.ways_per_access >= 0.0);
        assert!(s.tft_hit_rate.is_finite());
        assert!((0.0..=1.0).contains(&s.tft_hit_rate));
    }
    // SEESAW probes fewer ways than the baseline's full associativity.
    let mean_ways =
        r.samples.iter().map(|s| s.ways_per_access).sum::<f64>() / r.samples.len() as f64;
    assert!(mean_ways > 0.0);

    // Baseline: the TFT never sees a lookup, so every window has zero
    // lookups and the carried-over rate stays exactly 0.0 — never NaN.
    let mut base = RunConfig::quick("olio");
    base.sample_interval = Some(20_000);
    let rb = System::build(&base).unwrap().run().unwrap();
    assert!(!rb.samples.is_empty());
    for s in &rb.samples {
        assert_eq!(s.tft_hit_rate, 0.0, "carried rate must stay at its seed");
    }

    // CSV export: header + one row per sample, arity matching.
    let csv = Sample::csv(&r.samples);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "instructions,cpi,mpki,tft_hit_rate,walk_mpki,ways_per_access"
    );
    assert_eq!(csv.lines().count(), r.samples.len() + 1);
}

/// The per-plan memo deltas are consistent with the process-wide
/// counters' movement for that plan.
#[test]
fn plan_memo_deltas_are_self_consistent() {
    let cfg = RunConfig::quick("gups").instructions(25_000);
    let mut plan = Plan::with_threads(2);
    plan.push("a", cfg.clone());
    plan.push("b", cfg.clone());
    plan.push("c", cfg);
    let run = plan.run().unwrap();
    assert_eq!(run.len(), 3);
    assert_eq!(run.memo.hits + run.memo.misses, 3);
    assert_eq!(run.memo.entries, 1);
    assert!(run.memo.hits >= 2, "two duplicate cells must hit");
    assert_eq!(run.journal.len(), 3);
}

/// The sorted `key type` listing of three cells' registries: a 1-core
/// SEESAW cell with the checker and every fault kind, a 2-core directory
/// baseline, and a 1-core VESPA cell — between them every namespace
/// `System::run` assembles.
fn registry_key_listing() -> String {
    let cells = [
        (
            "seesaw-checked-faults",
            RunConfig::quick("redis")
                .design(L1DesignKind::Seesaw)
                .instructions(40_000)
                .with_checker()
                .with_faults(FaultConfig::all(0x5eed)),
        ),
        (
            "baseline-2core-directory",
            RunConfig::quick("redis").instructions(40_000).cores(2),
        ),
        (
            "vespa",
            RunConfig::quick("redis")
                .design(L1DesignKind::Vespa)
                .instructions(40_000),
        ),
    ];
    let mut out = String::new();
    for (name, cfg) in cells {
        let r = System::build(&cfg).unwrap().run().unwrap();
        out.push_str(&format!("[{name}]\n"));
        for (key, value) in r.metrics.iter() {
            let kind = match value {
                MetricValue::U64(_) => "u64",
                MetricValue::F64(_) => "f64",
            };
            out.push_str(&format!("{key} {kind}\n"));
        }
    }
    out
}

/// Registry keys are an exported interface (CSV, Prometheus, `bench_diff`
/// and the figure drivers read them by name): no key may be added,
/// renamed or dropped, and none may change between `u64` and `f64`,
/// without updating `tests/fixtures/registry_keys.txt`.
#[test]
fn registry_keys_match_fixture() {
    let want = include_str!("fixtures/registry_keys.txt");
    let got = registry_key_listing();
    let want_lines: std::collections::BTreeSet<&str> = want.lines().collect();
    let got_lines: std::collections::BTreeSet<&str> = got.lines().collect();
    let missing: Vec<_> = want_lines.difference(&got_lines).collect();
    let added: Vec<_> = got_lines.difference(&want_lines).collect();
    assert!(
        got == want,
        "registry keys differ from the fixture\n  missing: {missing:?}\n  added: {added:?}"
    );
}
