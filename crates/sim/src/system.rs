//! The run/step path of a full system: N cores (TLBs + L1 design +
//! workload stream) round-robin interleaved against one uncore (OS +
//! outer hierarchy + coherence + energy), driven by the CPU timing
//! models. Construction — design wiring, memory images, interned build
//! artifacts — lives in the private `build` module.

use seesaw_cache::{CacheStats, MemoryLevel, WayPredictionStats};
use seesaw_check::{AccessCheck, CheckEvent, CheckerSummary, FaultKind, InjectionStats};
use seesaw_core::{
    DesignStats, HitTimeAssumption, L1Request, PromotionAudit, SeesawStats, TftStats, VespaStats,
};
use seesaw_cpu::{CpuModel, InOrderCpu, OooCpu, RunTotals};

use seesaw_mem::{
    AddressSpace, MemError, Memhog, MemhogConfig, PageSize, PageTableOp, PhysAddr, VirtAddr,
};
use seesaw_tlb::{TlbLevel, TlbStats, WalkerStats};
use seesaw_trace::{
    Collect, Counter, EventKind, Log2Histogram, MetricsRegistry, NullSink, RingSink, Sink,
    TranslationLevel,
};
use seesaw_workloads::TraceRef;

use crate::build::{
    memory_image_key, stream_cache, warm_outer_cache, L1Design, StreamArtifact, STREAM_CACHE_CAP,
    WARM_OUTER_CAP,
};
use crate::core::Core;
use crate::status::{ActiveProgress, NoProgress, Progress};
use crate::uncore::Uncore;
use crate::{CoreResult, CpuKind, RunConfig, RunResult, SchedulerHintPolicy, SimError};
use seesaw_trace::ops::CellPhase;

/// Events retained by the traced-run ring (the exact [`seesaw_trace::EventCounts`]
/// mirror counts every event regardless, so reconciliation survives wrap).
const TRACE_RING_CAPACITY: usize = 1 << 18;

/// Per-core per-window event counters.
#[derive(Debug, Default)]
struct Counters {
    super_refs: u64,
    total_refs: u64,
    coherence_probes: u64,
    /// Load-to-use cycles summed over L1 hits, with [`Counters::hits`]
    /// the divisor — the measured average hit latency the design-lab
    /// head-to-head reports (`l1.avg_hit_latency_cycles`).
    hit_cycles: u64,
    hits: u64,
    samples: Vec<crate::Sample>,
    miss_penalty: Log2Histogram,
}

/// Cumulative counters at a sampling-window boundary.
#[derive(Debug, Clone, Copy)]
struct SampleWindow {
    instructions: u64,
    cycles: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l1_ways_probed: u64,
    tft_hits: u64,
    tft_misses: u64,
    walks: u64,
}

impl SampleWindow {
    fn capture<C: CpuModel>(core: &Core, cpu: &C) -> SampleWindow {
        let l1 = core.l1.cache_stats();
        let tft = core.l1.design_stats().tft.unwrap_or_default();
        SampleWindow {
            instructions: cpu.instructions(),
            cycles: cpu.cycles(),
            l1_accesses: l1.accesses(),
            l1_misses: l1.misses,
            l1_ways_probed: l1.ways_probed,
            tft_hits: tft.hits,
            tft_misses: tft.misses,
            walks: core.tlbs.walker_stats().walks,
        }
    }

    /// Window deltas. `carry_tft_rate` is the previous window's TFT hit
    /// rate, reported unchanged when this window saw zero TFT lookups —
    /// a flat-lining series beats a misleading drop to 0.
    fn delta(&self, now: &SampleWindow, carry_tft_rate: f64) -> crate::Sample {
        let instructions = (now.instructions - self.instructions).max(1);
        let tft_lookups = (now.tft_hits - self.tft_hits) + (now.tft_misses - self.tft_misses);
        let accesses = now.l1_accesses - self.l1_accesses;
        crate::Sample {
            instructions: now.instructions,
            cpi: (now.cycles - self.cycles) as f64 / instructions as f64,
            mpki: (now.l1_misses - self.l1_misses) as f64 * 1000.0 / instructions as f64,
            tft_hit_rate: if tft_lookups == 0 {
                carry_tft_rate
            } else {
                (now.tft_hits - self.tft_hits) as f64 / tft_lookups as f64
            },
            walk_mpki: (now.walks - self.walks) as f64 * 1000.0 / instructions as f64,
            ways_per_access: if accesses == 0 {
                0.0
            } else {
                (now.l1_ways_probed - self.l1_ways_probed) as f64 / accesses as f64
            },
        }
    }
}

/// A fully assembled system, ready to run one workload.
///
/// Constructed by [`System::build`] (which lives in the private
/// `build` module); see the crate-level example for typical use.
pub struct System {
    pub(crate) config: RunConfig,
    pub(crate) l1_design: L1Design,
    pub(crate) cores: Vec<Core>,
    pub(crate) uncore: Uncore,
}

impl System {
    /// Runs the configured instruction budget and reports the results.
    ///
    /// The run has two phases: a warmup (default: a third of the budget,
    /// capped at 500k instructions) that fills the caches, TLBs, and TFT
    /// without being measured — the paper's 10-billion-instruction traces
    /// make cold-start effects negligible, so measuring them here would
    /// distort every comparison — followed by the measured window, whose
    /// statistics are reported as deltas. Multi-core runs interleave the
    /// cores round-robin, one reference at a time, through both phases.
    ///
    /// # Errors
    /// Returns [`SimError::PageFault`] if the workload touches unmapped
    /// memory, and [`SimError::Check`] when the differential checker (if
    /// enabled) catches an invariant violation.
    pub fn run(self) -> Result<RunResult, SimError> {
        // The sink and the heartbeat probe are generic parameters of the
        // hot loop: the untraced path monomorphizes with `NullSink`
        // (every emit site compiles to nothing) and likewise the
        // unwatched path with `NoProgress`, so a plain run carries
        // neither. A supervised cell thread installs its heartbeat via
        // `status::set_cell_progress` before building the system; picking
        // it up from the thread-local here keeps `run`'s signature (and
        // every experiment driver above it) unchanged.
        match crate::status::current_cell_progress() {
            Some(cell) => {
                let progress = ActiveProgress::new(cell);
                if self.config.trace {
                    self.run_with_sink(RingSink::new(TRACE_RING_CAPACITY), progress)
                } else {
                    self.run_with_sink(NullSink, progress)
                }
            }
            None => {
                if self.config.trace {
                    self.run_with_sink(RingSink::new(TRACE_RING_CAPACITY), NoProgress)
                } else {
                    self.run_with_sink(NullSink, NoProgress)
                }
            }
        }
    }

    // Outlined so each sink instantiation stays a separate, compact
    // function: letting both the `NullSink` and `RingSink` bodies inline
    // into `run` fuses them into one oversized frame and degrades code
    // locality for the (hot) untraced path.
    #[inline(never)]
    fn run_with_sink<S: Sink, P: Progress>(
        mut self,
        mut sink: S,
        mut progress: P,
    ) -> Result<RunResult, SimError> {
        let n = self.cores.len();
        // Wall-clock per phase to stderr when SEESAW_PHASE_TIMING=1; the
        // profiling recipe in EXPERIMENTS.md builds on this.
        let phase_timing = std::env::var_os("SEESAW_PHASE_TIMING").is_some_and(|v| v == "1");
        let mut phase_clock = std::time::Instant::now();
        let mut phase_mark = |label: &str| {
            if phase_timing {
                eprintln!("[phase] {label} {:?}", phase_clock.elapsed());
                phase_clock = std::time::Instant::now();
            }
        };
        // Ops instrumentation shares `SEESAW_PHASE_TIMING`'s phase
        // boundaries: the heartbeat publishes the phase for live status,
        // and a traced run leaves the same boundaries as `phase` marker
        // events in the stream.
        if P::ENABLED {
            progress.set_phase(CellPhase::Prewarm);
        }
        if S::ENABLED {
            sink.emit(
                0,
                EventKind::Phase {
                    phase: CellPhase::Prewarm,
                },
            );
        }
        // Functional pre-warm in two interned stages. The paper measures
        // windows of traces that have been running for billions of
        // instructions, so the L2/LLC contents are in steady state;
        // without a prewarm, cold DRAM traffic would dominate the energy
        // of every design equally and mask the L1-level effects.
        //
        // Stage 1 — reference streams. Each core's prewarm stream is
        // synthesized in 64-reference batches, packed, and interned
        // process-wide by (workload, seed, core, count): a recurring cell
        // pays one Arc clone instead of re-running the mixture model's
        // RNG draws and `ln()` per reference. The warmup + measured loops
        // replay the same recording (Core::next_ref), so each reference
        // is synthesized exactly once per process and the spliced stream
        // is bit-identical to the generator's.
        let prewarm_refs = (self.config.instructions + self.config.instructions / 2) as usize;
        const PREWARM_CHUNK: usize = 64;
        for i in 0..n {
            let skey = format!(
                "{:?}|{}|{}|{}",
                self.config.workload, self.config.seed, i, prewarm_refs
            );
            let cached = stream_cache()
                .lock()
                .expect("stream cache lock")
                .get(&skey)
                .cloned();
            let art = match cached {
                Some(art) => art,
                None => {
                    let mut packed: Vec<u64> = Vec::with_capacity(prewarm_refs);
                    let mut scratch: Vec<TraceRef> = Vec::with_capacity(PREWARM_CHUNK);
                    while packed.len() < prewarm_refs {
                        scratch.clear();
                        let take = PREWARM_CHUNK.min(prewarm_refs - packed.len());
                        self.cores[i].generator.fill_refs(&mut scratch, take);
                        packed.extend(scratch.iter().map(|r| r.pack()));
                    }
                    let art = StreamArtifact {
                        refs: packed.into(),
                        generator: self.cores[i].generator.clone(),
                    };
                    let mut cache = stream_cache().lock().expect("stream cache lock");
                    if cache.len() >= STREAM_CACHE_CAP {
                        cache.clear();
                    }
                    cache.insert(skey, art.clone());
                    art
                }
            };
            self.cores[i].generator = art.generator;
            self.cores[i].replay = art.refs;
            self.cores[i].replay_cursor = 0;
        }

        // Stage 2 — functional pre-warm: replay each core's upcoming
        // stream against the outer hierarchy only (no timing, no energy,
        // no directory). The warmed outer state is interned by memory
        // image × cores × count × frequency × prefetch — the L1 plays no
        // part here, so one warmed image serves every L1 size and design
        // cell of a figure row as a straight clone.
        let wkey = format!(
            "{}|{}|{}|{:?}|{:?}",
            memory_image_key(&self.config),
            n,
            prewarm_refs,
            self.config.frequency,
            self.config.prefetch_degree
        );
        let warmed = warm_outer_cache()
            .lock()
            .expect("warm outer lock")
            .get(&wkey)
            .cloned();
        match warmed {
            Some(outer) => self.uncore.outer = outer,
            None => {
                for i in 0..n {
                    let stream = self.cores[i].replay.clone();
                    for &word in stream.iter() {
                        let r = TraceRef::unpack(word);
                        let va = self.uncore.vma.base().offset(r.offset);
                        if let Some(t) = self.cores[i].translate_cached(&self.uncore.space, va) {
                            self.uncore.outer.access(t.pa.raw() / 64, r.is_write);
                        }
                    }
                }
                let mut cache = warm_outer_cache().lock().expect("warm outer lock");
                if cache.len() >= WARM_OUTER_CAP {
                    cache.clear();
                }
                cache.insert(wkey, self.uncore.outer.clone());
            }
        }
        phase_mark("prewarm");

        let warmup = self
            .config
            .warmup_instructions
            .unwrap_or((self.config.instructions / 3).min(500_000));
        // Warmup: same loop, throwaway cores, no energy accounting, and
        // never traced — the measured window's events must reconcile with
        // the measured window's stat deltas. Directory state does warm:
        // probes flow between cores, they just go uncharged.
        let mut warm_cpus: Vec<InOrderCpu> = (0..n).map(|_| InOrderCpu::atom()).collect();
        let mut scratch: Vec<Counters> = (0..n).map(|_| Counters::default()).collect();
        if P::ENABLED {
            progress.set_phase(CellPhase::Warmup);
            // Heartbeat fractions are instructions-retired over this
            // target: both windows, across every core.
            progress.set_target(n as u64 * (warmup + self.config.instructions));
        }
        if S::ENABLED {
            sink.emit(
                0,
                EventKind::Phase {
                    phase: CellPhase::Warmup,
                },
            );
        }
        if let Err(e) = interleave(
            &self.config,
            self.l1_design,
            &mut self.cores,
            &mut self.uncore,
            &mut warm_cpus,
            warmup,
            false,
            &mut scratch,
            &mut NullSink,
            &mut progress,
        ) {
            return Err(self.attach_repro(e, &sink));
        }

        phase_mark("warmup");
        if P::ENABLED {
            progress.set_phase(CellPhase::Measure);
        }
        if S::ENABLED {
            sink.emit(
                0,
                EventKind::Phase {
                    phase: CellPhase::Measure,
                },
            );
        }
        // Snapshot per-core counters at the start of the measured window.
        struct CoreBefore {
            l1: CacheStats,
            tlb: TlbStats,
            tlb_l2: Option<TlbStats>,
            walker: WalkerStats,
            walk_hist: Log2Histogram,
            design: DesignStats,
        }
        let before: Vec<CoreBefore> = self
            .cores
            .iter()
            .map(|core| CoreBefore {
                l1: core.l1.cache_stats(),
                tlb: core.tlbs.l1_stats(),
                tlb_l2: core.tlbs.l2_stats(),
                walker: core.tlbs.walker_stats(),
                walk_hist: core.tlbs.walker_latency_hist(),
                design: core.l1.design_stats(),
            })
            .collect();

        // Monomorphized per core model: the inner loop calls `retire`
        // directly instead of through a vtable.
        let mut counters: Vec<Counters> = (0..n).map(|_| Counters::default()).collect();
        let per_core_totals: Vec<RunTotals> = match self.config.cpu {
            CpuKind::InOrder => {
                let mut cpus: Vec<InOrderCpu> = (0..n).map(|_| InOrderCpu::atom()).collect();
                if let Err(e) = interleave(
                    &self.config,
                    self.l1_design,
                    &mut self.cores,
                    &mut self.uncore,
                    &mut cpus,
                    self.config.instructions,
                    true,
                    &mut counters,
                    &mut sink,
                    &mut progress,
                ) {
                    return Err(self.attach_repro(e, &sink));
                }
                cpus.iter().map(CpuModel::totals).collect()
            }
            CpuKind::OutOfOrder => {
                let mut cpus: Vec<OooCpu> = (0..n).map(|_| OooCpu::sandybridge()).collect();
                if let Err(e) = interleave(
                    &self.config,
                    self.l1_design,
                    &mut self.cores,
                    &mut self.uncore,
                    &mut cpus,
                    self.config.instructions,
                    true,
                    &mut counters,
                    &mut sink,
                    &mut progress,
                ) {
                    return Err(self.attach_repro(e, &sink));
                }
                cpus.iter().map(CpuModel::totals).collect()
            }
        };

        phase_mark("measured");
        // The run's makespan is the slowest core; work sums across cores.
        let totals = RunTotals {
            cycles: per_core_totals.iter().map(|t| t.cycles).max().unwrap_or(0),
            instructions: per_core_totals.iter().map(|t| t.instructions).sum(),
            squashes: per_core_totals.iter().map(|t| t.squashes).sum(),
        };
        let runtime_ns = totals.cycles as f64 / self.config.frequency.ghz();

        // Per-core measured-window deltas, then fieldwise aggregates
        // (every aggregate reduces to the lone core's delta when n = 1).
        let mut l1_stats = CacheStats::default();
        let mut tlb_stats = TlbStats::default();
        let mut tlb_l2_stats: Option<TlbStats> = None;
        let mut walker_total = WalkerStats::default();
        let mut seesaw_stats = SeesawStats::default();
        let mut tft_stats = TftStats::default();
        let mut vespa_stats: Option<VespaStats> = None;
        let mut waypred_stats: Option<WayPredictionStats> = None;
        let mut walk_latency: Option<Log2Histogram> = None;
        let mut miss_penalty: Option<Log2Histogram> = None;
        let mut core_results: Vec<CoreResult> = Vec::with_capacity(n);
        for (i, core) in self.cores.iter_mut().enumerate() {
            let b = &before[i];
            let l1 = core.l1.cache_stats().delta(&b.l1);
            let now = core.l1.design_stats();
            let seesaw = window(now.seesaw, b.design.seesaw);
            let tft = window(now.tft, b.design.tft);
            if let Some(v) = now.vespa {
                merge_window(&mut vespa_stats, &v, b.design.vespa);
            }
            if let Some(wp) = now.way_prediction {
                merge_window(&mut waypred_stats, &wp, b.design.way_prediction);
            }
            let wp_acc = now.way_prediction.map(|wp| wp.accuracy());
            if let Some(now) = core.tlbs.l2_stats() {
                merge_window(&mut tlb_l2_stats, &now, b.tlb_l2);
            }
            let tlb = core.tlbs.l1_stats().delta(&b.tlb);
            let walker = core.tlbs.walker_stats().delta(&b.walker);
            let walk_hist = core.tlbs.walker_latency_hist().delta(&b.walk_hist);
            l1_stats.merge(&l1);
            tlb_stats.merge(&tlb);
            walker_total.merge(&walker);
            seesaw_stats.merge(&seesaw);
            tft_stats.merge(&tft);
            match walk_latency.as_mut() {
                Some(h) => h.merge(&walk_hist),
                None => walk_latency = Some(walk_hist),
            }
            match miss_penalty.as_mut() {
                Some(h) => h.merge(&counters[i].miss_penalty),
                None => miss_penalty = Some(counters[i].miss_penalty),
            }
            let ctr = &mut counters[i];
            core_results.push(CoreResult {
                core: core.id,
                totals: per_core_totals[i],
                l1,
                tlb_l1: tlb,
                walks: walker.walks,
                seesaw,
                tft,
                coherence_probes: ctr.coherence_probes,
                superpage_ref_fraction: if ctr.total_refs == 0 {
                    0.0
                } else {
                    ctr.super_refs as f64 / ctr.total_refs as f64
                },
                way_prediction_accuracy: wp_acc,
                faults: core.injector.as_ref().map(|inj| inj.stats()),
                checker: core.checker.as_ref().map(|c| c.summary()),
                samples: std::mem::take(&mut ctr.samples),
            });
        }
        let walk_latency = walk_latency.unwrap_or_default();
        let miss_penalty = miss_penalty.unwrap_or_default();
        let super_refs: u64 = counters.iter().map(|c| c.super_refs).sum();
        let total_refs: u64 = counters.iter().map(|c| c.total_refs).sum();
        let coherence_probes: u64 = counters.iter().map(|c| c.coherence_probes).sum();
        let faults = self.config.faults.is_some().then(|| {
            let mut total = InjectionStats::default();
            core_results
                .iter()
                .filter_map(|r| r.faults.as_ref())
                .for_each(|f| total.merge(f));
            total
        });
        let checker = self.config.checker.then(|| {
            let mut total = CheckerSummary::default();
            core_results
                .iter()
                .filter_map(|r| r.checker.as_ref())
                .for_each(|c| total.merge(c));
            total
        });
        let coherence = self.uncore.coherence.as_ref().map(|d| d.stats());
        // Dynamic energy accumulated globally during the interleave;
        // leakage charges every L1 instance for the makespan.
        let energy = self.uncore.account.finish_many(runtime_ns, n as u64);
        let trace = sink.finish();

        // One flat namespaced snapshot of every counter (the `counters!`
        // declarations export every field, so none can be missing).
        let mut metrics = MetricsRegistry::new();
        totals.collect("cpu", &mut metrics);
        l1_stats.collect("l1", &mut metrics);
        miss_penalty.collect("l1.miss_penalty", &mut metrics);
        tlb_stats.collect("tlb.l1", &mut metrics);
        if let Some(l2) = tlb_l2_stats.as_ref() {
            l2.collect("tlb.l2", &mut metrics);
        }
        walker_total.collect("tlb.walker", &mut metrics);
        walk_latency.collect("tlb.walk_latency", &mut metrics);
        seesaw_stats.collect("seesaw", &mut metrics);
        tft_stats.collect("tft", &mut metrics);
        if let Some(v) = vespa_stats.as_ref() {
            v.collect("vespa", &mut metrics);
        }
        if let Some(wp) = waypred_stats.as_ref() {
            wp.collect("l1.waypred", &mut metrics);
        }
        {
            // Measured average load-to-use latency over L1 hits: the
            // head-to-head hit-latency column of the designs driver.
            let hits: u64 = counters.iter().map(|c| c.hits).sum();
            let cycles: u64 = counters.iter().map(|c| c.hit_cycles).sum();
            metrics.set_f64(
                "l1.avg_hit_latency_cycles",
                if hits == 0 {
                    0.0
                } else {
                    cycles as f64 / hits as f64
                },
            );
        }
        energy.collect("energy", &mut metrics);
        let (l2_cache, llc, dram_accesses, writebacks_received) = self.uncore.outer.stats();
        l2_cache.collect("outer.l2", &mut metrics);
        llc.collect("outer.llc", &mut metrics);
        metrics.set_u64("outer.dram_accesses", dram_accesses);
        metrics.set_u64("outer.writebacks_received", writebacks_received);
        if let Some(pf) = self.uncore.outer.prefetch_stats() {
            pf.collect("outer.prefetch", &mut metrics);
        }
        self.uncore
            .space
            .thp_stats()
            .collect("os.thp", &mut metrics);
        self.uncore.pmem.stats().collect("os.buddy", &mut metrics);
        if let Some(synonyms) = self.cores[0].l1.design_stats().synonyms {
            synonyms.collect("vivt", &mut metrics);
        }
        if let Some(f) = faults.as_ref() {
            f.collect("faults", &mut metrics);
        }
        if let Some(c) = checker.as_ref() {
            c.collect("checker", &mut metrics);
        }
        if let Some(c) = coherence.as_ref() {
            c.collect("coherence", &mut metrics);
        }
        metrics.set_u64("coherence.probes", coherence_probes);
        metrics.set_f64(
            "os.superpage_coverage",
            self.uncore.space.superpage_coverage(),
        );
        if n > 1 {
            for r in &core_results {
                let p = format!("core{}", r.core);
                r.totals.collect(&format!("{p}.cpu"), &mut metrics);
                r.l1.collect(&format!("{p}.l1"), &mut metrics);
                metrics.set_u64(&format!("{p}.coherence_probes"), r.coherence_probes);
            }
        }
        if let Some(t) = trace.as_ref() {
            t.counts.collect("trace.events", &mut metrics);
            metrics.set_u64("trace.dropped", t.dropped);
        }

        let result = RunResult {
            totals,
            runtime_ns,
            energy,
            l1: l1_stats,
            l1_mpki: l1_stats.mpki(totals.instructions),
            tlb_l1: tlb_stats,
            walks: walker_total.walks,
            seesaw: seesaw_stats,
            tft: tft_stats,
            superpage_coverage: self.uncore.space.superpage_coverage(),
            superpage_ref_fraction: if total_refs == 0 {
                0.0
            } else {
                super_refs as f64 / total_refs as f64
            },
            way_prediction_accuracy: core_results[0].way_prediction_accuracy,
            coherence_probes,
            demotions: self.uncore.space.thp_stats().demoted_slices + self.uncore.run_demotions,
            faults,
            checker,
            samples: core_results[0].samples.clone(),
            walk_latency,
            miss_penalty,
            metrics,
            trace,
            coherence,
            cores: core_results,
        };
        Ok(result)
    }

    /// Superpage coverage of the populated footprint (available before
    /// running — Fig. 3 only needs this).
    pub fn superpage_coverage(&self) -> f64 {
        self.uncore.space.superpage_coverage()
    }

    /// Packages a checker violation into a [`crate::ReproBundle`] and
    /// attaches it to the error, so every caller of [`System::run`] — the
    /// runner's worker pool included — gets a replayable artifact for
    /// free. Only [`SimError::Check`] from a fault-injected run qualifies:
    /// without an injector the run is already deterministic from its
    /// `RunConfig` alone and needs no schedule capture.
    fn attach_repro<S: Sink>(&self, err: SimError, sink: &S) -> SimError {
        let SimError::Check(mut v) = err else {
            return err;
        };
        if v.repro.is_none() {
            if let Some(fault) = self.config.faults {
                let core = self
                    .cores
                    .iter()
                    .position(|c| {
                        c.checker
                            .as_ref()
                            .is_some_and(|ch| ch.summary().violations.total() > 0)
                    })
                    .unwrap_or(0);
                let bundle = crate::repro::build_bundle(
                    &self.config,
                    fault,
                    &self.cores,
                    core,
                    &v,
                    sink.tail_jsonl(crate::repro::EVENT_TAIL_LINES),
                );
                v.autosaved = crate::repro::autosave(&bundle);
                v.repro = Some(Box::new(bundle));
            }
        }
        SimError::Check(v)
    }
}

/// Per-core interleave bookkeeping: one instance per core, replicating
/// the schedule state the single-core loop kept in locals.
struct Schedule {
    executed: u64,
    next_sample: u64,
    window: SampleWindow,
    last_tft_rate: f64,
    next_switch: u64,
    next_page_op: u64,
    page_op_toggle: bool,
}

/// Runs `instructions` instructions per core through the memory system,
/// round-robin one reference at a time so cross-core effects (coherence
/// probes, shootdowns, shared-page-table churn) land deterministically.
/// When `measure` is false (warmup), energy and probe counters are not
/// charged; hardware state (caches, TLBs, TFT, predictors, directory)
/// warms either way.
///
/// The sink is a compile-time parameter: every `if S::ENABLED` guard
/// below is a constant branch, so the untraced instantiation carries no
/// event-emission code at all. Kept out-of-line for code locality: one
/// call per window amortizes to nothing, while inlining four
/// instantiations into the caller bloats it past the instruction cache.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn interleave<C: CpuModel, S: Sink, P: Progress>(
    config: &RunConfig,
    design: L1Design,
    cores: &mut [Core],
    uncore: &mut Uncore,
    cpus: &mut [C],
    instructions: u64,
    measure: bool,
    counters: &mut [Counters],
    sink: &mut S,
    progress: &mut P,
) -> Result<(), SimError> {
    let miss_squash = OooCpu::sandybridge().miss_squash_cycles();
    let is_ooo = config.cpu == CpuKind::OutOfOrder;
    let is_seesaw = design.has_tft;
    let is_vivt = design.virtually_tagged;
    let line_bytes = 64u64;
    let n = cores.len();

    // Loop-invariant schedule periods, and the scheduler-hint
    // assumption for the stateless policies — `Occupancy` is the only
    // one that must consult the TLB, and only SEESAW hits on the
    // out-of-order core ever read the answer, so it is computed
    // lazily in that branch below.
    let sample_every = config.sample_interval.unwrap_or(u64::MAX);
    let switch_every = config.context_switch_interval.unwrap_or(u64::MAX);
    let page_op_every = config.page_op_interval.unwrap_or(u64::MAX);
    let static_assumption = match config.scheduler_hint {
        SchedulerHintPolicy::Occupancy => None,
        SchedulerHintPolicy::AlwaysFast => Some(HitTimeAssumption::Fast),
        SchedulerHintPolicy::AlwaysSlow => Some(HitTimeAssumption::Slow),
    };

    let mut sched: Vec<Schedule> = (0..n)
        .map(|i| Schedule {
            executed: 0,
            next_sample: if measure { sample_every } else { u64::MAX },
            window: SampleWindow::capture(&cores[i], &cpus[i]),
            last_tft_rate: 0.0,
            next_switch: switch_every,
            next_page_op: page_op_every,
            page_op_toggle: false,
        })
        .collect();

    // `stop_at_instruction` cuts each core's budget at a *global*
    // executed-instruction count (warmup + measured), so the shrinker can
    // halt a replay right after its violation. `elapsed` carries the
    // instructions from earlier phases.
    let limits: Vec<u64> = match config.stop_at_instruction {
        Some(stop) => cores
            .iter()
            .map(|c| instructions.min(stop.saturating_sub(c.elapsed)))
            .collect(),
        None => vec![instructions; n],
    };

    loop {
        let mut alive = false;
        for i in 0..n {
            if sched[i].executed >= limits[i] {
                continue;
            }
            alive = true;
            if S::ENABLED {
                sink.set_core(i as u16);
            }

            // --- Core-private portion: this core's reference against its
            // own TLBs and L1, with the shared outer hierarchy behind its
            // misses. Identical, statement for statement, to the
            // single-core loop this replaces.
            let (at, va, pa, is_write) = {
                let st = &mut sched[i];
                let core = &mut cores[i];
                let cpu = &mut cpus[i];
                let ctr = &mut counters[i];

                let tref = core.next_ref();
                let va = uncore.vma.base().offset(tref.offset);
                let at = core.elapsed + st.executed;

                // Translation (parallel with cache indexing for V-indexed L1s).
                let lookup = core
                    .tlbs
                    .lookup(va, &uncore.space)
                    .ok_or(SimError::PageFault { va: va.raw() })?;
                if S::ENABLED {
                    let level = match lookup.level {
                        TlbLevel::L1 => TranslationLevel::L1,
                        TlbLevel::L2 => TranslationLevel::L2,
                        TlbLevel::PageWalk => TranslationLevel::Walk,
                    };
                    sink.emit(at, EventKind::TlbLookup { level });
                    if lookup.level == TlbLevel::PageWalk {
                        sink.emit(
                            at,
                            EventKind::WalkEnd {
                                cycles: lookup.cost_cycles as u32,
                                superpage: lookup.entry.size.is_superpage(),
                            },
                        );
                    }
                }
                // VIVT hits never consult the TLB; its translation energy is
                // charged below, only for misses.
                if measure && !is_vivt {
                    uncore.account.tlb_l1();
                    match lookup.level {
                        TlbLevel::L1 => {}
                        TlbLevel::L2 => uncore.account.tlb_l2(),
                        TlbLevel::PageWalk => {
                            uncore.account.tlb_l2();
                            uncore.account.page_walk();
                        }
                    }
                }
                if is_seesaw {
                    for page in &lookup.superpage_l1_fills {
                        core.l1.tft_fill(page.base());
                        if S::ENABLED {
                            sink.emit(at, EventKind::TftFill);
                        }
                    }
                }

                let pa = lookup.entry.translate(va);
                let page_size = lookup.entry.size;
                if page_size.is_superpage() {
                    ctr.super_refs += 1;
                }
                ctr.total_refs += 1;

                let req = L1Request {
                    va,
                    pa,
                    page_size,
                    is_write: tref.is_write,
                };
                let out = core.l1.access(&req);
                if S::ENABLED {
                    if let Some(hit) = out.tft_hit {
                        sink.emit(at, EventKind::TftLookup { hit });
                    }
                    sink.emit(
                        at,
                        EventKind::PartitionLookup {
                            ways_probed: out.ways_probed.min(u8::MAX as usize) as u8,
                            hit: out.hit,
                        },
                    );
                }

                // Differential shadow check: the hardware's translation and
                // TFT verdict against the page table's ground truth and the
                // program's reference memory.
                if core.checker.is_some() {
                    let authoritative = core
                        .translate_cached(&uncore.space, va)
                        .ok_or(SimError::PageFault { va: va.raw() })?;
                    let checker = core.checker.as_mut().expect("checked above");
                    if let Err(v) = checker.check_access(
                        at,
                        &AccessCheck {
                            va: va.raw(),
                            pa: pa.raw(),
                            authoritative_pa: authoritative.pa.raw(),
                            is_superpage: authoritative.page_size.is_superpage(),
                            tft_hit: out.tft_hit,
                            is_write: tref.is_write,
                        },
                    ) {
                        if S::ENABLED {
                            sink.emit(
                                at,
                                EventKind::Violation {
                                    kind: v.kind.name(),
                                },
                            );
                        }
                        return Err(v.into());
                    }
                    // A µtag hit served without tag verification (the
                    // `skip_way_verification` chaos knob) may have returned
                    // the wrong way's data: audit it as an alias violation.
                    if let Some(way) = out.unverified_alias_way {
                        if let Err(v) = checker.audit_way_prediction(at, va.raw(), way, false) {
                            if S::ENABLED {
                                sink.emit(
                                    at,
                                    EventKind::Violation {
                                        kind: v.kind.name(),
                                    },
                                );
                            }
                            return Err(v.into());
                        }
                    }
                }

                let mut squash_cycles = 0u64;
                if is_seesaw {
                    if measure {
                        uncore.account.tft_lookup();
                    }
                    // Refresh on confirmation: when the TFT missed but the TLB
                    // (which hit a 2 MB entry) proves the access is a
                    // superpage, re-mark the region. The paper only draws the
                    // TLB-fill arrows in Fig. 5, but the information is
                    // already at the TFT's write port, and without the refresh
                    // a direct-mapped conflict pair would stay cold between
                    // TLB misses.
                    if out.tft_hit == Some(false) && page_size.is_superpage() {
                        core.l1.tft_fill(va);
                        if S::ENABLED {
                            sink.emit(at, EventKind::TftFill);
                        }
                    }
                }
                if measure {
                    uncore.account.cpu_lookup(out.ways_probed);
                }

                // Assemble load-to-use latency.
                let mut latency = if design.serializes {
                    // PIPT: the TLB access (2 cycles for an L1 TLB hit, plus
                    // any miss cost) fully precedes the array access.
                    2 + lookup.cost_cycles + out.latency_cycles
                } else if is_vivt {
                    // VIVT: hits are translation-free; misses translate on the
                    // way to the L2 (added below with the miss cost).
                    out.latency_cycles
                } else {
                    // VIPT: set selection overlaps translation; the tag
                    // compare waits for the (possibly slow) translation.
                    out.latency_cycles.max(lookup.cost_cycles + 1)
                };

                if !out.hit {
                    let ptag = pa.raw() / line_bytes;
                    let (level, miss_cycles) = uncore.outer.access(ptag, req.is_write);
                    if measure {
                        ctr.miss_penalty.record(miss_cycles);
                    }
                    if is_vivt {
                        // The translation VIVT deferred happens on the miss path.
                        latency += lookup.cost_cycles + 1;
                        if measure {
                            uncore.account.tlb_l1();
                            if lookup.level != TlbLevel::L1 {
                                uncore.account.tlb_l2();
                            }
                            if lookup.level == TlbLevel::PageWalk {
                                uncore.account.page_walk();
                            }
                        }
                    }
                    if measure {
                        uncore.account.l2_access();
                        if level >= MemoryLevel::Llc {
                            uncore.account.llc_access();
                        }
                        if level == MemoryLevel::Dram {
                            uncore.account.dram_access();
                        }
                        uncore.account.l1_fill();
                    }
                    latency += miss_cycles;
                    // Loads are speculatively scheduled as hits on any OoO
                    // design; a miss squashes dependents (equally for the
                    // baseline and SEESAW).
                    if is_ooo {
                        squash_cycles = miss_squash;
                    }
                    if let Some(evicted) = out.evicted {
                        if evicted.dirty {
                            uncore.outer.writeback(evicted.ptag);
                            if measure {
                                uncore.account.l2_access();
                            }
                        }
                    }
                } else if is_ooo && is_seesaw {
                    // Scheduler hit-time assumption (§IV-B3): only meaningful
                    // for SEESAW hits on the out-of-order core, so the
                    // occupancy query runs here rather than once per
                    // reference. Nothing between the TLB lookup above and this
                    // point mutates the TLB, so the answer is the one the
                    // per-reference query produced.
                    let assumption = static_assumption.unwrap_or_else(|| {
                        let (valid, cap) = core.tlbs.superpage_l1_occupancy();
                        core.hint.assumption(valid, cap)
                    });
                    match assumption {
                        HitTimeAssumption::Fast => {
                            // The TFT answers within a quarter cycle (§IV-A2),
                            // so a base-page discovery re-schedules dependents
                            // before they issue: by default that costs nothing
                            // (configurable, to study deeper pipelines).
                            if !out.fast_assumption_held {
                                squash_cycles = config.hit_time_squash_cycles;
                            }
                        }
                        HitTimeAssumption::Slow => {
                            // Dependents were scheduled for the slow time; a
                            // fast hit completes early without helping.
                            latency = latency.max(design.timing.slow_cycles);
                        }
                    }
                }
                // A way-predictor mispredict replays the dependents that woke
                // for the predicted-way hit time.
                if is_ooo && out.way_prediction_correct == Some(false) {
                    squash_cycles = squash_cycles.max(2);
                }
                if measure && out.hit {
                    ctr.hits += 1;
                    ctr.hit_cycles += latency;
                }

                cpu.retire(tref.gap, latency, squash_cycles);
                st.executed += tref.gap + 1;
                if P::ENABLED {
                    progress.add(tref.gap + 1);
                }

                // Synthetic coherence probes that arrived during this window
                // (the cores = 1 fallback; absent when the directory below
                // generates the real thing).
                if let Some(traffic) = core.traffic.as_mut() {
                    traffic.record_line(pa.raw() / line_bytes);
                    for probe in traffic.step(tref.gap + 1) {
                        let (_, ways) = core.l1.coherence_probe(
                            PhysAddr::new(probe.ptag * line_bytes),
                            probe.invalidate,
                        );
                        if S::ENABLED {
                            sink.emit(
                                at,
                                EventKind::CoherenceProbe {
                                    ways_probed: ways.min(u8::MAX as usize) as u8,
                                    invalidate: probe.invalidate,
                                },
                            );
                        }
                        if measure {
                            uncore.account.coherence_lookup(ways);
                            ctr.coherence_probes += 1;
                        }
                    }
                }

                (at, va, pa, tref.is_write)
            };

            // --- Real coherence: this reference announces itself to the
            // directory (or snoopy bus), and every resulting probe lands in
            // the peer timing L1 it targets — no synthetic traffic at all.
            let ptag = pa.raw() / line_bytes;
            if let Some(dir) = uncore.coherence.as_mut() {
                for p in dir.access(i, ptag, is_write).probes {
                    let (_, ways) = cores[p.target]
                        .l1
                        .coherence_probe(PhysAddr::new(ptag * line_bytes), p.invalidate);
                    if S::ENABLED {
                        // The probe is the target core's event; the timeline
                        // position is the initiator's, which is when it fired.
                        sink.set_core(p.target as u16);
                        sink.emit(
                            at,
                            EventKind::CoherenceProbe {
                                ways_probed: ways.min(u8::MAX as usize) as u8,
                                invalidate: p.invalidate,
                            },
                        );
                        sink.set_core(i as u16);
                    }
                    if p.writeback {
                        uncore.outer.writeback(ptag);
                        if measure {
                            uncore.account.l2_access();
                        }
                    }
                    if measure {
                        uncore.account.coherence_lookup(ways);
                        counters[p.target].coherence_probes += 1;
                    }
                }
            }

            // Telemetry window boundary.
            if sched[i].executed >= sched[i].next_sample {
                sched[i].next_sample += sample_every;
                let now = SampleWindow::capture(&cores[i], &cpus[i]);
                let sample = sched[i].window.delta(&now, sched[i].last_tft_rate);
                sched[i].last_tft_rate = sample.tft_hit_rate;
                counters[i].samples.push(sample);
                sched[i].window = now;
            }

            // Context switches flush the (ASID-less) TFT and µtag: every
            // prediction goes cold, data stays resident.
            if sched[i].executed >= sched[i].next_switch {
                sched[i].next_switch += switch_every;
                if S::ENABLED {
                    sink.emit(at, EventKind::ContextSwitch);
                }
                cores[i].l1.context_switch();
                if S::ENABLED && is_seesaw {
                    sink.emit(at, EventKind::TftFlush);
                }
            }

            // Legacy OS page-table churn schedule: a deterministic
            // splinter/re-promote alternation at a fixed interval, routed
            // through the same fault-application path as the injector.
            if sched[i].executed >= sched[i].next_page_op {
                sched[i].next_page_op += page_op_every;
                let now_at = cores[i].elapsed + sched[i].executed;
                let promote = sched[i].page_op_toggle;
                apply_page_op(cores, uncore, i, va, promote, now_at, sink)?;
                sched[i].page_op_toggle = !sched[i].page_op_toggle;
            }

            // Randomized fault injection (the general mechanism).
            let now_at = cores[i].elapsed + sched[i].executed;
            if let Some(kind) = cores[i].injector.as_mut().and_then(|inj| inj.poll(now_at)) {
                apply_fault(config, design, cores, uncore, i, kind, now_at, sink)?;
            }
        }
        if !alive {
            break;
        }
    }
    for (core, st) in cores.iter_mut().zip(&sched) {
        core.elapsed += st.executed;
    }
    if P::ENABLED {
        progress.flush();
    }
    Ok(())
}

/// Splinters (or re-promotes) the 2 MB region containing `va`,
/// delivering the invalidation events to every core's TLBs — the page
/// table is shared, so a change on one core is a shootdown on all —
/// and to every L1 design that must observe them, mirroring the
/// transition into each core's shadow model and running the structural
/// audits. Shared by the legacy `page_op_interval` schedule and the
/// fault injector.
///
/// A promotion that fails for lack of contiguous physical memory is
/// graceful degradation, not an error: the region stays base-paged and
/// the demotion is counted.
fn apply_page_op<S: Sink>(
    cores: &mut [Core],
    uncore: &mut Uncore,
    initiator: usize,
    va: VirtAddr,
    promote: bool,
    instruction: u64,
    sink: &mut S,
) -> Result<(), SimError> {
    // The shared page table is about to change shape; no core's
    // interned translations may serve a stale mapping.
    for core in cores.iter_mut() {
        core.xlate.invalidate();
    }
    let result = if promote {
        uncore.space.promote(&mut uncore.pmem, va)
    } else {
        uncore.space.splinter(&mut uncore.pmem, va)
    };
    match result {
        Ok(_) => {}
        Err(MemError::Fragmented { .. } | MemError::OutOfMemory { .. }) if promote => {
            uncore.run_demotions += 1;
            let region = VirtAddr::new(va.raw() & !(PageSize::Super2M.bytes() - 1));
            if S::ENABLED {
                sink.emit(
                    instruction,
                    EventKind::Demotion {
                        region_va: region.raw(),
                    },
                );
            }
            for core in cores.iter_mut() {
                if let Some(checker) = core.checker.as_mut() {
                    checker.record_event(
                        instruction,
                        CheckEvent::PromotionDemoted {
                            region_va: region.raw(),
                        },
                    );
                }
            }
            return Ok(());
        }
        // The region is not currently in the right state (already
        // splintered / already promoted / outside the heap): benign.
        Err(_) => return Ok(()),
    }
    let chaos = cores[initiator]
        .injector
        .as_ref()
        .map(|i| i.config().chaos)
        .unwrap_or_default();
    for op in uncore.space.drain_ops() {
        // A real shootdown: every core's TLBs observe the invalidation.
        for core in cores.iter_mut() {
            core.tlbs.handle_op(&op);
        }
        if S::ENABLED {
            match &op {
                PageTableOp::Splintered(page) => sink.emit(
                    instruction,
                    EventKind::Splinter {
                        region_va: page.base().raw(),
                    },
                ),
                PageTableOp::Promoted { page, .. } => sink.emit(
                    instruction,
                    EventKind::Promotion {
                        region_va: page.base().raw(),
                    },
                ),
                PageTableOp::Unmapped(page) => sink.emit(
                    instruction,
                    EventKind::Shootdown {
                        page_va: page.base().raw(),
                    },
                ),
                PageTableOp::Mapped(_) => {}
            }
        }
        // ChaosConfig knobs deliberately lose the L1-side invalidation
        // so tests can prove the checker catches the corruption.
        let dropped = match &op {
            PageTableOp::Splintered(_) => chaos.drop_tft_invalidation_on_splinter,
            PageTableOp::Promoted { .. } => chaos.drop_promotion_sweep,
            _ => false,
        };
        if !dropped {
            for core in cores.iter_mut() {
                core.l1.handle_op(&op);
            }
        }
        for core in cores.iter_mut() {
            if let Err(e) = observe_op(core, &uncore.space, &op, instruction) {
                if S::ENABLED {
                    if let SimError::Check(v) = &e {
                        sink.emit(
                            instruction,
                            EventKind::Violation {
                                kind: v.kind.name(),
                            },
                        );
                    }
                }
                return Err(e);
            }
        }
    }
    if promote {
        // Promotion copies the region into the new 2 MB frame; the
        // kernel's copy streams through the cache hierarchy, so the
        // new frame's lines are LLC-resident afterwards.
        if let Some(t) = uncore.space.translate(va) {
            let first = t.frame.base().raw() / 64;
            let lines = PageSize::Super2M.bytes() / 64;
            for line in first..first + lines {
                uncore.outer.access(line, true);
            }
        }
    }
    Ok(())
}

/// Mirrors one page-table operation into one core's shadow model and
/// runs the structural audits that must hold immediately afterwards.
fn observe_op(
    core: &mut Core,
    space: &AddressSpace,
    op: &PageTableOp,
    instruction: u64,
) -> Result<(), SimError> {
    let Some(checker) = core.checker.as_mut() else {
        return Ok(());
    };
    match op {
        PageTableOp::Splintered(page) => {
            let region_va = page.base().raw();
            checker.observe_splinter(instruction, region_va);
            // §IV-C2 precision: the TFT must no longer vouch for the
            // splintered region.
            if let Some(still_vouches) = core.l1.tft_probe(page.base()) {
                checker.audit_splinter_tft(instruction, region_va, still_vouches)?;
            }
        }
        PageTableOp::Promoted { page, old_frames } => {
            let region_va = page.base().raw();
            let new_frame = space
                .translate(page.base())
                .map(|t| t.frame.base().raw())
                .unwrap_or(0);
            // old_frames arrive in VA order: frame i backs region
            // offset i × 4 KB.
            let frames: Vec<(u64, u64, u64)> = old_frames
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    (
                        f.base().raw(),
                        f.size().bytes(),
                        i as u64 * PageSize::Base4K.bytes(),
                    )
                })
                .collect();
            checker.observe_promotion(instruction, region_va, new_frame, &frames);
            match core.l1.promotion_audit(old_frames) {
                // No line of the migrated-away frames may survive the
                // promotion sweep, and (§IV-C1) every resident line must
                // sit in the partition its physical address names.
                Some(PromotionAudit::Swept {
                    resident,
                    unreachable,
                }) => {
                    checker.audit_promotion_sweep(instruction, region_va, resident)?;
                    if let Some(unreachable) = unreachable {
                        checker.audit_partitions(instruction, unreachable)?;
                    }
                }
                // VIVT back-pointers must not reference the frames the
                // promotion freed.
                Some(PromotionAudit::Mappings(plines)) => {
                    checker.audit_physical_mappings(instruction, plines)?;
                }
                None => {}
            }
        }
        PageTableOp::Unmapped(page) => {
            checker.record_event(
                instruction,
                CheckEvent::Shootdown {
                    page_va: page.base().raw(),
                },
            );
        }
        PageTableOp::Mapped(_) => {}
    }
    Ok(())
}

/// Applies one fault injected on `initiator`'s schedule. Globally
/// visible faults (page-table reshapes, shootdowns, memory pressure)
/// broadcast to every core; core-local ones (TFT storms, context
/// switches) stay on the initiator.
#[allow(clippy::too_many_arguments)]
fn apply_fault<S: Sink>(
    config: &RunConfig,
    design: L1Design,
    cores: &mut [Core],
    uncore: &mut Uncore,
    initiator: usize,
    kind: FaultKind,
    instruction: u64,
    sink: &mut S,
) -> Result<(), SimError> {
    // Every fault kind may reshape translations (splinters,
    // promotions, pressure-driven remaps); drop the interned
    // translations wholesale rather than reason per-kind.
    for core in cores.iter_mut() {
        core.xlate.invalidate();
    }
    if S::ENABLED {
        sink.emit(instruction, EventKind::Fault { kind: kind.name() });
    }
    for core in cores.iter_mut() {
        if let Some(checker) = core.checker.as_mut() {
            checker.record_event(instruction, CheckEvent::Injected(kind));
        }
    }
    let footprint = config.workload.footprint_bytes();
    let regions = (footprint / PageSize::Super2M.bytes()).max(1) as usize;
    match kind {
        FaultKind::Splinter | FaultKind::Promote => {
            let region = pick(&mut cores[initiator], regions);
            let va = uncore
                .vma
                .base()
                .offset(region as u64 * PageSize::Super2M.bytes());
            apply_page_op(
                cores,
                uncore,
                initiator,
                va,
                kind == FaultKind::Promote,
                instruction,
                sink,
            )?;
        }
        FaultKind::TlbShootdown => {
            // A spurious shootdown: the TLBs — all of them, the page
            // table is shared — drop a mapping it still holds. Harmless
            // by design — the next access refills from the (unchanged)
            // page table — and exactly the event a stale-translation bug
            // would hide behind.
            let pages = (footprint / PageSize::Base4K.bytes()).max(1) as usize;
            let page = pick(&mut cores[initiator], pages);
            let va = uncore
                .vma
                .base()
                .offset(page as u64 * PageSize::Base4K.bytes());
            if let Some(t) = uncore.space.translate(va) {
                let op = PageTableOp::Unmapped(t.vpage);
                for core in cores.iter_mut() {
                    core.tlbs.handle_op(&op);
                }
                if S::ENABLED {
                    sink.emit(
                        instruction,
                        EventKind::Shootdown {
                            page_va: t.vpage.base().raw(),
                        },
                    );
                }
                for core in cores.iter_mut() {
                    if let Some(checker) = core.checker.as_mut() {
                        checker.record_event(
                            instruction,
                            CheckEvent::Shootdown {
                                page_va: t.vpage.base().raw(),
                            },
                        );
                    }
                }
            }
        }
        FaultKind::TftStorm => {
            // Conflict-alias the initiator's direct-mapped TFT with fills
            // for many genuinely superpage-backed regions, forcing
            // evictions of live entries. Base-paged regions are never
            // filled — that would be injecting the very bug the TFT's
            // precision invariant forbids.
            for _ in 0..16 {
                let region = pick(&mut cores[initiator], regions);
                let va = uncore
                    .vma
                    .base()
                    .offset(region as u64 * PageSize::Super2M.bytes());
                let backed_super = uncore
                    .space
                    .translate(va)
                    .is_some_and(|t| t.page_size.is_superpage());
                if backed_super && design.has_tft {
                    cores[initiator].l1.tft_fill(va);
                    if S::ENABLED {
                        sink.emit(instruction, EventKind::TftFill);
                    }
                }
            }
        }
        FaultKind::ContextSwitch => {
            if S::ENABLED {
                sink.emit(instruction, EventKind::ContextSwitch);
            }
            cores[initiator].l1.context_switch();
            if S::ENABLED && design.has_tft {
                sink.emit(instruction, EventKind::TftFlush);
            }
            if let Some(checker) = cores[initiator].checker.as_mut() {
                checker.record_event(instruction, CheckEvent::ContextSwitch);
            }
        }
        FaultKind::MemPressure => {
            // A fresh co-runner grabs a slice of physical memory,
            // fragmenting the free lists (Memhog instances are
            // single-use, so each pressure event gets its own).
            let seed = config.seed ^ (pick(&mut cores[initiator], 1 << 30) as u64);
            let mut hog = Memhog::new(MemhogConfig {
                fraction: 0.05,
                unmovable_fraction: 0.0,
                churn_factor: 0.0,
                seed,
            });
            hog.run(&mut uncore.pmem);
            let held: u64 = uncore.pressure_hogs.iter().map(Memhog::held_frames).sum();
            for core in cores.iter_mut() {
                if let Some(checker) = core.checker.as_mut() {
                    checker.record_event(
                        instruction,
                        CheckEvent::MemPressure {
                            held_frames: held + hog.held_frames(),
                        },
                    );
                }
            }
            uncore.pressure_hogs.push(hog);
        }
        FaultKind::MemRelease => {
            if let Some(mut hog) = uncore.pressure_hogs.pop() {
                hog.release(&mut uncore.pmem);
            }
            let held: u64 = uncore.pressure_hogs.iter().map(Memhog::held_frames).sum();
            for core in cores.iter_mut() {
                if let Some(checker) = core.checker.as_mut() {
                    checker
                        .record_event(instruction, CheckEvent::MemPressure { held_frames: held });
                }
            }
        }
    }
    Ok(())
}

/// A deterministic choice from the core's seeded injector stream (0 when
/// no injector is attached — callers only reach this through one).
fn pick(core: &mut Core, n: usize) -> usize {
    core.injector.as_mut().map_or(0, |i| i.pick(n))
}

/// Adds the measured-window count `now − before` into an optional
/// cross-core total, creating it on first use (a component only some
/// designs or configurations attach: way predictors, L2 TLBs).
/// A measured-window delta of a counter a design may lack (zero then).
fn window<C: Counter>(now: Option<C>, before: Option<C>) -> C {
    now.map(|now| now.delta(&before.unwrap_or_default()))
        .unwrap_or_default()
}

fn merge_window<C: Counter>(total: &mut Option<C>, now: &C, before: Option<C>) {
    total
        .get_or_insert_with(C::default)
        .merge(&now.delta(&before.unwrap_or_default()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::L1DesignKind;

    #[test]
    fn runs_are_deterministic() {
        let cfg = RunConfig::quick("astar").design(L1DesignKind::Seesaw);
        let a = System::build(&cfg).unwrap().run().unwrap();
        let b = System::build(&cfg).unwrap().run().unwrap();
        assert_eq!(a.totals.cycles, b.totals.cycles);
        assert_eq!(a.l1.misses, b.l1.misses);
        assert_eq!(a.energy.total_nj(), b.energy.total_nj());
    }

    #[test]
    fn seesaw_beats_baseline_on_runtime_and_energy() {
        let base = System::build(&RunConfig::quick("redis"))
            .unwrap()
            .run()
            .unwrap();
        let seesaw = System::build(&RunConfig::quick("redis").design(L1DesignKind::Seesaw))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            seesaw.totals.cycles < base.totals.cycles,
            "SEESAW {} vs baseline {} cycles",
            seesaw.totals.cycles,
            base.totals.cycles
        );
        assert!(seesaw.energy.total_nj() < base.energy.total_nj());
        assert!(seesaw.runtime_improvement_pct(&base) > 0.0);
    }

    #[test]
    fn superpage_refs_dominate_unfragmented_runs() {
        let r = System::build(&RunConfig::quick("mongo").design(L1DesignKind::Seesaw))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            r.superpage_ref_fraction > 0.7,
            "got {}",
            r.superpage_ref_fraction
        );
        assert!(r.superpage_coverage > 0.8);
    }

    #[test]
    fn fragmentation_reduces_coverage_and_benefit() {
        let frag = |pct| {
            System::build(
                &RunConfig::quick("olio")
                    .design(L1DesignKind::Seesaw)
                    .memhog(pct),
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let light = frag(0);
        let heavy = frag(85);
        assert!(
            heavy.superpage_coverage < light.superpage_coverage,
            "heavy {} vs light {}",
            heavy.superpage_coverage,
            light.superpage_coverage
        );
    }

    #[test]
    fn seesaw_never_regresses_without_superpages() {
        // With crushing fragmentation, SEESAW degenerates to the baseline
        // (slow path everywhere) but must not be slower than it.
        let cfg = RunConfig::quick("mcf").memhog(90);
        let base = System::build(&cfg).unwrap().run().unwrap();
        let seesaw = System::build(&cfg.design(L1DesignKind::Seesaw))
            .unwrap()
            .run()
            .unwrap();
        let delta = seesaw.runtime_improvement_pct(&base);
        assert!(delta > -1.0, "SEESAW regressed by {delta:.2}%");
    }

    #[test]
    fn inorder_gains_exceed_ooo_gains() {
        let gain = |cpu: CpuKind| {
            let base = System::build(&RunConfig::quick("tunk").cpu(cpu))
                .unwrap()
                .run()
                .unwrap();
            let seesaw = System::build(
                &RunConfig::quick("tunk")
                    .cpu(cpu)
                    .design(L1DesignKind::Seesaw),
            )
            .unwrap()
            .run()
            .unwrap();
            seesaw.runtime_improvement_pct(&base)
        };
        let ino = gain(CpuKind::InOrder);
        let ooo = gain(CpuKind::OutOfOrder);
        assert!(
            ino > ooo,
            "in-order gain {ino:.2}% must exceed out-of-order {ooo:.2}%"
        );
    }

    #[test]
    fn page_table_churn_stays_correct() {
        let mut cfg = RunConfig::quick("astar").design(L1DesignKind::Seesaw);
        cfg.page_op_interval = Some(20_000);
        let r = System::build(&cfg).unwrap().run().unwrap();
        // The run completes with sweeps recorded and sane stats.
        assert!(r.totals.instructions >= 150_000);
        assert!(r.seesaw.sweeps > 0 || r.tft.invalidations > 0);
    }

    #[test]
    fn pipt_design_runs() {
        let cfg = RunConfig::quick("xalanc").design(L1DesignKind::Pipt { ways: 4 });
        let r = System::build(&cfg).unwrap().run().unwrap();
        assert!(r.totals.cycles > 0);
        assert!(r.l1.accesses() > 0);
    }

    #[test]
    fn two_core_directory_runs_deliver_only_real_probes() {
        let cfg = RunConfig::quick("redis")
            .design(L1DesignKind::Seesaw)
            .cores(2);
        let r = System::build(&cfg).unwrap().run().unwrap();
        assert_eq!(r.cores.len(), 2);
        let coh = r.coherence.expect("directory attached for cores=2");
        assert!(
            coh.probes_delivered > 0,
            "real sharing must generate probes"
        );
        // Every probe the cores received came out of the directory.
        assert!(
            r.coherence_probes <= coh.probes_delivered,
            "counted {} probes but the directory only delivered {}",
            r.coherence_probes,
            coh.probes_delivered
        );
        assert!(r.cores.iter().all(|c| c.totals.instructions >= 150_000));
    }

    #[test]
    fn single_core_runs_have_no_directory() {
        let r = System::build(&RunConfig::quick("astar"))
            .unwrap()
            .run()
            .unwrap();
        assert!(r.coherence.is_none());
        assert_eq!(r.cores.len(), 1);
    }
}
