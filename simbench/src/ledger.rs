//! The traced run and its per-layer ledger.
//!
//! A traced invocation alternates untraced passes over the cell list,
//! timed as the end-to-end runs time them, with traced passes, until
//! `--seconds` have elapsed. In a traced pass every cell is a `cell` span
//! holding a
//! `runner.run_sweep` span (the timed call) and, from a second, direct
//! execution of the same config, `sim.build` and `sim.run` spans. A
//! `replay` span then drives one representative cell's reference stream
//! through the public call of every layer, in batches, one span per
//! batch. A layer's cost per call is the self time of its batch spans
//! divided by their calls; its share of the replayed cell's `sim.run` is
//! its exact call count from that cell's `RunResult` times that cost.
//! Call counts are also reported summed over all cells. Spans stay in
//! memory and
//! are written at exit as a Chrome trace under `simbench/out/`.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use seesaw_cache::{CacheConfig, IndexPolicy, MemoryLevel, OuterHierarchy, OuterHierarchyConfig};
use seesaw_check::{AccessCheck, ShadowChecker};
use seesaw_coherence::{
    CoherenceMode, CoherenceTraffic, CoherenceTrafficConfig, DirectoryController,
};
use seesaw_core::{
    BaselineL1, L1AccessOutcome, L1DataCache, L1Request, L1Timing, MicroTagConfig, MicroTagL1,
    SeesawConfig, SeesawL1, VespaConfig, VespaL1,
};
use seesaw_cpu::{CpuModel, InOrderCpu, OooCpu};
use seesaw_energy::{EnergyAccount, EnergyModel, SramModel};
use seesaw_mem::{
    AddressSpace, Memhog, MemhogConfig, PageSize, PhysAddr, PhysicalMemory, ThpPolicy, Translation,
    VirtAddr, Vma,
};
use seesaw_sim::experiments::DESIGN_LAB;
use seesaw_sim::{CpuKind, L1DesignKind, RunConfig, RunResult, Store, System};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig, TlbLevel, TlbLookup};
use seesaw_trace::ChromeTrace;
use seesaw_workloads::TraceRef;

use crate::calib::Probe;
use crate::cells::{cache_keys, Cell, Workload, REPRESENTATIVE};
use crate::check::Expectations;
use crate::report::{median, Metric, Report};
use crate::{normalised_minstr_per_s, run_cell, Timed};

/// Where the Chrome trace and the temporary store directory go, relative
/// to the directory the benchmark runs from.
const OUT_DIR: &str = "simbench/out";
/// References per replay batch span.
const BATCH: usize = 8192;
/// Page operations the replay performs (half splinters, half promotions).
const PAGE_OPS: usize = 64;
/// Direct runs of the replayed cell per replay.
const REPLAY_RUNS: usize = 8;
/// Records written and read back in the store measurement.
const STORE_RECORDS: usize = 16;
/// Fingerprints computed in the runner measurement.
const FINGERPRINTS: u64 = 256;
/// Cores whose interleaved streams the directory replay serves: the
/// core count of the multi-core workload.
const DIRECTORY_LANES: usize = 4;
/// The simulator's per-core seed stride (core `i` runs at
/// `seed ^ i * stride`).
const CORE_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;
/// Line size of every cache in the modelled hierarchy.
const LINE: u64 = 64;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
    calls: u64,
}

/// In-memory span recorder: spans nest by call order.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str, cell: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
            calls: 0,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize, calls: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in nesting order");
        let end_ns = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Runs `f` inside a span of `calls` calls to the layer `name`.
    fn batch<R>(&mut self, name: &str, calls: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, None);
        let out = f();
        self.end(id, calls as u64);
        out
    }

    fn duration(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Each span's duration minus the time its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(self.duration(i));
            }
        }
        own
    }

    /// Self nanoseconds per call of the layer `name`: the median over
    /// its batch spans, so neither a cold first batch nor a batch stalled
    /// by the host sets the cost.
    fn ns_per_call(&self, name: &str) -> f64 {
        let own = self.self_times();
        median(
            self.spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name && s.calls > 0)
                .map(|(s, &t)| t as f64 / s.calls as f64)
                .collect(),
        )
    }

    /// Durations of every span named `name`, in nanoseconds.
    fn durations(&self, name: &str) -> Vec<u64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i))
            .collect()
    }

    /// The spans as a Chrome `trace_event` document; ids, parents, cells
    /// and call counts ride along as arguments.
    fn chrome(&self, process: &str) -> String {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, process);
        trace.thread_name(1, 1, "simulation");
        for (id, span) in self.spans.iter().enumerate() {
            let id_s = id.to_string();
            let parent = span.parent.map_or("none".into(), |p| p.to_string());
            let cell = span.cell.map_or("none".into(), |c| c.to_string());
            let calls = span.calls.to_string();
            trace.complete(
                &span.name,
                "bench",
                1,
                1,
                span.start_ns / 1000,
                ((span.end_ns - span.start_ns) / 1000).max(1),
                &[
                    ("id", &id_s),
                    ("parent", &parent),
                    ("cell", &cell),
                    ("calls", &calls),
                ],
            );
        }
        trace.render()
    }
}

/// FNV-1a over the `Debug` rendering of a sequence of outcomes.
fn digest<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for byte in format!("{item:?}").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Replays `batch` on a clone of `state` taken before the timed run and
/// fails unless both runs give the same outcome digest.
fn same_twice<S: Clone, O: std::fmt::Debug>(
    layer: &str,
    before: &S,
    timed: &[O],
    mut rerun: impl FnMut(&mut S) -> Vec<O>,
) -> Result<u64, String> {
    let mut copy = before.clone();
    let again = rerun(&mut copy);
    let (a, b) = (digest(timed), digest(&again));
    if a == b {
        Ok(a)
    } else {
        Err(format!(
            "{layer}: replay from a cloned state gave digest {b:#x}, first run {a:#x}"
        ))
    }
}

/// An L1 of one lab design, as the simulator builds it.
#[derive(Clone)]
enum Design {
    Baseline(Box<BaselineL1>),
    Seesaw(Box<SeesawL1>),
    Vespa(Box<VespaL1>),
    MicroTag(Box<MicroTagL1>),
}

/// SEESAW's configuration in `cfg`, as the simulator derives it.
fn seesaw_config(cfg: &RunConfig) -> SeesawConfig {
    let c = SeesawConfig::with_size_kb(cfg.l1_size_kb)
        .with_tft_entries(cfg.tft_entries)
        .with_insertion(cfg.insertion);
    match cfg.seesaw_partitions {
        Some(partitions) => c.with_partitions(partitions),
        None => c,
    }
}

/// VESPA's configuration in `cfg`, as the simulator derives it.
fn vespa_config(cfg: &RunConfig) -> VespaConfig {
    let mut c = VespaConfig::with_size_kb(cfg.l1_size_kb);
    c.insertion = cfg.insertion;
    if let Some(partitions) = cfg.seesaw_partitions {
        c.partitions = partitions;
    }
    c
}

/// Ways one coherence probe reads in `cfg`'s L1: one partition for
/// SEESAW and VESPA, every way for the other lab designs. The directory
/// replay is built with it, and the output check holds every multi-core
/// cell's `CoherenceStats` to it.
pub(crate) fn probe_ways(cfg: &RunConfig) -> usize {
    let ways = cfg.baseline_ways();
    match cfg.design {
        L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction => {
            (ways / seesaw_config(cfg).partitions).max(1)
        }
        L1DesignKind::Vespa => (ways / vespa_config(cfg).partitions).max(1),
        _ => ways,
    }
}

impl Design {
    fn build(kind: L1DesignKind, cfg: &RunConfig, sram: &SramModel) -> Design {
        let ghz = cfg.frequency.ghz();
        let kb = cfg.l1_size_kb;
        let ways = cfg.baseline_ways();
        let full = sram.full_lookup_cycles(kb, ways, ghz);
        let flat = L1Timing {
            fast_cycles: full,
            slow_cycles: full,
        };
        let cache = CacheConfig::new(kb << 10, ways, LINE, IndexPolicy::Vipt);
        match kind {
            L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction => {
                let mut c = seesaw_config(cfg);
                if kind == L1DesignKind::SeesawWithWayPrediction {
                    c = c.with_way_prediction();
                }
                let timing = L1Timing {
                    fast_cycles: sram.partition_lookup_cycles(kb, ways, c.partitions, ghz),
                    slow_cycles: full,
                };
                Design::Seesaw(Box::new(SeesawL1::new(c, timing)))
            }
            L1DesignKind::Vespa => {
                let c = vespa_config(cfg);
                let timing = L1Timing {
                    fast_cycles: sram.partition_lookup_cycles(kb, ways, c.partitions, ghz),
                    slow_cycles: full,
                };
                Design::Vespa(Box::new(VespaL1::new(c, timing)))
            }
            L1DesignKind::BaselineMicroTag => {
                Design::MicroTag(Box::new(MicroTagL1::new(MicroTagConfig::new(cache), flat)))
            }
            L1DesignKind::BaselineWithWayPrediction => {
                Design::Baseline(Box::new(BaselineL1::new(cache, flat, true)))
            }
            _ => Design::Baseline(Box::new(BaselineL1::new(cache, flat, false))),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn L1DataCache {
        match self {
            Design::Baseline(l) => l.as_mut(),
            Design::Seesaw(l) => l.as_mut(),
            Design::Vespa(l) => l.as_mut(),
            Design::MicroTag(l) => l.as_mut(),
        }
    }

    /// One demand access, with SEESAW's TFT fills from the TLB lookup
    /// before it and its refresh-on-confirmation after it.
    fn access(&mut self, req: &L1Request, fills: &[VirtAddr]) -> L1AccessOutcome {
        match self {
            Design::Seesaw(l) => {
                for &page in fills {
                    l.tft_fill(page);
                }
                let out = l.access(req);
                if out.tft_hit == Some(false) && req.page_size.is_superpage() {
                    l.tft_fill(req.va);
                }
                out
            }
            other => other.as_dyn().access(req),
        }
    }
}

/// The memory image of `cfg`, built through the memory layer's public
/// calls the way the simulator builds it.
fn memory_image(cfg: &RunConfig) -> Result<(PhysicalMemory, AddressSpace, Vma), String> {
    let footprint = cfg.workload.footprint_bytes();
    let mut pmem = PhysicalMemory::new((footprint * 4).max(128 << 20));
    let mut noise = Memhog::new(MemhogConfig {
        fraction: 0.04,
        unmovable_fraction: 0.10,
        churn_factor: 0.1,
        seed: cfg.seed ^ 0x1105e,
    });
    noise.run(&mut pmem);
    let requested = f64::from(cfg.memhog_percent.min(95)) / 100.0;
    let max_fraction =
        (pmem.free_bytes() as f64 - 1.3 * footprint as f64) / pmem.total_bytes() as f64;
    let mut hog = Memhog::new(MemhogConfig {
        fraction: requested.min(max_fraction.max(0.0)),
        seed: cfg.seed ^ 0x109,
        ..MemhogConfig::default()
    });
    hog.run(&mut pmem);
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, footprint, ThpPolicy::Always)
        .map_err(|e| format!("replay image: {e}"))?;
    let relocations = space.drain_foreign_relocations();
    hog.absorb_relocations(&relocations);
    noise.absorb_relocations(&relocations);
    space.drain_ops();
    Ok((pmem, space, vma))
}

fn tlb_config(cfg: &RunConfig) -> TlbHierarchyConfig {
    match cfg.cpu {
        CpuKind::InOrder => TlbHierarchyConfig::atom(),
        CpuKind::OutOfOrder => TlbHierarchyConfig::sandybridge(),
    }
}

/// Costs per call measured by the replay, and the replay's own counts.
#[derive(Debug, Default)]
struct Costs {
    access_ns: Vec<(String, L1DesignKind, f64)>,
    probe_ns: f64,
    lookup_ns: f64,
    handle_op_ns: f64,
    outer_access_ns: f64,
    prewarm_ms: f64,
    directory_ns: f64,
    traffic_step_ns: f64,
    translate_ns: f64,
    page_op_us: f64,
    image_ms: f64,
    check_ns: f64,
    charge_ns: f64,
    retire_ns: f64,
    fill_ns_per_ref: f64,
    fingerprint_us: f64,
    put_us: f64,
    get_us: f64,
}

/// What one replay saw, for the self-checks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReplaySummary {
    hits: u64,
    misses: u64,
    walks: u64,
    /// Page operations the memory layer refused (no free 2 MB frame).
    refused_page_ops: usize,
    /// Outcome digests of the batches replayed twice, by layer.
    digests: Vec<(&'static str, u64)>,
}

/// The span name of a lab design's L1 accesses; its cost is reported as
/// `core.access_ns.<suffix>`.
fn access_span(design: &str) -> &'static str {
    match design {
        "baseline" => "core.access.baseline",
        "seesaw" => "core.access.seesaw",
        "seesaw+mru" => "core.access.seesaw_mru",
        "vespa" => "core.access.vespa",
        _ => "core.access.utag",
    }
}

/// Drives the representative cell's reference stream through every
/// layer's public call, one span per batch.
fn replay(t: &mut Tracer, cfg: &RunConfig, result: &RunResult) -> Result<ReplaySummary, String> {
    let root = t.begin("replay", None);
    let n = (cfg.instructions + cfg.instructions / 2) as usize;
    let sram = SramModel::tsmc28_scaled_22nm();
    let mut digests = Vec::new();

    // The cell's own run, for the denominator of the layer shares.
    for _ in 0..REPLAY_RUNS {
        let system = System::build(cfg).map_err(|e| format!("replay: build: {e}"))?;
        t.batch("replay.sim.run", 1, || system.run())
            .map_err(|e| format!("replay: run: {e}"))?;
    }
    let (mut pmem, mut space, vma) = t.batch("mem.image", 1, || memory_image(cfg))?;
    // The image is built by a copy of the simulator's construction; it
    // must come out as the simulator's own.
    let built = System::build(&cfg.clone().stop_at(1))
        .map_err(|e| format!("replay: build: {e}"))?
        .superpage_coverage();
    if space.superpage_coverage() != built {
        return Err(format!(
            "replay image: superpage coverage {}, the simulator builds {built}",
            space.superpage_coverage()
        ));
    }

    // Stream synthesis: the prewarm-length stream of core 0.
    let mut generator = seesaw_workloads::TraceGenerator::new(&cfg.workload, cfg.seed);
    let mut refs: Vec<TraceRef> = Vec::with_capacity(n);
    while refs.len() < n {
        let take = BATCH.min(n - refs.len());
        t.batch("workloads.fill_refs", take, || {
            generator.fill_refs(&mut refs, take)
        });
    }
    let vas: Vec<VirtAddr> = refs.iter().map(|r| vma.base().offset(r.offset)).collect();

    // Page-table translation (the walker's ground truth).
    let mut xlate: Vec<Option<Translation>> = Vec::with_capacity(n);
    for chunk in vas.chunks(BATCH) {
        t.batch("mem.translate", chunk.len(), || {
            xlate.extend(chunk.iter().map(|&va| space.translate(va)))
        });
    }
    let xlate: Vec<Translation> = xlate
        .into_iter()
        .zip(&vas)
        .map(|(x, va)| x.ok_or(format!("replay: {:#x} is unmapped", va.raw())))
        .collect::<Result<_, _>>()?;

    // Prewarm: the whole stream against a fresh outer hierarchy.
    let ghz = cfg.frequency.ghz();
    let mut outer = OuterHierarchy::new(OuterHierarchyConfig::table_ii(ghz));
    for (chunk, refs) in xlate.chunks(BATCH).zip(refs.chunks(BATCH)) {
        t.batch("cache.prewarm", chunk.len(), || {
            for (x, r) in chunk.iter().zip(refs) {
                outer.access(x.pa.raw() / LINE, r.is_write);
            }
        });
    }

    // TLB lookups, checked once from a cloned start state. The TLBs are
    // first warmed, untimed, on the stream's first third, as the
    // simulator's warmup warms them before its measured window; timed
    // from cold, the replay walked the page table twelve times as often
    // per reference as the cell did.
    let mut tlbs = TlbHierarchy::new(tlb_config(cfg));
    for &va in &vas[..n / 3] {
        black_box(tlbs.lookup(va, &space));
    }
    let mut lookups: Vec<TlbLookup> = Vec::with_capacity(n);
    for (b, chunk) in vas.chunks(BATCH).enumerate() {
        let before = (b == 1).then(|| tlbs.clone());
        let start = lookups.len();
        t.batch("tlb.lookup", chunk.len(), || {
            for &va in chunk {
                lookups.push(tlbs.lookup(va, &space).expect("translated above"));
            }
        });
        if let Some(before) = before {
            let d = same_twice("tlb.lookup", &before, &lookups[start..], |tlb| {
                chunk
                    .iter()
                    .map(|&va| tlb.lookup(va, &space).expect("mapped"))
                    .collect()
            })?;
            digests.push(("tlb.lookup", d));
        }
    }
    let walks = lookups
        .iter()
        .filter(|l| l.level == TlbLevel::PageWalk)
        .count() as u64;
    let reqs: Vec<L1Request> = lookups
        .iter()
        .zip(&vas)
        .zip(&refs)
        .map(|((l, &va), r)| L1Request {
            va,
            pa: l.entry.translate(va),
            page_size: l.entry.size,
            is_write: r.is_write,
        })
        .collect();
    let fills: Vec<Vec<VirtAddr>> = lookups
        .iter()
        .map(|l| l.superpage_l1_fills.iter().map(|p| p.base()).collect())
        .collect();

    // Every lab design on the same requests; the representative design's
    // outcomes drive the layers below the L1.
    let mut outs: Vec<L1AccessOutcome> = Vec::new();
    let mut rep_l1 = Design::build(cfg.design, cfg, &sram);
    for (design, kind) in DESIGN_LAB {
        let name = access_span(design);
        let mut l1 = Design::build(kind, cfg, &sram);
        let mut mine = Vec::with_capacity(n);
        for (b, (chunk, fchunk)) in reqs.chunks(BATCH).zip(fills.chunks(BATCH)).enumerate() {
            let before = (b == 1).then(|| l1.clone());
            let start = mine.len();
            t.batch(name, chunk.len(), || {
                for (req, f) in chunk.iter().zip(fchunk) {
                    mine.push(l1.access(req, f));
                }
            });
            if let Some(before) = before {
                let d = same_twice(name, &before, &mine[start..], |l1| {
                    chunk
                        .iter()
                        .zip(fchunk)
                        .map(|(req, f)| l1.access(req, f))
                        .collect()
                })?;
                digests.push((name, d));
            }
        }
        if kind == cfg.design {
            outs = mine;
            rep_l1 = l1;
        }
    }
    let hits = outs.iter().filter(|o| o.hit).count() as u64;

    // Outer hierarchy on the misses, from the prewarmed state.
    let mut levels: Vec<Option<(MemoryLevel, u64)>> = Vec::with_capacity(n);
    for (chunk, ochunk) in reqs.chunks(BATCH).zip(outs.chunks(BATCH)) {
        let misses = ochunk.iter().filter(|o| !o.hit).count();
        t.batch("cache.outer_access", misses, || {
            for (req, out) in chunk.iter().zip(ochunk) {
                levels.push((!out.hit).then(|| {
                    let level = outer.access(req.pa.raw() / LINE, req.is_write);
                    if let Some(ev) = out.evicted.filter(|e| e.dirty) {
                        outer.writeback(ev.ptag);
                    }
                    level
                }));
            }
        });
    }

    // Coherence: the synthetic probe source and the MOESI directory.
    let snoop = if cfg.snoopy { 3.0 } else { 1.0 };
    let mut traffic = CoherenceTraffic::new(CoherenceTrafficConfig {
        probes_per_kilo_instruction: cfg.workload.coherence_pki * snoop,
        invalidate_fraction: 0.3,
        targeted_fraction: 0.6,
        seed: cfg.seed ^ 0xc0c0,
    });
    let mut probes: Vec<(u64, bool)> = Vec::new();
    for (chunk, rchunk) in reqs.chunks(BATCH).zip(refs.chunks(BATCH)) {
        t.batch("coherence.traffic_step", chunk.len(), || {
            for (req, r) in chunk.iter().zip(rchunk) {
                traffic.record_line(req.pa.raw() / LINE);
                probes.extend(
                    traffic
                        .step(r.gap + 1)
                        .iter()
                        .map(|p| (p.ptag, p.invalidate)),
                );
            }
        });
    }
    let ways = cfg.baseline_ways();
    let mode = if cfg.snoopy {
        CoherenceMode::Snoopy
    } else {
        CoherenceMode::Directory
    };
    let probe_ways = probe_ways(cfg);
    // The directory sees every core's stream, interleaved round-robin as
    // the simulator steps its cores; lane 0 is the stream above and the
    // others are seeded as the simulator seeds cores 1..4.
    let geometry = CacheConfig::new(cfg.l1_size_kb << 10, ways, LINE, IndexPolicy::Vipt);
    let mut dir = DirectoryController::new(DIRECTORY_LANES, geometry, mode, probe_ways);
    let mut lanes: Vec<Vec<(u64, bool)>> = vec![reqs
        .iter()
        .map(|q| (q.pa.raw() / LINE, q.is_write))
        .collect()];
    for lane in 1..DIRECTORY_LANES as u64 {
        let seed = cfg.seed ^ lane.wrapping_mul(CORE_SEED_STRIDE);
        let mut g = seesaw_workloads::TraceGenerator::new(&cfg.workload, seed);
        let mut lane_refs = Vec::with_capacity(n / DIRECTORY_LANES);
        g.fill_refs(&mut lane_refs, n / DIRECTORY_LANES);
        lanes.push(
            lane_refs
                .iter()
                .map(|r| {
                    let pa = space
                        .translate(vma.base().offset(r.offset))
                        .map_or(0, |x| x.pa.raw());
                    (pa / LINE, r.is_write)
                })
                .collect(),
        );
    }
    let interleaved: Vec<(usize, u64, bool)> = (0..n / DIRECTORY_LANES)
        .flat_map(|i| (0..DIRECTORY_LANES).map(move |lane| (lane, i)))
        .map(|(lane, i)| (lane, lanes[lane][i].0, lanes[lane][i].1))
        .collect();
    for chunk in interleaved.chunks(BATCH) {
        t.batch("coherence.directory", chunk.len(), || {
            for &(lane, ptag, is_write) in chunk {
                let tx = dir.access(lane, ptag, is_write);
                probes.extend(tx.probes.iter().map(|p| (ptag, p.invalidate)));
            }
        });
    }
    for chunk in probes.chunks(BATCH) {
        t.batch("core.probe", chunk.len(), || {
            for &(ptag, invalidate) in chunk {
                black_box(
                    rep_l1
                        .as_dyn()
                        .coherence_probe(PhysAddr::new(ptag * LINE), invalidate),
                );
            }
        });
    }

    // Energy charges and CPU retirement per reference.
    let is_seesaw = matches!(
        cfg.design,
        L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction
    );
    let mut account = EnergyAccount::new(EnergyModel::new(sram), cfg.l1_size_kb, ways);
    for ((lchunk, ochunk), vchunk) in lookups
        .chunks(BATCH)
        .zip(outs.chunks(BATCH))
        .zip(levels.chunks(BATCH))
    {
        t.batch("energy.charge", lchunk.len(), || {
            for ((l, o), lv) in lchunk.iter().zip(ochunk).zip(vchunk) {
                account.tlb_l1();
                if l.level != TlbLevel::L1 {
                    account.tlb_l2();
                }
                if l.level == TlbLevel::PageWalk {
                    account.page_walk();
                }
                if is_seesaw {
                    account.tft_lookup();
                }
                account.cpu_lookup(o.ways_probed);
                if let Some((level, _)) = lv {
                    account.l2_access();
                    if *level >= MemoryLevel::Llc {
                        account.llc_access();
                    }
                    if *level == MemoryLevel::Dram {
                        account.dram_access();
                    }
                    account.l1_fill();
                }
            }
        });
    }
    black_box(account.finish(1.0));
    let latencies: Vec<u64> = lookups
        .iter()
        .zip(&outs)
        .zip(&levels)
        .map(|((l, o), lv)| o.latency_cycles.max(l.cost_cycles + 1) + lv.map_or(0, |(_, c)| c))
        .collect();
    match cfg.cpu {
        CpuKind::OutOfOrder => retire_all(t, OooCpu::sandybridge(), &refs, &latencies),
        CpuKind::InOrder => retire_all(t, InOrderCpu::atom(), &refs, &latencies),
    }

    // The shadow checker on every access.
    let mut checker = ShadowChecker::new();
    for (b, ((chunk, xchunk), ochunk)) in reqs
        .chunks(BATCH)
        .zip(xlate.chunks(BATCH))
        .zip(outs.chunks(BATCH))
        .enumerate()
    {
        let verdicts: Vec<bool> = t.batch("check.access", chunk.len(), || {
            chunk
                .iter()
                .zip(xchunk)
                .zip(ochunk)
                .enumerate()
                .map(|(i, ((req, x), o))| {
                    checker
                        .check_access(
                            (b * BATCH + i) as u64,
                            &AccessCheck {
                                va: req.va.raw(),
                                pa: req.pa.raw(),
                                authoritative_pa: x.pa.raw(),
                                is_superpage: x.page_size.is_superpage(),
                                tft_hit: o.tft_hit,
                                is_write: req.is_write,
                            },
                        )
                        .is_ok()
                })
                .collect()
        });
        if verdicts.iter().any(|ok| !ok) {
            return Err("replay: the shadow checker flagged a clean replay".into());
        }
    }

    // Page-table churn: splinter superpage regions, promote them back,
    // delivering each operation to the TLBs.
    let regions: Vec<VirtAddr> = {
        let mut seen = HashSet::new();
        xlate
            .iter()
            .filter(|x| x.page_size == PageSize::Super2M)
            .map(|x| x.vpage.base())
            .filter(|va| seen.insert(va.raw()))
            .take(PAGE_OPS / 2)
            .collect()
    };
    let mut failed_ops = 0;
    for promote in [false, true] {
        for &va in &regions {
            let ok = t.batch("mem.page_op", 1, || {
                if promote {
                    space.promote(&mut pmem, va).is_ok()
                } else {
                    space.splinter(&mut pmem, va).is_ok()
                }
            });
            failed_ops += usize::from(!ok);
            let ops = space.drain_ops();
            t.batch("tlb.handle_op", ops.len(), || {
                for op in &ops {
                    tlbs.handle_op(op);
                }
            });
        }
    }

    // Harness layers off the timed path: config fingerprints and the store.
    t.batch("runner.fingerprint", FINGERPRINTS as usize, || {
        for _ in 0..FINGERPRINTS {
            black_box(seesaw_sim::runner::fingerprint(black_box(cfg)));
        }
    });
    let dir_path = Path::new(OUT_DIR).join(format!("store-{}", std::process::id()));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let store = Store::open(&dir_path).map_err(|e| format!("store {}: {e}", dir_path.display()))?;
    let keys: Vec<String> = (0..STORE_RECORDS)
        .map(|i| format!("{}#{i}", seesaw_sim::runner::fingerprint(cfg)))
        .collect();
    t.batch("store.put", keys.len(), || {
        for key in &keys {
            store.put_result(key, result);
        }
    });
    let found = t.batch("store.get", keys.len(), || {
        keys.iter().filter(|k| store.get(k).is_some()).count()
    });
    drop(store);
    std::fs::remove_dir_all(&dir_path)
        .map_err(|e| format!("remove {}: {e}", dir_path.display()))?;
    if found != keys.len() {
        return Err(format!(
            "store: read back {found} of {} records",
            keys.len()
        ));
    }
    t.end(root, 1);
    Ok(ReplaySummary {
        hits,
        misses: outs.len() as u64 - hits,
        walks,
        refused_page_ops: failed_ops,
        digests,
    })
}

impl Costs {
    /// Per-call costs from every replay batch recorded in `t`.
    fn from_spans(t: &Tracer, cfg: &RunConfig) -> Costs {
        let prewarm_refs = (cfg.instructions + cfg.instructions / 2) as f64;
        Costs {
            access_ns: DESIGN_LAB
                .iter()
                .map(|&(design, kind)| {
                    let span = access_span(design);
                    let metric = span.replace("core.access.", "core.access_ns.");
                    (metric, kind, t.ns_per_call(span))
                })
                .collect(),
            probe_ns: t.ns_per_call("core.probe"),
            lookup_ns: t.ns_per_call("tlb.lookup"),
            handle_op_ns: t.ns_per_call("tlb.handle_op"),
            outer_access_ns: t.ns_per_call("cache.outer_access"),
            prewarm_ms: t.ns_per_call("cache.prewarm") * prewarm_refs / 1e6,
            directory_ns: t.ns_per_call("coherence.directory"),
            traffic_step_ns: t.ns_per_call("coherence.traffic_step"),
            translate_ns: t.ns_per_call("mem.translate"),
            page_op_us: t.ns_per_call("mem.page_op") / 1e3,
            image_ms: t.ns_per_call("mem.image") / 1e6,
            check_ns: t.ns_per_call("check.access"),
            charge_ns: t.ns_per_call("energy.charge"),
            retire_ns: t.ns_per_call("cpu.retire"),
            fill_ns_per_ref: t.ns_per_call("workloads.fill_refs"),
            fingerprint_us: t.ns_per_call("runner.fingerprint") / 1e3,
            put_us: t.ns_per_call("store.put") / 1e3,
            get_us: t.ns_per_call("store.get") / 1e3,
        }
    }
}

fn retire_all<C: CpuModel>(t: &mut Tracer, mut cpu: C, refs: &[TraceRef], latencies: &[u64]) {
    for (chunk, lchunk) in refs.chunks(BATCH).zip(latencies.chunks(BATCH)) {
        t.batch("cpu.retire", chunk.len(), || {
            for (r, &lat) in chunk.iter().zip(lchunk) {
                cpu.retire(r.gap, lat, 0);
            }
        });
    }
    black_box(cpu.totals());
}

/// Exact per-cell call counts, from a cell's result and config.
struct Calls {
    /// Demand references over warmup and measured window.
    refs: f64,
    /// Measured-window references (energy is charged only there).
    measured_refs: f64,
    misses: f64,
    probes: f64,
    page_ops: f64,
    multicore: bool,
    checker: bool,
}

fn calls(cell: &Cell, r: &RunResult) -> Calls {
    let cfg = &cell.config;
    let warmup = cfg.warmup_instructions.expect("every cell sets its warmup");
    // The warmup replays the same stream through the same path (without
    // energy), so its calls scale with its instructions.
    let scale = (cfg.instructions + warmup) as f64 / cfg.instructions as f64;
    let measured_refs = (r.l1.hits + r.l1.misses) as f64;
    let executed = r.totals.instructions as f64 * scale;
    let legacy_ops = cfg
        .page_op_interval
        .map_or(0.0, |every| executed / every as f64);
    // Injector counts already cover the warmup.
    let injected = r
        .faults
        .map_or(0, |f| f.splinters + f.promotions + f.shootdowns) as f64;
    Calls {
        refs: measured_refs * scale,
        measured_refs,
        misses: r.l1.misses as f64 * scale,
        probes: r.coherence_probes as f64 * scale,
        page_ops: legacy_ops + injected,
        multicore: cfg.cores > 1,
        checker: cfg.checker,
    }
}

/// Each layer's share of `run_ns`, the sim.run of the cell whose calls
/// are `k` and whose L1 design is `design`, at the per-call `costs`: core,
/// tlb, cache, coherence, mem, check, energy, cpu.
fn layer_shares(costs: &Costs, design: L1DesignKind, k: &Calls, run_ns: f64) -> [f64; 8] {
    let access_ns = costs
        .access_ns
        .iter()
        .find(|(_, kind, _)| *kind == design)
        .map_or(costs.access_ns[0].2, |(_, _, ns)| *ns);
    let coherence_ns = if k.multicore {
        costs.directory_ns
    } else {
        costs.traffic_step_ns
    };
    let check_ns = if k.checker { costs.check_ns } else { 0.0 };
    [
        k.refs * access_ns + k.probes * costs.probe_ns,
        k.refs * costs.lookup_ns + k.page_ops * costs.handle_op_ns,
        k.misses * costs.outer_access_ns,
        k.refs * coherence_ns,
        k.page_ops * costs.page_op_us * 1e3,
        k.refs * check_ns,
        k.measured_refs * costs.charge_ns,
        k.refs * costs.retire_ns,
    ]
    .map(|ns| ns / run_ns)
}

/// The traced invocation: alternating untraced and traced passes, the
/// replay, and the ledger.
pub fn traced_run(
    workload: Workload,
    cells: &[Cell],
    expect: &Expectations,
    seconds: f64,
    probe: &mut Probe,
) -> Result<Report, String> {
    // Untraced and traced passes alternate, so a drift in host speed
    // reaches both sides of the trace-overhead comparison alike.
    let mut untraced = Timed::new(cells.len());
    let mut t = Tracer::new();
    let mut traced_failures = Vec::new();
    let mut traced_attempted = 0;
    let mut sweep_ns: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut instructions = vec![0u64; cells.len()];
    let mut first: Vec<RunResult> = Vec::new();
    let mut run_ns = 0u64;
    let mut executed = 0u64;
    let (rep_index, rep_cell) = cells
        .iter()
        .enumerate()
        .find(|(_, c)| c.config.workload.name == REPRESENTATIVE && c.design == "seesaw")
        .expect("every workload runs the representative on SEESAW");
    let mut summaries: Vec<ReplaySummary> = Vec::new();
    let mut sweep_slices: Vec<f64> = Vec::new();
    let start = Instant::now();
    for pass in (0..).step_by(2) {
        untraced.run_pass(cells, expect, pass, probe);
        let mut results = Vec::new();
        let mut slices = Vec::new();
        for (index, cell) in cells.iter().enumerate() {
            let span = t.begin("cell", Some(index));
            let sweep = t.begin("runner.run_sweep", Some(index));
            let outcome = run_cell(cell, pass + 1);
            t.end(sweep, 1);
            sweep_ns[index].push(t.duration(sweep) as f64);
            let build = t.begin("sim.build", Some(index));
            let system = System::build(&cell.config.clone().stop_at(u64::MAX - pass - 1));
            t.end(build, 1);
            let sim = t.begin("sim.run", Some(index));
            let direct = system.and_then(System::run);
            t.end(sim, 1);
            t.end(span, 1);
            if crate::calib::slice_after(index, cells.len()) {
                let span = t.begin("bench.probe", None);
                slices.push(probe.slice());
                t.end(span, 1);
            }
            traced_attempted += 1;
            let checked = outcome.and_then(|r| expect.check(cell, &r).map(|()| r));
            match (checked, direct) {
                (Ok(r), Ok(d)) => {
                    instructions[index] = r.totals.instructions;
                    run_ns += t.duration(sim);
                    executed += d.totals.instructions;
                    results.push(r);
                }
                (Err(e), _) => traced_failures.push(format!("{}: {e}", cell.label)),
                (_, Err(e)) => traced_failures.push(format!("{}: direct run: {e}", cell.label)),
            }
        }
        sweep_slices.push(median(slices));
        if first.is_empty() {
            if results.len() != cells.len() {
                return Err(format!("{} cells failed", traced_failures.len()));
            }
            first = results;
        }
        // A replay after every traced pass: its batch costs are taken
        // near the host speed the surrounding passes ran at.
        summaries.push(replay(&mut t, &rep_cell.config, &first[rep_index])?);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut report = Report {
        attempted: untraced.attempted + traced_attempted,
        failures: untraced.failures.clone(),
        ..Report::default()
    };
    report.failures.extend(traced_failures);
    // The same estimator as the untraced passes.
    let sweep_s: Vec<Vec<f64>> = sweep_ns
        .iter()
        .map(|v| v.iter().map(|ns| ns / 1e9).collect())
        .collect();
    let traced_rate = normalised_minstr_per_s(&instructions, &sweep_s, &sweep_slices);
    let untraced_rate = untraced.minstr_per_s();

    let summary = &summaries[0];
    if let Some(other) = summaries.iter().find(|s| *s != summary) {
        return Err(format!(
            "replays of one stream disagree: {summary:?} vs {other:?}"
        ));
    }
    for (layer, digest) in &summary.digests {
        println!(
            "ledger: {layer}: batch replayed twice from a cloned state, digest {digest:#018x}"
        );
    }
    let costs = Costs::from_spans(&t, &rep_cell.config);

    // Exact counts over the cells of the first traced pass.
    let sum = |f: &dyn Fn(&RunResult) -> u64| first.iter().map(f).sum::<u64>();
    let l1_accesses = sum(&|r| r.l1.hits + r.l1.misses);
    let ways_probed = sum(&|r| r.l1.ways_probed);
    let (tft_hits, tft_misses) = (sum(&|r| r.tft.hits), sum(&|r| r.tft.misses));
    let walks = sum(&|r| r.walks);
    // Shares are taken on the replayed cell alone, over the median of
    // its direct runs inside the replays: one cell's run time varies by a
    // quarter from run to run, so a few samples do not make a steady
    // denominator. Charging the replayed stream's costs to every cell's
    // counts attributed 97-109 % of `sweep_1core`'s sim.run, whose other
    // fifteen workloads' streams cost differently per call.
    let rep_calls = calls(rep_cell, &first[rep_index]);
    let rep_run_ns = median(
        t.durations("replay.sim.run")
            .into_iter()
            .map(|ns| ns as f64)
            .collect(),
    );
    let shares: Vec<(&str, f64)> = [
        "core.share",
        "tlb.share",
        "cache.share",
        "coherence.share",
        "mem.share",
        "check.share",
        "energy.share",
        "cpu.share",
    ]
    .into_iter()
    .zip(layer_shares(
        &costs,
        rep_cell.config.design,
        &rep_calls,
        rep_run_ns,
    ))
    .collect();
    let unattributed = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();

    let keys = cache_keys(cells);
    let prewarm_refs = |c: &Cell| c.config.instructions + c.config.instructions / 2;
    let refs_synthesized = keys.streams as u64 * cells.first().map_or(0, prewarm_refs);
    let builds: Vec<f64> = t
        .durations("sim.build")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let runs: Vec<f64> = t
        .durations("sim.run")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let overheads: Vec<f64> = t
        .durations("runner.run_sweep")
        .iter()
        .zip(builds.iter().zip(&runs))
        .map(|(&sweep, (b, r))| sweep as f64 / 1e6 - b - r)
        .collect();

    let registry = |key: &str| {
        first
            .iter()
            .filter_map(|r| r.metrics.get_u64(key))
            .sum::<u64>()
    };
    let rep_registry = |key: &str| first[rep_index].metrics.get_u64(key).unwrap_or(0);
    println!(
        "ledger: {} replays of {} ({} refs): {} L1 hits, {} misses, {} walks, {} refused page ops; registry of its full run: l1.hits={} l1.misses={} tlb.walker.walks={}",
        summaries.len(),
        rep_cell.label,
        summary.hits + summary.misses,
        summary.hits,
        summary.misses,
        summary.walks,
        summary.refused_page_ops,
        rep_registry("l1.hits"),
        rep_registry("l1.misses"),
        rep_registry("tlb.walker.walks")
    );
    println!(
        "ledger: registry over all cells: l1.hits={} l1.misses={} tlb.walker.walks={} outer.dram_accesses={}",
        registry("l1.hits"),
        registry("l1.misses"),
        registry("tlb.walker.walks"),
        registry("outer.dram_accesses")
    );
    println!("ledger: minstr_per_s untraced={untraced_rate:.4} traced={traced_rate:.4}");

    let m = |report: &mut Report, name: &str, value: f64, unit: &str| {
        report.push(Metric::new(name, value, unit));
    };
    for (name, _, ns) in &costs.access_ns {
        m(&mut report, name, *ns, "ns");
    }
    m(&mut report, "core.probe_ns", costs.probe_ns, "ns");
    m(&mut report, "core.l1_accesses", l1_accesses as f64, "count");
    m(
        &mut report,
        "core.ways_per_access",
        ways_probed as f64 / l1_accesses.max(1) as f64,
        "ways",
    );
    m(
        &mut report,
        "core.tft_hit_rate",
        tft_hits as f64 / (tft_hits + tft_misses).max(1) as f64,
        "ratio",
    );
    m(&mut report, "tlb.lookup_ns", costs.lookup_ns, "ns");
    m(&mut report, "tlb.handle_op_ns", costs.handle_op_ns, "ns");
    m(
        &mut report,
        "tlb.lookups",
        sum(&|r| r.tlb_l1.hits + r.tlb_l1.misses) as f64,
        "count",
    );
    m(&mut report, "tlb.walks", walks as f64, "count");
    m(
        &mut report,
        "cache.outer_access_ns",
        costs.outer_access_ns,
        "ns",
    );
    m(
        &mut report,
        "cache.outer_accesses",
        sum(&|r| r.l1.misses) as f64,
        "count",
    );
    m(
        &mut report,
        "cache.dram_accesses",
        registry("outer.dram_accesses") as f64,
        "count",
    );
    m(&mut report, "cache.prewarm_ms", costs.prewarm_ms, "ms");
    m(
        &mut report,
        "coherence.directory_ns",
        costs.directory_ns,
        "ns",
    );
    m(
        &mut report,
        "coherence.traffic_step_ns",
        costs.traffic_step_ns,
        "ns",
    );
    m(
        &mut report,
        "coherence.transactions",
        first
            .iter()
            .filter_map(|r| r.coherence)
            .map(|c| c.transactions)
            .sum::<u64>() as f64,
        "count",
    );
    m(
        &mut report,
        "coherence.probes",
        sum(&|r| r.coherence_probes) as f64,
        "count",
    );
    m(&mut report, "mem.translate_ns", costs.translate_ns, "ns");
    m(&mut report, "mem.page_op_us", costs.page_op_us, "us");
    m(&mut report, "mem.image_ms", costs.image_ms, "ms");
    m(
        &mut report,
        "mem.demotions",
        sum(&|r| r.demotions) as f64,
        "count",
    );
    m(
        &mut report,
        "mem.superpage_coverage",
        first.iter().map(|r| r.superpage_coverage).sum::<f64>() / first.len() as f64,
        "ratio",
    );
    m(&mut report, "check.access_ns", costs.check_ns, "ns");
    m(
        &mut report,
        "check.loads_checked",
        first
            .iter()
            .filter_map(|r| r.checker)
            .map(|c| c.loads_checked)
            .sum::<u64>() as f64,
        "count",
    );
    m(
        &mut report,
        "check.violations",
        first
            .iter()
            .filter_map(|r| r.checker)
            .map(|c| c.violations.total())
            .sum::<u64>() as f64,
        "count",
    );
    m(&mut report, "energy.charge_ns", costs.charge_ns, "ns");
    m(&mut report, "cpu.retire_ns", costs.retire_ns, "ns");
    m(
        &mut report,
        "workloads.fill_ns_per_ref",
        costs.fill_ns_per_ref,
        "ns",
    );
    m(
        &mut report,
        "workloads.refs_synthesized",
        refs_synthesized as f64,
        "count",
    );
    for (name, value) in shares {
        m(&mut report, name, value, "ratio");
    }
    m(&mut report, "sim.build_ms", median(builds), "ms");
    m(&mut report, "sim.run_ms", median(runs), "ms");
    m(
        &mut report,
        "sim.ns_per_instr",
        run_ns as f64 / executed.max(1) as f64,
        "ns",
    );
    m(&mut report, "sim.unattributed_share", unattributed, "ratio");
    m(&mut report, "runner.overhead_ms", median(overheads), "ms");
    m(
        &mut report,
        "runner.fingerprint_us",
        costs.fingerprint_us,
        "us",
    );
    m(&mut report, "store.put_us", costs.put_us, "us");
    m(&mut report, "store.get_us", costs.get_us, "us");
    m(
        &mut report,
        "bench.trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "%",
    );

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}.chrome.json", workload.name()));
    std::fs::write(&path, t.chrome(workload.name()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "ledger: {} spans written to {}",
        t.spans.len(),
        path.display()
    );

    if unattributed < 0.0 {
        report.failures.push(format!(
            "ledger: layer shares sum to {:.4}, more than the whole of sim.run",
            1.0 - unattributed
        ));
    }
    Ok(report)
}
