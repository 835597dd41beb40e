//! The per-core slice of the system: everything a core owns privately.
//!
//! A [`Core`] bundles the CPU-side hardware (TLB hierarchy, the L1
//! design under test with its TFT, the scheduler-hint state) with the
//! core's private software context (its workload stream, shadow
//! checker, fault injector, and synthetic probe source). The shared
//! machine — physical memory, the outer hierarchy, the directory — is
//! [`crate::uncore::Uncore`]; the interleaved run loop in
//! [`crate::System`] drives N of these against one uncore.

use std::sync::Arc;

use seesaw_check::{FaultInjector, ShadowChecker};
use seesaw_coherence::CoherenceTraffic;
use seesaw_core::{L1DataCache, SchedulerHint};
use seesaw_mem::{AddressSpace, PhysAddr, Translation, VirtAddr};
use seesaw_tlb::TlbHierarchy;
use seesaw_workloads::{TraceGenerator, TraceRef};

/// One simulated core. All cores of a run are threads of the same
/// process: they share the address space and outer hierarchy held by
/// the uncore, but each owns its TLBs, its L1 (and TFT), its workload
/// stream, and — when enabled — its own shadow checker and fault
/// injector, each independently seeded so N-core runs stay
/// deterministic under the round-robin interleave.
pub(crate) struct Core {
    /// Core index (also the directory's requester id).
    pub id: usize,
    pub tlbs: TlbHierarchy,
    /// The L1 design under test (with its TFT, if any).
    pub l1: Box<dyn L1DataCache>,
    pub generator: TraceGenerator,
    pub hint: SchedulerHint,
    /// Synthetic probe stream ([`crate::ProbeSource::Synthetic`] only);
    /// `None` when a real directory generates every probe.
    pub traffic: Option<CoherenceTraffic>,
    /// Differential shadow model, when [`crate::RunConfig::checker`] is set.
    pub checker: Option<ShadowChecker>,
    /// Seeded fault source, when [`crate::RunConfig::faults`] is set.
    pub injector: Option<FaultInjector>,
    /// Instructions executed across every interleave() call, so injector
    /// schedules and checker diagnostics span warmup + measurement.
    pub elapsed: u64,
    /// Interned page-table-walk results in front of `space.translate`:
    /// one slot per 4 KB page of the workload VMA, so the prewarm replay
    /// and the per-access shadow check resolve a translation with a
    /// single indexed load instead of walking the page-table's BTreeMap.
    /// Invalidated on *every* page-table mutation path (splinters,
    /// promotions, shootdowns, memory pressure) — on every core, since
    /// the address space is shared — so the differential checker still
    /// compares against ground truth.
    pub xlate: TranslationIntern,
    /// References generated once during the functional prewarm (packed,
    /// [`TraceRef::pack`], and shared process-wide across runs of the
    /// same workload stream) and replayed by the warmup + measured
    /// loops, so the mixture-model generator (several RNG draws and an
    /// `ln()` per reference) runs once per stream instead of once per
    /// run phase. The stream past the buffer continues from `generator`,
    /// whose state sits exactly at the first unbuffered reference.
    pub replay: Arc<[u64]>,
    pub replay_cursor: usize,
}

impl Core {
    /// Next reference of this core's stream: the prewarm-recorded buffer
    /// first, then the live generator (positioned immediately after the
    /// buffered prefix, so the spliced stream is the generator's own).
    #[inline]
    pub fn next_ref(&mut self) -> TraceRef {
        if let Some(&word) = self.replay.get(self.replay_cursor) {
            self.replay_cursor += 1;
            TraceRef::unpack(word)
        } else {
            self.generator.next_ref()
        }
    }

    /// Translates `va` through the interned-translation table.
    ///
    /// A hit synthesizes the physical address from the interned
    /// [`Translation`] without touching the page-table maps. Entries are
    /// dropped on every page-table mutation so the answer is always what
    /// `space.translate` would return — the shadow checker compares
    /// against exactly this value.
    #[inline]
    pub fn translate_cached(&mut self, space: &AddressSpace, va: VirtAddr) -> Option<Translation> {
        let idx = (va.raw().wrapping_sub(self.xlate.base) >> 21) as usize;
        if let Some(slot) = self.xlate.slots.get_mut(idx) {
            if slot.0 == self.xlate.gen {
                if let Some(t) = slot.1 {
                    let base = t.vpage.base().raw();
                    if va.raw().wrapping_sub(base) < t.vpage.size().bytes() {
                        return Some(Translation {
                            pa: PhysAddr::new(t.frame.base().raw() + (va.raw() - base)),
                            ..t
                        });
                    }
                }
            }
            let t = space.translate(va)?;
            *slot = (self.xlate.gen, Some(t));
            Some(t)
        } else {
            space.translate(va)
        }
    }
}

/// Per-core interned translations: one slot per 2 MB region of the
/// workload VMA. A superpage-backed region (the common case under
/// `ThpPolicy::Always`) is covered by its slot outright; a splintered
/// region degrades to a per-region last-translation entry, still hit by
/// the page-local runs the generator emits. A slot is live only while
/// its generation stamp matches the table's current generation, so
/// invalidation (which must cover the whole table — any page-table
/// reshape can move any page) is a single counter bump instead of a
/// clear, and the table costs one cache line per 2 MB of footprint.
pub(crate) struct TranslationIntern {
    /// VA of the workload VMA's first byte; slot index is
    /// `(va - base) >> 21`.
    base: u64,
    /// Current generation; bumped by [`TranslationIntern::invalidate`].
    gen: u64,
    /// Per-slot `(generation, translation)` (generation 0 = never
    /// filled; `gen` starts at 1).
    slots: Vec<(u64, Option<Translation>)>,
}

impl TranslationIntern {
    pub(crate) fn new(vma_base: u64, vma_bytes: u64) -> Self {
        let regions = vma_bytes.div_ceil(2 << 20) as usize;
        Self {
            base: vma_base,
            gen: 1,
            slots: vec![(0, None); regions],
        }
    }

    /// Drops every interned entry (O(1): stamps go stale, not zeroed).
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.gen += 1;
    }
}
