//! The differential shadow model.
//!
//! The timing simulator carries no data, so the shadow model tracks
//! *stamps*: every store writes a fresh monotonically increasing stamp to
//! a virtual shadow (keyed by VA line) and a physical shadow (keyed by PA
//! line, through the translation the hardware used). A load checks that
//! both shadows agree through the hardware's translation. The OS-side
//! transitions are mirrored — a promotion copies the physical stamps from
//! the old scattered frames into the new 2 MB frame and marks the old
//! frames freed — so any hardware structure that fails to observe a
//! transition (a TLB entry surviving a shootdown, a TFT entry surviving a
//! splinter, a cache line surviving a sweep) shows up as a divergence on
//! the very next access or audit.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::FaultKind;

const LINE_BYTES: u64 = 64;
const FRAME_BYTES: u64 = 4096;
const HISTORY_DEPTH: usize = 32;

/// Which invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The TLB translated a VA to a PA that disagrees with the page table.
    StaleTranslation,
    /// The TFT claimed a base-page access was superpage-backed — the
    /// §IV-C2 precision invariant (splinter invalidation was lost).
    TftClaimsBasePage,
    /// A load observed a physical stamp different from the one the program
    /// last stored through that virtual line.
    DataDivergence,
    /// An access reached a physical frame that was freed by a promotion
    /// and never remapped (use-after-free through a stale structure).
    UseAfterFree,
    /// After a promotion sweep, lines of the migrated-away frames were
    /// still resident in the L1.
    SweptLineResident,
    /// A resident line sits in a partition its physical address cannot
    /// name — unreachable by the narrow coherence path (§IV-C1).
    PartitionUnreachable,
    /// A VIVT reverse/forward mapping still references a freed frame, so
    /// coherence probes and writebacks would use a stale physical line.
    StalePhysicalMapping,
    /// A way predictor declared a hit on a way whose physical tag does not
    /// match the access — a µtag virtual-alias false hit served as data.
    WayPredictionAlias,
}

impl ViolationKind {
    /// Every kind, in a fixed order.
    pub const ALL: [ViolationKind; 8] = [
        ViolationKind::StaleTranslation,
        ViolationKind::TftClaimsBasePage,
        ViolationKind::DataDivergence,
        ViolationKind::UseAfterFree,
        ViolationKind::SweptLineResident,
        ViolationKind::PartitionUnreachable,
        ViolationKind::StalePhysicalMapping,
        ViolationKind::WayPredictionAlias,
    ];

    /// Stable kebab-case name, used by trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::StaleTranslation => "stale-translation",
            ViolationKind::TftClaimsBasePage => "tft-claims-base-page",
            ViolationKind::DataDivergence => "data-divergence",
            ViolationKind::UseAfterFree => "use-after-free",
            ViolationKind::SweptLineResident => "swept-line-resident",
            ViolationKind::PartitionUnreachable => "partition-unreachable",
            ViolationKind::StalePhysicalMapping => "stale-physical-mapping",
            ViolationKind::WayPredictionAlias => "way-prediction-alias",
        }
    }

    /// The inverse of [`ViolationKind::name`], for store/bundle parsing.
    pub fn from_name(name: &str) -> Option<ViolationKind> {
        ViolationKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == name)
    }
}

seesaw_trace::counters! {
    /// Per-invariant violation counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ViolationCounters {
        /// [`ViolationKind::StaleTranslation`] occurrences.
        pub stale_translation: u64,
        /// [`ViolationKind::TftClaimsBasePage`] occurrences.
        pub tft_claims_base_page: u64,
        /// [`ViolationKind::DataDivergence`] occurrences.
        pub data_divergence: u64,
        /// [`ViolationKind::UseAfterFree`] occurrences.
        pub use_after_free: u64,
        /// [`ViolationKind::SweptLineResident`] occurrences.
        pub swept_line_resident: u64,
        /// [`ViolationKind::PartitionUnreachable`] occurrences.
        pub partition_unreachable: u64,
        /// [`ViolationKind::StalePhysicalMapping`] occurrences.
        pub stale_physical_mapping: u64,
        /// [`ViolationKind::WayPredictionAlias`] occurrences.
        pub way_prediction_alias: u64,
    }
    derived: total;
}

impl ViolationCounters {
    /// Total violations across every invariant.
    pub fn total(&self) -> u64 {
        seesaw_trace::Counter::sum_leaves(self)
    }

    fn bump(&mut self, kind: ViolationKind) {
        match kind {
            ViolationKind::StaleTranslation => self.stale_translation += 1,
            ViolationKind::TftClaimsBasePage => self.tft_claims_base_page += 1,
            ViolationKind::DataDivergence => self.data_divergence += 1,
            ViolationKind::UseAfterFree => self.use_after_free += 1,
            ViolationKind::SweptLineResident => self.swept_line_resident += 1,
            ViolationKind::PartitionUnreachable => self.partition_unreachable += 1,
            ViolationKind::StalePhysicalMapping => self.stale_physical_mapping += 1,
            ViolationKind::WayPredictionAlias => self.way_prediction_alias += 1,
        }
    }
}

/// An OS/hardware event worth keeping in the diagnostic history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckEvent {
    /// A fault-injector event fired.
    Injected(FaultKind),
    /// A superpage was splintered (2 MB region base VA).
    Splintered {
        /// Base VA of the splintered region.
        region_va: u64,
    },
    /// Base pages were promoted into a superpage.
    Promoted {
        /// Base VA of the promoted region.
        region_va: u64,
        /// Base PA of the new 2 MB frame.
        new_frame_pa: u64,
    },
    /// A promotion attempt failed and the region stayed base-paged.
    PromotionDemoted {
        /// Base VA of the region that stayed base-paged.
        region_va: u64,
    },
    /// A translation was shot down (spurious or real).
    Shootdown {
        /// Base VA of the invalidated page.
        page_va: u64,
    },
    /// The core switched address spaces (TFT flush).
    ContextSwitch,
    /// Physical-memory pressure was applied or released.
    MemPressure {
        /// Frames held by pressure allocations after the event.
        held_frames: u64,
    },
}

/// One history entry: an event plus the instruction count when it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Instructions executed when the event fired.
    pub instruction: u64,
    /// What happened.
    pub event: CheckEvent,
}

/// A structured invariant-violation diagnostic.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Instructions executed when the violation was detected.
    pub instruction: u64,
    /// Human-readable specifics (addresses, stamps).
    pub detail: String,
    /// The most recent OS/injector events leading up to the violation.
    pub history: Vec<EventRecord>,
    /// A replayable repro bundle, attached by the simulator when a fault
    /// injector was active (the checker itself cannot know the run
    /// configuration). Boxed: the bundle carries the event tail.
    pub repro: Option<Box<crate::ReproBundle>>,
    /// Where the simulator autosaved the bundle (`SEESAW_REPRO=<dir>`),
    /// when it did: the durable pointer sweep reports and the runner's
    /// failure memo hand out so a killed sweep never loses its repro.
    pub autosaved: Option<std::path::PathBuf>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "invariant violation [{}] at instruction {}: {}",
            self.kind.name(),
            self.instruction,
            self.detail
        )?;
        writeln!(f, "event history (most recent last):")?;
        for rec in &self.history {
            writeln!(f, "  @{:>12}  {:?}", rec.instruction, rec.event)?;
        }
        Ok(())
    }
}

/// One demand access, as seen by the checker.
#[derive(Debug, Clone, Copy)]
pub struct AccessCheck {
    /// Virtual address.
    pub va: u64,
    /// Physical address the hardware translated to.
    pub pa: u64,
    /// The page table's current translation of `va` (ground truth).
    pub authoritative_pa: u64,
    /// Whether the page backing the access is a superpage.
    pub is_superpage: bool,
    /// The TFT's verdict, if the design has one.
    pub tft_hit: Option<bool>,
    /// Whether the access is a store.
    pub is_write: bool,
}

seesaw_trace::counters! {
    /// Summary counters of a completed checker run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CheckerSummary {
        /// Loads verified against the shadow model.
        pub loads_checked: u64,
        /// Stores recorded into the shadow model.
        pub stores_tracked: u64,
        /// Structural audits performed after dangerous transitions.
        pub audits: u64,
        /// Per-invariant violation counts (all zero on a clean run).
        pub violations: ViolationCounters,
    }
}

/// The differential shadow model (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ShadowChecker {
    /// VA line → stamp of the last program store to that line.
    ref_mem: HashMap<u64, u64>,
    /// PA line → stamp last written there (through hardware translation
    /// for stores, through the mirrored kernel copy for promotions).
    phys_mem: HashMap<u64, u64>,
    /// 4 KB frame numbers freed by promotions and not since remapped.
    freed_frames: HashSet<u64>,
    next_stamp: u64,
    history: VecDeque<EventRecord>,
    counters: ViolationCounters,
    loads_checked: u64,
    stores_tracked: u64,
    audits: u64,
}

impl ShadowChecker {
    /// Creates an empty shadow model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event into the diagnostic history.
    pub fn record_event(&mut self, instruction: u64, event: CheckEvent) {
        if self.history.len() == HISTORY_DEPTH {
            self.history.pop_front();
        }
        self.history.push_back(EventRecord { instruction, event });
    }

    /// Checks one demand access against the shadow model; stores update it.
    ///
    /// # Errors
    /// Returns the [`Violation`] when an invariant breaks.
    pub fn check_access(
        &mut self,
        instruction: u64,
        access: &AccessCheck,
    ) -> Result<(), Violation> {
        if access.pa != access.authoritative_pa {
            return Err(self.violation(
                ViolationKind::StaleTranslation,
                instruction,
                format!(
                    "va {:#x} translated to pa {:#x} but the page table says {:#x}",
                    access.va, access.pa, access.authoritative_pa
                ),
            ));
        }
        if access.tft_hit == Some(true) && !access.is_superpage {
            return Err(self.violation(
                ViolationKind::TftClaimsBasePage,
                instruction,
                format!(
                    "TFT vouched for va {:#x} but the page is base-sized \
                     (splinter invalidation lost?)",
                    access.va
                ),
            ));
        }
        if self.freed_frames.contains(&(access.pa / FRAME_BYTES)) {
            return Err(self.violation(
                ViolationKind::UseAfterFree,
                instruction,
                format!(
                    "va {:#x} reached pa {:#x} inside a frame freed by promotion",
                    access.va, access.pa
                ),
            ));
        }

        let vline = access.va / LINE_BYTES;
        let pline = access.pa / LINE_BYTES;
        if access.is_write {
            self.next_stamp += 1;
            let stamp = self.next_stamp;
            self.ref_mem.insert(vline, stamp);
            self.phys_mem.insert(pline, stamp);
            self.stores_tracked += 1;
        } else {
            self.loads_checked += 1;
            let expected = self.ref_mem.get(&vline).copied();
            let observed = self.phys_mem.get(&pline).copied();
            if let Some(expected) = expected {
                if observed != Some(expected) {
                    return Err(self.violation(
                        ViolationKind::DataDivergence,
                        instruction,
                        format!(
                            "va {:#x}: program last stored stamp {} but pa {:#x} holds {}",
                            access.va,
                            expected,
                            access.pa,
                            observed.map_or("nothing".to_string(), |s| s.to_string()),
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Mirrors a splinter: PA unchanged, so only the history is updated.
    pub fn observe_splinter(&mut self, instruction: u64, region_va: u64) {
        self.record_event(instruction, CheckEvent::Splintered { region_va });
    }

    /// Mirrors a promotion: copies the physical stamps of the old
    /// scattered frames into the new 2 MB frame (the kernel's data copy)
    /// and marks the old frames freed. `old_frames` lists each migrated
    /// frame as `(frame base PA, frame bytes, byte offset inside the
    /// region)`.
    pub fn observe_promotion(
        &mut self,
        instruction: u64,
        region_va: u64,
        new_frame_pa: u64,
        old_frames: &[(u64, u64, u64)],
    ) {
        // The new 2 MB frame may reuse physical memory a previous
        // promotion freed: it is live again.
        for frame in 0..(2 << 20) / FRAME_BYTES {
            self.freed_frames
                .remove(&(new_frame_pa / FRAME_BYTES + frame));
        }
        for &(frame_pa, bytes, region_offset) in old_frames {
            let lines = bytes / LINE_BYTES;
            for line in 0..lines {
                let old_pline = frame_pa / LINE_BYTES + line;
                let new_pline = (new_frame_pa + region_offset) / LINE_BYTES + line;
                if let Some(stamp) = self.phys_mem.remove(&old_pline) {
                    self.phys_mem.insert(new_pline, stamp);
                }
            }
            for frame in 0..bytes / FRAME_BYTES {
                self.freed_frames.insert(frame_pa / FRAME_BYTES + frame);
            }
        }
        self.record_event(
            instruction,
            CheckEvent::Promoted {
                region_va,
                new_frame_pa,
            },
        );
    }

    /// Structural audit after a splinter: the TFT must no longer vouch for
    /// the splintered region.
    ///
    /// # Errors
    /// Returns the [`Violation`] when the TFT still hits.
    pub fn audit_splinter_tft(
        &mut self,
        instruction: u64,
        region_va: u64,
        tft_still_hits: bool,
    ) -> Result<(), Violation> {
        self.audits += 1;
        if tft_still_hits {
            return Err(self.violation(
                ViolationKind::TftClaimsBasePage,
                instruction,
                format!("TFT still vouches for region {region_va:#x} after its splinter"),
            ));
        }
        Ok(())
    }

    /// Structural audit after a promotion sweep: no line of the
    /// migrated-away frames may remain resident.
    ///
    /// # Errors
    /// Returns the [`Violation`] when stale lines remain.
    pub fn audit_promotion_sweep(
        &mut self,
        instruction: u64,
        region_va: u64,
        resident_old_lines: usize,
    ) -> Result<(), Violation> {
        self.audits += 1;
        if resident_old_lines > 0 {
            return Err(self.violation(
                ViolationKind::SweptLineResident,
                instruction,
                format!(
                    "{resident_old_lines} line(s) of the frames migrated out of region \
                     {region_va:#x} survived the promotion sweep"
                ),
            ));
        }
        Ok(())
    }

    /// Structural audit of partition reachability: every resident line
    /// must sit in the partition its physical address names, or the
    /// narrow coherence path cannot find it (§IV-C1).
    ///
    /// # Errors
    /// Returns the [`Violation`] when unreachable lines exist.
    pub fn audit_partitions(
        &mut self,
        instruction: u64,
        unreachable_lines: usize,
    ) -> Result<(), Violation> {
        self.audits += 1;
        if unreachable_lines > 0 {
            return Err(self.violation(
                ViolationKind::PartitionUnreachable,
                instruction,
                format!(
                    "{unreachable_lines} resident line(s) sit outside the partition \
                     their physical address names"
                ),
            ));
        }
        Ok(())
    }

    /// Structural audit of a VIVT design's translation bookkeeping: no
    /// forward/reverse mapping may reference a freed frame.
    ///
    /// # Errors
    /// Returns the [`Violation`] when stale mappings exist.
    pub fn audit_physical_mappings<I: IntoIterator<Item = u64>>(
        &mut self,
        instruction: u64,
        mapped_plines: I,
    ) -> Result<(), Violation> {
        self.audits += 1;
        let stale = mapped_plines
            .into_iter()
            .filter(|pline| {
                self.freed_frames
                    .contains(&(pline * LINE_BYTES / FRAME_BYTES))
            })
            .count();
        if stale > 0 {
            return Err(self.violation(
                ViolationKind::StalePhysicalMapping,
                instruction,
                format!("{stale} cached physical-line mapping(s) reference freed frames"),
            ));
        }
        Ok(())
    }

    /// Structural audit of a way-predicted hit: the way the predictor
    /// selected must hold the physical tag of the access. A µtag predictor
    /// trained by a virtual alias can steer the lookup to a way holding a
    /// *different* physical line; serving that as a hit returns another
    /// address's data. Designs report whether the predicted way's tag
    /// verified; `tag_verified == false` is the armed-chaos signature.
    ///
    /// # Errors
    /// Returns the [`Violation`] when the predicted way's tag mismatches.
    pub fn audit_way_prediction(
        &mut self,
        instruction: u64,
        va: u64,
        predicted_way: usize,
        tag_verified: bool,
    ) -> Result<(), Violation> {
        self.audits += 1;
        if !tag_verified {
            return Err(self.violation(
                ViolationKind::WayPredictionAlias,
                instruction,
                format!(
                    "way predictor served way {predicted_way} for va {va:#x} \
                     but that way holds a different physical tag \
                     (virtual-alias false hit)"
                ),
            ));
        }
        Ok(())
    }

    /// True if the frame containing `pa` was freed by a promotion and not
    /// since remapped.
    pub fn is_freed(&self, pa: u64) -> bool {
        self.freed_frames.contains(&(pa / FRAME_BYTES))
    }

    /// Summary counters so far.
    pub fn summary(&self) -> CheckerSummary {
        CheckerSummary {
            loads_checked: self.loads_checked,
            stores_tracked: self.stores_tracked,
            audits: self.audits,
            violations: self.counters,
        }
    }

    fn violation(&mut self, kind: ViolationKind, instruction: u64, detail: String) -> Violation {
        self.counters.bump(kind);
        Violation {
            kind,
            instruction,
            detail,
            history: self.history.iter().cloned().collect(),
            repro: None,
            autosaved: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(va: u64, pa: u64, is_write: bool) -> AccessCheck {
        AccessCheck {
            va,
            pa,
            authoritative_pa: pa,
            is_superpage: false,
            tft_hit: None,
            is_write,
        }
    }

    #[test]
    fn store_then_load_matches() {
        let mut c = ShadowChecker::new();
        c.check_access(1, &access(0x1000, 0x8000, true)).unwrap();
        c.check_access(2, &access(0x1000, 0x8000, false)).unwrap();
        assert_eq!(c.summary().loads_checked, 1);
        assert_eq!(c.summary().stores_tracked, 1);
        assert_eq!(c.summary().violations.total(), 0);
    }

    #[test]
    fn stale_translation_is_flagged() {
        let mut c = ShadowChecker::new();
        let mut a = access(0x1000, 0x8000, false);
        a.authoritative_pa = 0x9000;
        let v = c.check_access(7, &a).unwrap_err();
        assert_eq!(v.kind, ViolationKind::StaleTranslation);
        assert_eq!(c.summary().violations.stale_translation, 1);
    }

    #[test]
    fn tft_vouching_for_base_page_is_flagged() {
        let mut c = ShadowChecker::new();
        let mut a = access(0x20_0000, 0x40_0000, false);
        a.tft_hit = Some(true);
        let v = c.check_access(9, &a).unwrap_err();
        assert_eq!(v.kind, ViolationKind::TftClaimsBasePage);
    }

    #[test]
    fn promotion_copy_preserves_data() {
        let mut c = ShadowChecker::new();
        // Store through a base page at pa 0x8040; its frame sits at offset
        // 0 inside the 2 MB region, so after promotion the stamp must be
        // reachable at the same offset of the new frame.
        c.check_access(1, &access(0x20_0040, 0x8040, true)).unwrap();
        c.observe_promotion(2, 0x20_0000, 0x40_0000, &[(0x8000, 4096, 0)]);
        // The same VA now translates into the new frame.
        c.check_access(3, &access(0x20_0040, 0x40_0040, false))
            .unwrap();
        // The old frame is freed: touching it is use-after-free.
        let v = c
            .check_access(4, &access(0x30_0040, 0x8040, false))
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::UseAfterFree);
    }

    #[test]
    fn lost_promotion_copy_diverges() {
        let mut c = ShadowChecker::new();
        c.check_access(1, &access(0x20_0040, 0x8040, true)).unwrap();
        c.observe_promotion(2, 0x20_0000, 0x40_0000, &[(0x8000, 4096, 0)]);
        // A buggy TLB keeps translating to... a different new location the
        // copy never filled: divergence.
        let a = access(0x20_0040, 0x40_1040, false);
        let v = c.check_access(3, &a).unwrap_err();
        assert_eq!(v.kind, ViolationKind::DataDivergence);
    }

    #[test]
    fn audits_report_structurally() {
        let mut c = ShadowChecker::new();
        c.record_event(10, CheckEvent::Injected(FaultKind::Splinter));
        assert!(c.audit_splinter_tft(11, 0x20_0000, false).is_ok());
        let v = c.audit_splinter_tft(12, 0x20_0000, true).unwrap_err();
        assert_eq!(v.kind, ViolationKind::TftClaimsBasePage);
        assert_eq!(v.history.len(), 1, "history rides along");
        assert!(c.audit_promotion_sweep(13, 0x20_0000, 0).is_ok());
        assert!(c.audit_promotion_sweep(14, 0x20_0000, 3).is_err());
        assert!(c.audit_partitions(15, 0).is_ok());
        assert!(c.audit_partitions(16, 1).is_err());
        let total = c.summary().violations.total();
        assert_eq!(total, 3);
    }

    #[test]
    fn aliased_way_prediction_is_flagged() {
        let mut c = ShadowChecker::new();
        assert!(c.audit_way_prediction(5, 0x1000, 3, true).is_ok());
        let v = c.audit_way_prediction(6, 0x1000, 3, false).unwrap_err();
        assert_eq!(v.kind, ViolationKind::WayPredictionAlias);
        assert_eq!(c.summary().violations.way_prediction_alias, 1);
        assert_eq!(
            ViolationKind::from_name("way-prediction-alias"),
            Some(v.kind)
        );
    }

    #[test]
    fn history_is_bounded() {
        let mut c = ShadowChecker::new();
        for i in 0..100 {
            c.record_event(i, CheckEvent::ContextSwitch);
        }
        let mut a = access(0, 0, false);
        a.authoritative_pa = 0x40;
        let v = c.check_access(101, &a).unwrap_err();
        assert_eq!(v.history.len(), super::HISTORY_DEPTH);
        assert_eq!(v.history.last().unwrap().instruction, 99);
    }
}
