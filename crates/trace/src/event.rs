//! Typed, compact simulation events.

use crate::ops::CellPhase;

/// Which level of the translation machinery served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationLevel {
    /// Served by an L1 TLB (zero extra cycles).
    L1,
    /// Served by the unified L2 TLB.
    L2,
    /// Required a full page-table walk.
    Walk,
}

impl TranslationLevel {
    /// Stable lower-case label used by the JSONL exporter.
    pub fn label(self) -> &'static str {
        match self {
            TranslationLevel::L1 => "l1",
            TranslationLevel::L2 => "l2",
            TranslationLevel::Walk => "walk",
        }
    }
}

/// One simulation event. Payloads are deliberately small (≤ 8 bytes) so
/// a ring of hundreds of thousands of events stays cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A translation lookup, tagged with the level that served it.
    TlbLookup {
        /// The level that produced the translation.
        level: TranslationLevel,
    },
    /// A page walk completed. `at` is the retiring instruction; the walk
    /// conceptually began `cycles` earlier, which is how the Chrome
    /// exporter renders it as a span.
    WalkEnd {
        /// Translation penalty the walk charged (L2 probe + walk levels).
        cycles: u32,
        /// Whether the walk discovered a superpage mapping.
        superpage: bool,
    },
    /// A TFT prediction was consulted on the access path.
    TftLookup {
        /// True if the TFT vouched for the region.
        hit: bool,
    },
    /// A TFT fill (TLB superpage fill or confirmation refresh).
    TftFill,
    /// A TFT full flush (context switch).
    TftFlush,
    /// An L1 data-cache lookup with its probe width — SEESAW's central
    /// per-access quantity (partition vs full-set).
    PartitionLookup {
        /// Ways probed by this lookup.
        ways_probed: u8,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A 2 MB region was promoted to a superpage.
    Promotion {
        /// Base VA of the promoted region.
        region_va: u64,
    },
    /// A superpage was splintered into base pages.
    Splinter {
        /// Base VA of the splintered region.
        region_va: u64,
    },
    /// A requested promotion degraded to base pages (fragmentation/OOM).
    Demotion {
        /// Base VA of the region that stayed base-paged.
        region_va: u64,
    },
    /// A TLB shootdown was delivered.
    Shootdown {
        /// Base VA of the page shot down.
        page_va: u64,
    },
    /// A context switch (flushes the ASID-less TFT).
    ContextSwitch,
    /// A coherence probe delivered to the L1.
    CoherenceProbe {
        /// Ways the probe searched.
        ways_probed: u8,
        /// Whether the probe was an invalidation.
        invalidate: bool,
    },
    /// The differential checker caught an invariant violation.
    Violation {
        /// The violated invariant (stable name from `ViolationKind`).
        kind: &'static str,
    },
    /// The injector fired a fault.
    Fault {
        /// The fault kind (stable name from `FaultKind`).
        kind: &'static str,
    },
    /// A run phase began (build / prewarm / warmup / measure) — the
    /// same boundaries `SEESAW_PHASE_TIMING=1` times, emitted so traced
    /// runs and live status consumers see where a cell is.
    Phase {
        /// The phase that is starting.
        phase: CellPhase,
    },
}

impl EventKind {
    /// Every event-type name the JSONL exporter can produce, for
    /// validators.
    pub const NAMES: [&'static str; 15] = [
        "tlb_lookup",
        "walk_end",
        "tft_lookup",
        "tft_fill",
        "tft_flush",
        "partition_lookup",
        "promotion",
        "splinter",
        "demotion",
        "shootdown",
        "context_switch",
        "coherence_probe",
        "violation",
        "fault",
        "phase",
    ];

    /// Stable snake_case name of this event type.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TlbLookup { .. } => "tlb_lookup",
            EventKind::WalkEnd { .. } => "walk_end",
            EventKind::TftLookup { .. } => "tft_lookup",
            EventKind::TftFill => "tft_fill",
            EventKind::TftFlush => "tft_flush",
            EventKind::PartitionLookup { .. } => "partition_lookup",
            EventKind::Promotion { .. } => "promotion",
            EventKind::Splinter { .. } => "splinter",
            EventKind::Demotion { .. } => "demotion",
            EventKind::Shootdown { .. } => "shootdown",
            EventKind::ContextSwitch => "context_switch",
            EventKind::CoherenceProbe { .. } => "coherence_probe",
            EventKind::Violation { .. } => "violation",
            EventKind::Fault { .. } => "fault",
            EventKind::Phase { .. } => "phase",
        }
    }
}

/// A stamped event: `at` is the absolute instruction count on the
/// issuing core's timeline (spanning every `simulate` call of the run,
/// matching the checker's diagnostic timeline), and `core` identifies
/// which core the event belongs to (the *target* core for delivered
/// coherence probes, the initiator for everything else).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Instruction stamp.
    pub at: u64,
    /// Core the event belongs to (always 0 on single-core runs).
    pub core: u16,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one flat JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"at\":{},\"core\":{},\"type\":\"{}\"",
            self.at,
            self.core,
            self.kind.name()
        );
        match self.kind {
            EventKind::TlbLookup { level } => {
                s.push_str(&format!(",\"level\":\"{}\"", level.label()));
            }
            EventKind::WalkEnd { cycles, superpage } => {
                s.push_str(&format!(",\"cycles\":{cycles},\"superpage\":{superpage}"));
            }
            EventKind::TftLookup { hit } => s.push_str(&format!(",\"hit\":{hit}")),
            EventKind::TftFill | EventKind::TftFlush | EventKind::ContextSwitch => {}
            EventKind::PartitionLookup { ways_probed, hit } => {
                s.push_str(&format!(",\"ways_probed\":{ways_probed},\"hit\":{hit}"));
            }
            EventKind::Promotion { region_va }
            | EventKind::Splinter { region_va }
            | EventKind::Demotion { region_va } => {
                s.push_str(&format!(",\"region_va\":{region_va}"));
            }
            EventKind::Shootdown { page_va } => s.push_str(&format!(",\"page_va\":{page_va}")),
            EventKind::CoherenceProbe {
                ways_probed,
                invalidate,
            } => {
                s.push_str(&format!(
                    ",\"ways_probed\":{ways_probed},\"invalidate\":{invalidate}"
                ));
            }
            EventKind::Violation { kind } | EventKind::Fault { kind } => {
                s.push_str(&format!(",\"kind\":\"{kind}\""));
            }
            EventKind::Phase { phase } => {
                s.push_str(&format!(",\"phase\":\"{}\"", phase.label()));
            }
        }
        s.push('}');
        s
    }
}

crate::counters! {
    /// Exact per-type event counters, maintained by [`crate::RingSink`] for
    /// *every* emitted event (the ring may drop old events; these never do).
    /// The fields mirror the reconcilable aggregate counters of the `*Stats`
    /// structs, so `traced X events == XStats.x` checks hold by construction.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EventCounts {
        /// Translations served by an L1 TLB.
        pub tlb_l1_hits: u64,
        /// Translations served by the L2 TLB.
        pub tlb_l2_hits: u64,
        /// Translations that required a page walk.
        pub tlb_walks: u64,
        /// Page walks completed (equals `tlb_walks`; kept separate so the
        /// two emission sites cross-check each other).
        pub walk_ends: u64,
        /// TFT lookups that hit.
        pub tft_hits: u64,
        /// TFT lookups that missed.
        pub tft_misses: u64,
        /// TFT fills.
        pub tft_fills: u64,
        /// TFT flushes.
        pub tft_flushes: u64,
        /// L1 lookups that hit.
        pub l1_hits: u64,
        /// L1 lookups that missed.
        pub l1_misses: u64,
        /// Total ways probed across L1 lookups.
        pub ways_probed: u64,
        /// Promotions applied.
        pub promotions: u64,
        /// Splinters applied.
        pub splinters: u64,
        /// Promotions demoted to base pages.
        pub demotions: u64,
        /// Shootdowns delivered.
        pub shootdowns: u64,
        /// Context switches.
        pub context_switches: u64,
        /// Coherence probes delivered.
        pub coherence_probes: u64,
        /// Checker violations observed.
        pub violations: u64,
        /// Injected faults fired.
        pub faults: u64,
        /// Phase boundaries crossed.
        pub phase_marks: u64,
    }
}

impl EventCounts {
    /// Folds one event into the counters.
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::TlbLookup { level } => match level {
                TranslationLevel::L1 => self.tlb_l1_hits += 1,
                TranslationLevel::L2 => self.tlb_l2_hits += 1,
                TranslationLevel::Walk => self.tlb_walks += 1,
            },
            EventKind::WalkEnd { .. } => self.walk_ends += 1,
            EventKind::TftLookup { hit } => {
                if hit {
                    self.tft_hits += 1;
                } else {
                    self.tft_misses += 1;
                }
            }
            EventKind::TftFill => self.tft_fills += 1,
            EventKind::TftFlush => self.tft_flushes += 1,
            EventKind::PartitionLookup { ways_probed, hit } => {
                if hit {
                    self.l1_hits += 1;
                } else {
                    self.l1_misses += 1;
                }
                self.ways_probed += u64::from(ways_probed);
            }
            EventKind::Promotion { .. } => self.promotions += 1,
            EventKind::Splinter { .. } => self.splinters += 1,
            EventKind::Demotion { .. } => self.demotions += 1,
            EventKind::Shootdown { .. } => self.shootdowns += 1,
            EventKind::ContextSwitch => self.context_switches += 1,
            EventKind::CoherenceProbe { .. } => self.coherence_probes += 1,
            EventKind::Violation { .. } => self.violations += 1,
            EventKind::Fault { .. } => self.faults += 1,
            EventKind::Phase { .. } => self.phase_marks += 1,
        }
    }

    /// Total events observed: every counter except `ways_probed`,
    /// which sums a payload rather than counting events.
    pub fn total(&self) -> u64 {
        crate::Counter::sum_leaves(self) - self.ways_probed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_enumerated() {
        let kinds = [
            EventKind::TlbLookup {
                level: TranslationLevel::L2,
            },
            EventKind::WalkEnd {
                cycles: 1,
                superpage: false,
            },
            EventKind::TftLookup { hit: true },
            EventKind::TftFill,
            EventKind::TftFlush,
            EventKind::PartitionLookup {
                ways_probed: 4,
                hit: true,
            },
            EventKind::Promotion { region_va: 0 },
            EventKind::Splinter { region_va: 0 },
            EventKind::Demotion { region_va: 0 },
            EventKind::Shootdown { page_va: 0 },
            EventKind::ContextSwitch,
            EventKind::CoherenceProbe {
                ways_probed: 4,
                invalidate: true,
            },
            EventKind::Violation { kind: "x" },
            EventKind::Fault { kind: "y" },
            EventKind::Phase {
                phase: CellPhase::Warmup,
            },
        ];
        for kind in kinds {
            assert!(
                EventKind::NAMES.contains(&kind.name()),
                "{} missing from NAMES",
                kind.name()
            );
        }
        assert_eq!(kinds.len(), EventKind::NAMES.len());
    }

    #[test]
    fn json_lines_are_flat_objects() {
        let e = Event {
            at: 42,
            core: 1,
            kind: EventKind::WalkEnd {
                cycles: 107,
                superpage: true,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"at\":42,\"core\":1,\"type\":\"walk_end\",\"cycles\":107,\"superpage\":true}"
        );
    }

    #[test]
    fn counts_fold_every_kind() {
        let mut c = EventCounts::default();
        c.observe(&EventKind::TlbLookup {
            level: TranslationLevel::Walk,
        });
        c.observe(&EventKind::PartitionLookup {
            ways_probed: 8,
            hit: false,
        });
        c.observe(&EventKind::TftLookup { hit: false });
        assert_eq!(c.tlb_walks, 1);
        assert_eq!(c.l1_misses, 1);
        assert_eq!(c.ways_probed, 8);
        assert_eq!(c.tft_misses, 1);
        assert_eq!(c.total(), 3);
    }
}
