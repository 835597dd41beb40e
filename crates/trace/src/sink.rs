//! Event sinks: where traced events go.
//!
//! The hot loop is generic over `S: Sink` and guards every emission with
//! `if S::ENABLED { sink.emit(..) }`. `ENABLED` is an associated
//! constant, so for [`NullSink`] the branch is `if false` and the whole
//! emission site — including payload construction — is dead code the
//! optimizer removes. This is the crate's zero-overhead-when-off
//! guarantee: it does not rely on branch prediction, only on
//! monomorphization.

use std::collections::VecDeque;

use crate::chrome::ChromeTrace;
use crate::event::{Event, EventCounts, EventKind};

/// Destination for traced events.
pub trait Sink {
    /// Compile-time flag: emission sites are guarded by
    /// `if S::ENABLED`, so a `false` here removes them entirely from the
    /// monomorphized code.
    const ENABLED: bool;

    /// Records one event stamped with the absolute instruction count.
    fn emit(&mut self, at: u64, kind: EventKind);

    /// Sets the core id stamped on subsequently emitted events. The
    /// multi-core interleave calls this when it switches cores (and
    /// around cross-core probe deliveries); single-core callers can
    /// ignore it — events default to core 0.
    fn set_core(&mut self, _core: u16) {}

    /// Consumes the sink and returns its captured trace, if any.
    fn finish(self) -> Option<TraceData>;

    /// The most recent `n` retained events as JSONL lines, oldest first,
    /// without consuming the sink. Used by the repro-bundle writer, which
    /// needs the event tail at the moment a checker violation surfaces —
    /// mid-run, while the sink is still owned by the hot loop. Sinks that
    /// retain nothing return an empty vector.
    fn tail_jsonl(&self, _n: usize) -> Vec<String> {
        Vec::new()
    }
}

/// The disabled sink: every emission site monomorphizes to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _at: u64, _kind: EventKind) {}

    fn finish(self) -> Option<TraceData> {
        None
    }
}

/// A bounded ring of the most recent events plus an exact
/// [`EventCounts`] mirror that survives ring wrap-around, maintained
/// both in aggregate and per core.
#[derive(Debug, Clone)]
pub struct RingSink {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    counts: EventCounts,
    core: u16,
    per_core: Vec<EventCounts>,
}

impl RingSink {
    /// Creates a sink that retains the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity: capacity.max(1),
            dropped: 0,
            counts: EventCounts::default(),
            core: 0,
            per_core: Vec::new(),
        }
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Exact per-type counts of every event ever emitted.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }
}

impl Sink for RingSink {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, at: u64, kind: EventKind) {
        self.counts.observe(&kind);
        let core = self.core;
        if core as usize >= self.per_core.len() {
            self.per_core
                .resize(core as usize + 1, EventCounts::default());
        }
        self.per_core[core as usize].observe(&kind);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Event { at, core, kind });
    }

    #[inline]
    fn set_core(&mut self, core: u16) {
        self.core = core;
    }

    fn finish(self) -> Option<TraceData> {
        Some(TraceData {
            events: self.ring.into_iter().collect(),
            counts: self.counts,
            per_core: self.per_core,
            dropped: self.dropped,
        })
    }

    fn tail_jsonl(&self, n: usize) -> Vec<String> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring.iter().skip(skip).map(Event::to_json).collect()
    }
}

/// The captured output of a traced run.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// The retained tail of the event stream, oldest first.
    pub events: Vec<Event>,
    /// Exact counts of every event emitted (including dropped ones).
    pub counts: EventCounts,
    /// Exact counts split by core, indexed by core id. Summing any field
    /// across cores reproduces the same field of `counts`.
    pub per_core: Vec<EventCounts>,
    /// Events evicted from the ring because capacity was exceeded.
    pub dropped: u64,
}

impl TraceData {
    /// Renders the retained events as a JSONL string, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Total events emitted over the run (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Renders the retained *structural* events as a Chrome
    /// `trace_event` JSON string with one thread track per core
    /// (Perfetto shows "core 0", "core 1", … under process `name`).
    ///
    /// Page walks become spans (`ph:"X"`, ending at their stamp);
    /// promotions, splinters, demotions, shootdowns, context switches,
    /// coherence probes, TFT flushes, faults, and violations become
    /// instants. Per-access events (TLB/TFT/partition lookups, TFT
    /// fills) are deliberately skipped — they arrive at every
    /// instruction and are already summarized exactly by
    /// [`TraceData::counts`] / [`TraceData::per_core`].
    pub fn to_chrome(&self, name: &str) -> String {
        let pid = 1;
        let mut t = ChromeTrace::new();
        t.process_name(pid, name);
        for core in 0..self.per_core.len().max(1) {
            t.thread_name(pid, core as u64 + 1, &format!("core {core}"));
        }
        for e in &self.events {
            let tid = u64::from(e.core) + 1;
            match e.kind {
                EventKind::WalkEnd { cycles, .. } => {
                    let dur = u64::from(cycles).max(1);
                    t.complete(
                        "page_walk",
                        "translation",
                        pid,
                        tid,
                        e.at.saturating_sub(dur),
                        dur,
                        &[],
                    );
                }
                EventKind::Promotion { .. }
                | EventKind::Splinter { .. }
                | EventKind::Demotion { .. } => {
                    t.instant(e.kind.name(), "os", pid, tid, e.at, &[]);
                }
                EventKind::Shootdown { .. } | EventKind::ContextSwitch => {
                    t.instant(e.kind.name(), "os", pid, tid, e.at, &[]);
                }
                EventKind::CoherenceProbe { invalidate, .. } => {
                    let v = if invalidate { "true" } else { "false" };
                    t.instant(
                        "coherence_probe",
                        "coherence",
                        pid,
                        tid,
                        e.at,
                        &[("invalidate", v)],
                    );
                }
                EventKind::TftFlush => {
                    t.instant("tft_flush", "tft", pid, tid, e.at, &[]);
                }
                EventKind::Violation { kind } => {
                    t.instant("violation", "check", pid, tid, e.at, &[("kind", kind)]);
                }
                EventKind::Fault { kind } => {
                    t.instant("fault", "check", pid, tid, e.at, &[("kind", kind)]);
                }
                EventKind::Phase { phase } => {
                    t.instant("phase", "ops", pid, tid, e.at, &[("phase", phase.label())]);
                }
                EventKind::TlbLookup { .. }
                | EventKind::TftLookup { .. }
                | EventKind::TftFill
                | EventKind::PartitionLookup { .. } => {}
            }
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TranslationLevel;

    #[test]
    fn null_sink_is_disabled_and_empty() {
        fn enabled<S: Sink>(_s: &S) -> bool {
            S::ENABLED
        }
        let mut s = NullSink;
        assert!(!enabled(&s));
        s.emit(1, EventKind::ContextSwitch);
        assert!(s.finish().is_none());
    }

    #[test]
    fn ring_wraps_but_counts_everything() {
        let mut s = RingSink::new(4);
        for i in 0..10 {
            s.emit(
                i,
                EventKind::TlbLookup {
                    level: TranslationLevel::L1,
                },
            );
        }
        assert_eq!(s.len(), 4);
        let t = s.finish().unwrap();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.counts.tlb_l1_hits, 10);
        assert_eq!(t.emitted(), 10);
        // Ring keeps the most recent events, oldest first.
        assert_eq!(t.events[0].at, 6);
        assert_eq!(t.events[3].at, 9);
    }

    #[test]
    fn tail_jsonl_reads_without_consuming() {
        let mut s = RingSink::new(4);
        for i in 0..7 {
            s.emit(i, EventKind::TftFill);
        }
        let tail = s.tail_jsonl(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].contains("\"at\":5"));
        assert!(tail[1].contains("\"at\":6"));
        // Asking for more than is retained returns everything retained.
        assert_eq!(s.tail_jsonl(100).len(), 4);
        // The null sink retains nothing.
        assert!(NullSink.tail_jsonl(8).is_empty());
        // The sink is still usable and its trace intact.
        let t = s.finish().unwrap();
        assert_eq!(t.events.len(), 4);
    }

    #[test]
    fn jsonl_has_one_line_per_retained_event() {
        let mut s = RingSink::new(8);
        s.emit(5, EventKind::TftFill);
        s.emit(6, EventKind::TftFlush);
        let t = s.finish().unwrap();
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"at\":5,\"core\":0,\"type\":\"tft_fill\"}"));
    }

    #[test]
    fn per_core_counts_partition_the_aggregate() {
        let mut s = RingSink::new(8);
        s.emit(1, EventKind::TftFill);
        s.set_core(2);
        s.emit(2, EventKind::TftFill);
        s.emit(3, EventKind::ContextSwitch);
        s.set_core(0);
        s.emit(4, EventKind::TftFill);
        let t = s.finish().unwrap();
        assert_eq!(t.per_core.len(), 3);
        assert_eq!(t.per_core[0].tft_fills, 2);
        assert_eq!(t.per_core[1], EventCounts::default());
        assert_eq!(t.per_core[2].tft_fills, 1);
        assert_eq!(t.per_core[2].context_switches, 1);
        let split: u64 = t.per_core.iter().map(|c| c.total()).sum();
        assert_eq!(split, t.counts.total());
        assert_eq!(t.events[1].core, 2);
    }

    #[test]
    fn chrome_export_gets_one_track_per_core() {
        let mut s = RingSink::new(16);
        s.emit(
            100,
            EventKind::WalkEnd {
                cycles: 30,
                superpage: false,
            },
        );
        s.set_core(1);
        s.emit(
            101,
            EventKind::CoherenceProbe {
                ways_probed: 4,
                invalidate: true,
            },
        );
        s.emit(102, EventKind::ContextSwitch);
        let t = s.finish().unwrap();
        let json = t.to_chrome("smoke");
        assert!(json.contains("\"traceEvents\""));
        // One thread-name metadata record per core.
        assert!(json.contains("core 0"));
        assert!(json.contains("core 1"));
        // The walk is a span on core 0's track, the probe an instant on
        // core 1's.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":2"));
    }
}
