//! Cache-coherence substrate for the SEESAW reproduction.
//!
//! The paper's target system keeps L1 caches coherent with a MOESI
//! directory protocol (Table II) and attributes a significant slice of
//! SEESAW's energy savings to cheaper coherence lookups (§IV-C1, Fig. 11):
//! coherence probes carry physical addresses, so with SEESAW's uniform
//! 4-way insertion policy *every* probe — superpage or base page — needs
//! to check only one partition.
//!
//! Three pieces live here:
//!
//! * [`protocol`] — the MOESI state machine itself;
//! * [`DirectoryController`] — a functional multi-core directory
//!   (plus a snoopy broadcast variant) over real L1 cache arrays. It is
//!   a duplicate-tag directory: sharers are read from the mirrored L1
//!   tag arrays, so its memory is bounded by cores × L1 lines;
//! * [`CoherenceTraffic`] — a calibrated probe-rate generator, the
//!   `cores = 1` fallback that models probes arriving from unsimulated
//!   cores and from system-level activity.
//!
//! Multi-core runs drive [`DirectoryController::access`] with every
//! reference; the [`Transaction`] it returns borrows the
//! [`ProbeDelivery`] list (ascending target order, no allocation) the
//! simulator replays against the per-core timing L1s, so every probe
//! originates from a real peer miss or upgrade rather than from the
//! synthetic stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;

mod directory;
mod traffic;

pub use directory::{
    CoherenceMode, CoherenceStats, DirectoryController, ProbeDelivery, Transaction,
};
pub use traffic::{CoherenceTraffic, CoherenceTrafficConfig, Probe};
