//! SEESAW: Set-Enhanced Superpage-Aware caching (the paper's contribution).
//!
//! SEESAW improves VIPT L1 caches by exploiting superpages' wider page
//! offsets. Each cache set is way-partitioned; the virtual-address bits
//! immediately above the set index select a partition. For data in
//! superpages those bits are guaranteed identical in the physical address,
//! so a lookup can probe just one partition — fewer ways, lower latency,
//! less energy. A small direct-mapped **Translation Filter Table (TFT)**
//! predicts, in parallel with the TLB, whether an access falls in a
//! superpage-backed region; base pages and TFT misses fall back to a
//! conventional full-set VIPT lookup. A uniform partition-local insertion
//! policy (`4way`) keeps every line in the partition named by its
//! *physical* partition bits, which also lets every coherence probe —
//! superpage or not — search a single partition (§IV-C1).
//!
//! # One skeleton, many designs
//!
//! Every VIPT/PIPT design here is one generic type, [`ComposedL1`],
//! whose three bounds are the design: an [`IndexSelect`] (which bits
//! pick the set), a [`PartitionPolicy`] (which ways a lookup, fill and
//! coherence probe touch, plus any TFT and per-case counters) and a
//! [`WayPredict`] (which way to try first). [`SeesawL1`], [`VespaL1`],
//! [`BaselineL1`] and [`MicroTagL1`] are instantiations; [`VivtL1`],
//! whose synonym maps are not a plan row, is its own type. All of them
//! implement [`L1DataCache`], whose lifecycle hooks (TFT fills, page-table
//! operations, context switches, audits, stats) are no-ops on designs
//! without the machinery.
//!
//! # Example
//!
//! ```
//! use seesaw_core::{L1DataCache, L1Request, L1Timing, SeesawConfig, SeesawL1};
//! use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
//!
//! let config = SeesawConfig::l1_32k();
//! let timing = L1Timing { fast_cycles: 1, slow_cycles: 2 };
//! let mut l1 = SeesawL1::new(config, timing);
//!
//! // A superpage access: VA bits 20:0 equal PA bits 20:0.
//! let req = L1Request {
//!     va: VirtAddr::new(0x4001_2340),
//!     pa: PhysAddr::new(0x1fa1_2340),
//!     page_size: PageSize::Super2M,
//!     is_write: false,
//! };
//! // Cold TFT: conservative full-set lookup.
//! let first = l1.access(&req);
//! assert_eq!(first.ways_probed, 8);
//! // After the TLB fill trains the TFT, the same region is fast.
//! l1.tft_fill(req.va);
//! let second = l1.access(&req);
//! assert!(second.hit);
//! assert_eq!(second.ways_probed, 4);
//! assert_eq!(second.latency_cycles, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod composed;
mod insertion;
mod l1;
mod microtag;
mod partition;
mod policy;
mod sched;
mod tft;
mod traits;
mod vespa;
mod vivt;

pub use baseline::BaselineL1;
pub use composed::ComposedL1;
pub use insertion::InsertionPolicy;
pub use l1::{SeesawConfig, SeesawL1, SeesawPartitioning, SeesawStats};
pub use microtag::{MicroTagConfig, MicroTagL1, MicroTagPrediction};
pub use partition::PartitionDecoder;
pub use policy::{
    FlexibleIndex, IndexSelect, LookupPlan, PartitionPolicy, Partitioning, VirtualIndex, WayPredict,
};
pub use sched::{HitTimeAssumption, SchedulerHint};
pub use tft::{TftStats, TranslationFilterTable};
pub use traits::{
    DesignStats, L1AccessOutcome, L1DataCache, L1Request, L1Timing, LookupCase, PromotionAudit,
};
pub use vespa::{VespaConfig, VespaL1, VespaPartitioning, VespaStats};
pub use vivt::{SynonymStats, VivtL1};
