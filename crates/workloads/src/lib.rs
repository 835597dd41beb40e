//! Synthetic workload suite for the SEESAW reproduction.
//!
//! The paper evaluates 10-billion-instruction Pin traces of Spec, Parsec,
//! Cloudsuite, Biobench, and cloud/server applications (§V). Those traces
//! are proprietary, so this crate substitutes parameterized generators,
//! one per workload, calibrated to the aggregate behaviors the paper
//! reports: the MPKI-versus-associativity shape of Fig. 2a (flat beyond
//! 4 ways), 53–95 % of references landing in superpage-backed memory, and
//! per-workload coherence intensity (multithreaded graph/cloud workloads
//! like canneal and tunkrank see heavy probe traffic, Fig. 11).
//!
//! A trace is a deterministic stream of [`TraceRef`]s in *offset space*
//! (`0..footprint`); the simulator maps offsets onto the virtual addresses
//! of a VMA allocated through the OS model, so which references hit
//! superpages is decided by the allocator under fragmentation — exactly
//! as on the paper's real machines.
//!
//! # Example
//!
//! ```
//! use seesaw_workloads::{catalog, TraceGenerator};
//!
//! let specs = catalog();
//! assert_eq!(specs.len(), 16);
//! let redis = specs.iter().find(|w| w.name == "redis").unwrap();
//! let mut gen = TraceGenerator::new(redis, 42);
//! let r = gen.next_ref();
//! assert!(r.offset < redis.footprint_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod ifetch;
mod spec;

pub use generator::{TraceGenerator, TraceRef};
pub use ifetch::{IFetchConfig, IFetchGenerator};
pub use spec::{catalog, cloud_subset, fig12_subset, WorkloadClass, WorkloadSpec};
