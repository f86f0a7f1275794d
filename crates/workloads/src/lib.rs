//! # cce-workloads — benchmark models for the eviction-granularity study
//!
//! The paper evaluates 20 workloads: the 12 SPECint2000 benchmarks under
//! Linux and 8 interactive Windows applications (Table 1). We cannot run
//! those binaries, so this crate models each one as a *statistical
//! workload*: a [`model::BenchmarkModel`] calibrated to the paper's
//! published per-benchmark facts —
//!
//! * hot-superblock count (Table 1's middle column),
//! * median translated superblock size (Figure 4) and the size spread
//!   that produces Figure 3's bucket distribution,
//! * mean outbound chainable links ≈ 1.7 (Figure 12),
//! * Table 2's measured runtimes and per-entry instruction densities
//!   (for the chaining slowdown model),
//!
//! plus a phased loop-nest access generator ([`access`]) that produces the
//! temporal locality and working-set shifts that make eviction policies
//! differ. The output is a [`cce_dbt::TraceLog`], the analogue of the
//! DynamoRIO log the paper saved and replayed: every trace the
//! simulator, the figures and the benchmark consume comes from here.
//!
//! # Example
//!
//! ```
//! use cce_workloads::catalog;
//!
//! let gzip = catalog::by_name("gzip").expect("gzip is in Table 1");
//! let trace = gzip.trace(0.25, 42); // quarter-scale, seed 42
//! let summary = trace.summary();
//! assert!(summary.superblock_count > 0);
//! assert!(summary.accesses > summary.superblock_count as u64);
//! ```

#![deny(unsafe_code)]

pub mod access;
pub mod catalog;
pub mod distributions;
pub mod mix;
pub mod model;

pub use catalog::{all, by_name, spec, windows};
pub use model::{BenchmarkModel, Suite};
