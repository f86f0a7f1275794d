//! # cce-dbt — the code-cache access trace and its wire formats
//!
//! The paper drove its cache simulator from saved DynamoRIO logs (§4.1):
//! one record per superblock (id, size) and one event per superblock
//! entry, annotated with whether the entry came *directly* from another
//! superblock's exit (a chainable transition). This crate holds that
//! log and its codecs; `cce-workloads` produces the logs from calibrated
//! statistical models and `cce-sim` replays them against caches of every
//! granularity.
//!
//! * [`trace_log`] — the in-memory [`TraceLog`], its summaries and the
//!   JSON save/load format;
//! * [`trace_bin`] — the chunked, CRC-checked binary format and the
//!   streaming [`TraceReader`] (DESIGN.md §11);
//! * [`stream`] — the same framing over a live byte stream, with
//!   per-frame recovery (DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use cce_core::SuperblockId;
//! use cce_dbt::trace_bin::{load_binary, save_binary};
//! use cce_dbt::{SuperblockInfo, TraceLog};
//! use cce_tinyvm::Pc;
//!
//! let mut log = TraceLog::new("demo");
//! for i in 0..2u64 {
//!     log.record_superblock(SuperblockInfo {
//!         id: SuperblockId(i),
//!         head_pc: Pc(0x1000 + 64 * i),
//!         size: 230,
//!         guest_blocks: 3,
//!         exits: 2,
//!     });
//! }
//! log.record_access(SuperblockId(0), None);
//! log.record_access(SuperblockId(1), Some(SuperblockId(0)));
//!
//! let mut json = Vec::new();
//! log.save(&mut json)?;
//! let mut bin = Vec::new();
//! save_binary(&log, &mut bin)?;
//! assert_eq!(TraceLog::load(json.as_slice())?, log);
//! assert_eq!(load_binary(bin.as_slice())?, log);
//! # Ok::<(), cce_dbt::trace_log::TraceLogError>(())
//! ```

#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::iter_over_hash_type
    )
)]

pub mod stream;
pub mod trace_bin;
pub mod trace_log;

pub use stream::{FrameStream, StreamFrame, StreamWriter};
pub use trace_bin::{SharedTrace, TraceReader};
pub use trace_log::{SuperblockInfo, TraceEvent, TraceLog};
