//! # cce-tinyvm — the guest address type of a code-cache access trace
//!
//! [`Pc`] is the head address that `cce-dbt`'s trace registry records
//! for each superblock.
//!
//! ```
//! use cce_tinyvm::{program, Pc};
//!
//! let head = Pc(0x40);
//! assert_eq!(head, program::Pc(0x40));
//! assert_eq!(head.0, 0x40);
//! ```

#![deny(unsafe_code)]

/// The guest address type, under the module path its callers name.
pub mod program {
    /// A byte address in the guest program image.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Pc(pub u64);
}

pub use program::Pc;
