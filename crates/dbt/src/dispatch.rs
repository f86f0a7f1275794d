//! Dispatcher event accounting.
//!
//! Every entry into cached code goes through one of two doors:
//!
//! * a **linked** (chained) transition — the previous superblock's exit
//!   stub was patched to jump straight to the target: no dispatcher, no
//!   hash lookup, no protection changes;
//! * a **dispatched** entry — control returns to the translator, which
//!   saves guest state, re-protects the code cache (DynamoRIO issues a
//!   pair of `mprotect` system calls to guard the translator from guest
//!   code — the cost the paper blames for Table 2's slowdowns), looks up
//!   the hash table, and context-switches back in.
//!
//! [`DispatchStats`] counts those events. Its producer, the
//! from-scratch translator, has been deleted; nothing in the workspace
//! fills these counters any more, and the module is slated for removal
//! with the rest of the guest substrate.

/// Counters for the dispatch-path events of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Superblock entries that rode a patched link (no dispatcher).
    pub linked_entries: u64,
    /// Superblock entries that went through the dispatcher.
    pub dispatched_entries: u64,
    /// Basic blocks executed by the interpreter (cold code).
    pub interpreted_blocks: u64,
    /// Basic blocks executed from the basic-block cache (dual-cache
    /// configurations only; DynamoRIO's first-level cache, §2.2).
    pub bb_cache_entries: u64,
    /// Superblock translations (initial formations plus regenerations
    /// after eviction).
    pub translations: u64,
    /// Exit stubs restored to point back at the dispatcher because their
    /// target was evicted while the source survived (Eq. 4's `numLinks`,
    /// summed over the run). Fed by the cache's settled event stream.
    pub stub_unpatches: u64,
    /// Guest instructions retired in total.
    pub guest_instructions: u64,
}

impl DispatchStats {
    /// Total superblock entries.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.linked_entries + self.dispatched_entries
    }

    /// Fraction of entries that were linked (1.0 = perfect chaining).
    #[must_use]
    pub fn linked_fraction(&self) -> f64 {
        let total = self.total_entries();
        if total == 0 {
            0.0
        } else {
            self.linked_entries as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_fraction_handles_zero() {
        assert_eq!(DispatchStats::default().linked_fraction(), 0.0);
    }

    #[test]
    fn linked_fraction_computes() {
        let s = DispatchStats {
            linked_entries: 3,
            dispatched_entries: 1,
            ..DispatchStats::default()
        };
        assert_eq!(s.total_entries(), 4);
        assert!((s.linked_fraction() - 0.75).abs() < 1e-12);
    }
}
