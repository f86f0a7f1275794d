//! Fixture: the clean counterpart of `nondet_taint_violating.rs`.
//! Ordered containers feeding sinks, hash iteration with no path to
//! any sink, and an annotated exception all pass.

use std::collections::{BTreeMap, HashMap};

/// Sink over an *ordered* map: deterministic line order.
pub fn summarize(ordered: &BTreeMap<String, u64>) -> SimResult {
    let lines = ordered
        .iter()
        .map(|(name, hits)| format!("{name}: {hits}"))
        .collect();
    SimResult { lines }
}

/// Hash iteration is fine when nothing event-facing can reach it:
/// no sink calls into this function.
pub fn scratch_census(ids: &[u64]) -> usize {
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for &id in ids {
        *seen.entry(id).or_default() += 1;
    }
    seen.iter().filter(|&(_, &n)| n > 1).count()
}

/// An annotated source is suppressed.
pub fn emit_summary(sink: &mut dyn EventSink, counts: &HashMap<String, u64>) {
    let mut rows: Vec<(&String, &u64)> =
        // cce-analyze: allow(nondet-taint): rows are sorted before emission
        counts.iter().collect();
    rows.sort();
    for (name, hits) in rows {
        sink.on_row(name, *hits);
    }
}
