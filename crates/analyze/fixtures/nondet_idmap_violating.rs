//! Fixture: tables declared through `cce_core::idmap`'s aliases are
//! randomly keyed per table, so their iteration order is a
//! nondeterminism source exactly like a default-`RandomState` map's.
//! Expected findings (nondet-taint): the `IdMap` walk in `edges`
//! (reached from `render` in one hop) and the `for` loop over the
//! `IdSet` inside `settle`.

use cce_core::idmap::{IdMap, IdSet};

pub struct Graph {
    nodes: IdMap<Vec<SuperblockId>>,
}

/// Source, one hop from the sink: adjacency in table order.
fn edges(graph: &Graph) -> Vec<(SuperblockId, SuperblockId)> {
    graph
        .nodes
        .iter()
        .flat_map(|(&from, out)| out.iter().map(move |&to| (from, to)))
        .collect()
}

/// Sink: the rendered lines become the run's `SimResult`.
pub fn render(graph: &Graph) -> SimResult {
    let lines = edges(graph).iter().map(|(a, b)| format!("{a} -> {b}")).collect();
    SimResult { lines }
}

/// Sink with the source inline: victims leave in table order.
pub fn settle(sink: &mut dyn EventSink, victims: &[SuperblockId]) {
    let mut dying = IdSet::default();
    dying.extend(victims);
    for id in &dying {
        sink.on_evicted(*id);
    }
}
