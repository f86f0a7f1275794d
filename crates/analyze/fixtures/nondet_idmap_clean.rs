//! Fixture: the clean counterpart of `nondet_idmap_violating.rs`.
//! Probing an `IdMap`/`IdSet` is order-free, a walk no sink can reach
//! is nobody's output, and a walk that is sorted before it is emitted
//! carries the annotation saying so.

use cce_core::idmap::{IdMap, IdSet};

pub struct Graph {
    nodes: IdMap<Vec<SuperblockId>>,
}

/// Sink that only probes: membership and lookups have no order.
pub fn settle(sink: &mut dyn EventSink, graph: &Graph, victims: &[SuperblockId]) {
    let mut dying = IdSet::default();
    dying.extend(victims);
    for &id in victims {
        let fan_in = graph.nodes.get(&id).map_or(0, Vec::len);
        sink.on_unlinked(id, fan_in, dying.contains(&id));
    }
}

/// A walk in table order is fine when no sink calls into it.
pub fn debug_degree_sum(graph: &Graph) -> usize {
    graph.nodes.values().map(Vec::len).sum()
}

/// Sorted before it reaches the result, and annotated.
pub fn render(graph: &Graph) -> SimResult {
    let mut ids: Vec<SuperblockId> =
        // cce-analyze: allow(nondet-taint): ids are sorted before rendering
        graph.nodes.keys().copied().collect();
    ids.sort_unstable();
    SimResult {
        lines: ids.iter().map(|id| format!("{id}")).collect(),
    }
}
