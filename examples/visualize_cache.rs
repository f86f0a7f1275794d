//! Visualizing cache occupancy and superblock interconnectivity —
//! the paper's §5.4 "analysis and visualization" future work.
//!
//! Prints an ASCII occupancy chart of a pressured cache mid-run and
//! writes the live link graph as Graphviz DOT (render with
//! `dot -Tsvg /tmp/cce_links.dot -o links.svg`).
//!
//! Run with: `cargo run --release --example visualize_cache`

use cce::core::visualize::{link_graph_dot, occupancy_chart};
use cce::core::{CodeCache, Granularity, NullSink, SuperblockId};
use cce::dbt::TraceEvent;
use cce::workloads::catalog;
use std::collections::HashMap;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let model = catalog::by_name("twolf").expect("table 1 benchmark");
    let trace = model.trace(0.2, 8);
    let capacity = trace.max_cache_bytes() / 3;
    let sizes: HashMap<SuperblockId, u32> =
        trace.superblocks.iter().map(|s| (s.id, s.size)).collect();

    // Replay half the trace into an 8-unit cache, then snapshot.
    let mut cache = CodeCache::with_granularity(Granularity::units(8), capacity)?;
    for ev in trace.events.iter().take(trace.events.len() / 2) {
        let TraceEvent::Access { id, direct_from } = *ev;
        cache.transition(id, sizes[&id], direct_from, true, &mut NullSink)?;
    }

    println!("{}", occupancy_chart(&cache));
    let (intra, inter) = cache.link_census();
    println!(
        "live links: {} intra-unit, {} inter-unit ({:.1}% would need unpatching \
         if their target's unit flushed)",
        intra,
        inter,
        inter as f64 / (intra + inter).max(1) as f64 * 100.0
    );

    let dot = link_graph_dot(&cache);
    let path = std::env::temp_dir().join("cce_links.dot");
    std::fs::write(&path, &dot)?;
    println!(
        "\nwrote {} ({} nodes, render with: dot -Tsvg {} -o links.svg)",
        path.display(),
        cache.resident_count(),
        path.display()
    );
    Ok(())
}
