//! Visualization of cache occupancy and superblock interconnectivity.
//!
//! The paper's §5.4: *"Our future work includes a more detailed analysis
//! and visualization of the interconnectivity of superblocks within the
//! cache."* This module renders two views of a live [`CodeCache`]:
//!
//! * [`occupancy_chart`] — an ASCII bar per eviction unit showing fill
//!   level and block count (unit-partitioned organizations), or a single
//!   bar for per-superblock organizations;
//! * [`link_graph_dot`] — the live link graph in Graphviz DOT, with
//!   superblocks clustered by their current eviction unit and inter-unit
//!   links highlighted, ready for `dot -Tsvg`.

use crate::cache::CodeCache;
use crate::ids::UnitId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders an ASCII occupancy chart of the cache.
///
/// # Example
///
/// ```
/// use cce_core::{CacheSession, CodeCache, Granularity, InsertRequest, SuperblockId};
/// use cce_core::visualize::occupancy_chart;
///
/// let mut cache = CodeCache::with_granularity(Granularity::units(2), 200)?;
/// cache.access_or_insert_quiet(InsertRequest::new(SuperblockId(1), 60))?;
/// let chart = occupancy_chart(&cache);
/// assert!(chart.contains("u0"));
/// # Ok::<(), cce_core::CacheError>(())
/// ```
#[must_use]
pub fn occupancy_chart(cache: &CodeCache) -> String {
    const WIDTH: usize = 40;
    let mut per_unit: BTreeMap<UnitId, (u64, usize)> = BTreeMap::new();
    for (id, size) in cache.org().resident_entries() {
        let unit = cache.unit_of(id).expect("resident blocks have units");
        let e = per_unit.entry(unit).or_insert((0, 0));
        e.0 += u64::from(size);
        e.1 += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "code cache: {} / {} bytes in {} blocks ({})",
        cache.used(),
        cache.capacity(),
        cache.resident_count(),
        cache.granularity()
    );
    if per_unit.len() > 32 {
        // Per-superblock organizations: one aggregate bar.
        let filled = (cache.used() as f64 / cache.capacity() as f64 * WIDTH as f64) as usize;
        let _ = writeln!(
            out,
            "[{}{}] {} blocks (per-superblock units)",
            "#".repeat(filled.min(WIDTH)),
            "-".repeat(WIDTH - filled.min(WIDTH)),
            cache.resident_count()
        );
        return out;
    }
    let unit_cap = (cache.capacity() / per_unit.len().max(1) as u64).max(1);
    for (unit, (bytes, blocks)) in &per_unit {
        let filled = (*bytes as f64 / unit_cap as f64 * WIDTH as f64) as usize;
        let _ = writeln!(
            out,
            "{unit:>4} [{}{}] {bytes:>7} B, {blocks:>3} blocks",
            "#".repeat(filled.min(WIDTH)),
            "-".repeat(WIDTH - filled.min(WIDTH)),
        );
    }
    out
}

/// Renders the live link graph as Graphviz DOT, clustering superblocks by
/// eviction unit. Inter-unit links (the ones needing back-pointer
/// maintenance) are drawn in red with a `penwidth` of 2.
#[must_use]
pub fn link_graph_dot(cache: &CodeCache) -> String {
    let mut clusters: BTreeMap<UnitId, Vec<String>> = BTreeMap::new();
    for (id, size) in cache.org().resident_entries() {
        let unit = cache.unit_of(id).expect("resident blocks have units");
        clusters
            .entry(unit)
            .or_default()
            .push(format!("  \"{id}\" [label=\"{id}\\n{size}B\"];"));
    }
    let mut out = String::from("digraph code_cache {\n  rankdir=LR;\n  node [shape=box];\n");
    // Only cluster when units are shared (unit-partitioned orgs).
    let cluster = clusters.len() < cache.resident_count();
    for (unit, nodes) in &clusters {
        if cluster {
            let _ = writeln!(out, "  subgraph \"cluster_{unit}\" {{");
            let _ = writeln!(out, "    label=\"{unit}\";");
            for n in nodes {
                let _ = writeln!(out, "  {n}");
            }
            let _ = writeln!(out, "  }}");
        } else {
            for n in nodes {
                let _ = writeln!(out, "{n}");
            }
        }
    }
    // `iter_links` is unordered; sorting keeps the output byte-stable.
    let mut links: Vec<_> = cache.link_graph().iter_links().collect();
    links.sort_unstable();
    for (from, to) in links {
        let inter = from != to && cache.unit_of(from) != cache.unit_of(to);
        if inter {
            let _ = writeln!(out, "  \"{from}\" -> \"{to}\" [color=red, penwidth=2];");
        } else {
            let _ = writeln!(out, "  \"{from}\" -> \"{to}\";");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::ids::{Granularity, SuperblockId};
    use crate::session::InsertRequest;

    fn ins(c: &mut CodeCache, id: u64, size: u32) {
        c.insert_request(InsertRequest::new(SuperblockId(id), size), &mut NullSink)
            .unwrap();
    }

    fn sample_cache() -> CodeCache {
        let mut c = CodeCache::with_granularity(Granularity::units(2), 200).unwrap();
        ins(&mut c, 1, 60);
        ins(&mut c, 2, 30);
        ins(&mut c, 3, 80); // lands in unit 1
        c.link(SuperblockId(1), SuperblockId(2)).unwrap(); // intra
        c.link(SuperblockId(1), SuperblockId(3)).unwrap(); // inter
        c
    }

    #[test]
    fn occupancy_chart_lists_units_and_totals() {
        let chart = occupancy_chart(&sample_cache());
        assert!(chart.contains("170 / 200 bytes in 3 blocks"));
        assert!(chart.contains("u0"));
        assert!(chart.contains("u1"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn occupancy_chart_collapses_per_superblock_orgs() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 10_000).unwrap();
        for i in 0..40 {
            ins(&mut c, i, 100);
        }
        let chart = occupancy_chart(&c);
        assert!(chart.contains("per-superblock units"));
    }

    #[test]
    fn dot_output_marks_inter_unit_links_red() {
        let dot = link_graph_dot(&sample_cache());
        assert!(dot.starts_with("digraph code_cache {"));
        assert!(dot.contains("subgraph \"cluster_u0\""));
        assert!(dot.contains("\"sb1\" -> \"sb2\";"), "intra link plain");
        assert!(
            dot.contains("\"sb1\" -> \"sb3\" [color=red, penwidth=2];"),
            "inter link highlighted"
        );
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_output_lists_links_in_sorted_order() {
        let mut c = CodeCache::with_granularity(Granularity::Flush, 10_000).unwrap();
        for i in 0..24 {
            ins(&mut c, i, 100);
        }
        let edge = |i: u64| ((i * 7) % 24, (i * 5 + 1) % 24);
        for (from, to) in (0..24).map(edge) {
            c.link(SuperblockId(from), SuperblockId(to)).unwrap();
        }
        let dot = link_graph_dot(&c);
        let edges: Vec<&str> = dot.lines().filter(|l| l.contains("->")).collect();
        let mut sorted: Vec<(u64, u64)> = (0..24).map(edge).collect();
        sorted.sort_unstable();
        let want: Vec<String> = sorted
            .iter()
            .map(|(a, b)| format!("  \"sb{a}\" -> \"sb{b}\";"))
            .collect();
        assert_eq!(edges, want);
    }

    #[test]
    fn dot_output_on_empty_cache_is_valid() {
        let c = CodeCache::with_granularity(Granularity::Flush, 100).unwrap();
        let dot = link_graph_dot(&c);
        assert!(dot.contains("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn self_links_are_never_inter_unit_in_dot() {
        let mut c = CodeCache::with_granularity(Granularity::Superblock, 100).unwrap();
        ins(&mut c, 7, 50);
        c.link(SuperblockId(7), SuperblockId(7)).unwrap();
        let dot = link_graph_dot(&c);
        assert!(dot.contains("\"sb7\" -> \"sb7\";"));
        assert!(!dot.contains("red"));
    }
}
