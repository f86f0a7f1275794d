//! Superblock chaining: the link graph and back-pointer table.
//!
//! When a dynamic optimizer patches the exit of cached superblock *A* to
//! jump directly to cached superblock *B* ("chaining", paper §3.1), the
//! cache manager must remember the link: if *B* is later evicted while *A*
//! survives, *A*'s patched jump would dangle into freed memory. The
//! industry solution — and the one modelled here — is a **back-pointer
//! table**: for every block, the set of blocks that link *into* it.
//!
//! [`LinkGraph`] stores both directions. The forward direction answers
//! "which exits does this block have patched" (outbound degree, Figure 12);
//! the backward direction is the back-pointer table consulted on eviction
//! (unlinking overhead, Eq. 4). The paper estimates 16 bytes per back
//! pointer, making the table ≈11.5% of the code cache; see
//! [`LinkGraph::back_pointer_bytes`].

use crate::idmap::IdMap;
use crate::ids::SuperblockId;

/// Bytes per back-pointer-table entry (an 8-byte pointer plus an 8-byte
/// list link, per the paper's footnote 2).
pub const BYTES_PER_BACK_POINTER: u64 = 16;

/// Block → its neighbours in one direction, unordered. A superblock has
/// a handful of exits, so a row is searched by a linear scan.
type Rows = IdMap<Vec<SuperblockId>>;

/// Empties `id`'s row of `rows` and deletes the mirror entry each of its
/// edges has in `mirror`. The row stays allocated for the block's next
/// residency, so a warm cache re-links without touching the heap.
/// Returns the edges removed; a self link (it sits in `id`'s row of both
/// tables) counts only if `count_self`.
fn detach(rows: &mut Rows, mirror: &mut Rows, id: SuperblockId, count_self: bool) -> u64 {
    let mut removed = 0;
    for other in rows.get_mut(&id).into_iter().flat_map(|row| row.drain(..)) {
        if other == id {
            removed += u64::from(count_self);
            continue;
        }
        if let Some(row) = mirror.get_mut(&other) {
            if let Some(at) = row.iter().position(|&x| x == id) {
                row.swap_remove(at);
            }
        }
        removed += 1;
    }
    removed
}

/// Empties every row of `rows`, keeping each allocated like [`detach`].
#[expect(
    clippy::disallowed_methods,
    reason = "every row is emptied, order-free"
)]
fn empty_rows(rows: &mut Rows) {
    rows.retain(|_, row| {
        row.clear();
        true
    });
}

/// A directed graph of superblock links with a back-pointer table, flat
/// like the paper's: one [`IdMap`] lookup reaches a block's row.
///
/// The graph only ever contains *resident* blocks; [`crate::CodeCache`]
/// removes a block's links at eviction time.
#[derive(Debug, Clone, Default)]
pub struct LinkGraph {
    out: Rows,
    /// The back-pointer table.
    incoming: Rows,
    link_count: u64,
}

impl LinkGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> LinkGraph {
        LinkGraph::default()
    }

    /// Records a link `from → to`. Returns `false` if the link already
    /// existed (patching an already-patched exit is a no-op).
    pub fn add_link(&mut self, from: SuperblockId, to: SuperblockId) -> bool {
        let row = self.out.get_or_insert_default(from);
        if row.contains(&to) {
            return false;
        }
        row.push(to);
        self.incoming.get_or_insert_default(to).push(from);
        self.link_count += 1;
        true
    }

    /// True if the link `from → to` is present.
    #[must_use]
    pub fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        self.out.get(&from).is_some_and(|row| row.contains(&to))
    }

    /// Number of links currently recorded.
    #[must_use]
    pub fn link_count(&self) -> u64 {
        self.link_count
    }

    /// Number of links leaving `id`.
    #[must_use]
    pub fn out_degree(&self, id: SuperblockId) -> usize {
        self.out.get(&id).map_or(0, Vec::len)
    }

    /// Number of links entering `id` (back-pointer-table fan-in).
    #[must_use]
    pub fn in_degree(&self, id: SuperblockId) -> usize {
        self.incoming.get(&id).map_or(0, Vec::len)
    }

    /// Iterates the blocks linking into `id`, in no particular order:
    /// callers count or test membership, never emit the sequence.
    pub fn incoming_iter(&self, id: SuperblockId) -> impl Iterator<Item = SuperblockId> + '_ {
        self.incoming.get(&id).into_iter().flatten().copied()
    }

    /// Removes every link touching `id`, without allocating. Callers that
    /// need the edges must inspect them (e.g. via
    /// [`LinkGraph::incoming_iter`]) *before* removal.
    pub fn remove_block(&mut self, id: SuperblockId) {
        self.link_count -= detach(&mut self.out, &mut self.incoming, id, true);
        self.link_count -= detach(&mut self.incoming, &mut self.out, id, false);
    }

    /// Drops every link at once (a full cache flush needs no back-pointer
    /// walks — this is the FLUSH policy's key advantage).
    pub fn clear(&mut self) {
        empty_rows(&mut self.out);
        empty_rows(&mut self.incoming);
        self.link_count = 0;
    }

    /// Estimated memory footprint of the back-pointer table at
    /// [`BYTES_PER_BACK_POINTER`] bytes per link.
    #[must_use]
    pub fn back_pointer_bytes(&self) -> u64 {
        self.link_count * BYTES_PER_BACK_POINTER
    }

    /// Iterates every live link as `(from, to)` pairs, **unordered**: the
    /// sequence differs from graph to graph and run to run. Count it or
    /// sort it; never let it reach an event stream or rendered output.
    #[expect(
        clippy::disallowed_methods,
        reason = "consumers count (census) or sort (visualize)"
    )]
    pub fn iter_links(&self) -> impl Iterator<Item = (SuperblockId, SuperblockId)> + '_ {
        self.out
            .iter()
            .flat_map(|(from, row)| row.iter().map(move |&to| (from, to)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    #[test]
    fn add_and_query_links() {
        let mut g = LinkGraph::new();
        assert!(g.add_link(sb(1), sb(2)));
        assert!(!g.add_link(sb(1), sb(2)), "duplicate link rejected");
        assert!(g.contains_link(sb(1), sb(2)));
        assert!(!g.contains_link(sb(2), sb(1)));
        assert_eq!(g.link_count(), 1);
        assert_eq!(g.out_degree(sb(1)), 1);
        assert_eq!(g.in_degree(sb(2)), 1);
        assert_eq!(g.incoming_iter(sb(2)).collect::<Vec<_>>(), vec![sb(1)]);
        assert_eq!(g.iter_links().collect::<Vec<_>>(), vec![(sb(1), sb(2))]);
    }

    #[test]
    fn self_links_are_tracked_but_not_dangling() {
        let mut g = LinkGraph::new();
        g.add_link(sb(7), sb(7));
        assert_eq!(g.link_count(), 1);
        g.remove_block(sb(7));
        assert_eq!(g.link_count(), 0);
        assert_eq!((g.in_degree(sb(7)), g.out_degree(sb(7))), (0, 0));
    }

    #[test]
    fn clear_drops_everything_at_once() {
        let mut g = LinkGraph::new();
        for i in 0..10 {
            g.add_link(sb(i), sb(i + 1));
        }
        assert_eq!(g.link_count(), 10);
        g.clear();
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.back_pointer_bytes(), 0);
        assert_eq!(g.iter_links().count(), 0);
    }

    #[test]
    fn back_pointer_table_footprint() {
        let mut g = LinkGraph::new();
        g.add_link(sb(1), sb(2));
        g.add_link(sb(2), sb(3));
        assert_eq!(g.back_pointer_bytes(), 32);
    }

    #[test]
    fn link_count_stays_consistent_under_churn() {
        let mut g = LinkGraph::new();
        for i in 0..20u64 {
            g.add_link(sb(i), sb((i + 1) % 20));
            g.add_link(sb(i), sb((i + 7) % 20));
        }
        let before = g.link_count();
        let dropped = (g.in_degree(sb(5)) + g.out_degree(sb(5))) as u64;
        g.remove_block(sb(5));
        assert_eq!(g.link_count(), before - dropped);
        assert_eq!(g.iter_links().count() as u64, g.link_count());
    }
}
