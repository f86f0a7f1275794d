//! A generic worklist dataflow framework over [`crate::cfg::Cfg`].
//!
//! Facts form a join-semilattice ([`Lattice`]); a client supplies a
//! transfer function per CFG node and the [`forward`] solver iterates
//! to a fixpoint. The event-typestate lint is its one client.
//!
//! Per-function solutions become interprocedural through function
//! summaries: a lint runs the solver on each function, condenses the
//! exit fact into a summary, and re-runs until the summary table
//! stabilizes over the call graph (see [`crate::typestate`]).

use crate::cfg::{Cfg, ENTRY};

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone {
    /// The least element (the fact for unreached code).
    fn bottom() -> Self;

    /// Joins `other` into `self`; returns `true` when `self` changed
    /// (the solver's termination signal).
    fn join(&mut self, other: &Self) -> bool;
}

/// The per-node fixpoint: the fact *entering* and *leaving* each node.
pub struct Solution<F> {
    /// Fact at node entry (join over predecessor outputs).
    pub input: Vec<F>,
    /// Fact at node exit (transfer applied to the input).
    pub output: Vec<F>,
}

/// Solves a forward problem: facts flow entry → exit along successor
/// edges. `transfer(node, fact)` mutates the incoming fact into the
/// outgoing one. `seed` is the fact entering the CFG's entry node.
pub fn forward<F: Lattice>(
    cfg: &Cfg,
    seed: F,
    mut transfer: impl FnMut(usize, &mut F),
) -> Solution<F> {
    let n = cfg.nodes.len();
    let mut input: Vec<F> = vec![F::bottom(); n];
    let mut output: Vec<F> = vec![F::bottom(); n];
    input[ENTRY] = seed;
    let mut worklist: Vec<usize> = vec![ENTRY];
    let mut queued = vec![false; n];
    queued[ENTRY] = true;
    while let Some(node) = worklist.pop() {
        queued[node] = false;
        let mut out = input[node].clone();
        transfer(node, &mut out);
        if !output[node].join(&out) && node != ENTRY {
            // Output unchanged: successors already saw this fact.
            // (The entry must always propagate once.)
            continue;
        }
        for &succ in &cfg.nodes[node].succs {
            if input[succ].join(&output[node]) && !queued[succ] {
                queued[succ] = true;
                worklist.push(succ);
            }
        }
    }
    Solution { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{NodeKind, EXIT};
    use crate::lexer::lex;
    use std::collections::BTreeSet;

    /// Powerset lattice over node ids: which nodes were visited.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct Visited(BTreeSet<usize>);

    impl Lattice for Visited {
        fn bottom() -> Self {
            Visited(BTreeSet::new())
        }
        fn join(&mut self, other: &Self) -> bool {
            let before = self.0.len();
            self.0.extend(other.0.iter().copied());
            self.0.len() != before
        }
    }

    fn cfg_of(src: &str) -> Cfg {
        let lexed = lex(src);
        Cfg::build(&lexed.tokens, (0, lexed.tokens.len()))
    }

    #[test]
    fn forward_reaches_a_fixpoint_through_loops() {
        let cfg = cfg_of("{ a(); loop { b(); if x { break; } } c(); }");
        let sol = forward(&cfg, Visited(BTreeSet::from([ENTRY])), |node, fact| {
            fact.0.insert(node);
        });
        // Everything that flowed into the exit has seen every node on
        // some path — in particular both the loop body and c().
        let at_exit = &sol.input[EXIT];
        for (i, n) in cfg.nodes.iter().enumerate() {
            if n.kind != NodeKind::Exit {
                assert!(at_exit.0.contains(&i), "node {i} missing: {:?}", at_exit);
            }
        }
    }

    #[test]
    fn forward_joins_branches() {
        let cfg = cfg_of("{ if x { a(); } else { b(); } c(); }");
        let sol = forward(&cfg, Visited(BTreeSet::new()), |node, fact| {
            fact.0.insert(node);
        });
        // c()'s input contains both arm nodes (the join), each arm's
        // input only the condition.
        let join_node = cfg.nodes.len() - 1; // c() is created last
        let arms: Vec<usize> = (0..cfg.nodes.len())
            .filter(|&i| cfg.nodes[i].kind == NodeKind::Stmt && i != join_node)
            .collect();
        assert_eq!(arms.len(), 2);
        for &arm in &arms {
            assert!(sol.input[join_node].0.contains(&arm));
            assert!(!sol.input[arm].0.contains(&arms[0]) || arm == arms[0]);
        }
    }

    #[test]
    fn bottom_stays_bottom_for_unreachable_nodes() {
        // Unreachable code produces no nodes at all, so every node's
        // fixpoint input is above bottom after solving.
        let cfg = cfg_of("{ if x { return; } y(); }");
        let sol = forward(&cfg, Visited(BTreeSet::from([99])), |_, _| {});
        for (i, n) in cfg.nodes.iter().enumerate() {
            if n.kind != NodeKind::Entry {
                assert!(
                    !sol.input[i].0.is_empty(),
                    "node {i} never received the seed"
                );
            }
        }
    }
}
