//! Exhaustive enumeration of subtree features.
//!
//! CT-Index enumerates all subtrees of up to a configurable number of edges
//! (the paper uses 4, following the Grapes authors' tuning) and hashes their
//! canonical labels into a fingerprint; Tree+Δ mines *frequent* subtrees.
//! Both consume the enumeration provided here, which is the acyclic
//! restriction of the connected-edge-subset enumerator.

use crate::canonical::{tree_key, FeatureKey};
use crate::subgraphs::{for_each_connected_edge_subset, subgraph_from_edges};
use sqbench_graph::Graph;
use std::collections::BTreeMap;

/// Enumerates all subtrees of `1..=max_edges` edges of `g`, grouped by
/// canonical (AHU) key, counting the number of distinct edge subsets
/// realizing each key.
pub fn enumerate_trees(g: &Graph, max_edges: usize) -> BTreeMap<FeatureKey, usize> {
    let mut out: BTreeMap<FeatureKey, usize> = BTreeMap::new();
    for_each_connected_edge_subset(g, max_edges, true, |edges| {
        let fragment = subgraph_from_edges(g, edges);
        *out.entry(tree_key(&fragment)).or_insert(0) += 1;
    });
    out
}

/// Enumerates the subtree keys of a query graph. Identical to
/// [`enumerate_trees`]; the alias mirrors the filtering-stage vocabulary of
/// the method implementations.
pub fn query_trees(query: &Graph, max_edges: usize) -> BTreeMap<FeatureKey, usize> {
    enumerate_trees(query, max_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn star3() -> Graph {
        GraphBuilder::new("star")
            .vertices(&[9, 1, 1, 1])
            .edges(&[(0, 1), (0, 2), (0, 3)])
            .build()
            .unwrap()
    }

    fn triangle() -> Graph {
        GraphBuilder::new("tri")
            .vertices(&[1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    #[test]
    fn star_subtrees() {
        // Star with 3 identical leaves: subtrees are the single edge (count 3),
        // the 2-edge path through the center (count 3), and the full star
        // (count 1); all leaves share labels so 3 distinct keys.
        let trees = enumerate_trees(&star3(), 3);
        assert_eq!(trees.len(), 3);
        let mut counts: Vec<usize> = trees.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 3, 3]);
    }

    #[test]
    fn triangle_has_no_three_edge_subtree() {
        let trees = enumerate_trees(&triangle(), 3);
        // Single edge (3 subsets, 1 key) and two-edge path (3 subsets, 1 key).
        assert_eq!(trees.len(), 2);
        assert_eq!(trees.values().sum::<usize>(), 6);
    }

    #[test]
    fn max_edges_bounds_tree_size() {
        let trees = enumerate_trees(&star3(), 2);
        // Full star (3 edges) excluded.
        assert_eq!(trees.values().sum::<usize>(), 3 + 3);
    }

    #[test]
    fn query_trees_is_an_alias() {
        let g = star3();
        assert_eq!(query_trees(&g, 3), enumerate_trees(&g, 3));
    }

    #[test]
    fn isomorphic_subtrees_in_different_graphs_share_keys() {
        let a = GraphBuilder::new("a")
            .vertices(&[2, 3])
            .edge(0, 1)
            .build()
            .unwrap();
        let b = GraphBuilder::new("b")
            .vertices(&[3, 2])
            .edge(0, 1)
            .build()
            .unwrap();
        let ta = enumerate_trees(&a, 1);
        let tb = enumerate_trees(&b, 1);
        assert_eq!(ta.keys().collect::<Vec<_>>(), tb.keys().collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph_yields_no_trees() {
        let g = Graph::new("empty");
        assert!(enumerate_trees(&g, 4).is_empty());
    }
}
