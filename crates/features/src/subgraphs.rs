//! Exhaustive enumeration of connected subgraphs (edge subsets).
//!
//! gIndex's features are general connected graph fragments; CT-Index and
//! Tree+Δ restrict themselves to trees (and cycles). The two classes have
//! one enumerator each, both visiting every fragment of up to `max_edges`
//! edges exactly once: [`for_each_connected_edge_subset`] for connected
//! subgraphs (with the convenience wrapper that groups them by canonical
//! key), and [`for_each_subtree`] for subtrees, which needs no dedup set.

use crate::canonical::{graph_key, FeatureKey};
use sqbench_graph::{Graph, VertexId};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// An edge of the host graph identified by its endpoints with `u < v`.
pub type EdgeRef = (VertexId, VertexId);

/// Calls `visit` exactly once for every connected subset of at most
/// `max_edges` edges of `g` (subsets of size ≥ 1). The subset is passed as a
/// sorted slice of `(u, v)` pairs with `u < v`. Trees alone are enumerated
/// by [`for_each_subtree`].
pub fn for_each_connected_edge_subset<F>(g: &Graph, max_edges: usize, mut visit: F)
where
    F: FnMut(&[EdgeRef]),
{
    if max_edges == 0 {
        return;
    }
    let edges: Vec<EdgeRef> = g.edges().collect();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    for (i, &first) in edges.iter().enumerate() {
        let mut subset: Vec<usize> = vec![i];
        let mut vertices: BTreeSet<VertexId> = BTreeSet::new();
        vertices.insert(first.0);
        vertices.insert(first.1);
        emit(&edges, &subset, &mut seen, &mut visit);
        extend(
            g,
            &edges,
            i,
            max_edges,
            &mut subset,
            &mut vertices,
            &mut seen,
            &mut visit,
        );
    }
}

/// Calls `visit` exactly once for every subtree of `1..=max_edges` edges of
/// `g`. The tree's edges come in the order it was grown: the first is its
/// lowest-numbered edge as `(u, v)` with `u < v`, and each later edge is
/// `(known, new)`, hanging a vertex no earlier edge touched onto one an
/// earlier edge did.
///
/// This is the ESU scheme (Wernicke 2006) over the line graph: a tree is
/// grown only from its lowest edge, and an extension edge enters the
/// candidate list only at the step that first reaches it, so no tree is
/// reached twice and no dedup set is kept. [`for_each_connected_edge_subset`]
/// restricted to trees would reach each k-edge tree up to k! times, which
/// on dense graphs is most of the cost.
pub fn for_each_subtree<F>(g: &Graph, max_edges: usize, mut visit: F)
where
    F: FnMut(&[EdgeRef]),
{
    if max_edges == 0 {
        return;
    }
    let edges: Vec<EdgeRef> = g.edges().collect();
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); g.vertex_count()];
    for (i, &(u, v)) in edges.iter().enumerate() {
        incident[u].push(i);
        incident[v].push(i);
    }
    let mut in_tree = vec![false; g.vertex_count()];
    let mut tree: Vec<EdgeRef> = Vec::with_capacity(max_edges);
    for (root, &(u, v)) in edges.iter().enumerate() {
        tree.push((u, v));
        in_tree[u] = true;
        in_tree[v] = true;
        visit(&tree);
        let candidates = incident[u]
            .iter()
            .chain(&incident[v])
            .copied()
            .filter(|&e| e > root)
            .collect();
        let grower = SubtreeGrower {
            edges: &edges,
            incident: &incident,
            root,
            max_edges,
        };
        grower.grow(candidates, &mut tree, &mut in_tree, &mut visit);
        in_tree[u] = false;
        in_tree[v] = false;
        tree.pop();
    }
}

/// What stays fixed while [`for_each_subtree`] grows the trees rooted at
/// one edge.
struct SubtreeGrower<'a> {
    edges: &'a [EdgeRef],
    incident: &'a [Vec<usize>],
    root: usize,
    max_edges: usize,
}

impl SubtreeGrower<'_> {
    fn grow<F>(
        &self,
        mut candidates: Vec<usize>,
        tree: &mut Vec<EdgeRef>,
        in_tree: &mut [bool],
        visit: &mut F,
    ) where
        F: FnMut(&[EdgeRef]),
    {
        if tree.len() >= self.max_edges {
            return;
        }
        while let Some(e) = candidates.pop() {
            let (a, b) = self.edges[e];
            let (known, new) = match (in_tree[a], in_tree[b]) {
                (true, false) => (a, b),
                (false, true) => (b, a),
                // Both ends are in the tree: the edge would close a cycle,
                // and so would every later step that kept it.
                _ => continue,
            };
            // The edges at `new` whose far end is outside the tree first
            // become reachable here; the others are already candidates or
            // were passed over by an earlier branch.
            let mut next = candidates.clone();
            next.extend(self.incident[new].iter().copied().filter(|&f| {
                let (x, y) = self.edges[f];
                f > self.root && !in_tree[x + y - new]
            }));
            tree.push((known, new));
            in_tree[new] = true;
            visit(tree);
            self.grow(next, tree, in_tree, visit);
            in_tree[new] = false;
            tree.pop();
        }
    }
}

/// Reports the subset through `visit` if it has not been produced before.
fn emit<F>(edges: &[EdgeRef], subset: &[usize], seen: &mut HashSet<Vec<u32>>, visit: &mut F) -> bool
where
    F: FnMut(&[EdgeRef]),
{
    let mut key: Vec<u32> = subset.iter().map(|&i| i as u32).collect();
    key.sort_unstable();
    if !seen.insert(key) {
        return false;
    }
    let mut resolved: Vec<EdgeRef> = subset.iter().map(|&i| edges[i]).collect();
    resolved.sort_unstable();
    visit(&resolved);
    true
}

#[allow(clippy::too_many_arguments)]
// `g` is threaded through the recursion for the emit callback's sake.
#[allow(clippy::only_used_in_recursion)]
fn extend<F>(
    g: &Graph,
    edges: &[EdgeRef],
    min_edge: usize,
    max_edges: usize,
    subset: &mut Vec<usize>,
    vertices: &mut BTreeSet<VertexId>,
    seen: &mut HashSet<Vec<u32>>,
    visit: &mut F,
) where
    F: FnMut(&[EdgeRef]),
{
    if subset.len() >= max_edges {
        return;
    }
    // Candidate extensions: edges with index > min_edge (so each subset is
    // rooted at its minimum edge) that touch the current vertex set and are
    // not already included.
    for (j, &(u, v)) in edges.iter().enumerate().skip(min_edge + 1) {
        if subset.contains(&j) {
            continue;
        }
        let touches_u = vertices.contains(&u);
        let touches_v = vertices.contains(&v);
        if !touches_u && !touches_v {
            continue;
        }
        subset.push(j);
        let added_u = vertices.insert(u);
        let added_v = vertices.insert(v);
        if emit(edges, subset, seen, visit) {
            extend(g, edges, min_edge, max_edges, subset, vertices, seen, visit);
        }
        if added_u {
            vertices.remove(&u);
        }
        if added_v {
            vertices.remove(&v);
        }
        subset.pop();
    }
}

/// Builds a standalone [`Graph`] from a connected edge subset of `g`.
/// Vertices are renumbered densely; labels are preserved.
pub fn subgraph_from_edges(g: &Graph, edges: &[EdgeRef]) -> Graph {
    let mut mapping: BTreeMap<VertexId, VertexId> = BTreeMap::new();
    let mut sub = Graph::with_capacity("fragment", edges.len() + 1);
    for &(u, v) in edges {
        for w in [u, v] {
            mapping
                .entry(w)
                .or_insert_with(|| sub.add_vertex(g.label(w)));
        }
    }
    for &(u, v) in edges {
        let su = mapping[&u];
        let sv = mapping[&v];
        let _ = sub.add_edge_if_absent(su, sv);
    }
    sub
}

/// Enumerates all connected subgraphs of up to `max_edges` edges and groups
/// them by canonical key, counting the number of distinct edge subsets that
/// realize each key.
pub fn enumerate_connected_subgraphs(g: &Graph, max_edges: usize) -> BTreeMap<FeatureKey, usize> {
    let mut out: BTreeMap<FeatureKey, usize> = BTreeMap::new();
    for_each_connected_edge_subset(g, max_edges, |edges| {
        let fragment = subgraph_from_edges(g, edges);
        *out.entry(graph_key(&fragment)).or_insert(0) += 1;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn triangle() -> Graph {
        GraphBuilder::new("tri")
            .vertices(&[1, 2, 3])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    fn path4() -> Graph {
        GraphBuilder::new("p4")
            .vertices(&[0, 0, 0, 0])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn triangle_edge_subsets() {
        // Connected subsets of a triangle: 3 single edges, 3 two-edge paths,
        // 1 full triangle = 7.
        let mut count = 0;
        for_each_connected_edge_subset(&triangle(), 3, |_| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn triangle_subtrees() {
        // Subtrees exclude the full triangle: 6.
        let mut count = 0;
        for_each_subtree(&triangle(), 3, |_| count += 1);
        assert_eq!(count, 6);
    }

    #[test]
    fn subsets_are_unique_and_connected() {
        let g = path4();
        let mut seen = std::collections::HashSet::new();
        for_each_connected_edge_subset(&g, 3, |edges| {
            assert!(seen.insert(edges.to_vec()), "duplicate subset {edges:?}");
            let sub = subgraph_from_edges(&g, edges);
            assert!(sqbench_graph::algo::is_connected(&sub));
        });
        // Path with 3 edges: subsets = 3 singles + 2 pairs + 1 triple = 6.
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn subtrees_are_the_connected_subsets_that_are_trees_each_once() {
        let k5 = GraphBuilder::new("k5")
            .vertices(&[0, 1, 0, 1, 2])
            .edges(&[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ])
            .build()
            .unwrap();
        for g in [triangle(), path4(), k5] {
            for max_edges in 0..=5 {
                let mut want = std::collections::BTreeSet::new();
                for_each_connected_edge_subset(&g, max_edges, |edges| {
                    if subgraph_from_edges(&g, edges).vertex_count() == edges.len() + 1 {
                        want.insert(edges.to_vec());
                    }
                });
                let mut got = std::collections::BTreeSet::new();
                for_each_subtree(&g, max_edges, |tree| {
                    // Grown order: every edge after the first brings in
                    // exactly one new vertex at its second end.
                    for (k, &(known, new)) in tree.iter().enumerate().skip(1) {
                        let earlier = &tree[..k];
                        assert!(earlier.iter().any(|&(u, v)| u == known || v == known));
                        assert!(earlier.iter().all(|&(u, v)| u != new && v != new));
                    }
                    let mut sorted: Vec<EdgeRef> =
                        tree.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                    sorted.sort_unstable();
                    assert!(got.insert(sorted), "subtree {tree:?} visited twice");
                });
                assert_eq!(got, want, "max_edges {max_edges}");
            }
        }
    }

    #[test]
    fn max_edges_zero_visits_nothing() {
        let mut count = 0;
        for_each_connected_edge_subset(&triangle(), 0, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn max_edges_one_visits_each_edge() {
        let mut count = 0;
        for_each_connected_edge_subset(&path4(), 1, |edges| {
            assert_eq!(edges.len(), 1);
            count += 1;
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn subgraph_from_edges_preserves_labels() {
        let g = triangle();
        let sub = subgraph_from_edges(&g, &[(0, 1), (1, 2)]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        let mut labels: Vec<u32> = sub.labels().to_vec();
        labels.sort_unstable();
        assert_eq!(labels, vec![1, 2, 3]);
    }

    #[test]
    fn canonical_grouping_counts_isomorphic_fragments() {
        // Path 0-0-0-0: single-edge fragments are all (0,0) -> one key with
        // count 3; two-edge fragments are all (0,0,0) -> one key count 2;
        // three-edge fragment -> one key count 1.
        let groups = enumerate_connected_subgraphs(&path4(), 3);
        assert_eq!(groups.len(), 3);
        let counts: Vec<usize> = groups.values().copied().collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn disconnected_host_graph_only_yields_connected_fragments() {
        let g = GraphBuilder::new("2e")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (2, 3)])
            .build()
            .unwrap();
        let mut max_size = 0;
        for_each_connected_edge_subset(&g, 4, |edges| {
            max_size = max_size.max(edges.len());
        });
        // The two edges are disconnected from each other, so no subset has
        // more than one edge.
        assert_eq!(max_size, 1);
    }
}
