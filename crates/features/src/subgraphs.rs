//! Exhaustive enumeration of connected fragments (edge subsets).
//!
//! gIndex's features are general connected graph fragments; CT-Index and
//! Tree+Δ restrict themselves to trees (and cycles). Both classes come from
//! one grower, [`for_each_fragment`], which visits every connected edge
//! subset of up to `max_edges` edges exactly once and, when only trees are
//! asked for, never takes an edge that would close a cycle.
//!
//! Every grown fragment is keyed through one growth code (`growth_code`):
//! fragments grown with the same code are the same labelled graph, so
//! `for_each_grown_shape` computes a canonical key once per code rather
//! than once per fragment. CT-Index's subtree counts, the miner's per-graph
//! keys and [`enumerate_connected_subgraphs`] all read their keys from it.

use crate::canonical::{graph_key, grown_tree_key, FeatureKey};
use sqbench_graph::{Graph, Label, VertexId};
use std::collections::{BTreeMap, HashMap};

/// Which structural class of fragments is enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// General connected subgraphs (gIndex).
    Subgraph,
    /// Subtrees only (CT-Index and Tree+Δ).
    Tree,
}

/// An edge of the host graph identified by its endpoints.
pub type EdgeRef = (VertexId, VertexId);

/// Calls `visit` exactly once for every connected fragment of
/// `1..=max_edges` edges of `g` — every subtree under
/// [`FeatureKind::Tree`]. The fragment's edges come in the order it was
/// grown: the first is its lowest-numbered edge as `(u, v)` with `u < v`;
/// each later edge is `(known, new)`, hanging a vertex no earlier edge
/// touched onto one an earlier edge did, or `(a, b)` with `a < b` when both
/// ends are already in the fragment (never under [`FeatureKind::Tree`]).
///
/// This is the ESU scheme (Wernicke 2006) over the line graph: a fragment
/// is grown only from its lowest edge, and an extension edge enters the
/// candidate list only at the step that first reaches it, so no fragment is
/// reached twice and no dedup set is kept. An edge between two vertices the
/// fragment already holds brings no new candidates. Every connected part
/// of a tree is a tree, so skipping the cycle-closing edges cuts off no
/// subtree.
pub fn for_each_fragment<F>(g: &Graph, max_edges: usize, kind: FeatureKind, mut visit: F)
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
    let mut grower = Grower {
        edges: &edges,
        incident: &incident,
        kind,
        max_edges,
        root: 0,
        in_fragment: vec![false; g.vertex_count()],
        fragment: Vec::with_capacity(max_edges),
    };
    for (root, &(u, v)) in edges.iter().enumerate() {
        grower.root = root;
        grower.fragment.push((u, v));
        grower.in_fragment[u] = true;
        grower.in_fragment[v] = true;
        visit(&grower.fragment);
        let candidates = incident[u]
            .iter()
            .chain(&incident[v])
            .copied()
            .filter(|&e| e > root)
            .collect();
        grower.grow(candidates, &mut visit);
        grower.in_fragment[u] = false;
        grower.in_fragment[v] = false;
        grower.fragment.pop();
    }
}

/// The state [`for_each_fragment`] grows the fragments rooted at one edge
/// in.
struct Grower<'a> {
    edges: &'a [EdgeRef],
    incident: &'a [Vec<usize>],
    kind: FeatureKind,
    max_edges: usize,
    root: usize,
    in_fragment: Vec<bool>,
    fragment: Vec<EdgeRef>,
}

impl Grower<'_> {
    fn grow<F>(&mut self, mut candidates: Vec<usize>, visit: &mut F)
    where
        F: FnMut(&[EdgeRef]),
    {
        if self.fragment.len() >= self.max_edges {
            return;
        }
        while let Some(e) = candidates.pop() {
            let (a, b) = self.edges[e];
            let new = match (self.in_fragment[a], self.in_fragment[b]) {
                (true, false) => Some(b),
                (false, true) => Some(a),
                // Both ends are in the fragment: the edge closes a cycle,
                // and so would every later step that kept it.
                _ if self.kind == FeatureKind::Tree => continue,
                _ => None,
            };
            let mut next = candidates.clone();
            let step = match new {
                Some(new) => {
                    // The edges at `new` whose far end is outside the
                    // fragment first become reachable here; the others are
                    // already candidates or were passed over by an earlier
                    // branch.
                    next.extend(self.incident[new].iter().copied().filter(|&f| {
                        let (x, y) = self.edges[f];
                        f > self.root && !self.in_fragment[x + y - new]
                    }));
                    self.in_fragment[new] = true;
                    (a + b - new, new)
                }
                None => (a, b),
            };
            self.fragment.push(step);
            visit(&self.fragment);
            self.grow(next, visit);
            self.fragment.pop();
            if let Some(new) = new {
                self.in_fragment[new] = false;
            }
        }
    }
}

/// Marks a cycle-closing edge in a growth code. Never a slot: a fragment
/// has far fewer vertices.
const CLOSES_CYCLE: Label = Label::MAX;

/// Writes the growth code of a fragment reported by [`for_each_fragment`]
/// into `code`: the first edge's two labels; then per edge that brings in a
/// vertex, the slot of the vertex it hangs from and the new vertex's label;
/// per edge that closes a cycle, [`CLOSES_CYCLE`] and the slots of its two
/// ends. Slots number the vertices in the order the fragment reached them
/// (`slots` is scratch). The code reads back into the fragment with its
/// vertices renumbered by slot, so two fragments with the same code are
/// the same labelled graph.
fn growth_code(g: &Graph, fragment: &[EdgeRef], slots: &mut Vec<VertexId>, code: &mut Vec<Label>) {
    let (u, v) = fragment[0];
    slots.clear();
    slots.extend([u, v]);
    code.clear();
    code.extend([g.label(u), g.label(v)]);
    let slot = |slots: &[VertexId], w| slots.iter().position(|&s| s == w);
    for &(a, b) in &fragment[1..] {
        let known = slot(slots, a).expect("grown order") as Label;
        match slot(slots, b) {
            Some(other) => code.extend([CLOSES_CYCLE, known, other as Label]),
            None => {
                code.extend([known, g.label(b)]);
                slots.push(b);
            }
        }
    }
}

/// Calls `visit` once per growth code among the fragments of `g` that
/// [`for_each_fragment`] grows, in the order each code is first reached,
/// with the code's canonical key, its first fragment (edges in grown
/// order) and the number of fragments grown with it. The key is computed
/// once per code: a tree's from its grown edges
/// ([`grown_tree_key`], no [`Graph`] built); a general fragment's from the
/// fragment built once ([`graph_key`]), so an acyclic fragment keeps its
/// `G:` key.
pub(crate) fn for_each_grown_shape<F>(g: &Graph, max_edges: usize, kind: FeatureKind, mut visit: F)
where
    F: FnMut(FeatureKey, &[EdgeRef], usize),
{
    let mut first: HashMap<Vec<Label>, usize> = HashMap::new();
    let mut shapes: Vec<(Vec<EdgeRef>, usize)> = Vec::new();
    let (mut slots, mut code) = (Vec::new(), Vec::new());
    for_each_fragment(g, max_edges, kind, |fragment| {
        growth_code(g, fragment, &mut slots, &mut code);
        match first.get(code.as_slice()) {
            Some(&i) => shapes[i].1 += 1,
            None => {
                first.insert(code.clone(), shapes.len());
                shapes.push((fragment.to_vec(), 1));
            }
        }
    });
    for (fragment, count) in shapes {
        let key = match kind {
            FeatureKind::Tree => grown_tree_key(&fragment, |v| g.label(v)),
            FeatureKind::Subgraph => graph_key(&subgraph_from_edges(g, &fragment)),
        };
        visit(key, &fragment, count);
    }
}

/// The fragments of `g` grouped by canonical key, counting the distinct
/// edge subsets that realize each key.
pub(crate) fn count_fragment_keys(
    g: &Graph,
    max_edges: usize,
    kind: FeatureKind,
) -> BTreeMap<FeatureKey, usize> {
    let mut out: BTreeMap<FeatureKey, usize> = BTreeMap::new();
    for_each_grown_shape(g, max_edges, kind, |key, _, count| {
        *out.entry(key).or_insert(0) += count;
    });
    out
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
    count_fragment_keys(g, max_edges, FeatureKind::Subgraph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::tree_key;
    use sqbench_graph::GraphBuilder;
    use std::collections::BTreeSet;

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

    /// The oracle's small hosts: a triangle, a path, K5 with repeated
    /// labels (every shape up to 5 edges, many label placements), a 4-cycle
    /// with a chord, and a host of two components.
    fn hosts() -> Vec<Graph> {
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
        let chorded = GraphBuilder::new("c4+chord")
            .vertices(&[1, 1, 2, 1])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
            .build()
            .unwrap();
        let apart = GraphBuilder::new("apart")
            .vertices(&[1, 1, 1, 1, 2])
            .edges(&[(0, 1), (2, 3), (3, 4), (4, 2)])
            .build()
            .unwrap();
        vec![triangle(), path4(), k5, chorded, apart]
    }

    /// Every connected fragment of `1..=max_edges` edges of `g` (only the
    /// trees under [`FeatureKind::Tree`]) as its sorted edges, found by
    /// trying all 2^m edge subsets: it rests on nothing the grower does.
    fn brute_force_fragments(
        g: &Graph,
        max_edges: usize,
        kind: FeatureKind,
    ) -> BTreeSet<Vec<EdgeRef>> {
        let edges: Vec<EdgeRef> = g.edges().collect();
        assert!(edges.len() <= 10, "2^m subsets of a small host only");
        (1u32..1 << edges.len())
            .map(|mask| -> Vec<EdgeRef> {
                (0..edges.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| edges[i])
                    .collect()
            })
            .filter(|subset| subset.len() <= max_edges)
            .filter(|subset| {
                let fragment = subgraph_from_edges(g, subset);
                sqbench_graph::algo::is_connected(&fragment)
                    && (kind == FeatureKind::Subgraph
                        || fragment.vertex_count() == subset.len() + 1)
            })
            .collect()
    }

    /// The grower visits exactly the oracle's fragments, each once, in
    /// grown order.
    fn grower_matches_the_oracle(kind: FeatureKind) {
        for g in hosts() {
            for max_edges in 0..=5 {
                let mut got = BTreeSet::new();
                for_each_fragment(&g, max_edges, kind, |fragment| {
                    let (u, v) = fragment[0];
                    assert!(u < v);
                    let mut reached: BTreeSet<VertexId> = [u, v].into();
                    for &(a, b) in &fragment[1..] {
                        assert!(reached.contains(&a), "{fragment:?}");
                        if !reached.insert(b) {
                            assert!(kind == FeatureKind::Subgraph && a < b, "{fragment:?}");
                        }
                    }
                    let mut sorted: Vec<EdgeRef> = fragment
                        .iter()
                        .map(|&(a, b)| (a.min(b), a.max(b)))
                        .collect();
                    sorted.sort_unstable();
                    assert!(got.insert(sorted), "{fragment:?} visited twice");
                });
                assert_eq!(
                    got,
                    brute_force_fragments(&g, max_edges, kind),
                    "{} max_edges {max_edges}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn fragments_are_the_connected_subsets_each_once() {
        grower_matches_the_oracle(FeatureKind::Subgraph);
    }

    #[test]
    fn subtrees_are_the_connected_subsets_that_are_trees_each_once() {
        grower_matches_the_oracle(FeatureKind::Tree);
    }

    #[test]
    fn grown_keys_match_keys_of_the_built_fragments() {
        // One key per growth code must be exact: summed over the codes, each
        // key counts what keying every oracle fragment from its built graph
        // counts.
        for kind in [FeatureKind::Subgraph, FeatureKind::Tree] {
            for g in hosts() {
                for max_edges in 1..=5 {
                    let mut want: BTreeMap<FeatureKey, usize> = BTreeMap::new();
                    for edges in brute_force_fragments(&g, max_edges, kind) {
                        let fragment = subgraph_from_edges(&g, &edges);
                        let key = match kind {
                            FeatureKind::Subgraph => graph_key(&fragment),
                            FeatureKind::Tree => tree_key(&fragment),
                        };
                        *want.entry(key).or_insert(0) += 1;
                    }
                    assert_eq!(
                        count_fragment_keys(&g, max_edges, kind),
                        want,
                        "{kind:?} {} max_edges {max_edges}",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn triangle_edge_subsets() {
        // Connected subsets of a triangle: 3 single edges, 3 two-edge paths,
        // 1 full triangle = 7.
        let mut count = 0;
        for_each_fragment(&triangle(), 3, FeatureKind::Subgraph, |_| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn triangle_subtrees() {
        // Subtrees exclude the full triangle: 6.
        let mut count = 0;
        for_each_fragment(&triangle(), 3, FeatureKind::Tree, |_| count += 1);
        assert_eq!(count, 6);
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
}
