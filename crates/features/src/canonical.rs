//! Canonical labels for graph features.
//!
//! Every index method in the paper identifies features by a *canonical
//! label*: a representation that is identical for any two isomorphic
//! features, so that a path/tree/subgraph extracted from a query can be
//! matched against the same structure extracted from a dataset graph no
//! matter how the vertices happened to be numbered.
//!
//! The encodings used here are:
//!
//! * **Paths** — the vertex-label sequence, taken as the lexicographic
//!   minimum of the sequence and its reverse (a path read from either end is
//!   the same path).
//! * **Simple cycles** — the label sequence around the cycle, minimized over
//!   all rotations and both directions.
//! * **Trees** — the AHU ("parenthesis") encoding of the free tree, rooted
//!   at its center (or at the lexicographically smaller of the two center
//!   encodings when the tree has two centers). Linear-time and exact.
//! * **General connected graphs** — an ordered-permutation canonical form:
//!   the minimum, over all vertex orderings consistent with the
//!   isomorphism-invariant sort key `(label, degree)`, of the string
//!   `labels ++ adjacency bits`. Exact, and fast for the small fragments
//!   (≤ ~10 vertices) produced by feature enumeration; larger graphs fall
//!   back to a Weisfeiler–Lehman style refinement encoding which is only
//!   used for statistics, never for correctness-critical dedup of small
//!   features.

use sqbench_graph::{Graph, Label, VertexId};
use std::collections::BTreeMap;

/// A canonical key identifying a feature. Keys embed the feature kind
/// (path / tree / cycle / graph) so that different feature types never
/// collide in a shared map.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureKey(String);

impl FeatureKey {
    /// Builds a key from a raw encoded string. Exposed for index methods
    /// that assemble their own composite keys (e.g. labelled fingerprints).
    pub fn from_raw(raw: impl Into<String>) -> Self {
        FeatureKey(raw.into())
    }

    /// The underlying encoded string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of bytes in the encoded representation; used for index-size
    /// accounting.
    pub fn len_bytes(&self) -> usize {
        self.0.len()
    }
}

impl std::fmt::Display for FeatureKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Canonical key of a simple path given its vertex-label sequence.
pub fn path_key(labels: &[Label]) -> FeatureKey {
    let reversed: Vec<Label> = labels.iter().rev().copied().collect();
    let canonical = if reversed.as_slice() < labels {
        reversed
    } else {
        labels.to_vec()
    };
    FeatureKey(format!("P:{}", join_labels(&canonical)))
}

/// Canonical key of a simple cycle given the label sequence around it
/// (first vertex *not* repeated at the end). Minimizes over all rotations
/// and both traversal directions.
pub fn cycle_key(labels: &[Label]) -> FeatureKey {
    assert!(
        labels.len() >= 3,
        "a simple cycle has at least three vertices"
    );
    let n = labels.len();
    let mut best: Option<Vec<Label>> = None;
    for reverse in [false, true] {
        let seq: Vec<Label> = if reverse {
            labels.iter().rev().copied().collect()
        } else {
            labels.to_vec()
        };
        for start in 0..n {
            let rotated: Vec<Label> = (0..n).map(|i| seq[(start + i) % n]).collect();
            if best.as_ref().is_none_or(|b| &rotated < b) {
                best = Some(rotated);
            }
        }
    }
    FeatureKey(format!("C:{}", join_labels(&best.unwrap())))
}

/// Canonical key of a free tree (a connected acyclic [`Graph`]), using the
/// AHU encoding rooted at the tree's center.
///
/// # Panics
/// Panics if the graph is not a tree (i.e. not connected or contains a
/// cycle); callers enumerate trees so this is a programming error.
pub fn tree_key(tree: &Graph) -> FeatureKey {
    let n = tree.vertex_count();
    assert!(n > 0, "empty graph is not a tree");
    assert_eq!(
        tree.edge_count(),
        n - 1,
        "graph is not a tree (edge count mismatch)"
    );
    let adjacency: Vec<&[VertexId]> = tree.vertices().map(|v| tree.neighbors(v)).collect();
    ahu_key(tree.labels(), &adjacency)
}

/// [`tree_key`] of a tree given by its edges in the order it was grown:
/// the first edge joins two vertices, and each later edge `(known, new)`
/// hangs one vertex the earlier edges did not touch onto one they did (the
/// order [`for_each_fragment`](crate::subgraphs::for_each_fragment) reports
/// a subtree in).
/// Skips building a [`Graph`] for each of the many small trees a dense
/// graph holds.
pub fn grown_tree_key(
    edges: &[(VertexId, VertexId)],
    label: impl Fn(VertexId) -> Label,
) -> FeatureKey {
    let Some(&(first, second)) = edges.first() else {
        panic!("empty graph is not a tree");
    };
    // Local vertex k + 1 is the vertex the k-th edge brings in.
    let mut hosts = vec![first, second];
    let mut adjacency: Vec<Vec<VertexId>> = vec![vec![1], vec![0]];
    for &(known, new) in &edges[1..] {
        let parent = hosts
            .iter()
            .position(|&h| h == known)
            .expect("each grown edge starts at a vertex already in the tree");
        debug_assert!(!hosts.contains(&new), "a grown edge brings in a new vertex");
        adjacency[parent].push(hosts.len());
        adjacency.push(vec![parent]);
        hosts.push(new);
    }
    let labels: Vec<Label> = hosts.into_iter().map(label).collect();
    ahu_key(&labels, &adjacency)
}

/// The AHU key of the tree with these vertex labels and adjacency lists.
fn ahu_key<A: AsRef<[VertexId]>>(labels: &[Label], adjacency: &[A]) -> FeatureKey {
    let encoding = tree_centers(adjacency)
        .into_iter()
        .map(|c| ahu_encode(labels, adjacency, c, usize::MAX))
        .min()
        .expect("a tree has at least one center");
    FeatureKey(format!("T:{encoding}"))
}

/// Canonical key of an arbitrary small connected graph.
pub fn graph_key(g: &Graph) -> FeatureKey {
    FeatureKey(format!("G:{}", graph_canonical_string(g)))
}

/// Maximum number of vertices for which the exact permutation-based
/// canonical form is attempted; larger graphs use the WL fallback.
pub const MAX_EXACT_CANON_VERTICES: usize = 10;

/// Canonical string of an arbitrary graph: exact for graphs with up to
/// [`MAX_EXACT_CANON_VERTICES`] vertices, Weisfeiler–Lehman based beyond
/// that (prefixed so exact and approximate encodings cannot collide).
pub fn graph_canonical_string(g: &Graph) -> String {
    if g.vertex_count() <= MAX_EXACT_CANON_VERTICES {
        exact_canonical_string(g)
    } else {
        format!("wl:{}", wl_refinement_string(g, 3))
    }
}

fn join_labels(labels: &[Label]) -> String {
    labels
        .iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The center vertex (or two center vertices) of a tree, found by repeatedly
/// stripping leaves.
fn tree_centers<A: AsRef<[VertexId]>>(adjacency: &[A]) -> Vec<VertexId> {
    let n = adjacency.len();
    if n == 1 {
        return vec![0];
    }
    let mut degree: Vec<usize> = adjacency.iter().map(|a| a.as_ref().len()).collect();
    let mut removed = vec![false; n];
    let mut leaves: Vec<VertexId> = (0..n).filter(|&v| degree[v] <= 1).collect();
    let mut remaining = n;
    while remaining > 2 {
        let mut next = Vec::new();
        for &leaf in &leaves {
            removed[leaf] = true;
            remaining -= 1;
            for &w in adjacency[leaf].as_ref() {
                if !removed[w] {
                    degree[w] -= 1;
                    if degree[w] == 1 {
                        next.push(w);
                    }
                }
            }
        }
        leaves = next;
    }
    (0..n).filter(|&v| !removed[v]).collect()
}

/// AHU encoding of the subtree rooted at `root`, where `parent` is the
/// vertex we arrived from (`usize::MAX` for the actual root).
fn ahu_encode<A: AsRef<[VertexId]>>(
    labels: &[Label],
    adjacency: &[A],
    root: VertexId,
    parent: VertexId,
) -> String {
    let mut child_encodings: Vec<String> = adjacency[root]
        .as_ref()
        .iter()
        .filter(|&&w| w != parent)
        .map(|&w| ahu_encode(labels, adjacency, w, root))
        .collect();
    child_encodings.sort();
    format!("({}{})", labels[root], child_encodings.concat())
}

/// Exact canonical string by minimizing over all vertex orderings that are
/// consistent with the isomorphism-invariant sort key `(label, degree)`.
fn exact_canonical_string(g: &Graph) -> String {
    let n = g.vertex_count();
    if n == 0 {
        return "empty".to_string();
    }
    // Partition vertices into classes by (label, degree). Only orderings
    // that keep the classes in sorted order are considered; permutations are
    // generated within each class.
    let mut classes: BTreeMap<(Label, usize), Vec<VertexId>> = BTreeMap::new();
    for v in g.vertices() {
        classes
            .entry((g.label(v), g.degree(v)))
            .or_default()
            .push(v);
    }
    let class_list: Vec<Vec<VertexId>> = classes.into_values().collect();

    let mut best: Option<String> = None;
    let mut ordering: Vec<VertexId> = Vec::with_capacity(n);
    permute_classes(g, &class_list, 0, &mut ordering, &mut best);
    best.expect("at least one ordering exists")
}

/// Recursively generates orderings class by class and keeps the minimal
/// encoded string.
fn permute_classes(
    g: &Graph,
    classes: &[Vec<VertexId>],
    class_idx: usize,
    ordering: &mut Vec<VertexId>,
    best: &mut Option<String>,
) {
    if class_idx == classes.len() {
        let encoded = encode_ordering(g, ordering);
        if best.as_ref().is_none_or(|b| &encoded < b) {
            *best = Some(encoded);
        }
        return;
    }
    let class = &classes[class_idx];
    let mut perm: Vec<VertexId> = class.clone();
    permute_within(g, classes, class_idx, &mut perm, 0, ordering, best);
}

fn permute_within(
    g: &Graph,
    classes: &[Vec<VertexId>],
    class_idx: usize,
    perm: &mut Vec<VertexId>,
    k: usize,
    ordering: &mut Vec<VertexId>,
    best: &mut Option<String>,
) {
    if k == perm.len() {
        let before = ordering.len();
        ordering.extend_from_slice(perm);
        permute_classes(g, classes, class_idx + 1, ordering, best);
        ordering.truncate(before);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute_within(g, classes, class_idx, perm, k + 1, ordering, best);
        perm.swap(k, i);
    }
}

/// Encodes a full vertex ordering as `labels|upper-triangular adjacency`.
fn encode_ordering(g: &Graph, ordering: &[VertexId]) -> String {
    let n = ordering.len();
    let mut out = String::with_capacity(n * 3 + n * n / 2);
    for &v in ordering {
        out.push_str(&g.label(v).to_string());
        out.push(',');
    }
    out.push('|');
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(if g.has_edge(ordering[i], ordering[j]) {
                '1'
            } else {
                '0'
            });
        }
    }
    out
}

/// Weisfeiler–Lehman refinement encoding: iteratively replaces each vertex's
/// color with a hash of its own color and the multiset of neighbor colors,
/// then returns the sorted multiset of final colors. Not a true canonical
/// form (rare non-isomorphic graphs may collide) — used only as a fallback
/// for features too large for the exact encoder.
fn wl_refinement_string(g: &Graph, rounds: usize) -> String {
    let mut colors: Vec<u64> = g.labels().iter().map(|&l| l as u64).collect();
    for _ in 0..rounds {
        let mut next = Vec::with_capacity(colors.len());
        for v in g.vertices() {
            let mut neighbor_colors: Vec<u64> = g.neighbors(v).iter().map(|&w| colors[w]).collect();
            neighbor_colors.sort_unstable();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ colors[v];
            for c in neighbor_colors {
                h = h.wrapping_mul(0x1000_0000_01b3).wrapping_add(c);
            }
            next.push(h);
        }
        colors = next;
    }
    let mut sorted = colors;
    sorted.sort_unstable();
    sorted
        .iter()
        .map(|c| format!("{c:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    #[test]
    fn path_key_is_direction_independent() {
        assert_eq!(path_key(&[1, 2, 3]), path_key(&[3, 2, 1]));
        assert_ne!(path_key(&[1, 2, 3]), path_key(&[1, 3, 2]));
        assert!(path_key(&[5]).as_str().starts_with("P:"));
    }

    #[test]
    fn cycle_key_is_rotation_and_reflection_independent() {
        let base = cycle_key(&[1, 2, 3, 4]);
        assert_eq!(base, cycle_key(&[2, 3, 4, 1]));
        assert_eq!(base, cycle_key(&[4, 3, 2, 1]));
        assert_eq!(base, cycle_key(&[3, 2, 1, 4]));
        assert_ne!(base, cycle_key(&[1, 3, 2, 4]));
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn cycle_key_rejects_short_sequences() {
        cycle_key(&[1, 2]);
    }

    fn star(center_label: Label, leaf_labels: &[Label]) -> Graph {
        let mut b = GraphBuilder::new("star").vertex(center_label);
        for &l in leaf_labels {
            b = b.vertex(l);
        }
        for i in 0..leaf_labels.len() {
            b = b.edge(0, i + 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn tree_key_ignores_vertex_numbering() {
        // Same star with leaves listed in different orders.
        let a = star(9, &[1, 2, 3]);
        let b = star(9, &[3, 1, 2]);
        assert_eq!(tree_key(&a), tree_key(&b));
    }

    #[test]
    fn tree_key_distinguishes_different_shapes() {
        // Path a-b-c-d vs star with 3 leaves: same size, different shape.
        let path = GraphBuilder::new("p")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let s = star(1, &[1, 1, 1]);
        assert_ne!(tree_key(&path), tree_key(&s));
    }

    #[test]
    fn tree_key_distinguishes_labels() {
        let a = star(1, &[2, 2]);
        let b = star(2, &[1, 1]);
        assert_ne!(tree_key(&a), tree_key(&b));
    }

    #[test]
    fn tree_key_two_center_path() {
        // Even-length path has two centers; both rootings must agree across
        // isomorphic copies.
        let a = GraphBuilder::new("p4")
            .vertices(&[1, 2, 3, 4])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let b = GraphBuilder::new("p4r")
            .vertices(&[4, 3, 2, 1])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(tree_key(&a), tree_key(&b));
    }

    #[test]
    #[should_panic(expected = "not a tree")]
    fn tree_key_rejects_cyclic_graph() {
        let g = GraphBuilder::new("tri")
            .vertices(&[0, 0, 0])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        tree_key(&g);
    }

    #[test]
    fn graph_key_matches_for_isomorphic_graphs() {
        // The same 4-cycle with chords, numbered two different ways.
        let a = GraphBuilder::new("a")
            .vertices(&[1, 2, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
            .build()
            .unwrap();
        let b = GraphBuilder::new("b")
            .vertices(&[2, 1, 2, 1])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
            .build()
            .unwrap();
        assert_eq!(graph_key(&a), graph_key(&b));
    }

    #[test]
    fn graph_key_differs_for_non_isomorphic_graphs() {
        let path = GraphBuilder::new("p")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let cycle = GraphBuilder::new("c")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
            .unwrap();
        assert_ne!(graph_key(&path), graph_key(&cycle));
    }

    #[test]
    fn graph_key_sensitive_to_labels() {
        let a = GraphBuilder::new("a")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();
        let b = GraphBuilder::new("b")
            .vertices(&[1, 3])
            .edge(0, 1)
            .build()
            .unwrap();
        assert_ne!(graph_key(&a), graph_key(&b));
    }

    #[test]
    fn large_graph_uses_wl_fallback() {
        let mut b = GraphBuilder::new("big");
        for i in 0..(MAX_EXACT_CANON_VERTICES + 5) {
            b = b.vertex((i % 3) as Label);
        }
        for i in 1..(MAX_EXACT_CANON_VERTICES + 5) {
            b = b.edge(i - 1, i);
        }
        let g = b.build().unwrap();
        assert!(graph_canonical_string(&g).starts_with("wl:"));
    }

    #[test]
    fn feature_key_kinds_do_not_collide() {
        // A single edge viewed as a path, a tree and a graph must produce
        // three distinct keys (they live in different key namespaces).
        let edge = GraphBuilder::new("e")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();
        let p = path_key(&[1, 2]);
        let t = tree_key(&edge);
        let g = graph_key(&edge);
        assert_ne!(p, t);
        assert_ne!(t, g);
        assert_ne!(p, g);
    }

    #[test]
    fn feature_key_display_and_len() {
        let k = path_key(&[1, 2, 3]);
        assert_eq!(format!("{k}"), k.as_str());
        assert_eq!(k.len_bytes(), k.as_str().len());
        let raw = FeatureKey::from_raw("X:custom");
        assert_eq!(raw.as_str(), "X:custom");
    }
}
