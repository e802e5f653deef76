//! The core labeled undirected graph type.

use crate::error::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A vertex label. The paper's graphs carry a single categorical label per
/// vertex; labels are small integers drawn from an alphabet of configurable
/// size (10–80 distinct labels in the synthetic sweeps).
pub type Label = u32;

/// Identifier of a vertex inside a single [`Graph`]. Ids are dense: the
/// `i`-th vertex added to a graph receives id `i`.
pub type VertexId = usize;

/// An undirected, vertex-labeled graph (Definition 1 of the paper).
///
/// * No self loops and no parallel edges.
/// * Each vertex carries exactly one [`Label`]; the same label may appear on
///   any number of vertices.
/// * Adjacency is stored as a sorted neighbor list per vertex, which keeps
///   neighbor iteration cache-friendly and makes `has_edge` a binary search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    labels: Vec<Label>,
    adjacency: Vec<Vec<VertexId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph with a human-readable name (e.g. the molecule
    /// id in a chemical dataset).
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            labels: Vec::new(),
            adjacency: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph and pre-allocates room for `vertices` vertices.
    pub fn with_capacity(name: impl Into<String>, vertices: usize) -> Self {
        Graph {
            name: name.into(),
            labels: Vec::with_capacity(vertices),
            adjacency: Vec::with_capacity(vertices),
            edge_count: 0,
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a vertex carrying `label` and returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = self.labels.len();
        self.labels.push(label);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge between `u` and `v`.
    ///
    /// Returns an error if either endpoint does not exist, if `u == v`
    /// (self loop), or if the edge already exists.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        let n = self.labels.len();
        if u >= n {
            return Err(GraphError::UnknownVertex {
                vertex: u,
                vertex_count: n,
            });
        }
        if v >= n {
            return Err(GraphError::UnknownVertex {
                vertex: v,
                vertex_count: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        // Keep neighbor lists sorted so `has_edge` can binary search.
        let pos_u = self.adjacency[u].binary_search(&v).unwrap_err();
        self.adjacency[u].insert(pos_u, v);
        let pos_v = self.adjacency[v].binary_search(&u).unwrap_err();
        self.adjacency[v].insert(pos_v, u);
        self.edge_count += 1;
        Ok(())
    }

    /// Adds an edge if it is valid and not already present; silently ignores
    /// duplicates. Returns `true` if a new edge was inserted.
    pub fn add_edge_if_absent(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range; use [`Graph::try_label`] for a checked
    /// variant.
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v]
    }

    /// The label of vertex `v`, or an error if `v` does not exist.
    pub fn try_label(&self, v: VertexId) -> Result<Label> {
        self.labels
            .get(v)
            .copied()
            .ok_or(GraphError::UnknownVertex {
                vertex: v,
                vertex_count: self.labels.len(),
            })
    }

    /// All vertex labels, indexed by vertex id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Sorted neighbor list of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v]
    }

    /// Degree (number of incident edges) of vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v].len()
    }

    /// Hints the CPU to pull this graph's hot buffers (label array, adjacency
    /// spine, and the first adjacency row) into cache ahead of use.
    ///
    /// The block verifier calls this for the *next* block of candidate graphs
    /// while VF2 still runs on the current one, so the pointer-chasing start
    /// of each match does not stall on a cold cache line. On non-x86_64
    /// targets this compiles to nothing; it is a pure hint either way and has
    /// no observable effect on results.
    #[inline]
    pub fn prefetch_hint(&self) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            if !self.labels.is_empty() {
                _mm_prefetch(self.labels.as_ptr() as *const i8, _MM_HINT_T0);
            }
            if !self.adjacency.is_empty() {
                _mm_prefetch(self.adjacency.as_ptr() as *const i8, _MM_HINT_T0);
                let first = &self.adjacency[0];
                if !first.is_empty() {
                    _mm_prefetch(first.as_ptr() as *const i8, _MM_HINT_T0);
                }
            }
        }
    }

    /// `true` iff an edge between `u` and `v` exists. Out-of-range ids simply
    /// yield `false`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.adjacency.get(u) {
            Some(neigh) => neigh.binary_search(&v).is_ok(),
            None => false,
        }
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.labels.len()
    }

    /// Iterator over all undirected edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, neigh)| neigh.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Graph density per Definition 4 of the paper:
    /// `2|E| / (|V| (|V|-1))`, in `[0, 1]`. Graphs with fewer than two
    /// vertices have density 0.
    pub fn density(&self) -> f64 {
        let n = self.labels.len();
        if n < 2 {
            return 0.0;
        }
        (2.0 * self.edge_count as f64) / (n as f64 * (n as f64 - 1.0))
    }

    /// Average vertex degree per Definition 5: `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        let n = self.labels.len();
        if n == 0 {
            return 0.0;
        }
        2.0 * self.edge_count as f64 / n as f64
    }

    /// Number of distinct labels appearing in this graph.
    pub fn distinct_label_count(&self) -> usize {
        let mut seen: Vec<Label> = self.labels.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Histogram of label occurrences: label -> number of vertices carrying it.
    pub fn label_histogram(&self) -> BTreeMap<Label, usize> {
        let mut hist = BTreeMap::new();
        for &l in &self.labels {
            *hist.entry(l).or_insert(0) += 1;
        }
        hist
    }

    /// Vertices carrying a given label.
    pub fn vertices_with_label(&self, label: Label) -> Vec<VertexId> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(v, &l)| (l == label).then_some(v))
            .collect()
    }

    /// Rewrites every vertex label through `f` in place. Used by the
    /// label-clustered dataset generators, which shift each graph family
    /// into its own disjoint label range so shard synopses can tell the
    /// families apart.
    pub fn map_labels(&mut self, mut f: impl FnMut(Label) -> Label) {
        for label in &mut self.labels {
            *label = f(*label);
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// An estimate of the number of heap bytes used by this graph. Used by
    /// the harness to report index and dataset sizes.
    pub fn memory_bytes(&self) -> usize {
        let label_bytes = self.labels.capacity() * std::mem::size_of::<Label>();
        let adjacency_bytes: usize = self
            .adjacency
            .iter()
            .map(|n| n.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        let spine = self.adjacency.capacity() * std::mem::size_of::<Vec<VertexId>>();
        label_bytes + adjacency_bytes + spine + self.name.capacity()
    }

    /// Returns the subgraph induced by `vertices`. The `i`-th entry of
    /// `vertices` becomes vertex `i` of the result; duplicate ids are
    /// collapsed. Edges of the original graph with both endpoints in
    /// `vertices` are preserved.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> Graph {
        let mut mapping: BTreeMap<VertexId, VertexId> = BTreeMap::new();
        let mut sub = Graph::with_capacity(format!("{}#induced", self.name), vertices.len());
        for &v in vertices {
            if v < self.vertex_count() && !mapping.contains_key(&v) {
                let new_id = sub.add_vertex(self.labels[v]);
                mapping.insert(v, new_id);
            }
        }
        for (&old_u, &new_u) in &mapping {
            for &old_v in self.neighbors(old_u) {
                if old_u < old_v {
                    if let Some(&new_v) = mapping.get(&old_v) {
                        // Ignore duplicates defensively; they cannot occur here.
                        let _ = sub.add_edge_if_absent(new_u, new_v);
                    }
                }
            }
        }
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new("path");
        let ids: Vec<_> = (0..n).map(|i| g.add_vertex(i as Label % 3)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::new("empty");
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.distinct_label_count(), 0);
    }

    #[test]
    fn add_vertices_and_edges() {
        let mut g = Graph::new("g");
        let a = g.add_vertex(1);
        let b = g.add_vertex(2);
        let c = g.add_vertex(1);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.has_edge(a, c));
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.neighbors(b), &[a, c]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new("g");
        let a = g.add_vertex(0);
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop { vertex: a }));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new("g");
        let a = g.add_vertex(0);
        let b = g.add_vertex(0);
        g.add_edge(a, b).unwrap();
        assert_eq!(
            g.add_edge(b, a),
            Err(GraphError::DuplicateEdge { u: b, v: a })
        );
        assert_eq!(g.add_edge_if_absent(a, b), Ok(false));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut g = Graph::new("g");
        let a = g.add_vertex(0);
        assert!(matches!(
            g.add_edge(a, 5),
            Err(GraphError::UnknownVertex { vertex: 5, .. })
        ));
        assert!(g.try_label(9).is_err());
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let mut g = Graph::new("k4");
        let ids: Vec<_> = (0..4).map(|_| g.add_vertex(0)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(ids[i], ids[j]).unwrap();
            }
        }
        assert!((g.density() - 1.0).abs() < 1e-12);
        assert!((g.average_degree() - 3.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn density_of_path() {
        let g = path_graph(5);
        // path on 5 vertices: 4 edges, density = 2*4 / (5*4) = 0.4
        assert!((g.density() - 0.4).abs() < 1e-12);
        assert!((g.average_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = path_graph(6);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn label_histogram_counts() {
        let g = path_graph(7); // labels cycle 0,1,2
        let hist = g.label_histogram();
        assert_eq!(hist[&0], 3);
        assert_eq!(hist[&1], 2);
        assert_eq!(hist[&2], 2);
        assert_eq!(g.distinct_label_count(), 3);
        assert_eq!(g.vertices_with_label(0), vec![0, 3, 6]);
    }

    #[test]
    fn induced_subgraph_preserves_edges_and_labels() {
        let g = path_graph(5); // 0-1-2-3-4
        let sub = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.label(0), g.label(1));
        assert_eq!(sub.label(1), g.label(2));
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_out_of_range() {
        let g = path_graph(4);
        let sub = g.induced_subgraph(&[0, 0, 1, 99]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn map_labels_rewrites_in_place() {
        let mut g = path_graph(4); // labels 0,1,2,0
        g.map_labels(|l| l + 10);
        assert_eq!(g.labels(), &[10, 11, 12, 10]);
        assert_eq!(g.edge_count(), 3, "structure is untouched");
        assert_eq!(g.vertices_with_label(10), vec![0, 3]);
    }

    #[test]
    fn memory_bytes_is_positive_for_nonempty_graph() {
        let g = path_graph(10);
        assert!(g.memory_bytes() > 0);
    }
}
