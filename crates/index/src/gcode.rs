//! gCode: spectral vertex signatures and graph codes.
//!
//! Zou, Chen, Yu, Lu, "A novel spectral coding in a large graph database"
//! (EDBT 2008). gCode is the odd one out among the six methods: it
//! enumerates paths exhaustively but *encodes* them into per-vertex
//! signatures instead of storing them. Each vertex signature has three
//! components (§3 of the paper, parameters from §4.1 of the study):
//!
//! 1. a counter string over the labels of the vertices reachable along
//!    simple paths of up to `signature_path_length` edges (length 2 in the
//!    study), 32 counters wide;
//! 2. a counter string over the labels of the vertex's direct neighbors,
//!    also 32 counters wide;
//! 3. the leading eigenvalues of the adjacency matrix of the vertex's
//!    "level-N path tree" (the tree of all simple paths of length ≤ N
//!    starting at the vertex), the top 2 being kept.
//!
//! Vertex signatures are combined into a per-graph code used for a first
//! round of pruning; surviving graphs are pruned further by matching
//! individual query-vertex signatures against graph-vertex signatures, and
//! the remainder is verified with VF2.
//!
//! Soundness note: the counter components are dominance-safe (an embedding
//! can only see *more* labels in the larger graph). Of the spectral
//! component only the dominant eigenvalue is guaranteed monotone under
//! subgraph containment (Cauchy interlacing plus Perron–Frobenius), so the
//! pruning test uses the dominant eigenvalue only; the remaining
//! eigenvalues are stored — as in gCode — but serve no pruning purpose
//! here. This keeps the filter free of false dismissals.

use crate::candidates::{CandidateSet, IdSpace};
use crate::config::GCodeConfig;
use crate::fcache::FilterCacheCtx;
use crate::{GraphIndex, IndexStats, MethodKind};
use sqbench_graph::{Dataset, Graph, GraphId, VertexId};

/// Signature of a single vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexSignature {
    /// The vertex's own label.
    pub label: u32,
    /// Counts of labels (folded modulo the counter width) seen along simple
    /// paths of bounded length starting at the vertex.
    pub path_label_counts: Vec<u32>,
    /// Counts of the labels of direct neighbors (folded modulo the width).
    pub neighbor_label_counts: Vec<u32>,
    /// Leading eigenvalues of the level-N path tree adjacency matrix,
    /// descending.
    pub eigenvalues: Vec<f64>,
}

impl VertexSignature {
    /// `true` iff `self` (a dataset-graph vertex) can host `other` (a query
    /// vertex): same label, component-wise larger-or-equal counters, and a
    /// dominant eigenvalue at least as large.
    pub fn dominates(&self, other: &VertexSignature) -> bool {
        if self.label != other.label {
            return false;
        }
        let counts_ok = self
            .path_label_counts
            .iter()
            .zip(other.path_label_counts.iter())
            .all(|(a, b)| a >= b)
            && self
                .neighbor_label_counts
                .iter()
                .zip(other.neighbor_label_counts.iter())
                .all(|(a, b)| a >= b);
        if !counts_ok {
            return false;
        }
        match (self.eigenvalues.first(), other.eigenvalues.first()) {
            // Power iteration is accurate to well below 1e-6; the tolerance
            // keeps numerically-equal spectra from causing false dismissals.
            (Some(a), Some(b)) => *a >= *b - 1e-6,
            _ => true,
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.path_label_counts.capacity() + self.neighbor_label_counts.capacity())
                * std::mem::size_of::<u32>()
            + self.eigenvalues.capacity() * std::mem::size_of::<f64>()
    }
}

/// Code of a whole graph: aggregated counters plus its vertex signatures.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCode {
    /// Total label histogram (folded modulo the counter width).
    pub label_counts: Vec<u32>,
    /// Number of vertices.
    pub vertex_count: usize,
    /// Number of edges.
    pub edge_count: usize,
    /// Per-vertex signatures.
    pub vertex_signatures: Vec<VertexSignature>,
}

impl GraphCode {
    /// Builds the code of one graph.
    pub fn of(graph: &Graph, config: &GCodeConfig) -> Self {
        let width = config.counter_width.max(1);
        let mut label_counts = vec![0u32; width];
        for v in graph.vertices() {
            label_counts[(graph.label(v) as usize) % width] += 1;
        }
        let vertex_signatures = (0..graph.vertex_count())
            .map(|v| vertex_signature(graph, v, config))
            .collect();
        GraphCode {
            label_counts,
            vertex_count: graph.vertex_count(),
            edge_count: graph.edge_count(),
            vertex_signatures,
        }
    }

    /// First-stage pruning test: can this (dataset) graph possibly contain a
    /// query with the given code?
    pub fn may_contain(&self, query: &GraphCode) -> bool {
        if self.vertex_count < query.vertex_count || self.edge_count < query.edge_count {
            return false;
        }
        self.label_counts
            .iter()
            .zip(query.label_counts.iter())
            .all(|(a, b)| a >= b)
    }

    /// Second-stage pruning: every query vertex signature must be dominated
    /// by at least one vertex signature of this graph.
    pub fn signatures_cover(&self, query: &GraphCode) -> bool {
        query
            .vertex_signatures
            .iter()
            .all(|qs| self.vertex_signatures.iter().any(|gs| gs.dominates(qs)))
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.label_counts.capacity() * std::mem::size_of::<u32>()
            + self
                .vertex_signatures
                .iter()
                .map(VertexSignature::memory_bytes)
                .sum::<usize>()
    }
}

/// Builds the signature of vertex `v`.
fn vertex_signature(graph: &Graph, v: VertexId, config: &GCodeConfig) -> VertexSignature {
    let width = config.counter_width.max(1);
    let mut path_label_counts = vec![0u32; width];
    let mut neighbor_label_counts = vec![0u32; width];
    for &w in graph.neighbors(v) {
        neighbor_label_counts[(graph.label(w) as usize) % width] += 1;
    }
    // Path-tree construction: nodes are the simple paths of length
    // 0..=signature_path_length starting at v; each non-root path node is
    // connected to its one-shorter prefix. We enumerate the paths of the
    // whole graph once per vertex via a restricted DFS (the shared
    // `for_each_path` helper enumerates from every start vertex, so we run a
    // small local DFS instead).
    let mut parent_of: Vec<usize> = vec![usize::MAX]; // path-tree parent pointers
    let mut stack: Vec<(VertexId, usize, usize, Vec<VertexId>)> = Vec::new();
    // (current vertex, remaining edges, tree-node id of current path, path vertices)
    stack.push((v, config.signature_path_length, 0, vec![v]));
    while let Some((current, remaining, node_id, path)) = stack.pop() {
        if remaining == 0 {
            continue;
        }
        for &next in graph.neighbors(current) {
            if path.contains(&next) {
                continue;
            }
            let child_id = parent_of.len();
            parent_of.push(node_id);
            path_label_counts[(graph.label(next) as usize) % width] += 1;
            let mut next_path = path.clone();
            next_path.push(next);
            stack.push((next, remaining - 1, child_id, next_path));
        }
    }
    let eigenvalues = path_tree_eigenvalues(&parent_of, config.eigenvalue_count);
    VertexSignature {
        label: graph.label(v),
        path_label_counts,
        neighbor_label_counts,
        eigenvalues,
    }
}

/// Leading eigenvalues (descending) of the adjacency matrix of a tree given
/// by parent pointers, computed with power iteration plus one deflation step
/// per additional eigenvalue.
fn path_tree_eigenvalues(parent_of: &[usize], count: usize) -> Vec<f64> {
    let n = parent_of.len();
    if n <= 1 || count == 0 {
        return vec![0.0; count];
    }
    // Sparse adjacency of the tree.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (child, &parent) in parent_of.iter().enumerate().skip(1) {
        adjacency[child].push(parent);
        adjacency[parent].push(child);
    }
    let mut eigenvalues = Vec::with_capacity(count);
    let mut deflated: Vec<(f64, Vec<f64>)> = Vec::new();
    for _ in 0..count {
        let (lambda, vector) = power_iteration(&adjacency, &deflated);
        eigenvalues.push(lambda);
        deflated.push((lambda, vector));
    }
    eigenvalues
}

/// Power iteration on the adjacency matrix minus the already-extracted
/// rank-one components (deflation).
fn power_iteration(adjacency: &[Vec<usize>], deflated: &[(f64, Vec<f64>)]) -> (f64, Vec<f64>) {
    let n = adjacency.len();
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    normalize(&mut x);
    let mut lambda = 0.0;
    for _ in 0..60 {
        // y = A x
        let mut y = vec![0.0; n];
        for (i, neighbors) in adjacency.iter().enumerate() {
            for &j in neighbors {
                y[i] += x[j];
            }
        }
        // Deflation: y -= Σ λ_k (v_k · x) v_k
        for (lk, vk) in deflated {
            let dot: f64 = vk.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
            for (yi, vki) in y.iter_mut().zip(vk.iter()) {
                *yi -= lk * dot * vki;
            }
        }
        let norm = normalize(&mut y);
        if norm < 1e-12 {
            return (0.0, y);
        }
        lambda = norm;
        x = y;
    }
    // The Rayleigh quotient gives a signed estimate; for adjacency matrices
    // of trees the dominant eigenvalue is positive, so the norm works as the
    // magnitude and the quotient fixes the sign.
    let mut ax = vec![0.0; n];
    for (i, neighbors) in adjacency.iter().enumerate() {
        for &j in neighbors {
            ax[i] += x[j];
        }
    }
    for (lk, vk) in deflated {
        let dot: f64 = vk.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        for (axi, vki) in ax.iter_mut().zip(vk.iter()) {
            *axi -= lk * dot * vki;
        }
    }
    let rayleigh: f64 = ax.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
    (if rayleigh < 0.0 { -lambda } else { lambda }, x)
}

fn normalize(x: &mut [f64]) -> f64 {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    norm
}

/// The gCode index: one [`GraphCode`] per dataset graph.
#[derive(Debug, Clone)]
pub struct GCodeIndex {
    config: GCodeConfig,
    /// Indexed by graph id. A dead slot holds an empty-graph code (which
    /// still covers an empty query), so the tombstone mask — not the code —
    /// keeps dead ids out of candidates.
    codes: Vec<GraphCode>,
    ids: IdSpace,
}

impl GCodeIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &Dataset, config: GCodeConfig) -> Self {
        let codes = dataset
            .graphs()
            .iter()
            .map(|g| GraphCode::of(g, &config))
            .collect();
        GCodeIndex {
            ids: IdSpace::of(dataset),
            config,
            codes,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &GCodeConfig {
        &self.config
    }

    /// The code of graph `gid`, if it exists.
    pub fn code(&self, gid: GraphId) -> Option<&GraphCode> {
        self.codes.get(gid)
    }
}

impl GraphIndex for GCodeIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::GCode
    }

    fn id_space(&self) -> &IdSpace {
        &self.ids
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        &mut self.ids
    }

    fn append(&mut self, gid: GraphId, graph: &Graph) {
        debug_assert_eq!(gid, self.codes.len(), "codes are indexed by graph id");
        self.codes.push(GraphCode::of(graph, &self.config));
    }

    /// The code is dense per-graph state (signatures per vertex), so it is
    /// given back immediately.
    fn reclaim_slot(&mut self, id: GraphId) {
        self.codes[id] = GraphCode::of(&Graph::new("<dead>"), &self.config);
    }

    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        _ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        let query_code = GraphCode::of(query, &self.config);
        // A single id-ordered scan with no intersection stage: each graph
        // whose spectral code covers the query's sets its bit directly.
        out.reset_empty(self.codes.len());
        for (gid, code) in self.codes.iter().enumerate() {
            if code.may_contain(&query_code) && code.signatures_cover(&query_code) {
                out.insert(gid);
            }
        }
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            distinct_features: self.codes.iter().map(|c| c.vertex_signatures.len()).sum(),
            size_bytes: self.codes.iter().map(GraphCode::memory_bytes).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive_answers;
    use sqbench_graph::GraphBuilder;

    fn dataset() -> Dataset {
        let tri = GraphBuilder::new("tri")
            .vertices(&[1, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let path = GraphBuilder::new("path")
            .vertices(&[1, 2, 3])
            .edges(&[(0, 1), (1, 2)])
            .build()
            .unwrap();
        let star = GraphBuilder::new("star")
            .vertices(&[2, 1, 1, 1])
            .edges(&[(0, 1), (0, 2), (0, 3)])
            .build()
            .unwrap();
        Dataset::from_graphs("ds", vec![tri, path, star])
    }

    fn query(labels: &[u32], edges: &[(usize, usize)]) -> Graph {
        GraphBuilder::new("q")
            .vertices(labels)
            .edges(edges)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_one_code_per_graph() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        assert_eq!(idx.kind(), MethodKind::GCode);
        for gid in ds.ids() {
            let code = idx.code(gid).unwrap();
            assert_eq!(
                code.vertex_signatures.len(),
                ds.graph(gid).unwrap().vertex_count()
            );
            assert_eq!(code.label_counts.len(), 32);
        }
        assert!(idx.stats().size_bytes > 0);
    }

    #[test]
    fn signature_eigenvalue_is_positive_for_non_isolated_vertices() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        let code = idx.code(0).unwrap();
        for sig in &code.vertex_signatures {
            assert_eq!(sig.eigenvalues.len(), 2);
            assert!(sig.eigenvalues[0] > 0.0);
        }
    }

    #[test]
    fn star_center_has_larger_spectral_radius_than_leaf() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        let star_code = idx.code(2).unwrap();
        let center = &star_code.vertex_signatures[0];
        let leaf = &star_code.vertex_signatures[1];
        // For a 3-leaf star the two level-2 path trees are isomorphic
        // (both are K_{1,3}), so the spectral radii agree up to numerical
        // precision; the center is never smaller.
        assert!(center.eigenvalues[0] >= leaf.eigenvalues[0] - 1e-6);
    }

    #[test]
    fn filter_is_a_superset_of_answers() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1], vec![(0, 1)]),
            (vec![2, 1, 1], vec![(0, 1), (0, 2)]),
            (vec![1, 2, 3], vec![(0, 1), (1, 2)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
        ] {
            let q = query(&labels, &edges);
            let candidates = idx.query(&ds, &q).candidates;
            for a in exhaustive_answers(&ds, &q) {
                assert!(candidates.contains(&a), "answer missing for {labels:?}");
            }
        }
    }

    #[test]
    fn query_returns_exact_answers() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![2, 1, 1], vec![(0, 1), (0, 2)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
        ] {
            let q = query(&labels, &edges);
            let outcome = idx.query(&ds, &q);
            assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
        }
    }

    #[test]
    fn vertex_signatures_prune_structure_mismatches() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        // Query: label-2 vertex with three label-1 neighbors. Only the star
        // has such a vertex; the triangle's label-2 vertex has two neighbors.
        let q = query(&[2, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let candidates = idx.query(&ds, &q).candidates;
        assert_eq!(candidates, vec![2]);
    }

    #[test]
    fn graph_level_counters_prune_oversized_queries() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        // A query with four label-1 vertices cannot fit any dataset graph
        // (the star has only three).
        let q = query(&[1, 1, 1, 1], &[(0, 1), (1, 2), (2, 3)]);
        assert!(idx.query(&ds, &q).candidates.is_empty());
    }

    #[test]
    fn dominance_is_reflexive() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        for code in &idx.codes {
            for sig in &code.vertex_signatures {
                assert!(sig.dominates(sig));
            }
        }
    }

    #[test]
    fn empty_query_matches_everything() {
        let ds = dataset();
        let idx = GCodeIndex::build(&ds, GCodeConfig::default());
        let outcome = idx.query(&ds, &Graph::new("empty"));
        assert_eq!(outcome.answers, vec![0, 1, 2]);
    }
}
