//! Per-graph and per-dataset statistics, plus the routing synopses the
//! sharded query service consults before fanning a query out.
//!
//! [`DatasetStats`] computes exactly the columns of Table 1 in the paper:
//! number of graphs, number of disconnected graphs, number of distinct
//! labels, average / standard deviation of the number of nodes per graph,
//! average number of edges, average density, average degree, and average
//! number of distinct labels per graph.
//!
//! [`GraphSynopsis`] and [`ShardSynopsis`] summarize what a graph (or a
//! shard's worth of graphs) *could possibly contain*: label multiplicities,
//! a cumulative degree histogram, the set of edge label pairs, and
//! vertex/edge maxima. [`ShardSynopsis::admits`] is a **sound necessary
//! condition** for a subgraph match existing inside the shard — it may
//! admit a shard that holds no match (a false positive, resolved by the
//! index + verifier), but it never rejects a shard that does (no false
//! negatives), mirroring the paper's filtering contract.

use crate::algo::is_connected;
use crate::dataset::Dataset;
use crate::graph::{Graph, Label};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Summary statistics of a single graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Density per Definition 4.
    pub density: f64,
    /// Average degree per Definition 5.
    pub average_degree: f64,
    /// Number of distinct labels occurring in the graph.
    pub distinct_labels: usize,
    /// Maximum vertex degree.
    pub max_degree: usize,
    /// Whether the graph is connected.
    pub connected: bool,
}

impl GraphStats {
    /// Computes statistics for one graph.
    pub fn of(g: &Graph) -> Self {
        GraphStats {
            vertices: g.vertex_count(),
            edges: g.edge_count(),
            density: g.density(),
            average_degree: g.average_degree(),
            distinct_labels: g.distinct_label_count(),
            max_degree: g.max_degree(),
            connected: is_connected(g),
        }
    }
}

/// Summary statistics of a whole dataset — the rows of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of graphs in the dataset.
    pub graph_count: usize,
    /// Number of graphs that are disconnected.
    pub disconnected_graphs: usize,
    /// Number of distinct labels used across the dataset.
    pub distinct_labels: usize,
    /// Average number of vertices per graph.
    pub avg_nodes: f64,
    /// Standard deviation of the number of vertices per graph.
    pub stddev_nodes: f64,
    /// Average number of edges per graph.
    pub avg_edges: f64,
    /// Average graph density.
    pub avg_density: f64,
    /// Average of the graphs' average degrees.
    pub avg_degree: f64,
    /// Average number of distinct labels per graph.
    pub avg_labels_per_graph: f64,
}

impl DatasetStats {
    /// Computes Table-1 style statistics for a dataset.
    pub fn of(ds: &Dataset) -> Self {
        let n = ds.len();
        if n == 0 {
            return DatasetStats {
                name: ds.name().to_string(),
                graph_count: 0,
                disconnected_graphs: 0,
                distinct_labels: 0,
                avg_nodes: 0.0,
                stddev_nodes: 0.0,
                avg_edges: 0.0,
                avg_density: 0.0,
                avg_degree: 0.0,
                avg_labels_per_graph: 0.0,
            };
        }
        let per_graph: Vec<GraphStats> = ds.iter().map(|(_, g)| GraphStats::of(g)).collect();
        let nf = n as f64;
        let avg_nodes = per_graph.iter().map(|s| s.vertices as f64).sum::<f64>() / nf;
        let var_nodes = per_graph
            .iter()
            .map(|s| {
                let d = s.vertices as f64 - avg_nodes;
                d * d
            })
            .sum::<f64>()
            / nf;
        DatasetStats {
            name: ds.name().to_string(),
            graph_count: n,
            disconnected_graphs: per_graph.iter().filter(|s| !s.connected).count(),
            distinct_labels: ds.distinct_label_count(),
            avg_nodes,
            stddev_nodes: var_nodes.sqrt(),
            avg_edges: per_graph.iter().map(|s| s.edges as f64).sum::<f64>() / nf,
            avg_density: per_graph.iter().map(|s| s.density).sum::<f64>() / nf,
            avg_degree: per_graph.iter().map(|s| s.average_degree).sum::<f64>() / nf,
            avg_labels_per_graph: per_graph
                .iter()
                .map(|s| s.distinct_labels as f64)
                .sum::<f64>()
                / nf,
        }
    }

    /// Renders the statistics as a single human-readable row, matching the
    /// layout of Table 1 in the paper.
    pub fn to_table_row(&self) -> String {
        format!(
            "{name:12} graphs={graphs:7} disconnected={disc:6} labels={labels:4} \
             avg_nodes={an:9.2} sd_nodes={sd:9.2} avg_edges={ae:10.2} \
             avg_density={ad:7.4} avg_degree={deg:7.2} avg_labels={al:6.2}",
            name = self.name,
            graphs = self.graph_count,
            disc = self.disconnected_graphs,
            labels = self.distinct_labels,
            an = self.avg_nodes,
            sd = self.stddev_nodes,
            ae = self.avg_edges,
            ad = self.avg_density,
            deg = self.avg_degree,
            al = self.avg_labels_per_graph,
        )
    }
}

/// A cheap, order-independent summary of what one graph could contain,
/// used on both sides of the shard-routing admissibility test: computed
/// per query at routing time and folded into a [`ShardSynopsis`] per data
/// graph at partition time.
///
/// Every field is *monotone under subgraph embedding*: if `q` is a
/// subgraph of `g` (injective, label-preserving, edge-preserving — the
/// paper's Definition 2), then field-by-field `q`'s synopsis is dominated
/// by `g`'s. That monotonicity is what makes [`ShardSynopsis::admits`] a
/// sound necessary condition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphSynopsis {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Vertices per label: `label_counts[l]` is how many vertices carry
    /// label `l`. An embedding maps the query's `l`-labeled vertices
    /// injectively onto the data graph's, so each count is monotone.
    pub label_counts: BTreeMap<Label, usize>,
    /// Cumulative degree histogram: `degree_ge[d]` is the number of
    /// vertices with degree **at least** `d` (so `degree_ge[0]` is the
    /// vertex count; the vector has `max_degree + 1` entries, empty for
    /// the empty graph). An embedding maps a query vertex of degree `d`
    /// to a data vertex of degree ≥ `d` (its neighbors map to distinct
    /// neighbors), so each cumulative count is monotone.
    pub degree_ge: Vec<usize>,
    /// The set of unordered endpoint-label pairs `(a, b)` with `a <= b`
    /// over all edges. Every query edge must reappear (label-for-label)
    /// in the data graph, so the query's pair set is a subset of the data
    /// graph's.
    pub label_pairs: BTreeSet<(Label, Label)>,
}

impl GraphSynopsis {
    /// Computes the synopsis of one graph in a single pass over its
    /// vertices and edges.
    pub fn of(g: &Graph) -> Self {
        let mut label_counts: BTreeMap<Label, usize> = BTreeMap::new();
        for &label in g.labels() {
            *label_counts.entry(label).or_insert(0) += 1;
        }
        let mut degree_ge = vec![0usize; if g.is_empty() { 0 } else { g.max_degree() + 1 }];
        for v in g.vertices() {
            // Count per exact degree first; suffix-sum below turns the
            // histogram into cumulative "degree at least d" counts.
            degree_ge[g.degree(v)] += 1;
        }
        for d in (0..degree_ge.len().saturating_sub(1)).rev() {
            degree_ge[d] += degree_ge[d + 1];
        }
        let label_pairs = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (g.label(u), g.label(v));
                (a.min(b), a.max(b))
            })
            .collect();
        GraphSynopsis {
            vertices: g.vertex_count(),
            edges: g.edge_count(),
            label_counts,
            degree_ge,
            label_pairs,
        }
    }
}

/// Per-shard routing synopsis: the field-wise *maximum* of the shard's
/// per-graph [`GraphSynopsis`]es (and the union of their label-pair sets).
///
/// A subgraph query answers per graph, so the shard can hold a match only
/// if **some single graph** dominates the query's synopsis. Taking the
/// per-field maximum over graphs relaxes that (the dominating values may
/// come from different graphs), which keeps the synopsis tiny at the cost
/// of extra admissions — never missed ones: if `q ⊆ g` for a graph `g` in
/// the shard, every field of `q`'s synopsis is ≤ `g`'s ≤ the shard's
/// maximum, and `q`'s label pairs are inside `g`'s ⊆ the shard's union.
///
/// # Multiplicities
///
/// A maximum alone cannot be undone: once the graph that set it leaves,
/// the next-largest value is unknown without rescanning the shard. So
/// every bound also carries the **multiplicity of its witnesses** — behind
/// each maximum a small multiset (value → number of summarized graphs
/// holding exactly that value), behind each label pair the number of
/// graphs containing it. [`ShardSynopsis::absorb`] increments,
/// [`ShardSynopsis::retract`] decrements and republishes a bound only from
/// what is left (the next key, or nothing), both in O(the one graph).
///
/// The multiplicities are a function of the *multiset* of summarized
/// graphs alone — zero counts are dropped, never kept — so a synopsis that
/// absorbed and retracted in any order **equals** (`==`, every field) the
/// one [`ShardSynopsis::of`] computes from the surviving graphs. That is
/// stronger than soundness: it admits exactly what a rebuild would. Their
/// size is bounded by the number of *distinct* values per bound (vertex
/// counts, per-label counts, degree-bucket counts), not by the number of
/// graphs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardSynopsis {
    /// Number of graphs summarized — live graphs only, on the rescan and
    /// the incremental path alike.
    pub graphs: usize,
    /// Largest vertex count of any single graph.
    pub max_vertices: usize,
    /// Largest edge count of any single graph.
    pub max_edges: usize,
    /// Per label: the largest number of vertices carrying it in any
    /// single graph (a query needing 3 `L7` vertices skips shards whose
    /// best graph has ≤ 2).
    pub max_label_counts: BTreeMap<Label, usize>,
    /// Per degree `d`: the largest `degree_ge[d]` of any single graph.
    pub degree_ge_max: Vec<usize>,
    /// Union of the graphs' edge label-pair sets.
    pub label_pairs: BTreeSet<(Label, Label)>,
    /// Witnesses of `max_vertices`.
    vertex_witnesses: Witnesses,
    /// Witnesses of `max_edges`.
    edge_witnesses: Witnesses,
    /// Witnesses of each `max_label_counts` entry (same key set).
    label_witnesses: BTreeMap<Label, Witnesses>,
    /// Witnesses of each `degree_ge_max` entry (same length).
    degree_witnesses: Vec<Witnesses>,
    /// Per `label_pairs` entry (same key set): the graphs containing it.
    pair_witnesses: BTreeMap<(Label, Label), u32>,
}

/// The multiset behind one maximum: value → number of summarized graphs
/// holding exactly that value. Its largest key is the published bound.
type Witnesses = BTreeMap<usize, u32>;

/// Counts one more graph witnessing `key`.
fn hold<K: Ord>(counts: &mut BTreeMap<K, u32>, key: K) {
    *counts.entry(key).or_insert(0) += 1;
}

/// Counts one graph fewer witnessing `key`, dropping the entry with its
/// last witness (zero counts are never kept).
fn release<K: Ord>(counts: &mut BTreeMap<K, u32>, key: &K) {
    let count = counts.get_mut(key).expect(NEVER_ABSORBED);
    *count -= 1;
    if *count == 0 {
        counts.remove(key);
    }
}

/// Counts one graph fewer holding `value` and returns the bound that is
/// left: the largest value still witnessed, `None` once nothing is.
fn release_bound(witnesses: &mut Witnesses, value: usize) -> Option<usize> {
    release(witnesses, &value);
    witnesses.last_key_value().map(|(&max, _)| max)
}

const NEVER_ABSORBED: &str = "retracted a graph the synopsis never absorbed";

impl ShardSynopsis {
    /// Computes the synopsis of a whole dataset (one shard's slice) from
    /// its live graphs — the rescan [`ShardSynopsis::retract`] replaces on
    /// the write path, kept as the oracle it is tested against.
    pub fn of(dataset: &Dataset) -> Self {
        let mut synopsis = ShardSynopsis::default();
        for (_, g) in dataset.iter_live() {
            synopsis.absorb(&GraphSynopsis::of(g));
        }
        synopsis
    }

    /// Folds one graph's synopsis into the shard summary.
    pub fn absorb(&mut self, g: &GraphSynopsis) {
        self.graphs += 1;
        hold(&mut self.vertex_witnesses, g.vertices);
        self.max_vertices = self.max_vertices.max(g.vertices);
        hold(&mut self.edge_witnesses, g.edges);
        self.max_edges = self.max_edges.max(g.edges);
        for (&label, &count) in &g.label_counts {
            hold(self.label_witnesses.entry(label).or_default(), count);
            let entry = self.max_label_counts.entry(label).or_insert(0);
            *entry = (*entry).max(count);
        }
        if g.degree_ge.len() > self.degree_ge_max.len() {
            self.degree_ge_max.resize(g.degree_ge.len(), 0);
            self.degree_witnesses
                .resize_with(g.degree_ge.len(), Witnesses::new);
        }
        for (d, &count) in g.degree_ge.iter().enumerate() {
            hold(&mut self.degree_witnesses[d], count);
            self.degree_ge_max[d] = self.degree_ge_max[d].max(count);
        }
        for &pair in &g.label_pairs {
            hold(&mut self.pair_witnesses, pair);
            self.label_pairs.insert(pair);
        }
    }

    /// The inverse of [`ShardSynopsis::absorb`]: takes one previously
    /// absorbed graph's synopsis back out. A maximum drops to the next
    /// witnessed value, and a label, a label pair or a trailing degree
    /// bucket disappears, only when the graph was its last witness.
    ///
    /// # Panics
    ///
    /// If `g` was never absorbed — going on would under-admit silently.
    pub fn retract(&mut self, g: &GraphSynopsis) {
        self.graphs = self.graphs.checked_sub(1).expect(NEVER_ABSORBED);
        self.max_vertices = release_bound(&mut self.vertex_witnesses, g.vertices).unwrap_or(0);
        self.max_edges = release_bound(&mut self.edge_witnesses, g.edges).unwrap_or(0);
        for (label, &count) in &g.label_counts {
            let witnesses = self.label_witnesses.get_mut(label).expect(NEVER_ABSORBED);
            match release_bound(witnesses, count) {
                Some(max) => {
                    self.max_label_counts.insert(*label, max);
                }
                None => {
                    self.label_witnesses.remove(label);
                    self.max_label_counts.remove(label);
                }
            }
        }
        assert!(
            g.degree_ge.len() <= self.degree_witnesses.len(),
            "{NEVER_ABSORBED}"
        );
        for (d, &count) in g.degree_ge.iter().enumerate() {
            self.degree_ge_max[d] =
                release_bound(&mut self.degree_witnesses[d], count).unwrap_or(0);
        }
        // Every graph covers buckets `0..=its max degree`, so the buckets
        // nobody witnesses any more are exactly a suffix.
        while self
            .degree_witnesses
            .last()
            .is_some_and(Witnesses::is_empty)
        {
            self.degree_witnesses.pop();
            self.degree_ge_max.pop();
        }
        for pair in &g.label_pairs {
            release(&mut self.pair_witnesses, pair);
            if !self.pair_witnesses.contains_key(pair) {
                self.label_pairs.remove(pair);
            }
        }
    }

    /// Sound admissibility test: `false` **proves** no graph in the shard
    /// contains the query (safe to skip the shard); `true` means a match
    /// is possible and the shard must be probed.
    ///
    /// Every check tests a condition that `q ⊆ g` implies for each graph
    /// `g` in the shard (see the field docs), so rejecting requires *all*
    /// graphs to fail at least one monotone bound — a necessary-condition
    /// filter with no false negatives, exactly the contract the paper
    /// demands of index filtering.
    pub fn admits(&self, q: &GraphSynopsis) -> bool {
        if q.vertices > self.max_vertices || q.edges > self.max_edges {
            return false;
        }
        if q.degree_ge.len() > self.degree_ge_max.len() {
            return false; // the query needs a higher degree than any graph has
        }
        for (d, &needed) in q.degree_ge.iter().enumerate() {
            if needed > self.degree_ge_max[d] {
                return false;
            }
        }
        for (label, &needed) in &q.label_counts {
            if self.max_label_counts.get(label).copied().unwrap_or(0) < needed {
                return false;
            }
        }
        q.label_pairs.is_subset(&self.label_pairs)
    }

    /// Estimated heap bytes of the synopsis, bounds and multiplicities
    /// both — the routing layer's per-shard memory cost.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let witness_bytes = |w: &Witnesses| w.len() * size_of::<(usize, u32)>();
        self.max_label_counts.len() * size_of::<(Label, usize)>()
            + self.degree_ge_max.capacity() * size_of::<usize>()
            + self.label_pairs.len() * size_of::<(Label, Label)>()
            + witness_bytes(&self.vertex_witnesses)
            + witness_bytes(&self.edge_witnesses)
            + self
                .label_witnesses
                .values()
                .map(|w| size_of::<(Label, Witnesses)>() + witness_bytes(w))
                .sum::<usize>()
            + self.degree_witnesses.capacity() * size_of::<Witnesses>()
            + self
                .degree_witnesses
                .iter()
                .map(witness_bytes)
                .sum::<usize>()
            + self.pair_witnesses.len() * size_of::<((Label, Label), u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle(label: u32) -> Graph {
        GraphBuilder::new("tri")
            .vertices(&[label, label, label + 1])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    fn disconnected_pair() -> Graph {
        GraphBuilder::new("pair")
            .vertices(&[0, 1, 2, 3])
            .edges(&[(0, 1), (2, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn graph_stats_of_triangle() {
        let s = GraphStats::of(&triangle(0));
        assert_eq!(s.vertices, 3);
        assert_eq!(s.edges, 3);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert!((s.average_degree - 2.0).abs() < 1e-12);
        assert_eq!(s.distinct_labels, 2);
        assert_eq!(s.max_degree, 2);
        assert!(s.connected);
    }

    #[test]
    fn graph_stats_detects_disconnection() {
        let s = GraphStats::of(&disconnected_pair());
        assert!(!s.connected);
    }

    #[test]
    fn dataset_stats_aggregates() {
        let ds = Dataset::from_graphs("mix", vec![triangle(0), triangle(5), disconnected_pair()]);
        let s = DatasetStats::of(&ds);
        assert_eq!(s.graph_count, 3);
        assert_eq!(s.disconnected_graphs, 1);
        // labels used: {0,1,5,6} from triangles + {0,1,2,3} from the pair
        assert_eq!(s.distinct_labels, 6);
        assert!((s.avg_nodes - (3.0 + 3.0 + 4.0) / 3.0).abs() < 1e-12);
        assert!((s.avg_edges - (3.0 + 3.0 + 2.0) / 3.0).abs() < 1e-12);
        assert!(s.stddev_nodes > 0.0);
        assert!(s.avg_density > 0.0 && s.avg_density <= 1.0);
    }

    #[test]
    fn dataset_stats_of_empty_dataset() {
        let s = DatasetStats::of(&Dataset::new("empty"));
        assert_eq!(s.graph_count, 0);
        assert_eq!(s.avg_nodes, 0.0);
        assert_eq!(s.stddev_nodes, 0.0);
    }

    #[test]
    fn stddev_is_zero_for_identical_graphs() {
        let ds = Dataset::from_graphs("same", vec![triangle(0), triangle(0)]);
        let s = DatasetStats::of(&ds);
        assert!(s.stddev_nodes.abs() < 1e-12);
    }

    #[test]
    fn table_row_contains_name_and_counts() {
        let ds = Dataset::from_graphs("rowtest", vec![triangle(0)]);
        let row = DatasetStats::of(&ds).to_table_row();
        assert!(row.contains("rowtest"));
        assert!(row.contains("graphs="));
        assert!(row.contains("avg_density="));
    }

    // ------------------------------------------------------------------
    // Routing synopses. The soundness contract under test: whenever the
    // query IS a subgraph of some shard graph the synopsis MUST admit;
    // rejections are only allowed when a monotone bound proves no graph
    // can contain the query.
    // ------------------------------------------------------------------

    /// A labeled path `labels[0] - labels[1] - ...`.
    fn path(labels: &[u32]) -> Graph {
        let edges: Vec<(usize, usize)> = (1..labels.len()).map(|i| (i - 1, i)).collect();
        GraphBuilder::new("path")
            .vertices(labels)
            .edges(&edges)
            .build()
            .unwrap()
    }

    /// A star: `center` linked to each leaf label.
    fn star(center: u32, leaves: &[u32]) -> Graph {
        let mut labels = vec![center];
        labels.extend_from_slice(leaves);
        let edges: Vec<(usize, usize)> = (1..=leaves.len()).map(|leaf| (0, leaf)).collect();
        GraphBuilder::new("star")
            .vertices(&labels)
            .edges(&edges)
            .build()
            .unwrap()
    }

    #[test]
    fn graph_synopsis_counts_labels_degrees_and_pairs() {
        let s = GraphSynopsis::of(&triangle(0)); // labels 0, 0, 1
        assert_eq!(s.vertices, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.label_counts[&0], 2);
        assert_eq!(s.label_counts[&1], 1);
        // All three triangle vertices have degree 2.
        assert_eq!(s.degree_ge, vec![3, 3, 3]);
        assert!(s.label_pairs.contains(&(0, 0)));
        assert!(s.label_pairs.contains(&(0, 1)));
        assert_eq!(s.label_pairs.len(), 2);
        // The empty graph has an empty synopsis.
        assert_eq!(
            GraphSynopsis::of(&Graph::new("e")),
            GraphSynopsis::default()
        );
    }

    #[test]
    fn synopsis_must_admit_actual_subgraphs() {
        // Queries carved out of a shard graph must always be admitted —
        // the no-false-negative half of the contract, checked exhaustively
        // over every induced subgraph of every shard graph.
        let shard = Dataset::from_graphs(
            "shard",
            vec![triangle(0), star(7, &[1, 2, 3]), path(&[4, 5, 4, 5])],
        );
        let synopsis = ShardSynopsis::of(&shard);
        for (_, g) in shard.iter() {
            for mask in 1u32..(1 << g.vertex_count()) {
                let vertices: Vec<usize> = (0..g.vertex_count())
                    .filter(|v| mask & (1 << v) != 0)
                    .collect();
                let sub = g.induced_subgraph(&vertices);
                assert!(
                    synopsis.admits(&GraphSynopsis::of(&sub)),
                    "synopsis rejected an actual subgraph of {} (mask {mask:b})",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn synopsis_safely_rejects_impossible_queries() {
        let shard = Dataset::from_graphs("shard", vec![triangle(0), path(&[0, 1, 0])]);
        let synopsis = ShardSynopsis::of(&shard);
        // More `0`-labeled vertices than any single graph has (2 + 1 split
        // across graphs does not help — matches are per graph).
        assert!(!synopsis.admits(&GraphSynopsis::of(&path(&[0, 0, 0]))));
        // A label absent from the shard.
        assert!(!synopsis.admits(&GraphSynopsis::of(&path(&[9, 0]))));
        // A degree no shard vertex reaches (star center: degree 3 > 2).
        assert!(!synopsis.admits(&GraphSynopsis::of(&star(0, &[0, 1, 1]))));
        // An edge label pair the shard never contains: (1, 1).
        assert!(!synopsis.admits(&GraphSynopsis::of(&path(&[1, 1]))));
        // More vertices than the largest graph.
        assert!(!synopsis.admits(&GraphSynopsis::of(&path(&[0, 1, 0, 1]))));
    }

    #[test]
    fn empty_shard_rejects_everything_but_the_empty_query() {
        let synopsis = ShardSynopsis::of(&Dataset::new("empty"));
        assert_eq!(synopsis.graphs, 0);
        assert!(!synopsis.admits(&GraphSynopsis::of(&path(&[0]))));
        assert!(!synopsis.admits(&GraphSynopsis::of(&triangle(0))));
        // The empty query is vacuously contained everywhere; admitting it
        // is sound (probing an empty shard simply answers nothing).
        assert!(synopsis.admits(&GraphSynopsis::default()));
    }

    #[test]
    fn single_label_universe_routes_on_structure_alone() {
        // Every vertex carries label 0, so labels cannot discriminate —
        // admissibility must fall back to size and degree bounds.
        let shard = Dataset::from_graphs("mono", vec![path(&[0, 0, 0])]);
        let synopsis = ShardSynopsis::of(&shard);
        assert!(synopsis.admits(&GraphSynopsis::of(&path(&[0, 0]))));
        assert!(synopsis.admits(&GraphSynopsis::of(&path(&[0, 0, 0]))));
        // Too many vertices for the single 3-vertex graph.
        assert!(!synopsis.admits(&GraphSynopsis::of(&path(&[0, 0, 0, 0]))));
        // Degree-3 hub exceeds the path's maximum degree of 2.
        assert!(!synopsis.admits(&GraphSynopsis::of(&star(0, &[0, 0, 0]))));
    }

    #[test]
    fn rescanned_synopsis_summarizes_live_graphs_only() {
        // `of` is the rescan oracle of the online-ingest removal path: it
        // must tighten to the live maxima, never narrow below them, and
        // neither count nor summarize a tombstoned slot.
        let big = star(7, &[1, 2, 3]); // 4 vertices, max degree 3
        let mut ds = Dataset::from_graphs("shard", vec![triangle(0), big.clone(), path(&[4, 5])]);
        let before = ShardSynopsis::of(&ds);
        assert_eq!(before.max_vertices, 4);
        assert!(before.admits(&GraphSynopsis::of(&big)));

        assert!(ds.remove(1)); // remove the star
        let after = ShardSynopsis::of(&ds);
        // Sound tightening: the removed graph's exclusive bounds are gone…
        assert_eq!(after.max_vertices, 3);
        assert!(!after.admits(&GraphSynopsis::of(&big)));
        assert!(!after.max_label_counts.contains_key(&7));
        // …but no live graph lost admission…
        for (id, g) in ds.iter_live() {
            assert!(
                after.admits(&GraphSynopsis::of(g)),
                "live graph {id} narrowed out of its own shard"
            );
        }
        // …and the dead slot is not a summarized graph: a half-dead shard
        // does not read as full.
        assert_eq!(after.graphs, ds.live_len());
        assert_eq!(
            after,
            ShardSynopsis::of(&Dataset::from_graphs(
                "live",
                vec![triangle(0), path(&[4, 5])]
            ))
        );
    }

    #[test]
    fn retract_is_the_exact_inverse_of_absorb() {
        // Each victim is the sole witness of something: the star of the
        // maximum degree, of label 7 and of the (1,7) pair; the long path of
        // the vertex and edge maxima; the second triangle of nothing (its
        // twin witnesses every bound it does).
        let graphs = [
            triangle(0),
            star(7, &[1, 2, 3]),
            path(&[4, 5, 4, 5, 4, 5]),
            triangle(0),
            path(&[1, 2]),
        ];
        let synopses: Vec<GraphSynopsis> = graphs.iter().map(GraphSynopsis::of).collect();
        let rebuilt = |live: &[usize]| {
            let live = live.iter().map(|&i| graphs[i].clone()).collect();
            ShardSynopsis::of(&Dataset::from_graphs("live", live))
        };
        let mut shard = rebuilt(&[0, 1, 2, 3, 4]);
        assert_eq!(shard.degree_ge_max.len(), 4);

        shard.retract(&synopses[1]);
        assert_eq!(shard, rebuilt(&[0, 2, 3, 4]));
        assert_eq!(shard.degree_ge_max.len(), 3, "trailing bucket must go");
        assert!(!shard.max_label_counts.contains_key(&7));
        assert!(!shard.label_pairs.contains(&(1, 7)));
        assert!(
            shard.label_pairs.contains(&(1, 2)),
            "path(1,2) still holds it"
        );

        shard.retract(&synopses[2]);
        assert_eq!(shard, rebuilt(&[0, 3, 4]));
        assert_eq!((shard.max_vertices, shard.max_edges), (3, 3));

        shard.retract(&synopses[3]);
        assert_eq!(shard, rebuilt(&[0, 4]));
        assert_eq!(shard.max_label_counts[&0], 2, "the twin keeps the bound");

        // Order does not matter, and absorbing again restores the state.
        shard.absorb(&synopses[1]);
        assert_eq!(shard, rebuilt(&[0, 4, 1]));
        for i in [0, 1, 4] {
            shard.retract(&synopses[i]);
        }
        assert_eq!(shard, ShardSynopsis::default());
    }

    #[test]
    #[should_panic(expected = "never absorbed")]
    fn retracting_a_stranger_panics_instead_of_under_admitting() {
        let mut shard = ShardSynopsis::default();
        shard.absorb(&GraphSynopsis::of(&triangle(0)));
        shard.retract(&GraphSynopsis::of(&path(&[0, 0, 1])));
    }

    #[test]
    fn synopsis_memory_is_bounded_by_distinct_values_not_by_graph_count() {
        let family = [triangle(0), star(7, &[1, 2, 3]), path(&[4, 5, 4])];
        let synopses: Vec<GraphSynopsis> = family.iter().map(GraphSynopsis::of).collect();
        let mut shard = ShardSynopsis::default();
        for g in &synopses {
            shard.absorb(g);
        }
        let once = shard.memory_bytes();
        assert!(once > 0);
        for _ in 0..1_000 {
            for g in &synopses {
                shard.absorb(g);
            }
        }
        assert_eq!(shard.graphs, 3_003);
        assert_eq!(shard.memory_bytes(), once);
    }

    #[test]
    fn shard_synopsis_absorb_matches_batch_construction() {
        let graphs = vec![triangle(0), star(3, &[4, 5, 6]), path(&[1, 2])];
        let batch = ShardSynopsis::of(&Dataset::from_graphs("ds", graphs.clone()));
        let mut incremental = ShardSynopsis::default();
        for g in &graphs {
            incremental.absorb(&GraphSynopsis::of(g));
        }
        assert_eq!(batch, incremental);
        assert_eq!(batch.graphs, 3);
        assert_eq!(batch.max_vertices, 4);
        assert!(batch.memory_bytes() > 0);
    }
}
