//! Frequent-feature mining with support and discriminative ratios.
//!
//! gIndex and Tree+Δ do not index every substructure: they *mine* the
//! dataset for features that are
//!
//! * **frequent** — contained in at least a `min_support_ratio` fraction of
//!   the dataset graphs (size-1 features are always kept, as in gIndex), and
//! * **discriminative** — knowing that a graph contains the feature prunes
//!   the candidate set noticeably more than its sub-features already do.
//!   Following gIndex, a feature `f` with support set `D_f` is
//!   discriminative iff `|∩ D_sub| / |D_f| >= discriminative_ratio`, where
//!   the intersection ranges over `f`'s maximal proper sub-features (those
//!   obtained by deleting one edge while keeping the fragment connected).
//!
//! The miner enumerates candidate fragments exhaustively per graph (general
//! connected subgraphs for gIndex, subtrees for Tree+Δ) and then applies the
//! two filters. This mirrors the cost profile the paper reports — frequent
//! mining is by far the most expensive indexing strategy and degrades
//! steeply as graphs grow — which is precisely the behaviour the benchmark
//! needs to reproduce.

use crate::canonical::{graph_key, tree_key, FeatureKey};
use crate::subgraphs::{for_each_connected_edge_subset, subgraph_from_edges};
use sqbench_graph::{Dataset, Graph, GraphId};
use std::collections::{BTreeMap, BTreeSet};

/// Which structural class of fragments the miner enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// General connected subgraphs (gIndex).
    Subgraph,
    /// Subtrees only (Tree+Δ).
    Tree,
}

/// Configuration of the frequent miner.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningConfig {
    /// Maximum fragment size in edges (paper default: 10 for gIndex and
    /// Tree+Δ; the benches use smaller values to stay laptop-scale).
    pub max_feature_edges: usize,
    /// Minimum support ratio (fraction of dataset graphs containing the
    /// feature) for a feature of size ≥ 2 to be retained. Paper default 0.1.
    pub min_support_ratio: f64,
    /// Discriminative-ratio threshold (paper default 2.0 for gIndex).
    /// A value ≤ 1.0 disables the discriminative filter.
    pub discriminative_ratio: f64,
    /// Fragment class to enumerate.
    pub kind: FeatureKind,
}

impl MiningConfig {
    /// gIndex defaults from §4.1 of the paper, with a configurable fragment
    /// size limit.
    pub fn gindex(max_feature_edges: usize) -> Self {
        MiningConfig {
            max_feature_edges,
            min_support_ratio: 0.1,
            discriminative_ratio: 2.0,
            kind: FeatureKind::Subgraph,
        }
    }

    /// Tree+Δ defaults from §4.1 of the paper (its discriminative ratio uses
    /// a different formula and threshold; the 0.1 value is applied to the
    /// same ratio definition used here).
    pub fn tree_delta(max_feature_edges: usize) -> Self {
        MiningConfig {
            max_feature_edges,
            min_support_ratio: 0.1,
            discriminative_ratio: 1.0,
            kind: FeatureKind::Tree,
        }
    }
}

/// A mined feature: its canonical key, a representative fragment, and the
/// ids of the dataset graphs containing it.
#[derive(Debug, Clone)]
pub struct FrequentFeature {
    /// Canonical key of the fragment.
    pub key: FeatureKey,
    /// A representative fragment graph (vertices renumbered densely).
    pub fragment: Graph,
    /// Sorted ids of the dataset graphs containing the fragment.
    pub supporting_graphs: Vec<GraphId>,
    /// Number of edges in the fragment.
    pub edge_count: usize,
}

impl FrequentFeature {
    /// Support ratio of the feature with respect to a dataset of
    /// `dataset_size` graphs.
    pub fn support_ratio(&self, dataset_size: usize) -> f64 {
        if dataset_size == 0 {
            0.0
        } else {
            self.supporting_graphs.len() as f64 / dataset_size as f64
        }
    }

    /// Estimated heap bytes used by this feature record.
    pub fn memory_bytes(&self) -> usize {
        self.key.len_bytes()
            + self.fragment.memory_bytes()
            + self.supporting_graphs.capacity() * std::mem::size_of::<GraphId>()
    }
}

/// The frequent-feature miner.
#[derive(Debug, Clone)]
pub struct FrequentMiner {
    config: MiningConfig,
}

/// Result of a mining run: the retained features, keyed by canonical key.
pub type MinedFeatures = BTreeMap<FeatureKey, FrequentFeature>;

impl FrequentMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MiningConfig) -> Self {
        FrequentMiner { config }
    }

    /// The miner's configuration.
    pub fn config(&self) -> &MiningConfig {
        &self.config
    }

    /// Visits every fragment of a single graph with its canonical key — the
    /// one enumeration behind mining, online inserts and query processing.
    fn for_each_fragment(&self, g: &Graph, mut visit: impl FnMut(FeatureKey, Graph)) {
        let acyclic_only = self.config.kind == FeatureKind::Tree;
        for_each_connected_edge_subset(g, self.config.max_feature_edges, acyclic_only, |edges| {
            let fragment = subgraph_from_edges(g, edges);
            let key = match self.config.kind {
                FeatureKind::Subgraph => graph_key(&fragment),
                FeatureKind::Tree => tree_key(&fragment),
            };
            visit(key, fragment);
        });
    }

    /// Enumerates the fragments of a single graph, grouped by canonical key.
    /// Returns, for each key, a representative fragment.
    pub fn enumerate_graph(&self, g: &Graph) -> BTreeMap<FeatureKey, Graph> {
        let mut out: BTreeMap<FeatureKey, Graph> = BTreeMap::new();
        self.for_each_fragment(g, |key, fragment| {
            out.entry(key).or_insert(fragment);
        });
        out
    }

    /// The canonical keys of a single graph's fragments, ascending — what
    /// the index methods look up on the insert and the query side, where a
    /// representative fragment per key would be kept only to be dropped.
    pub fn fragment_keys(&self, g: &Graph) -> BTreeSet<FeatureKey> {
        let mut out = BTreeSet::new();
        self.for_each_fragment(g, |key, _| {
            out.insert(key);
        });
        out
    }

    /// Mines the dataset and returns the retained (frequent + discriminative)
    /// features.
    pub fn mine(&self, dataset: &Dataset) -> MinedFeatures {
        // Phase 1: per-graph enumeration, accumulate supports.
        let mut all: MinedFeatures = BTreeMap::new();
        for (gid, graph) in dataset.iter() {
            for (key, fragment) in self.enumerate_graph(graph) {
                let edge_count = fragment.edge_count();
                let entry = all.entry(key.clone()).or_insert_with(|| FrequentFeature {
                    key,
                    fragment,
                    supporting_graphs: Vec::new(),
                    edge_count,
                });
                entry.supporting_graphs.push(gid);
            }
        }

        // Phase 2: frequency filter (size-1 features are always retained).
        let n = dataset.len();
        let min_support = (self.config.min_support_ratio * n as f64).ceil() as usize;
        let frequent: MinedFeatures = all
            .into_iter()
            .filter(|(_, f)| f.edge_count <= 1 || f.supporting_graphs.len() >= min_support.max(1))
            .collect();

        // Phase 3: discriminative filter.
        if self.config.discriminative_ratio <= 1.0 {
            return frequent;
        }
        let mut retained: MinedFeatures = BTreeMap::new();
        // Process in increasing fragment size so sub-features are decided
        // before their super-features (the discriminative test intersects
        // the supports of *retained* sub-features, per gIndex).
        let mut by_size: Vec<&FrequentFeature> = frequent.values().collect();
        by_size.sort_by_key(|f| f.edge_count);
        for feature in by_size {
            if feature.edge_count <= 1 {
                retained.insert(feature.key.clone(), feature.clone());
                continue;
            }
            let sub_support = self.sub_feature_candidate_count(feature, &retained);
            let own_support = feature.supporting_graphs.len().max(1);
            let ratio = sub_support as f64 / own_support as f64;
            if ratio >= self.config.discriminative_ratio {
                retained.insert(feature.key.clone(), feature.clone());
            }
        }
        retained
    }

    /// Size of the candidate set implied by the feature's maximal proper
    /// sub-features (the intersection of their supports); if no sub-feature
    /// is retained, the whole dataset (approximated by the union bound of
    /// the feature's own support times the ratio threshold) is returned so
    /// the feature is kept.
    fn sub_feature_candidate_count(
        &self,
        feature: &FrequentFeature,
        retained: &MinedFeatures,
    ) -> usize {
        let fragment = &feature.fragment;
        let mut intersection: Option<BTreeSet<GraphId>> = None;
        // Maximal proper sub-features: remove one edge, keep the fragment
        // connected (and, for trees, still a tree — removing an edge from a
        // tree always disconnects it, so take the larger of the two sides).
        for (u, v) in fragment.edges().collect::<Vec<_>>() {
            let sub = remove_edge_keep_connected(fragment, u, v);
            let Some(sub) = sub else { continue };
            if sub.edge_count() == 0 {
                continue;
            }
            let key = match self.config.kind {
                FeatureKind::Subgraph => graph_key(&sub),
                FeatureKind::Tree => tree_key(&sub),
            };
            if let Some(parent) = retained.get(&key) {
                let support: BTreeSet<GraphId> = parent.supporting_graphs.iter().copied().collect();
                intersection = Some(match intersection {
                    None => support,
                    Some(acc) => acc.intersection(&support).copied().collect(),
                });
            }
        }
        match intersection {
            Some(set) => set.len(),
            // No retained sub-feature to compare against: treat the feature
            // as maximally discriminative so it is kept.
            None => usize::MAX / 2,
        }
    }
}

/// Removes edge `(u, v)` from `fragment`; if the removal disconnects the
/// fragment, returns the largest remaining connected component. Returns
/// `None` for fragments with a single edge.
fn remove_edge_keep_connected(fragment: &Graph, u: usize, v: usize) -> Option<Graph> {
    if fragment.edge_count() <= 1 {
        return None;
    }
    // Rebuild without the edge.
    let mut g = Graph::with_capacity("sub", fragment.vertex_count());
    for w in fragment.vertices() {
        g.add_vertex(fragment.label(w));
    }
    for (a, b) in fragment.edges() {
        if (a, b) != (u, v) && (a, b) != (v, u) {
            let _ = g.add_edge_if_absent(a, b);
        }
    }
    let components = sqbench_graph::algo::connected_components(&g);
    let largest = components.into_iter().max_by_key(|c| {
        // Prefer the component with the most edges (ties broken by size).
        let sub = g.induced_subgraph(c);
        (sub.edge_count(), c.len())
    })?;
    let sub = g.induced_subgraph(&largest);
    if sub.edge_count() == 0 {
        None
    } else {
        Some(sub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn triangle(labels: [u32; 3]) -> Graph {
        GraphBuilder::new("tri")
            .vertices(&labels)
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    fn path(labels: &[u32]) -> Graph {
        let mut b = GraphBuilder::new("path").vertices(labels);
        for i in 1..labels.len() {
            b = b.edge(i - 1, i);
        }
        b.build().unwrap()
    }

    fn dataset() -> Dataset {
        Dataset::from_graphs(
            "mine",
            vec![
                triangle([1, 1, 1]),
                triangle([1, 1, 1]),
                triangle([1, 1, 2]),
                path(&[1, 1, 1, 1]),
                path(&[1, 2, 1]),
            ],
        )
    }

    #[test]
    fn enumerate_graph_respects_kind() {
        let g = triangle([1, 1, 1]);
        let sub_miner = FrequentMiner::new(MiningConfig::gindex(3));
        let tree_miner = FrequentMiner::new(MiningConfig::tree_delta(3));
        let subs = sub_miner.enumerate_graph(&g);
        let trees = tree_miner.enumerate_graph(&g);
        // Subgraph enumeration sees the triangle itself; tree enumeration
        // does not.
        assert!(subs.keys().any(|k| k.as_str().starts_with("G:")));
        assert_eq!(subs.len(), 3); // edge, 2-path, triangle
        assert_eq!(trees.len(), 2); // edge, 2-path
    }

    #[test]
    fn size_one_features_always_retained() {
        let cfg = MiningConfig {
            max_feature_edges: 2,
            min_support_ratio: 0.9, // very strict
            discriminative_ratio: 10.0,
            kind: FeatureKind::Subgraph,
        };
        let mined = FrequentMiner::new(cfg).mine(&dataset());
        // Edge (1,1) appears in 4 graphs, edge (1,2) in 2, edge (2,1)… same
        // key. Both single-edge keys must be present despite the filters.
        let single_edge_features: Vec<_> = mined.values().filter(|f| f.edge_count == 1).collect();
        assert_eq!(single_edge_features.len(), 2);
    }

    #[test]
    fn support_filter_removes_rare_large_features() {
        let cfg = MiningConfig {
            max_feature_edges: 3,
            min_support_ratio: 0.5,
            discriminative_ratio: 1.0,
            kind: FeatureKind::Subgraph,
        };
        let mined = FrequentMiner::new(cfg).mine(&dataset());
        // The all-1 triangle appears in 2/5 graphs (support 0.4 < 0.5) so it
        // must be filtered out; the all-1 two-edge path appears in 4/5.
        let has_triangle = mined
            .values()
            .any(|f| f.edge_count == 3 && f.fragment.vertex_count() == 3);
        assert!(!has_triangle);
        let two_edge_paths = mined.values().filter(|f| f.edge_count == 2).count();
        assert!(two_edge_paths >= 1);
    }

    #[test]
    fn supports_are_sorted_and_correct() {
        let cfg = MiningConfig {
            max_feature_edges: 1,
            min_support_ratio: 0.0,
            discriminative_ratio: 1.0,
            kind: FeatureKind::Subgraph,
        };
        let ds = dataset();
        let mined = FrequentMiner::new(cfg).mine(&ds);
        for f in mined.values() {
            let mut sorted = f.supporting_graphs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, f.supporting_graphs);
            assert!(f.supporting_graphs.iter().all(|&g| g < ds.len()));
        }
        // Edge 1-2 appears in graphs 2 and 4.
        let edge12 = mined
            .values()
            .find(|f| f.edge_count == 1 && f.fragment.labels().contains(&2))
            .unwrap();
        assert_eq!(edge12.supporting_graphs, vec![2, 4]);
    }

    #[test]
    fn discriminative_filter_prunes_redundant_features() {
        // In this dataset every graph containing the 2-edge path 1-1-1 also
        // contains the edge 1-1 and vice versa is nearly true, so with a
        // high discriminative threshold the larger feature is pruned.
        let strict = MiningConfig {
            max_feature_edges: 2,
            min_support_ratio: 0.0,
            discriminative_ratio: 5.0,
            kind: FeatureKind::Subgraph,
        };
        let relaxed = MiningConfig {
            max_feature_edges: 2,
            min_support_ratio: 0.0,
            discriminative_ratio: 1.0,
            kind: FeatureKind::Subgraph,
        };
        let ds = dataset();
        let strict_mined = FrequentMiner::new(strict).mine(&ds);
        let relaxed_mined = FrequentMiner::new(relaxed).mine(&ds);
        assert!(strict_mined.len() <= relaxed_mined.len());
        // Size-1 features survive in both.
        assert!(strict_mined.values().any(|f| f.edge_count == 1));
    }

    #[test]
    fn tree_mining_only_produces_trees() {
        let cfg = MiningConfig::tree_delta(3);
        let mined = FrequentMiner::new(cfg).mine(&dataset());
        for f in mined.values() {
            assert_eq!(f.fragment.edge_count(), f.fragment.vertex_count() - 1);
            assert!(f.key.as_str().starts_with("T:"));
        }
    }

    #[test]
    fn support_ratio_helper() {
        let cfg = MiningConfig::gindex(1);
        let ds = dataset();
        let mined = FrequentMiner::new(cfg).mine(&ds);
        for f in mined.values() {
            let r = f.support_ratio(ds.len());
            assert!(r > 0.0 && r <= 1.0);
            assert_eq!(f.support_ratio(0), 0.0);
            assert!(f.memory_bytes() > 0);
        }
    }

    #[test]
    fn remove_edge_keeps_largest_component() {
        let p = path(&[1, 2, 3, 4]);
        // Removing the middle edge splits 1-2 / 3-4; the helper keeps one
        // single-edge side.
        let sub = remove_edge_keep_connected(&p, 1, 2).unwrap();
        assert_eq!(sub.edge_count(), 1);
        // Removing an end edge keeps the 2-edge remainder.
        let sub2 = remove_edge_keep_connected(&p, 0, 1).unwrap();
        assert_eq!(sub2.edge_count(), 2);
        // Single-edge fragments have no proper sub-feature.
        let e = path(&[1, 2]);
        assert!(remove_edge_keep_connected(&e, 0, 1).is_none());
    }

    #[test]
    fn mining_empty_dataset_returns_nothing() {
        let mined = FrequentMiner::new(MiningConfig::gindex(2)).mine(&Dataset::new("empty"));
        assert!(mined.is_empty());
    }
}
