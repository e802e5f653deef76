//! Tree+Δ: frequent tree features plus on-demand discriminative cycle
//! features learned from the query workload.
//!
//! Zhao, Yu, Yu, "Graph indexing: tree + delta >= graph" (VLDB 2007). The
//! index initially contains only *tree* features mined for frequency (the
//! paper's configuration: feature size up to 10, support ratio 0.1). Query
//! processing enumerates the query's subtrees, intersects the graph-id lists
//! of those found in the index, and verifies with VF2 — exactly like a
//! frequent-tree index.
//!
//! The "Δ" is what happens with non-tree structure: the method also
//! enumerates the simple cycles of each incoming query, and any cycle
//! feature that proves sufficiently selective (it occurs in at most a
//! `delta_support_threshold` fraction of the current candidates, 0.8 in the
//! paper) is *added to the index on the fly*, with its graph-id list
//! computed once and reused by all subsequent queries. The index therefore
//! grows — and its filtering improves — as the workload exercises cyclic
//! queries.

use crate::candidates::{narrow_rarest_first, CandidateSet, IdSpace, SlicePosting};
use crate::config::{GIndexConfig, TreeDeltaConfig};
use crate::fcache::FilterCacheCtx;
use crate::gindex::GIndex;
use crate::{vf2_verify, GraphIndex, IndexStats, MethodKind};
use sqbench_features::canonical::FeatureKey;
use sqbench_features::cycles::enumerate_cycle_instances;
use sqbench_features::mining::FeatureKind;
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_iso::{MatchState, Vf2Matcher};
use std::collections::BTreeMap;
use std::sync::RwLock;

/// One learned Δ feature: the cycle fragment is kept alongside its support
/// so online inserts can test new graphs for containment and keep the
/// support covering the whole dataset. The support is a strictly ascending
/// id list, like the mined stores' supports.
#[derive(Debug, Clone)]
struct DeltaFeature {
    fragment: Graph,
    support: Vec<GraphId>,
}

/// The Tree+Δ index.
pub struct TreeDeltaIndex {
    config: TreeDeltaConfig,
    /// The tree stage: gIndex's frozen mined-support store, mined over
    /// subtrees. It also holds the index's id space.
    trees: GIndex,
    /// Cycle-based Δ features added during query processing: canonical
    /// cycle key → the cycle fragment plus the posting list of **all**
    /// dataset graphs containing it. Supports must cover the whole dataset,
    /// not just the learning query's candidates — a candidate-scoped list
    /// would falsely dismiss graphs for later queries that share the cycle
    /// but not the learning query's trees.
    delta_features: RwLock<BTreeMap<FeatureKey, DeltaFeature>>,
}

impl TreeDeltaIndex {
    /// Builds the initial (tree-only) index over a dataset.
    pub fn build(dataset: &Dataset, config: TreeDeltaConfig) -> Self {
        // Tree+Δ's published discriminative formula differs from gIndex's;
        // the study configures it permissively (0.1), which in our
        // shared-ratio formulation means "keep all frequent trees".
        let mining = GIndexConfig {
            max_feature_edges: config.max_feature_edges,
            min_support_ratio: config.min_support_ratio,
            discriminative_ratio: 1.0,
        };
        TreeDeltaIndex {
            trees: GIndex::mine(dataset, mining, FeatureKind::Tree),
            config,
            delta_features: RwLock::new(BTreeMap::new()),
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &TreeDeltaConfig {
        &self.config
    }

    /// Number of mined tree features.
    pub fn tree_feature_count(&self) -> usize {
        self.trees.feature_count()
    }

    /// Number of Δ (cycle) features accumulated so far.
    pub fn delta_feature_count(&self) -> usize {
        self.delta_features
            .read()
            .expect("delta lock poisoned")
            .len()
    }

    /// `true` iff every tree support and every learned Δ support is
    /// strictly ascending — the invariant the frequency-ordered filter
    /// folds rely on, which online insert (append-max) and lazy compaction
    /// must both preserve. Exposed for the hot-loop ingest property tests.
    #[doc(hidden)]
    pub fn postings_strictly_ascending(&self) -> bool {
        let delta = self.delta_features.read().expect("delta lock poisoned");
        self.trees.postings_strictly_ascending()
            && delta
                .values()
                .all(|f| f.support.windows(2).all(|w| w[0] < w[1]))
    }

    /// The seed's `Vec`-per-feature filtering (trees, then learned Δ
    /// features), kept verbatim as the reference implementation the bitset
    /// engine is property-tested against. Not part of the query path.
    #[doc(hidden)]
    pub fn filter_reference(&self, query: &Graph) -> Vec<GraphId> {
        let mut candidates = self.trees.filter_reference(query);
        let delta = self.delta_features.read().expect("delta lock poisoned");
        for cycle in enumerate_cycle_instances(query, self.config.max_cycle_edges) {
            if candidates.is_empty() {
                break;
            }
            if let Some(feature) = delta.get(&cycle.key) {
                candidates = crate::intersect_sorted(&candidates, &feature.support);
            }
        }
        candidates
    }

    /// The Δ step: for each simple cycle of the query not yet in the Δ
    /// index, compute the ids of **all** dataset graphs containing it (via
    /// a VF2 test on the cycle fragment — once per feature, as the module
    /// doc promises), and remember the feature if it prunes the current
    /// candidates well enough. Returns the candidate set narrowed by the
    /// newly learned features.
    ///
    /// The support list deliberately covers the whole dataset rather than
    /// only the current candidates: a candidate-scoped list would falsely
    /// dismiss graphs for *later* queries that contain the cycle but not
    /// this query's tree features. Full-dataset supports also make
    /// concurrent learning of the same cycle (batched query workers)
    /// idempotent — both workers compute the identical list.
    fn learn_delta(
        &self,
        dataset: &Dataset,
        query: &Graph,
        candidates: Vec<GraphId>,
    ) -> Vec<GraphId> {
        let cycles = enumerate_cycle_instances(query, self.config.max_cycle_edges);
        if cycles.is_empty() || candidates.is_empty() {
            return candidates;
        }
        let mut narrowed = candidates;
        for cycle in cycles {
            let already_known = self
                .delta_features
                .read()
                .expect("delta lock poisoned")
                .contains_key(&cycle.key);
            if already_known {
                continue;
            }
            // Materialize the cycle as a standalone fragment (cycle edges
            // only — chords of the query must not be folded into the
            // feature, or its stored support would be too small for later
            // queries that contain the plain cycle).
            let mut fragment = Graph::new("delta-cycle");
            for &v in &cycle.vertices {
                fragment.add_vertex(query.label(v));
            }
            for i in 0..cycle.vertices.len() {
                let j = (i + 1) % cycle.vertices.len();
                let _ = fragment.add_edge_if_absent(i, j);
            }
            let matcher = Vf2Matcher::new(&fragment);
            let mut state = MatchState::new();
            let support: Vec<GraphId> = dataset
                .ids()
                .filter(|&gid| {
                    dataset
                        .graph(gid)
                        .map(|g| matcher.matches_with(&mut state, g))
                        .unwrap_or(false)
                })
                .collect();
            let contained_in_narrowed = crate::intersect_sorted(&narrowed, &support);
            // Selectivity is still judged against the current candidates —
            // the paper's rule: remember the cycle only if it prunes them.
            let selective = (contained_in_narrowed.len() as f64)
                <= self.config.delta_support_threshold * narrowed.len() as f64;
            if selective {
                self.delta_features
                    .write()
                    .expect("delta lock poisoned")
                    .insert(cycle.key.clone(), DeltaFeature { fragment, support });
                narrowed = contained_in_narrowed;
                if narrowed.is_empty() {
                    break;
                }
            }
        }
        narrowed
    }
}

impl GraphIndex for TreeDeltaIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::TreeDelta
    }

    fn id_space(&self) -> &IdSpace {
        self.trees.id_space()
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        self.trees.id_space_mut()
    }

    fn append(&mut self, gid: GraphId, graph: &Graph) {
        self.trees.append(gid, graph);
        // Δ stage: learned supports must keep covering the whole dataset —
        // test the new graph against each remembered cycle fragment.
        let mut delta = self.delta_features.write().expect("delta lock poisoned");
        let mut state = MatchState::new();
        for feature in delta.values_mut() {
            let matcher = Vf2Matcher::new(&feature.fragment);
            if matcher.matches_with(&mut state, graph) {
                // gid is the largest id ever issued, so the push keeps the
                // support sorted.
                feature.support.push(gid);
            }
        }
    }

    fn purge_dead(&mut self) {
        self.trees.purge_dead();
        let dead = self.trees.id_space().tombstones();
        let mut delta = self.delta_features.write().expect("delta lock poisoned");
        for feature in delta.values_mut() {
            feature.support.retain(|&g| !dead.contains(g));
        }
    }

    /// Two folds over one borrowed bitset. Tree stage ("t:" cache keys):
    /// the supports of the query's indexed subtrees; no indexed subtree
    /// means the full set. Δ stage ("d:" keys): the supports of the query's
    /// already-learned cycles narrow what the trees left; a cycle not (yet)
    /// in the map imposes nothing. Δ supports are sound to cache although
    /// the map grows: the serving layer flushes the cache on every mutation,
    /// so within one cache epoch a learned support is final.
    ///
    /// The Δ stage only ever clears bits, so the tombstone mask the caller
    /// applies after it equals one applied between the stages.
    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        mut ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        self.trees.candidates_into(query, out, ctx.as_deref_mut());
        let delta = self.delta_features.read().expect("delta lock poisoned");
        if delta.is_empty() || out.is_empty() {
            return;
        }
        let learned = enumerate_cycle_instances(query, self.config.max_cycle_edges)
            .iter()
            .filter_map(|cycle| delta.get_key_value(&cycle.key))
            .map(|(key, feature)| SlicePosting {
                tag: 'd',
                key: key.as_str(),
                ids: &feature.support,
            })
            .collect();
        narrow_rarest_first(out, learned, ctx);
    }

    fn stats(&self) -> IndexStats {
        let trees = self.trees.stats();
        let delta = self.delta_features.read().expect("delta lock poisoned");
        let delta_bytes: usize = delta
            .iter()
            .map(|(k, v)| {
                k.len_bytes()
                    + std::mem::size_of_val(&v.support)
                    + v.support.capacity() * std::mem::size_of::<GraphId>()
                    + v.fragment.memory_bytes()
            })
            .sum();
        IndexStats {
            distinct_features: trees.distinct_features + delta.len(),
            size_bytes: trees.size_bytes + delta_bytes,
        }
    }

    fn verify_set(
        &self,
        dataset: &Dataset,
        query: &Graph,
        candidates: &CandidateSet,
    ) -> Vec<GraphId> {
        // Δ learning narrows the candidate set further (and persists the new
        // features for subsequent queries) before verification, so its cost
        // is part of query processing time, as in the paper. Learning needs
        // the candidates as a sorted id list — the one place Tree+Δ still
        // materializes one, inherent to the published algorithm.
        let narrowed = self.learn_delta(dataset, query, candidates.to_sorted_vec());
        vf2_verify(dataset, query, narrowed)
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
            .vertices(&[1, 1, 2])
            .edges(&[(0, 1), (1, 2)])
            .build()
            .unwrap();
        let square = GraphBuilder::new("square")
            .vertices(&[1, 2, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
            .unwrap();
        // Contains every subtree of the triangle query used in the tests
        // (1-1, 1-2, 1-1-2, 1-2-1) but not the triangle itself, so cyclic
        // queries have a non-trivial Δ to learn.
        let chain = GraphBuilder::new("chain")
            .vertices(&[1, 2, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        Dataset::from_graphs("ds", vec![tri, path, square, chain])
    }

    fn test_config() -> TreeDeltaConfig {
        TreeDeltaConfig {
            max_feature_edges: 3,
            min_support_ratio: 0.1,
            max_cycle_edges: 4,
            delta_support_threshold: 0.8,
        }
    }

    fn query(labels: &[u32], edges: &[(usize, usize)]) -> Graph {
        GraphBuilder::new("q")
            .vertices(labels)
            .edges(edges)
            .build()
            .unwrap()
    }

    #[test]
    fn build_mines_tree_features_only() {
        let idx = TreeDeltaIndex::build(&dataset(), test_config());
        assert!(idx.tree_feature_count() > 0);
        assert_eq!(idx.delta_feature_count(), 0);
        assert_eq!(idx.kind(), MethodKind::TreeDelta);
    }

    #[test]
    fn query_returns_exact_answers() {
        let ds = dataset();
        let idx = TreeDeltaIndex::build(&ds, test_config());
        for (labels, edges) in [
            (vec![1u32, 1], vec![(0usize, 1usize)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
            (vec![1, 2, 1, 2], vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
        ] {
            let q = query(&labels, &edges);
            let outcome = idx.query(&ds, &q);
            assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
        }
    }

    #[test]
    fn cyclic_queries_add_delta_features() {
        let ds = dataset();
        let idx = TreeDeltaIndex::build(&ds, test_config());
        assert_eq!(idx.delta_feature_count(), 0);
        // Triangle query: its cycle occurs in 1 of the candidates, which is
        // selective, so the cycle becomes a Δ feature.
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let first = idx.query(&ds, &q);
        assert_eq!(first.answers, vec![0]);
        assert!(idx.delta_feature_count() >= 1);

        // The same query now benefits from the learned feature at the
        // *filtering* stage: the candidate set shrinks to the true answer.
        let second_candidates = idx.query(&ds, &q).candidates;
        assert_eq!(second_candidates, vec![0]);
        let second = idx.query(&ds, &q);
        assert_eq!(second.answers, vec![0]);
    }

    #[test]
    fn acyclic_queries_do_not_touch_delta() {
        let ds = dataset();
        let idx = TreeDeltaIndex::build(&ds, test_config());
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2)]);
        let _ = idx.query(&ds, &q);
        assert_eq!(idx.delta_feature_count(), 0);
    }

    #[test]
    fn tree_stage_alone_is_a_superset_of_the_full_filter() {
        let ds = dataset();
        let idx = TreeDeltaIndex::build(&ds, test_config());
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        // With nothing learned yet the filter is the tree stage alone; the
        // same query then teaches the Δ stage its cycle.
        let tree_only = idx.query(&ds, &q).candidates;
        assert!(idx.delta_feature_count() >= 1);
        let full = idx.query(&ds, &q).candidates;
        assert!(full.iter().all(|gid| tree_only.contains(gid)));
        assert!(full.len() < tree_only.len());
    }

    /// Tree+Δ is the one filter with two stages under the one closing
    /// tombstone mask. A removed id must stay out on both arms while the Δ
    /// map is empty (the stage is skipped) and once it is not — including
    /// when a learned support, and the bitset cached from it, still list it.
    #[test]
    fn removed_ids_never_resurface_before_or_after_learning() {
        use crate::fcache::tests::MapStore;
        let mut ds = dataset();
        let mut idx = TreeDeltaIndex::build(&ds, test_config());
        let tri_q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        // No tree, no cycle: only the mask stands between a dead id and the
        // unconstrained full set.
        let empty_q = Graph::new("empty");
        let check = |idx: &TreeDeltaIndex, dead: &[GraphId], stage: &str| -> Vec<Vec<GraphId>> {
            [&tri_q, &empty_q]
                .map(|q| {
                    let mut streamed = CandidateSet::full(3);
                    idx.filter_into(q, &mut streamed);
                    // Mutations flush the serving cache, so each check
                    // starts cold; the second pass runs warm.
                    let store = MapStore::default();
                    for pass in ["cold", "warm"] {
                        let mut cached = CandidateSet::full(3);
                        idx.filter_into_cached(q, &mut cached, &mut FilterCacheCtx::new(&store));
                        assert_eq!(cached, streamed, "{stage}, {pass}");
                    }
                    for id in dead {
                        assert!(!streamed.contains(*id), "{stage}: dead id {id} resurfaced");
                    }
                    streamed.to_sorted_vec()
                })
                .to_vec()
        };

        assert!(ds.remove(1) && idx.remove(1));
        assert_eq!(idx.delta_feature_count(), 0);
        assert_eq!(check(&idx, &[1], "Δ map empty")[1], vec![0, 2, 3]);

        let _ = idx.query(&ds, &tri_q); // learns the triangle: support [0]
        assert!(idx.delta_feature_count() >= 1);
        let tri2 = GraphBuilder::new("tri2")
            .vertices(&[1, 1, 2, 2])
            .edges(&[(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(idx.insert(&tri2), ds.push(tri2)); // support [0, 4]
        assert!(ds.remove(0) && idx.remove(0)); // still listed by the support
        assert_eq!(
            check(&idx, &[0, 1], "Δ learned"),
            vec![vec![4], vec![2, 3, 4]]
        );
    }

    #[test]
    fn stats_grow_as_delta_features_accumulate() {
        let ds = dataset();
        let idx = TreeDeltaIndex::build(&ds, test_config());
        let before = idx.stats();
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let _ = idx.query(&ds, &q);
        let after = idx.stats();
        assert!(after.distinct_features >= before.distinct_features);
        assert!(after.size_bytes >= before.size_bytes);
    }

    #[test]
    fn delta_supports_cover_the_whole_dataset_not_just_the_learning_query() {
        // g0: triangle 1-1-1 with a label-2 pendant; g1: plain triangle
        // 1-1-1 (no pendant); g2, g3: acyclic graphs containing all of q1's
        // subtrees so q1's tree filter keeps them. q1 (triangle + pendant)
        // teaches the Δ index the 1-1-1 cycle; its tree features exclude
        // g1, so a candidate-scoped support list would omit g1 and a later
        // plain-triangle query would falsely dismiss it.
        let with_pendant = GraphBuilder::new("g0")
            .vertices(&[1, 1, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 0), (0, 3)])
            .build()
            .unwrap();
        let plain_triangle = GraphBuilder::new("g1")
            .vertices(&[1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        // Contains every subtree of q1 up to 3 edges (including the
        // 1-1-1-2 path and the 1-centered (1,1,2) star) but no cycle.
        let acyclic = |name: &str| {
            GraphBuilder::new(name)
                .vertices(&[1, 1, 1, 2, 1])
                .edges(&[(0, 1), (0, 2), (0, 3), (1, 4)])
                .build()
                .unwrap()
        };
        let ds = Dataset::from_graphs(
            "delta-soundness",
            vec![with_pendant, plain_triangle, acyclic("g2"), acyclic("g3")],
        );
        let idx = TreeDeltaIndex::build(&ds, test_config());

        let q1 = query(&[1, 1, 1, 2], &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let first = idx.query(&ds, &q1);
        assert_eq!(first.answers, exhaustive_answers(&ds, &q1));
        assert!(idx.delta_feature_count() >= 1, "q1 should teach the cycle");

        // The plain triangle query must still find g1 even though g1 was
        // outside q1's candidate set when the cycle was learned.
        let q2 = query(&[1, 1, 1], &[(0, 1), (1, 2), (2, 0)]);
        let second = idx.query(&ds, &q2);
        assert_eq!(second.answers, exhaustive_answers(&ds, &q2));
        assert!(second.answers.contains(&1), "learned Δ must not dismiss g1");
    }

    #[test]
    fn unselective_cycles_are_not_added() {
        // Dataset where every graph is a triangle: the triangle cycle occurs
        // in 100% of candidates (> 0.8 threshold), so it is not worth
        // remembering.
        let ds = Dataset::from_graphs(
            "tris",
            (0..4)
                .map(|i| {
                    GraphBuilder::new(format!("t{i}"))
                        .vertices(&[1, 1, 1])
                        .edges(&[(0, 1), (1, 2), (2, 0)])
                        .build()
                        .unwrap()
                })
                .collect(),
        );
        let idx = TreeDeltaIndex::build(&ds, test_config());
        let q = query(&[1, 1, 1], &[(0, 1), (1, 2), (2, 0)]);
        let outcome = idx.query(&ds, &q);
        assert_eq!(outcome.answers, vec![0, 1, 2, 3]);
        assert_eq!(idx.delta_feature_count(), 0);
    }

    #[test]
    fn empty_query_matches_everything() {
        let ds = dataset();
        let idx = TreeDeltaIndex::build(&ds, test_config());
        let outcome = idx.query(&ds, &Graph::new("empty"));
        assert_eq!(outcome.answers, vec![0, 1, 2, 3]);
    }
}
