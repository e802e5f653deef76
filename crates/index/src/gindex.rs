//! gIndex: frequent and discriminative subgraph features.
//!
//! Yan, Yu, Han, "Graph indexing: a frequent structure-based approach"
//! (SIGMOD 2004). Index construction mines the dataset for connected
//! subgraph fragments of up to a configurable size, keeping those that are
//! frequent (support ratio ≥ 0.1 in the paper's configuration; size-1
//! fragments are always kept) *and* discriminative (discriminative ratio ≥
//! 2.0) — see [`sqbench_features::mining`] for the exact definitions. Each
//! retained fragment stores the list of graphs containing it, ordered by
//! canonical key (the role the original prefix tree plays).
//!
//! Query processing enumerates the query's connected fragments up to the
//! same size limit, looks each up in the index, and intersects the graph-id
//! lists of every indexed fragment it finds; fragments that were not
//! retained by mining simply contribute no constraint. Verification uses the
//! shared VF2 first-match verifier.

use crate::candidates::{fold_rarest_first, CandidateSet, IdSpace, SlicePosting};
use crate::config::GIndexConfig;
use crate::fcache::FilterCacheCtx;
use crate::{GraphIndex, IndexStats, MethodKind};
use sqbench_features::mining::{FeatureKind, MinedFeatures, MiningConfig};
use sqbench_features::FrequentMiner;
use sqbench_graph::{Dataset, Graph, GraphId};

/// The gIndex index — and the frozen mined-support store Tree+Δ's tree stage
/// is built on (the same store mined over subtrees instead of subgraphs, see
/// [`crate::treedelta`]).
#[derive(Debug, Clone)]
pub struct GIndex {
    config: GIndexConfig,
    /// Built once: the one enumerator behind mining, online inserts and
    /// query processing, so all three key fragments identically.
    miner: FrequentMiner,
    /// The mined feature set is frozen at build time; only the support
    /// lists change — appended to on insert, purged of dead ids lazily when
    /// the lifecycle's compaction policy says so.
    features: MinedFeatures,
    ids: IdSpace,
}

impl GIndex {
    /// Builds the index over a dataset by mining frequent + discriminative
    /// fragments.
    pub fn build(dataset: &Dataset, config: GIndexConfig) -> Self {
        Self::mine(dataset, config, FeatureKind::Subgraph)
    }

    /// Mines the store over fragments of the given structural class.
    pub(crate) fn mine(dataset: &Dataset, config: GIndexConfig, kind: FeatureKind) -> Self {
        let miner = FrequentMiner::new(MiningConfig {
            max_feature_edges: config.max_feature_edges,
            min_support_ratio: config.min_support_ratio,
            discriminative_ratio: config.discriminative_ratio,
            kind,
        });
        GIndex {
            features: miner.mine(dataset),
            ids: IdSpace::of(dataset),
            config,
            miner,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &GIndexConfig {
        &self.config
    }

    /// Number of retained (frequent + discriminative) features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// `true` iff every feature's support list is strictly ascending — the
    /// invariant the frequency-ordered filter folds rely on, which online
    /// insert (append-max) and lazy compaction must both preserve. Exposed
    /// for the hot-loop ingest property tests.
    #[doc(hidden)]
    pub fn postings_strictly_ascending(&self) -> bool {
        self.features
            .values()
            .all(|f| f.supporting_graphs.windows(2).all(|w| w[0] < w[1]))
    }

    /// The support lists of the query's fragments that the index retained,
    /// in key order. Fragments absent from the index impose no constraint
    /// (mining may have pruned them as infrequent or non-discriminative).
    fn query_supports<'a>(
        &'a self,
        query: &Graph,
    ) -> impl Iterator<Item = (&'a str, &'a [GraphId])> + 'a {
        self.miner
            .fragment_keys(query)
            .into_iter()
            .filter_map(|key| self.features.get(&key))
            .map(|f| (f.key.as_str(), f.supporting_graphs.as_slice()))
    }

    /// The seed's `Vec`-per-feature filtering, kept verbatim as the
    /// reference implementation the bitset engine is property-tested
    /// against. Not part of the query path.
    #[doc(hidden)]
    pub fn filter_reference(&self, query: &Graph) -> Vec<GraphId> {
        let mut candidates: Option<Vec<GraphId>> = None;
        for (_, support) in self.query_supports(query) {
            candidates = Some(match candidates {
                None => support.to_vec(),
                Some(current) => crate::intersect_sorted(&current, support),
            });
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                return Vec::new();
            }
        }
        candidates.unwrap_or_else(|| (0..self.ids.universe()).collect())
    }
}

impl GraphIndex for GIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::GIndex
    }

    fn id_space(&self) -> &IdSpace {
        &self.ids
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        &mut self.ids
    }

    /// The mined feature set stays frozen (re-mining on every insert would
    /// be the full build cost); the new graph only joins the supports of
    /// features it contains. That can leave the candidate sets of *future*
    /// queries looser than a from-scratch re-mine would — sound, since
    /// verification is exact — but never misses: any indexed fragment the
    /// new graph contains now posts it.
    fn append(&mut self, gid: GraphId, graph: &Graph) {
        for key in self.miner.fragment_keys(graph) {
            if let Some(feature) = self.features.get_mut(&key) {
                // gid is the largest id ever issued, so the push keeps the
                // support list sorted.
                feature.supporting_graphs.push(gid);
            }
        }
    }

    fn purge_dead(&mut self) {
        let dead = self.ids.tombstones();
        for feature in self.features.values_mut() {
            feature.supporting_graphs.retain(|g| !dead.contains(*g));
        }
    }

    /// Folds the supports of the query's indexed fragments, cached under
    /// "f:" (subgraph) or "t:" (tree) keys. A query none of whose fragments
    /// are indexed finishes as the full set.
    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        let tag = match self.miner.config().kind {
            FeatureKind::Subgraph => 'f',
            FeatureKind::Tree => 't',
        };
        let postings = self
            .query_supports(query)
            .map(|(key, ids)| Some(SlicePosting { tag, key, ids }));
        fold_rarest_first(out, self.ids.universe(), postings, ctx);
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            distinct_features: self.features.len(),
            size_bytes: self.features.values().map(|f| f.memory_bytes()).sum(),
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

    fn test_config() -> GIndexConfig {
        GIndexConfig {
            max_feature_edges: 3,
            min_support_ratio: 0.1,
            discriminative_ratio: 1.0,
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
    fn build_mines_features() {
        let idx = GIndex::build(&dataset(), test_config());
        assert!(idx.feature_count() > 0);
        assert_eq!(idx.kind(), MethodKind::GIndex);
        assert!(idx.stats().size_bytes > 0);
    }

    #[test]
    fn filter_is_a_superset_of_answers() {
        let ds = dataset();
        let idx = GIndex::build(&ds, test_config());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1], vec![(0, 1)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
            (vec![2, 1, 1], vec![(0, 1), (0, 2)]),
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
        let idx = GIndex::build(&ds, test_config());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 2, 3], vec![(0, 1), (1, 2)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
        ] {
            let q = query(&labels, &edges);
            let outcome = idx.query(&ds, &q);
            assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
        }
    }

    #[test]
    fn triangle_feature_prunes_acyclic_graphs() {
        let ds = dataset();
        let idx = GIndex::build(&ds, test_config());
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let candidates = idx.query(&ds, &q).candidates;
        // Only the triangle graph contains the triangle fragment; with the
        // discriminative filter disabled the fragment is indexed, so the
        // other graphs are pruned at filtering time.
        assert_eq!(candidates, vec![0]);
    }

    #[test]
    fn unindexed_query_labels_yield_empty_answers() {
        let ds = dataset();
        let idx = GIndex::build(&ds, test_config());
        let q = query(&[8, 9], &[(0, 1)]);
        let outcome = idx.query(&ds, &q);
        assert!(outcome.answers.is_empty());
        // The single fragment 8-9 is absent from the index so filtering
        // cannot prune; verification does the work (this mirrors gIndex's
        // reliance on verification for unindexed fragments).
    }

    #[test]
    fn higher_discriminative_ratio_shrinks_the_index() {
        let ds = dataset();
        let relaxed = GIndex::build(&ds, test_config());
        let strict = GIndex::build(
            &ds,
            GIndexConfig {
                discriminative_ratio: 5.0,
                ..test_config()
            },
        );
        assert!(strict.feature_count() <= relaxed.feature_count());
        // Soundness is unaffected.
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(
            strict.query(&ds, &q).answers,
            relaxed.query(&ds, &q).answers
        );
    }

    #[test]
    fn empty_query_matches_everything() {
        let ds = dataset();
        let idx = GIndex::build(&ds, test_config());
        let outcome = idx.query(&ds, &Graph::new("empty"));
        assert_eq!(outcome.candidates, vec![0, 1, 2]);
        assert_eq!(outcome.answers, vec![0, 1, 2]);
    }
}
