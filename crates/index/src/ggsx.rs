//! GraphGrepSX (GGSX): exhaustive path enumeration in a suffix-tree-style
//! trie with per-graph occurrence counts.
//!
//! Bonnici et al., "Enhancing graph database indexing by suffix tree
//! structure" (PRIB 2010). Index construction enumerates, with a DFS, every
//! simple path of up to `max_path_edges` edges of every dataset graph and
//! organizes the label sequences in a trie; each node stores the list of
//! graphs containing the corresponding path together with the number of its
//! occurrences. Query processing enumerates the query's paths the same way,
//! walks the index trie, prunes graphs that miss a path or have fewer
//! occurrences than the query requires, and verifies the surviving
//! candidates with VF2. Here the enumeration *is* the walk: the query's DFS
//! carries a trie-node cursor ([`PathTrie::walk`]), so a query path is never
//! materialized as a label sequence.

use crate::candidates::{fold_rarest_first, ArenaFold, CandidateSet, IdSpace, Posting};
use crate::config::GgsxConfig;
use crate::fcache::FilterCacheCtx;
use crate::path_trie::{PathEntry, PathTrie};
use crate::{GraphIndex, IndexStats, MethodKind};
use sqbench_features::paths::for_each_path;
use sqbench_graph::{Dataset, Graph, GraphId, Label};
use std::collections::{BTreeMap, BTreeSet};

/// One query path as the shared fold sees it: the payload of the trie node
/// its label sequence spells, of which only the graphs recording at least
/// `min_count` traversals are posted.
struct TriePosting<'a> {
    node: usize,
    payload: &'a BTreeMap<GraphId, PathEntry>,
    min_count: u32,
}

impl Posting for TriePosting<'_> {
    /// The payload size bounds the posting length and is free to read.
    fn len(&self) -> usize {
        self.payload.len()
    }

    fn ids(&self) -> impl Iterator<Item = GraphId> + '_ {
        self.payload
            .iter()
            .filter(|(_, entry)| entry.count >= self.min_count)
            .map(|(&gid, _)| gid)
    }

    /// The required occurrence count plus the node id, which names the
    /// label sequence for the trie's lifetime (nodes are append-only).
    fn cache_key(&self) -> String {
        format!("p{}:n{}", self.min_count, self.node)
    }
}

/// The GraphGrepSX index — and the path-trie store Grapes is built on
/// (identical trie contents, identical pruning rule; Grapes only adds start
/// vertices to the payloads, see [`crate::grapes`]).
#[derive(Debug, Clone)]
pub struct GgsxIndex {
    config: GgsxConfig,
    /// Payloads of dead graphs are purged lazily, when the lifecycle's
    /// compaction policy says so.
    trie: PathTrie,
    ids: IdSpace,
}

impl GgsxIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &Dataset, config: GgsxConfig) -> Self {
        Self::build_strided(dataset, config, false, 0, 1)
    }

    /// Builds the store over every `stride`-th graph of `dataset` starting
    /// at `first`, with or without start-vertex locations in the payloads.
    /// The id space is the whole dataset's either way, so strided partial
    /// stores [`GgsxIndex::merge`] into the full one.
    pub(crate) fn build_strided(
        dataset: &Dataset,
        config: GgsxConfig,
        store_locations: bool,
        first: usize,
        stride: usize,
    ) -> Self {
        let mut store = GgsxIndex {
            config,
            trie: PathTrie::new(store_locations),
            ids: IdSpace::of(dataset),
        };
        for (gid, graph) in dataset.iter().skip(first).step_by(stride) {
            store.append(gid, graph);
        }
        store
    }

    /// Moves another partial store's payloads into this one.
    pub(crate) fn merge(&mut self, other: GgsxIndex) {
        self.trie.merge(other.trie);
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &GgsxConfig {
        &self.config
    }

    /// The trie. Exposed for the trie-walk property tests and bench.
    #[doc(hidden)]
    pub fn trie(&self) -> &PathTrie {
        &self.trie
    }

    /// Collects the query's path label sequences with their occurrence
    /// counts — the oracle behind [`GgsxIndex::filter_reference`] that the
    /// served walk ([`PathTrie::walk`]) is tested and benched against.
    #[doc(hidden)]
    pub fn query_path_counts(&self, query: &Graph) -> BTreeMap<Vec<Label>, u32> {
        let mut counts: BTreeMap<Vec<Label>, u32> = BTreeMap::new();
        for_each_path(query, self.config.max_path_edges, |labels, _| {
            *counts.entry(labels.to_vec()).or_insert(0) += 1;
        });
        counts
    }

    /// Every graph id the trie payloads mention — live graphs always, dead
    /// ones until the next purge. Exposed for the hot-loop ingest property
    /// tests.
    #[doc(hidden)]
    pub fn posted_ids(&self) -> BTreeSet<GraphId> {
        self.trie.graph_ids()
    }

    /// The seed's `Vec`-per-feature filtering, kept verbatim as the
    /// reference implementation the bitset engine is property-tested
    /// against. Not part of the query path.
    #[doc(hidden)]
    pub fn filter_reference(&self, query: &Graph) -> Vec<GraphId> {
        let query_counts = self.query_path_counts(query);
        if query_counts.is_empty() {
            return (0..self.ids.universe()).collect();
        }
        let mut candidates: Option<Vec<GraphId>> = None;
        for (labels, &query_count) in query_counts.iter() {
            let Some(payload) = self.trie.lookup(labels).and_then(|n| self.trie.payload(n)) else {
                return Vec::new();
            };
            let matching: Vec<GraphId> = payload
                .iter()
                .filter(|(_, entry)| entry.count >= query_count)
                .map(|(&gid, _)| gid)
                .collect();
            candidates = Some(match candidates {
                None => matching,
                Some(current) => crate::intersect_sorted(&current, &matching),
            });
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                return Vec::new();
            }
        }
        candidates.unwrap_or_default()
    }
}

impl GraphIndex for GgsxIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::Ggsx
    }

    fn id_space(&self) -> &IdSpace {
        &self.ids
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        &mut self.ids
    }

    fn append(&mut self, gid: GraphId, graph: &Graph) {
        for_each_path(graph, self.config.max_path_edges, |labels, start| {
            self.trie.insert(labels, gid, start);
        });
    }

    fn purge_dead(&mut self) {
        self.trie.purge(self.ids.tombstones().ids());
    }

    /// The count-pruning trie fold: the query's one DFS walks the trie, and
    /// a label sequence no dataset graph has prunes everything. An empty
    /// query has no path, applies no constraint and finishes as the full
    /// set.
    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        let universe = self.ids.universe();
        let Some(nodes) = self.trie.walk(query, self.config.max_path_edges) else {
            return ArenaFold::new(out, universe).prune_all();
        };
        let postings = nodes.into_iter().map(|(node, min_count)| {
            self.trie.payload(node).map(|payload| TriePosting {
                node,
                payload,
                min_count,
            })
        });
        fold_rarest_first(out, universe, postings, ctx);
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            distinct_features: self.trie.distinct_paths(),
            size_bytes: self.trie.memory_bytes(),
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
    fn build_produces_nonempty_index() {
        let idx = GgsxIndex::build(&dataset(), GgsxConfig::default());
        let stats = idx.stats();
        assert!(stats.distinct_features > 0);
        assert!(stats.size_bytes > 0);
        assert_eq!(idx.kind(), MethodKind::Ggsx);
    }

    #[test]
    fn filter_is_a_superset_of_answers() {
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig::default());
        let q = query(&[1, 2], &[(0, 1)]);
        let candidates = idx.query(&ds, &q).candidates;
        let answers = exhaustive_answers(&ds, &q);
        for a in &answers {
            assert!(candidates.contains(a), "answer {a} missing from candidates");
        }
    }

    #[test]
    fn query_returns_exact_answers() {
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1], vec![(0, 1)]),
            (vec![1, 2, 3], vec![(0, 1), (1, 2)]),
            (vec![2, 1, 1], vec![(0, 1), (0, 2)]),
        ] {
            let q = query(&labels, &edges);
            let outcome = idx.query(&ds, &q);
            assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
            for a in &outcome.answers {
                assert!(outcome.candidates.contains(a));
            }
        }
    }

    #[test]
    fn missing_path_prunes_everything() {
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig::default());
        let q = query(&[7, 8], &[(0, 1)]);
        assert!(idx.query(&ds, &q).candidates.is_empty());
    }

    #[test]
    fn occurrence_counts_prune_low_multiplicity_graphs() {
        // Query: star with two label-1 leaves around a label-2 center. The
        // "path" graph has the 1-2 edge only once, so counting prunes it;
        // the triangle and the star both contain the pattern.
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig::default());
        let q = query(&[2, 1, 1], &[(0, 1), (0, 2)]);
        let candidates = idx.query(&ds, &q).candidates;
        assert!(
            !candidates.contains(&1),
            "path graph should be pruned by counts"
        );
        assert_eq!(idx.query(&ds, &q).answers, vec![0, 2]);
    }

    #[test]
    fn empty_query_matches_all_graphs() {
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig::default());
        let q = Graph::new("empty");
        assert_eq!(idx.query(&ds, &q).candidates, vec![0, 1, 2]);
    }

    #[test]
    fn single_vertex_query_filters_by_label() {
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig::default());
        let q = query(&[3], &[]);
        assert_eq!(idx.query(&ds, &q).answers, vec![1]);
    }

    #[test]
    fn shorter_path_limit_still_sound() {
        let ds = dataset();
        let idx = GgsxIndex::build(&ds, GgsxConfig { max_path_edges: 1 });
        let q = query(&[1, 2, 3], &[(0, 1), (1, 2)]);
        let outcome = idx.query(&ds, &q);
        assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
    }
}
