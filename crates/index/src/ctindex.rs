//! CT-Index: tree and cycle features hashed into fixed-width fingerprints.
//!
//! Klein, Kriege, Mutzel, "CT-Index: Fingerprint-based graph indexing
//! combining cycles and trees" (ICDE 2011). For every dataset graph the
//! method exhaustively enumerates subtrees and simple cycles up to a
//! configurable size, computes their canonical labels, and hashes each label
//! into a fixed-size bit array — one fingerprint per graph (4096 bits in the
//! paper's configuration; the study uses feature size 4 after Grapes' tuning
//! showed size 6/8 to be unnecessarily expensive). Filtering a query is a
//! bitwise subset test between the query's fingerprint and every graph's
//! fingerprint. The published method verifies with a modified VF2 with extra
//! ordering heuristics, to make up for the filtering power lost to hash
//! collisions; here CT-Index verifies with the shared VF2 like every method,
//! because that specialisation measured slower than the plain core.

use crate::candidates::{CandidateSet, IdSpace};
use crate::config::CtIndexConfig;
use crate::fcache::FilterCacheCtx;
use crate::{GraphIndex, IndexStats, MethodKind};
use sqbench_features::cycles::enumerate_cycles;
use sqbench_features::trees::enumerate_trees;
use sqbench_features::Fingerprint;
use sqbench_graph::{Dataset, Graph, GraphId};

/// The CT-Index.
#[derive(Debug, Clone)]
pub struct CtIndex {
    config: CtIndexConfig,
    /// One slot per dataset graph, indexed by graph id: its fingerprint and
    /// the number of features hashed into it (for statistics). A dead slot
    /// holds an empty fingerprint (which still `covers()` an empty query
    /// fingerprint), so the tombstone mask — not the fingerprint — is what
    /// keeps dead ids out of candidates.
    slots: Vec<(Fingerprint, usize)>,
    ids: IdSpace,
}

impl CtIndex {
    /// Builds the index over a dataset.
    pub fn build(dataset: &Dataset, config: CtIndexConfig) -> Self {
        let slots = dataset
            .iter()
            .map(|(_, graph)| Self::fingerprint_of(graph, &config))
            .collect();
        CtIndex {
            ids: IdSpace::of(dataset),
            config,
            slots,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &CtIndexConfig {
        &self.config
    }

    /// Computes the fingerprint of a single graph plus the number of
    /// distinct features hashed into it.
    fn fingerprint_of(graph: &Graph, config: &CtIndexConfig) -> (Fingerprint, usize) {
        let mut fp = Fingerprint::new(config.fingerprint_bits);
        let mut features = 0usize;
        for (key, _) in enumerate_trees(graph, config.max_tree_edges) {
            fp.insert_key(&key, config.hashes_per_feature);
            features += 1;
        }
        for (key, _) in enumerate_cycles(graph, config.max_cycle_edges) {
            fp.insert_key(&key, config.hashes_per_feature);
            features += 1;
        }
        (fp, features)
    }

    /// Fingerprint of graph `gid` (for tests and diagnostics).
    pub fn fingerprint(&self, gid: GraphId) -> Option<&Fingerprint> {
        self.slots.get(gid).map(|(fp, _)| fp)
    }
}

impl GraphIndex for CtIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::CtIndex
    }

    fn id_space(&self) -> &IdSpace {
        &self.ids
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        &mut self.ids
    }

    fn append(&mut self, gid: GraphId, graph: &Graph) {
        debug_assert_eq!(gid, self.slots.len(), "slots are indexed by graph id");
        self.slots.push(Self::fingerprint_of(graph, &self.config));
    }

    /// The fingerprint is dense per-graph state (512 B at the paper's
    /// width), so it is given back immediately rather than waiting for a
    /// threshold sweep — and its feature count with it, so the statistics
    /// of a mutated index equal a rebuild's.
    fn reclaim_slot(&mut self, id: GraphId) {
        self.slots[id] = (Fingerprint::new(self.config.fingerprint_bits), 0);
    }

    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        _ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        let (query_fp, _) = Self::fingerprint_of(query, &self.config);
        // A single id-ordered scan with no intersection stage: each covering
        // fingerprint sets its graph's bit in the borrowed arena.
        out.reset_empty(self.slots.len());
        for (gid, (graph_fp, _)) in self.slots.iter().enumerate() {
            if graph_fp.covers(&query_fp) {
                out.insert(gid);
            }
        }
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            distinct_features: self.slots.iter().map(|(_, features)| features).sum(),
            size_bytes: self.slots.iter().map(|(fp, _)| fp.memory_bytes()).sum(),
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
        let square = GraphBuilder::new("square")
            .vertices(&[1, 2, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
            .unwrap();
        Dataset::from_graphs("ds", vec![tri, path, square])
    }

    fn query(labels: &[u32], edges: &[(usize, usize)]) -> Graph {
        GraphBuilder::new("q")
            .vertices(labels)
            .edges(edges)
            .build()
            .unwrap()
    }

    #[test]
    fn build_produces_one_fingerprint_per_graph() {
        let ds = dataset();
        let idx = CtIndex::build(&ds, CtIndexConfig::default());
        assert_eq!(idx.kind(), MethodKind::CtIndex);
        for gid in ds.ids() {
            let fp = idx.fingerprint(gid).unwrap();
            assert!(fp.count_ones() > 0);
            assert_eq!(fp.bit_len(), 4096);
        }
        assert!(idx.stats().distinct_features > 0);
    }

    #[test]
    fn filter_is_a_superset_of_answers() {
        let ds = dataset();
        let idx = CtIndex::build(&ds, CtIndexConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
            (vec![1, 2, 1], vec![(0, 1), (1, 2)]),
        ] {
            let q = query(&labels, &edges);
            let candidates = idx.query(&ds, &q).candidates;
            for a in exhaustive_answers(&ds, &q) {
                assert!(candidates.contains(&a));
            }
        }
    }

    #[test]
    fn query_returns_exact_answers() {
        let ds = dataset();
        let idx = CtIndex::build(&ds, CtIndexConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1], vec![(0, 1)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2), (2, 0)]),
            (vec![1, 2, 1, 2], vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
        ] {
            let q = query(&labels, &edges);
            let outcome = idx.query(&ds, &q);
            assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
        }
    }

    #[test]
    fn cycle_features_prune_acyclic_graphs() {
        let ds = dataset();
        let idx = CtIndex::build(&ds, CtIndexConfig::default());
        // Triangle query: the path graph has no cycle feature, so (absent
        // unlucky hash collisions at 4096 bits) it is pruned by filtering.
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let candidates = idx.query(&ds, &q).candidates;
        assert!(
            !candidates.contains(&1),
            "acyclic graph should be filtered out"
        );
        assert!(candidates.contains(&0));
    }

    #[test]
    fn narrow_fingerprints_lose_filtering_power_but_stay_sound() {
        let ds = dataset();
        let wide = CtIndex::build(&ds, CtIndexConfig::default());
        let narrow = CtIndex::build(
            &ds,
            CtIndexConfig {
                fingerprint_bits: 64,
                ..CtIndexConfig::default()
            },
        );
        let q = query(&[1, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        // Narrow fingerprints collide more, so the candidate set can only be
        // the same or larger...
        assert!(narrow.query(&ds, &q).candidates.len() >= wide.query(&ds, &q).candidates.len());
        // ...but the verified answers are identical.
        assert_eq!(narrow.query(&ds, &q).answers, wide.query(&ds, &q).answers);
    }

    #[test]
    fn index_size_scales_with_fingerprint_width_not_graph_size() {
        let ds = dataset();
        let idx = CtIndex::build(&ds, CtIndexConfig::default());
        let expected = ds.len() * (4096 / 8);
        let size = idx.stats().size_bytes;
        assert!(size >= expected && size <= expected * 2);
    }

    #[test]
    fn empty_query_matches_everything() {
        let ds = dataset();
        let idx = CtIndex::build(&ds, CtIndexConfig::default());
        let outcome = idx.query(&ds, &Graph::new("empty"));
        assert_eq!(outcome.answers, vec![0, 1, 2]);
    }
}
