//! Grapes: exhaustive path enumeration with location information, parallel
//! index construction, and parallel verification.
//!
//! Giugno et al., "GRAPES: A Software for Parallel Searching on Biological
//! Graphs Targeting Multi-Core Architectures" (PLoS One 2013). Grapes sits
//! in the same design-space region as GraphGrepSX (exhaustive paths in a
//! trie) but differs in two ways the paper singles out:
//!
//! 1. **Location information** — besides per-graph occurrence counts, each
//!    indexed path stores the ids of the vertices where its occurrences
//!    start. In the published method the union of those start vertices over
//!    all query paths bounds where an embedding can live, and verification
//!    only looks at the connected components they induce. Here Grapes
//!    verifies with the shared VF2 on the whole candidate, as every method
//!    does: copying the components out per candidate measured slower than
//!    the search it was meant to shorten.
//! 2. **Parallelism** — both index construction and verification are spread
//!    across a configurable number of worker threads (6 in the paper's
//!    setup). Construction partitions the dataset graphs across threads,
//!    each of which builds a partial trie that is merged at the end; the
//!    paper's implementation partitions start vertices instead, which is
//!    equivalent work at dataset scale.
//!
//! **The location identity.** Zero-edge traversals are indexed, so the node
//! of a one-label sequence `[l]` posts every vertex labelled `l` as a start
//! vertex; every other query path begins with a query label, so its
//! traversals start at vertices carrying one. Hence, for any indexed graph,
//! the union of start vertices over the query's paths is exactly the set of
//! its vertices whose label occurs in the query. No query reads the start
//! vertices. They stay stored all the same: they are the space the paper's
//! Grapes-vs-GGSX index-size comparison measures (`ablation_location_info`
//! asserts that gap), and the published method keeps them.
//!
//! As in the paper's methodology, verification returns after the *first*
//! match (the original GRAPES code enumerated all matches; the authors
//! patched it for the study, and we implement the patched semantics).

use crate::candidates::{CandidateSet, IdSpace};
use crate::config::{GgsxConfig, GrapesConfig};
use crate::fcache::FilterCacheCtx;
use crate::ggsx::GgsxIndex;
use crate::{vf2_verify, GraphIndex, IndexStats, MethodKind};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_iso::{MatchState, Vf2Matcher};

/// The Grapes index: the GraphGrepSX path-trie store with start-vertex
/// locations in its payloads — indexing, purging, statistics and the
/// count-pruning filter are that store's — plus what Grapes adds: the
/// parallel build and parallel verification.
#[derive(Debug, Clone)]
pub struct GrapesIndex {
    config: GrapesConfig,
    store: GgsxIndex,
}

/// Candidates below which Grapes verifies in place: a per-query thread
/// fan-out only pays for itself on large candidate sets, and the common case
/// once filtering has done its job stays allocation-free — which also keeps
/// an outer multi-worker service from multiplying thread counts on every
/// query.
const PARALLEL_VERIFY_MIN_CANDIDATES: usize = 64;

impl GrapesIndex {
    /// Builds the index over a dataset, using `config.threads` worker
    /// threads (single-threaded when `threads <= 1` or the dataset is tiny).
    pub fn build(dataset: &Dataset, config: GrapesConfig) -> Self {
        let threads = config.threads.max(1).min(dataset.len().max(1));
        let partition = |worker: usize| {
            let paths = GgsxConfig {
                max_path_edges: config.max_path_edges,
            };
            GgsxIndex::build_strided(dataset, paths, true, worker, threads)
        };
        // Each worker builds a partial store over every `threads`-th graph
        // (the calling thread takes the first share), merged in worker order
        // as they finish (std scoped threads so we can borrow the dataset
        // without Arc gymnastics).
        let store = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads)
                .map(|worker| scope.spawn(move || partition(worker)))
                .collect();
            let mut store = partition(0);
            for worker in workers {
                store.merge(worker.join().expect("grapes index worker panicked"));
            }
            store
        });
        GrapesIndex { config, store }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &GrapesConfig {
        &self.config
    }

    /// The path-trie store, start vertices included. Exposed for the
    /// location-identity and ingest property tests.
    #[doc(hidden)]
    pub fn store(&self) -> &GgsxIndex {
        &self.store
    }
}

impl GraphIndex for GrapesIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::Grapes
    }

    fn id_space(&self) -> &IdSpace {
        self.store.id_space()
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        self.store.id_space_mut()
    }

    fn append(&mut self, gid: GraphId, graph: &Graph) {
        self.store.append(gid, graph);
    }

    fn purge_dead(&mut self) {
        self.store.purge_dead();
    }

    /// The same count-pruning trie walk as GGSX; locations are not read
    /// here (see the module doc's location identity).
    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        self.store.candidates_into(query, out, ctx);
    }

    fn stats(&self) -> IndexStats {
        self.store.stats()
    }

    /// The shared VF2 straight off the bitset, spread over `config.threads`
    /// workers once there are [`PARALLEL_VERIFY_MIN_CANDIDATES`] candidates
    /// (the paper runs Grapes with 6; configure `threads: 1` when an outer
    /// worker pool already saturates the machine).
    fn verify_set(
        &self,
        dataset: &Dataset,
        query: &Graph,
        candidates: &CandidateSet,
    ) -> Vec<GraphId> {
        if self.config.threads > 1 && candidates.len() >= PARALLEL_VERIFY_MIN_CANDIDATES {
            let matcher = Vf2Matcher::new(query);
            let ids = candidates.to_sorted_vec();
            let threads = self.config.threads.min(ids.len() / 32).max(1);
            parallel_retain(&ids, threads, |state, gid| {
                dataset
                    .graph(gid)
                    .is_ok_and(|g| matcher.matches_with(state, g))
            })
        } else {
            vf2_verify(dataset, query, candidates.iter())
        }
    }
}

/// Retains the ids for which `keep` returns true, evaluating the predicate
/// in parallel across `threads` workers while preserving input order. Every
/// worker owns one [`MatchState`] for its whole chunk, so verification
/// scratch is allocated once per worker rather than once per candidate.
fn parallel_retain<F>(ids: &[GraphId], threads: usize, keep: F) -> Vec<GraphId>
where
    F: Fn(&mut MatchState, GraphId) -> bool + Sync,
{
    let threads = threads.max(1).min(ids.len().max(1));
    if threads <= 1 || ids.len() < 4 {
        let mut state = MatchState::new();
        return ids
            .iter()
            .copied()
            .filter(|&gid| keep(&mut state, gid))
            .collect();
    }
    let flags: Vec<bool> = std::thread::scope(|scope| {
        let chunk_size = ids.len().div_ceil(threads);
        let handles: Vec<_> = ids
            .chunks(chunk_size)
            .map(|chunk| {
                let keep = &keep;
                scope.spawn(move || {
                    let mut state = MatchState::new();
                    chunk
                        .iter()
                        .map(|&gid| keep(&mut state, gid))
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("grapes verification worker panicked"))
            .collect()
    });
    ids.iter()
        .zip(flags)
        .filter_map(|(&gid, keep)| keep.then_some(gid))
        .collect()
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
        let disconnected = GraphBuilder::new("disc")
            .vertices(&[1, 2, 3, 3])
            .edges(&[(0, 1), (2, 3)])
            .build()
            .unwrap();
        Dataset::from_graphs("ds", vec![tri, path, star, disconnected])
    }

    fn query(labels: &[u32], edges: &[(usize, usize)]) -> Graph {
        GraphBuilder::new("q")
            .vertices(labels)
            .edges(edges)
            .build()
            .unwrap()
    }

    #[test]
    fn sequential_and_parallel_builds_agree() {
        let ds = dataset();
        let seq = GrapesIndex::build(
            &ds,
            GrapesConfig {
                max_path_edges: 3,
                threads: 1,
            },
        );
        let par = GrapesIndex::build(
            &ds,
            GrapesConfig {
                max_path_edges: 3,
                threads: 3,
            },
        );
        let q = query(&[1, 2], &[(0, 1)]);
        assert_eq!(seq.query(&ds, &q).candidates, par.query(&ds, &q).candidates);
        assert_eq!(seq.stats().distinct_features, par.stats().distinct_features);
        assert_eq!(
            seq.store.trie().inserted_paths(),
            par.store.trie().inserted_paths()
        );
    }

    #[test]
    fn query_returns_exact_answers() {
        let ds = dataset();
        let idx = GrapesIndex::build(&ds, GrapesConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1], vec![(0, 1)]),
            (vec![1, 2, 3], vec![(0, 1), (1, 2)]),
            (vec![2, 1, 1], vec![(0, 1), (0, 2)]),
            (vec![3, 3], vec![(0, 1)]),
        ] {
            let q = query(&labels, &edges);
            let outcome = idx.query(&ds, &q);
            assert_eq!(
                outcome.answers,
                exhaustive_answers(&ds, &q),
                "wrong answers for query {labels:?}"
            );
            for a in &outcome.answers {
                assert!(outcome.candidates.contains(a));
            }
        }
    }

    #[test]
    fn grapes_candidates_never_looser_than_ggsx() {
        // Same filtering rule plus location info: Grapes candidates must be
        // a subset of (or equal to) GGSX candidates for the same parameters.
        let ds = dataset();
        let grapes = GrapesIndex::build(&ds, GrapesConfig::default());
        let ggsx = crate::ggsx::GgsxIndex::build(&ds, crate::GgsxConfig::default());
        for (labels, edges) in [
            (vec![1u32, 2], vec![(0usize, 1usize)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2)]),
        ] {
            let q = query(&labels, &edges);
            let gc = grapes.query(&ds, &q).candidates;
            let xc = ggsx.query(&ds, &q).candidates;
            for gid in &gc {
                assert!(xc.contains(gid));
            }
        }
    }

    /// Grapes has one verification path — `verify_set` — and the trait's
    /// default `query` is `filter_into` + that. Pinned against the oracle
    /// for the three shapes the location restriction distinguishes.
    #[test]
    fn verify_set_is_the_one_path_and_matches_the_oracle() {
        let ds = dataset();
        let idx = GrapesIndex::build(&ds, GrapesConfig::default());
        let all = CandidateSet::full(ds.len());
        let cases = [
            // Connected; embeds in every graph that has a 1-2 edge.
            ("connected", query(&[1, 2], &[(0, 1)])),
            // Disconnected: in `disc` the labels 1 and 3 sit in different
            // components, so the component restriction must not apply.
            ("disconnected", query(&[1, 3], &[])),
            // Connected, and its labels cover only {2, 3} of the four-vertex
            // `disc` graph: the case the published method verifies inside
            // that component.
            ("partial locations", query(&[3, 3], &[(0, 1)])),
        ];
        for (name, q) in &cases {
            let expected = exhaustive_answers(&ds, q);
            assert!(expected.contains(&3), "{name}: `disc` must match");
            assert_eq!(idx.verify_set(&ds, q, &all), expected, "{name}");
            assert_eq!(idx.query(&ds, q).answers, expected, "{name}");
        }
    }

    /// At ≥ [`PARALLEL_VERIFY_MIN_CANDIDATES`] candidates and `threads > 1`
    /// `verify_set` fans out through `parallel_retain`; its answers are the
    /// oracle's and the in-place loop's, connected query or not.
    #[test]
    fn threaded_verify_set_matches_the_oracle_and_one_thread() {
        let base = dataset();
        let graphs = (0..32).flat_map(|_| base.graphs().iter().cloned());
        let ds = Dataset::from_shared("ds", graphs.collect());
        assert!(ds.len() >= PARALLEL_VERIFY_MIN_CANDIDATES);
        let build = |threads| {
            GrapesIndex::build(
                &ds,
                GrapesConfig {
                    threads,
                    ..GrapesConfig::default()
                },
            )
        };
        let (threaded, single) = (build(4), build(1));
        let all = CandidateSet::full(ds.len());
        for q in [query(&[1, 2], &[(0, 1)]), query(&[1, 3], &[])] {
            let expected = exhaustive_answers(&ds, &q);
            assert!(!expected.is_empty());
            assert_eq!(threaded.verify_set(&ds, &q, &all), expected);
            assert_eq!(single.verify_set(&ds, &q, &all), expected);
        }
    }

    #[test]
    fn missing_feature_prunes_everything() {
        let ds = dataset();
        let idx = GrapesIndex::build(&ds, GrapesConfig::default());
        let q = query(&[9, 9], &[(0, 1)]);
        assert!(idx.query(&ds, &q).candidates.is_empty());
    }

    #[test]
    fn index_size_larger_than_ggsx() {
        // Location information costs space: Grapes' trie must be at least as
        // large as GGSX's over the same dataset and path length.
        let ds = dataset();
        let grapes = GrapesIndex::build(&ds, GrapesConfig::default());
        let ggsx = crate::ggsx::GgsxIndex::build(&ds, crate::GgsxConfig::default());
        assert!(grapes.stats().size_bytes >= ggsx.stats().size_bytes);
    }

    #[test]
    fn parallel_retain_preserves_order() {
        let ids: Vec<GraphId> = (0..20).collect();
        let kept = parallel_retain(&ids, 4, |_, gid| gid % 3 == 0);
        assert_eq!(kept, vec![0, 3, 6, 9, 12, 15, 18]);
        let kept_seq = parallel_retain(&ids, 1, |_, gid| gid % 3 == 0);
        assert_eq!(kept, kept_seq);
    }
}
