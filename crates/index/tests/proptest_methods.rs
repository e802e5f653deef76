//! Candidate-engine and filter properties.
//!
//! The central invariant of every filter-and-verify method — verified
//! answers equal exhaustive VF2, candidates a superset of them — is the
//! root `config_matrix` oracle, through every entry point. This suite pins
//! what sits under it: the bitset engine against the sorted-`Vec`
//! reference, the borrowed dirty-arena contract, the one posting fold on
//! both of its arms, and the two facts the path methods' query side rests
//! on: the trie walk is the per-label-sequence lookup, and Grapes' stored
//! locations are the candidate's query-labelled vertices.

use proptest::prelude::*;
use sqbench_generator::{label_clustered, GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphBuilder, GraphId, VertexId};
use sqbench_index::{
    build_index, exhaustive_answers, ggsx::GgsxIndex, gindex::GIndex, grapes::GrapesIndex,
    intersect_sorted, treedelta::TreeDeltaIndex, ArenaFold, CandidateSet, FeatureCacheStore,
    FilterCacheCtx, GraphIndex, MethodConfig, MethodKind,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Unbounded feature-bitset store: a cache that never evicts, so a second
/// pass over the same query is fully warm.
#[derive(Default)]
struct MapStore(Mutex<HashMap<String, Arc<CandidateSet>>>);

impl FeatureCacheStore for MapStore {
    fn get(&self, key: &str) -> Option<Arc<CandidateSet>> {
        self.0.lock().unwrap().get(key).cloned()
    }

    fn put(&self, key: String, value: Arc<CandidateSet>) {
        self.0.lock().unwrap().insert(key, value);
    }
}

/// `filter_into` on a fresh arena, as a sorted id list.
fn candidates(index: &dyn GraphIndex, query: &Graph) -> Vec<GraphId> {
    let mut set = CandidateSet::empty(0);
    index.filter_into(query, &mut set);
    set.to_sorted_vec()
}

/// Generates a small synthetic dataset deterministically from a seed.
fn dataset_from_seed(seed: u64, graphs: usize, nodes: usize, labels: u32) -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(nodes)
            .with_avg_density(0.12)
            .with_label_count(labels)
            .with_seed(seed),
    )
    .generate()
}

/// The three dataset shapes the path-walk identities run on, 48 graphs
/// each: AIDS-like molecules, two-label GraphGen graphs, and four
/// label-disjoint families (where most graphs carry no label of a query
/// drawn from another family).
fn identity_datasets(seed: u64) -> [(&'static str, Dataset); 3] {
    let generated = GraphGenConfig::default()
        .with_graph_count(48)
        .with_avg_nodes(10)
        .with_avg_density(0.15)
        .with_seed(seed);
    [
        (
            "AIDS-like",
            RealDataset::Aids.generate_with(48.0 / 40_000.0, 0.4, seed),
        ),
        (
            "2-label",
            GraphGen::new(generated.clone().with_label_count(2)).generate(),
        ),
        (
            "label-clustered",
            label_clustered(&generated.with_label_count(3), 4),
        ),
    ]
}

fn graph(labels: &[u32], edges: &[(usize, usize)]) -> Graph {
    GraphBuilder::new("g")
        .vertices(labels)
        .edges(edges)
        .build()
        .unwrap()
}

/// Identity (i): the trie walk is the oracle's lookups — one
/// `(lookup(labels), count)` pair per distinct query label sequence — and
/// `None` exactly when some lookup is.
fn assert_walk_is_the_lookups(store: &GgsxIndex, query: &Graph, what: &str) {
    let trie = store.trie();
    let looked_up: Option<Vec<(usize, u32)>> = store
        .query_path_counts(query)
        .iter()
        .map(|(labels, &count)| Some((trie.lookup(labels)?, count)))
        .collect();
    let looked_up = looked_up.map(|mut pairs| {
        pairs.sort_unstable();
        pairs
    });
    let walked = trie.walk(query, store.config().max_path_edges);
    assert_eq!(walked, looked_up, "{what}: walk vs lookups");
}

/// Identity (ii): for every live graph, the start vertices Grapes stores
/// under the query's label sequences are exactly its vertices whose label
/// occurs in the query.
fn assert_locations_are_query_labelled(
    grapes: &GrapesIndex,
    ds: &Dataset,
    query: &Graph,
    what: &str,
) {
    let trie = grapes.store().trie();
    let counts = grapes.store().query_path_counts(query);
    let payloads: Vec<_> = counts
        .keys()
        .filter_map(|labels| trie.payload(trie.lookup(labels)?))
        .collect();
    for (gid, g) in ds.iter_live() {
        let stored: BTreeSet<VertexId> = payloads
            .iter()
            .filter_map(|payload| payload.get(&gid))
            .flat_map(|entry| entry.start_vertices.iter().copied())
            .collect();
        let labelled: BTreeSet<VertexId> = g
            .vertices()
            .filter(|&v| query.labels().contains(&g.label(v)))
            .collect();
        assert_eq!(stored, labelled, "{what}: locations of graph {gid}");
    }
}

/// Strategy: a sorted, deduplicated id list over `0..universe`.
fn sorted_ids(universe: usize, max_len: usize) -> impl Strategy<Value = Vec<GraphId>> {
    proptest::collection::vec(0usize..universe, 0..max_len).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

/// Reference union of two sorted id lists (linear merge).
fn union_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out: Vec<GraphId> = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The bitset engine agrees with the seed's sorted-`Vec` engine
    /// (`intersect_sorted`) on arbitrary id lists: intersection (streamed
    /// and set-set), union, membership and sorted iteration.
    #[test]
    fn candidate_engine_agrees_with_sorted_vec_reference(
        a in sorted_ids(193, 60),
        b in sorted_ids(193, 60),
    ) {
        const UNIVERSE: usize = 193; // force a partial trailing block
        let expected = intersect_sorted(&a, &b);

        // Streaming retain (the hot path of every filter fold).
        let mut streamed = CandidateSet::from_sorted_ids(UNIVERSE, &a);
        streamed.retain_sorted(b.iter().copied());
        prop_assert_eq!(streamed.to_sorted_vec(), expected.clone());
        prop_assert_eq!(streamed.len(), expected.len());

        // Set-set intersection and union.
        let set_a = CandidateSet::from_sorted_ids(UNIVERSE, &a);
        let set_b = CandidateSet::from_sorted_ids(UNIVERSE, &b);
        let mut inter = set_a.clone();
        inter.intersect_with(&set_b);
        prop_assert_eq!(inter.to_sorted_vec(), expected.clone());
        let mut uni = set_a.clone();
        uni.union_with(&set_b);
        prop_assert_eq!(uni.to_sorted_vec(), union_sorted(&a, &b));

        // Iteration is sorted and membership agrees with it.
        let mut last: Option<GraphId> = None;
        for id in streamed.iter() {
            prop_assert!(streamed.contains(id));
            prop_assert!(last.is_none_or(|prev| prev < id));
            last = Some(id);
        }
    }

    /// Folding many posting lists through one in-place bitset produces the
    /// same candidates as the seed's pairwise `Vec` intersection chain.
    #[test]
    fn candidate_fold_agrees_with_pairwise_intersection(
        lists in proptest::collection::vec(sorted_ids(150, 40), 1..6),
    ) {
        let mut reference: Option<Vec<GraphId>> = None;
        for list in &lists {
            reference = Some(match reference {
                None => list.clone(),
                Some(current) => intersect_sorted(&current, list),
            });
        }
        let mut arena = CandidateSet::empty(0);
        let mut fold = ArenaFold::new(&mut arena, 150);
        for list in &lists {
            fold.apply_sorted(list.iter().copied());
        }
        fold.finish();
        prop_assert_eq!(arena.to_sorted_vec(), reference.unwrap());
    }

    /// The borrowed-set contract, for all six methods plus the scan
    /// baseline: `filter_into` leaves the same bits in a dirty arena (stale
    /// bits, wrong universe — left by serving another method's dataset,
    /// which is exactly how the query service reuses worker arenas) as in a
    /// fresh one.
    #[test]
    fn filter_into_dirty_arena_bit_identical_to_fresh(seed in 0u64..300) {
        let ds = dataset_from_seed(seed.wrapping_add(9000), 13, 10, 4);
        let config = MethodConfig::fast();
        let kinds = [
            MethodKind::Grapes,
            MethodKind::Ggsx,
            MethodKind::CtIndex,
            MethodKind::GIndex,
            MethodKind::TreeDelta,
            MethodKind::GCode,
            MethodKind::Scan,
        ];
        let indexes: Vec<_> = kinds
            .iter()
            .map(|&kind| (kind, build_index(kind, &config, &ds)))
            .collect();
        // One shared arena reused across every method and query, seeded
        // dirty: stale bits over a deliberately wrong universe.
        let mut arena = CandidateSet::full(7);
        let queries = QueryGen::new(seed ^ 0xf11e).generate(&ds, 3, 4);
        for (query, _) in queries.iter() {
            for (kind, index) in &indexes {
                let mut fresh = CandidateSet::empty(0);
                index.filter_into(query, &mut fresh);
                index.filter_into(query, &mut arena);
                prop_assert_eq!(
                    arena.universe(),
                    index.universe(),
                    "{}: arena not re-targeted", kind.name()
                );
                prop_assert_eq!(&arena, &fresh, "{}: sets not bit-identical", kind.name());
                prop_assert_eq!(arena.len(), fresh.to_sorted_vec().len());
            }
        }
    }

    /// The one fold, per method: for the three methods that keep a
    /// sorted-`Vec` oracle (`filter_reference`), `filter_into` ≡
    /// `filter_into_cached` on a cold and on a warm cache ≡ the oracle; and
    /// Grapes — same pruning rule over the same trie contents — matches
    /// GGSX. Tree+Δ is checked both before and after Δ features are learned.
    #[test]
    fn fold_methods_agree_with_reference_on_both_arms(seed in 0u64..300) {
        let ds = dataset_from_seed(seed.wrapping_add(5000), 14, 10, 4);
        let config = MethodConfig::fast();
        let ggsx = GgsxIndex::build(&ds, config.ggsx.clone());
        let gindex = GIndex::build(&ds, config.gindex.clone());
        let treedelta = TreeDeltaIndex::build(&ds, config.treedelta.clone());
        let grapes = build_index(MethodKind::Grapes, &config, &ds);
        let stores = [MapStore::default(), MapStore::default(), MapStore::default()];
        let queries = QueryGen::new(seed ^ 0x51ab).generate(&ds, 3, 4);
        for (query, _) in queries.iter() {
            let both_arms = |index: &dyn GraphIndex, store: &MapStore| {
                let streamed = candidates(index, query);
                for pass in ["cold", "warm"] {
                    let mut cached = CandidateSet::full(7);
                    index.filter_into_cached(query, &mut cached, &mut FilterCacheCtx::new(store));
                    assert_eq!(
                        cached.to_sorted_vec(), streamed,
                        "{}: {} cache diverged", index.kind().name(), pass
                    );
                }
                streamed
            };
            prop_assert_eq!(both_arms(&ggsx, &stores[0]), ggsx.filter_reference(query));
            prop_assert_eq!(both_arms(&gindex, &stores[1]), gindex.filter_reference(query));
            prop_assert_eq!(both_arms(&treedelta, &stores[2]), treedelta.filter_reference(query));
            prop_assert_eq!(candidates(&*grapes, query), candidates(&ggsx, query));
            // Δ learning must not break the equivalences. It mutates the
            // index, which in serving flushes the cache: start a new store.
            let _ = treedelta.query(&ds, query);
            prop_assert_eq!(
                both_arms(&treedelta, &MapStore::default()),
                treedelta.filter_reference(query)
            );
        }
    }

    /// The path methods' query side: GGSX's and Grapes' trie walks equal
    /// the per-sequence lookups (i), Grapes' stored locations equal the
    /// query-labelled vertices of every live graph (ii), and Grapes answers
    /// what exhaustive VF2 answers — on the freshly built indexes, and again
    /// after inserts plus removes that cross the compaction threshold (so
    /// purged, emptied payloads are walked too). Named cases: the empty
    /// query (matches every live graph), a single vertex, a label no graph
    /// has, a disconnected query, and an inserted graph carrying no query
    /// label.
    #[test]
    fn path_walk_and_location_identities_hold_through_compaction(seed in 0u64..300) {
        let config = MethodConfig::fast();
        let fresh = identity_datasets(seed ^ 0x5eed);
        for ((name, mut ds), (_, more)) in identity_datasets(seed).into_iter().zip(fresh) {
            let mut grapes = GrapesIndex::build(&ds, config.grapes.clone());
            let mut ggsx = GgsxIndex::build(&ds, config.ggsx.clone());
            let first = ds.graph(0).unwrap();
            let (a, b) = (first.label(0), first.label(first.vertex_count() - 1));
            let mut queries = vec![
                ("empty", Graph::new("empty")),
                ("single vertex", graph(&[a], &[])),
                ("unknown label", graph(&[a, 9_999], &[(0, 1)])),
                ("disconnected", graph(&[a, b], &[])),
            ];
            for (query, _) in QueryGen::new(seed ^ 0x1d3a).generate(&ds, 3, 3).iter() {
                queries.push(("extracted", query.clone()));
            }
            let check = |stage: &str, ds: &Dataset, grapes: &GrapesIndex, ggsx: &GgsxIndex| {
                for (case, query) in &queries {
                    let what = format!("{name}, {stage}, {case}");
                    assert_walk_is_the_lookups(grapes.store(), query, &what);
                    assert_walk_is_the_lookups(ggsx, query, &what);
                    assert_locations_are_query_labelled(grapes, ds, query, &what);
                    let expected = exhaustive_answers(ds, query);
                    assert_eq!(grapes.query(ds, query).answers, expected, "{what}");
                    // Unfiltered, so verification also meets graphs with no
                    // query-labelled vertex (the foreign one, other families).
                    let all = CandidateSet::full(ds.len());
                    assert_eq!(grapes.verify_set(ds, query, &all), expected, "{what}: unfiltered");
                }
                let live: Vec<GraphId> = ds.iter_live().map(|(gid, _)| gid).collect();
                let empty = grapes.query(ds, &Graph::new("empty"));
                assert_eq!(empty.answers, live, "{name}, {stage}: the empty query");
            };
            check("built", &ds, &grapes, &ggsx);

            let foreign = graph(&[7_000, 7_001], &[(0, 1)]);
            for g in more.graphs()[..7].iter().map(|g| (**g).clone()).chain([foreign]) {
                ds.push(g.clone());
                grapes.insert(&g);
                ggsx.insert(&g);
            }
            // 33 dead of 56 ids: past both halves of the compaction policy.
            for victim in (0..33).map(|i| i * 37 % 48) {
                prop_assert!(ds.remove(victim) && grapes.remove(victim) && ggsx.remove(victim));
            }
            check("compacted", &ds, &grapes, &ggsx);
        }
    }
}
