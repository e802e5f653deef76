//! Candidate-engine and filter properties.
//!
//! The central invariant of every filter-and-verify method — verified
//! answers equal exhaustive VF2, candidates a superset of them — is the
//! root `config_matrix` oracle, through every entry point. This suite pins
//! what sits under it: the bitset engine against the sorted-`Vec`
//! reference, the borrowed dirty-arena contract, and the one posting fold
//! on both of its arms.

use proptest::prelude::*;
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::{
    build_index, ggsx::GgsxIndex, gindex::GIndex, intersect_sorted, treedelta::TreeDeltaIndex,
    ArenaFold, CandidateSet, FeatureCacheStore, FilterCacheCtx, GraphIndex, MethodConfig,
    MethodKind,
};
use std::collections::HashMap;
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
}
