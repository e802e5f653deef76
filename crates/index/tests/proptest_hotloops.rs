//! Property tests for the raw-speed hot-loop kernels — the `hotloop-proptest`
//! tier-1 CI step.
//!
//! Two invariant families:
//!
//! 1. **Wide ≡ scalar kernels.** The 4×u64 unrolled intersection/union
//!    loops and the wide tombstone mask must be bit-identical to the
//!    one-word scalar reference on arbitrary sets — including the dead-id
//!    interaction: a tombstoned id must never resurface through any kernel.
//! 2. **Posting order survives ingest.** The frequency-ordered filter folds
//!    assume strictly ascending posting lists; arbitrary insert/remove
//!    interleavings (append-max inserts, lazily compacted removals) must
//!    preserve that, and the mutated index must keep answering exactly like
//!    one rebuilt from scratch over the surviving graphs.

use proptest::prelude::*;
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::gindex::GIndex;
use sqbench_index::treedelta::TreeDeltaIndex;
use sqbench_index::{CandidateSet, GraphIndex, MethodConfig, Tombstones};

fn dataset_from_seed(seed: u64, graphs: usize) -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(9)
            .with_avg_density(0.15)
            .with_label_count(4)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wide intersection/union/mask kernels are bit-identical to the
    /// scalar reference.
    #[test]
    fn wide_kernels_equal_scalar_reference(
        universe in 1usize..600,
        a in sorted_ids(600, 300),
        b in sorted_ids(600, 300),
        dead in sorted_ids(600, 60),
    ) {
        let a: Vec<GraphId> = a.into_iter().filter(|&id| id < universe).collect();
        let b: Vec<GraphId> = b.into_iter().filter(|&id| id < universe).collect();
        let set_a = CandidateSet::from_sorted_ids(universe, &a);
        let set_b = CandidateSet::from_sorted_ids(universe, &b);
        // NB: tombstones may exceed the universe — the kernels must ignore
        // dead ids above it rather than touch out-of-range blocks.
        let tomb = Tombstones::from_sorted(&dead);

        let mut wide = set_a.clone();
        wide.intersect_with(&set_b);
        let mut scalar = set_a.clone();
        scalar.intersect_with_scalar(&set_b);
        prop_assert_eq!(wide.to_sorted_vec(), scalar.to_sorted_vec());

        let mut wide_u = set_a.clone();
        wide_u.union_with(&set_b);
        let mut scalar_u = set_a.clone();
        scalar_u.union_with_scalar(&set_b);
        prop_assert_eq!(wide_u.to_sorted_vec(), scalar_u.to_sorted_vec());

        let mut masked_wide = set_a.clone();
        tomb.apply(&mut masked_wide);
        let mut masked_scalar = set_a.clone();
        tomb.apply_scalar(&mut masked_scalar);
        prop_assert_eq!(masked_wide.to_sorted_vec(), masked_scalar.to_sorted_vec());

        // Intersecting after the mask may not resurface a tombstoned id.
        masked_wide.intersect_with(&set_b);
        for &id in dead.iter().filter(|&&id| id < universe) {
            prop_assert!(!masked_wide.contains(id), "dead id {} resurfaced", id);
        }
        // Lazy cardinality cache agrees with an exact popcount after the
        // whole kernel mix.
        prop_assert_eq!(masked_wide.len(), masked_wide.to_sorted_vec().len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Posting lists stay strictly ascending through arbitrary
    /// insert/remove interleavings, and the mutated index answers exactly
    /// like a from-scratch rebuild over the surviving graphs.
    #[test]
    fn posting_order_survives_ingest_interleavings(
        seed in 0u64..300,
        ops in proptest::collection::vec((any::<bool>(), 0usize..16), 1..24),
    ) {
        let ds = dataset_from_seed(seed, 10);
        let pool = dataset_from_seed(seed ^ 0xfeed, 16);
        let config = MethodConfig::fast();
        let mut gindex = GIndex::build(&ds, config.gindex.clone());
        let mut treedelta = TreeDeltaIndex::build(&ds, config.treedelta.clone());

        // Mirror of the live dataset: graph per issued id, empty slot when
        // removed (matching the dataset tombstone model).
        let mut live: Vec<Option<Graph>> =
            ds.iter().map(|(_, g)| Some(g.clone())).collect();
        let mut next_pool = 0usize;
        for (is_insert, pick) in ops {
            if is_insert {
                let (_, g) = pool
                    .iter()
                    .nth(next_pool % pool.len())
                    .expect("pool graph");
                next_pool += 1;
                let gid_g = gindex.insert(g);
                let gid_t = treedelta.insert(g);
                prop_assert_eq!(gid_g, live.len());
                prop_assert_eq!(gid_t, live.len());
                live.push(Some(g.clone()));
            } else {
                let target = pick % live.len();
                let expect_removed = live[target].is_some();
                prop_assert_eq!(gindex.remove(target), expect_removed);
                prop_assert_eq!(treedelta.remove(target), expect_removed);
                live[target] = None;
            }
            prop_assert!(
                gindex.postings_strictly_ascending(),
                "gIndex posting order broken mid-interleaving"
            );
            prop_assert!(
                treedelta.postings_strictly_ascending(),
                "Tree+Δ posting order broken mid-interleaving"
            );
        }

        // Pin against a re-index from scratch: dead slots become empty
        // placeholder graphs (the dataset tombstone model), survivors keep
        // their ids, and answers must match exactly.
        let rebuilt_ds = Dataset::from_graphs(
            "rebuilt",
            live.iter()
                .enumerate()
                .map(|(i, slot)| {
                    slot.clone().unwrap_or_else(|| Graph::new(format!("dead-{i}")))
                })
                .collect(),
        );
        let fresh_g = GIndex::build(&rebuilt_ds, config.gindex.clone());
        let fresh_t = TreeDeltaIndex::build(&rebuilt_ds, config.treedelta.clone());
        for (query, _) in QueryGen::new(seed ^ 0x90de).generate(&ds, 3, 4).iter() {
            prop_assert_eq!(
                gindex.query(&rebuilt_ds, query).answers,
                fresh_g.query(&rebuilt_ds, query).answers,
                "mutated gIndex diverged from rebuild"
            );
            prop_assert_eq!(
                treedelta.query(&rebuilt_ds, query).answers,
                fresh_t.query(&rebuilt_ds, query).answers,
                "mutated Tree+Δ diverged from rebuild"
            );
        }
    }
}
