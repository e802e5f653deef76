//! Property tests for the raw-speed hot-loop kernels — the `hotloop-proptest`
//! tier-1 CI step.
//!
//! Two invariant families:
//!
//! 1. **Wide ≡ scalar kernels.** The 4×u64 unrolled intersection/union
//!    loops and the wide tombstone mask must be bit-identical to the
//!    one-word scalar reference on arbitrary sets — including the dead-id
//!    interaction: a tombstoned id must never resurface through any kernel.
//! 2. **Posting payloads survive ingest**, for the whole posting family.
//!    The frequency-ordered filter folds assume strictly ascending posting
//!    lists; arbitrary insert/remove interleavings (append-max inserts,
//!    lazily compacted removals — a share of the scripts crosses the
//!    compaction threshold) must preserve that in the mined supports, must
//!    neither lose a live graph nor keep a purged one in the trie payloads,
//!    and the mutated index must keep answering exactly like one rebuilt
//!    from scratch over the surviving graphs.

use proptest::prelude::*;
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::ggsx::GgsxIndex;
use sqbench_index::gindex::GIndex;
use sqbench_index::grapes::GrapesIndex;
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

/// Kind 0–1 inserts the next pool graph, kind 2 removes an arbitrary slot
/// (possibly dead already), kinds 3–7 remove the `pick`-th live graph — so
/// roughly two ops in three tombstone a fresh id and the longer scripts
/// cross the compaction threshold (≥ 32 dead, ≥ 1/8 of the universe).
fn ingest_ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..8, 0usize..1024), 24..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Posting payloads stay well-formed through arbitrary insert/remove
    /// interleavings, before and after the lifecycle starts purging — the
    /// mined supports (gIndex, Tree+Δ) strictly ascending, the trie
    /// payloads (Grapes, GGSX) posting every live graph and, once purged,
    /// no dead one — and the mutated index answers exactly like a
    /// from-scratch rebuild over the surviving graphs.
    #[test]
    fn posting_order_survives_ingest_interleavings(
        seed in 0u64..300,
        ops in ingest_ops(),
    ) {
        let ds = dataset_from_seed(seed, 40);
        let pool = dataset_from_seed(seed ^ 0xfeed, 16);
        let config = MethodConfig::fast();
        let mut grapes = GrapesIndex::build(&ds, config.grapes.clone());
        let mut ggsx = GgsxIndex::build(&ds, config.ggsx.clone());
        let mut gindex = GIndex::build(&ds, config.gindex.clone());
        let mut treedelta = TreeDeltaIndex::build(&ds, config.treedelta.clone());

        // Mirror of the live dataset: graph per issued id, empty slot when
        // removed (matching the dataset tombstone model).
        let mut live: Vec<Option<Graph>> =
            ds.iter().map(|(_, g)| Some(g.clone())).collect();
        let mut dead = Tombstones::new();
        let mut next_pool = 0usize;
        for (kind, pick) in ops {
            let mut all: [&mut dyn GraphIndex; 4] =
                [&mut grapes, &mut ggsx, &mut gindex, &mut treedelta];
            if kind < 2 {
                let (_, g) = pool
                    .iter()
                    .nth(next_pool % pool.len())
                    .expect("pool graph");
                next_pool += 1;
                for index in &mut all {
                    prop_assert_eq!(index.insert(g), live.len(), "{}", index.kind().name());
                }
                live.push(Some(g.clone()));
            } else {
                let live_ids: Vec<GraphId> =
                    (0..live.len()).filter(|&id| live[id].is_some()).collect();
                let target = if kind == 2 || live_ids.is_empty() {
                    pick % live.len()
                } else {
                    live_ids[pick % live_ids.len()]
                };
                let expect_removed = live[target].is_some();
                for index in &mut all {
                    prop_assert_eq!(
                        index.remove(target), expect_removed, "{}", index.kind().name()
                    );
                }
                live[target] = None;
                dead.mark(target);
            }
            prop_assert!(
                gindex.postings_strictly_ascending(),
                "gIndex posting order broken mid-interleaving"
            );
            prop_assert!(
                treedelta.postings_strictly_ascending(),
                "Tree+Δ posting order broken mid-interleaving"
            );
            // Past the threshold every remove purges, and an insert posts
            // only its own fresh id: the tries then hold no dead id at all.
            let purged = dead.should_compact(live.len());
            for (name, posted) in [("Grapes", grapes.store().posted_ids()), ("GGSX", ggsx.posted_ids())] {
                for (id, slot) in live.iter().enumerate() {
                    match slot {
                        Some(g) if g.vertex_count() > 0 => {
                            prop_assert!(posted.contains(&id), "{}: live id {} lost", name, id)
                        }
                        None if purged => {
                            prop_assert!(
                                !posted.contains(&id), "{}: dead id {} survived a purge", name, id
                            )
                        }
                        _ => {}
                    }
                }
            }
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
        let fresh: [Box<dyn GraphIndex>; 4] = [
            Box::new(GrapesIndex::build(&rebuilt_ds, config.grapes.clone())),
            Box::new(GgsxIndex::build(&rebuilt_ds, config.ggsx.clone())),
            Box::new(GIndex::build(&rebuilt_ds, config.gindex.clone())),
            Box::new(TreeDeltaIndex::build(&rebuilt_ds, config.treedelta.clone())),
        ];
        let mutated: [&dyn GraphIndex; 4] = [&grapes, &ggsx, &gindex, &treedelta];
        for (query, _) in QueryGen::new(seed ^ 0x90de).generate(&ds, 3, 4).iter() {
            for (mutated, fresh) in mutated.iter().zip(&fresh) {
                prop_assert_eq!(
                    mutated.query(&rebuilt_ds, query).answers,
                    fresh.query(&rebuilt_ds, query).answers,
                    "mutated {} diverged from rebuild", mutated.kind().name()
                );
            }
        }
    }
}
