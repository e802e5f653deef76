//! The mutable-index lifecycle, once, for every method.
//!
//! `insert` / `remove` / `filter_into` are provided methods of
//! [`GraphIndex`]; each method contributes only its payload hooks. This
//! table drives one script over all seven kinds through `build_index`, on a
//! dataset large enough that the compaction policy (≥ 32 dead ids and ≥ 1/8
//! of the universe) trips mid-script — so every lazy purge and every eager
//! slot reclaim runs, and keeps running on the removes after it — and pins
//! each checkpoint against a from-scratch rebuild and the exhaustive oracle.

use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::{
    build_index, exhaustive_answers, CandidateSet, GraphIndex, MethodConfig, MethodKind, Tombstones,
};

const KINDS: [MethodKind; 7] = [
    MethodKind::Grapes,
    MethodKind::Ggsx,
    MethodKind::CtIndex,
    MethodKind::GIndex,
    MethodKind::TreeDelta,
    MethodKind::GCode,
    MethodKind::Scan,
];

fn generated(seed: u64, graphs: usize) -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(8)
            .with_avg_density(0.2)
            .with_label_count(4)
            .with_seed(seed),
    )
    .generate()
}

/// Everything a mutated index must agree on with a rebuild over the same
/// dataset and with the oracle.
fn checkpoint(
    stage: &str,
    subjects: &[Box<dyn GraphIndex>],
    ds: &Dataset,
    config: &MethodConfig,
    queries: &[Graph],
) {
    let live: Vec<GraphId> = ds.ids().filter(|&id| ds.is_live(id)).collect();
    for index in subjects {
        let (kind, name) = (index.kind(), index.kind().name());
        let rebuilt = build_index(kind, config, ds);
        assert_eq!(index.universe(), ds.len(), "{stage}, {name}: universe");
        for query in queries {
            let answers = index.query(ds, query).answers;
            assert_eq!(
                answers,
                rebuilt.query(ds, query).answers,
                "{stage}, {name}: mutated index diverged from the rebuild"
            );
            assert_eq!(answers, exhaustive_answers(ds, query), "{stage}, {name}");
        }
        // The empty query constrains nothing: only the tombstone mask stands
        // between a dead id and the full set (or an emptied slot that still
        // covers the empty query).
        let mut all = CandidateSet::full(3);
        index.filter_into(&Graph::new("empty"), &mut all);
        assert_eq!(all.to_sorted_vec(), live, "{stage}, {name}: empty query");
        // Per-slot and stateless indexes hold nothing a rebuild would not.
        if matches!(
            kind,
            MethodKind::CtIndex | MethodKind::GCode | MethodKind::Scan
        ) {
            assert_eq!(index.stats(), rebuilt.stats(), "{stage}, {name}: stats");
        }
    }
}

fn insert_all(subjects: &mut [Box<dyn GraphIndex>], ds: &mut Dataset, graph: &Graph) {
    let gid = ds.push(graph.clone());
    for index in subjects {
        let name = index.kind().name();
        assert_eq!(index.universe(), gid, "{name}");
        assert_eq!(index.insert(graph), gid, "{name}");
    }
}

fn remove_all(subjects: &mut [Box<dyn GraphIndex>], ds: &mut Dataset, id: GraphId) {
    assert!(ds.remove(id));
    for index in subjects {
        let name = index.kind().name();
        assert!(index.remove(id), "{name}: remove {id}");
        assert!(!index.remove(id), "{name}: double remove {id}");
    }
}

#[test]
fn every_method_tracks_inserts_and_removes_across_the_compaction_threshold() {
    let config = MethodConfig::fast();
    let mut ds = generated(7, 64);
    let pool = generated(7 ^ 0xfeed, 6);
    // Extracted before any mutation, so every source graph is live.
    let queries: Vec<Graph> = QueryGen::new(11)
        .generate(&ds, 4, 4)
        .iter()
        .map(|(query, _)| query.clone())
        .collect();
    let mut subjects: Vec<Box<dyn GraphIndex>> = KINDS
        .iter()
        .map(|&kind| build_index(kind, &config, &ds))
        .collect();
    // The test's own mirror of the policy, so it knows which remove purges.
    let mut dead = Tombstones::new();

    for (_, graph) in pool.iter().take(4) {
        insert_all(&mut subjects, &mut ds, graph);
    }
    checkpoint("after inserts", &subjects, &ds, &config, &queries);

    // 31 removes: one short of the absolute floor of the policy.
    for id in (0..62).step_by(2) {
        remove_all(&mut subjects, &mut ds, id);
        dead.mark(id);
    }
    assert!(!dead.should_compact(ds.len()));
    checkpoint("below the threshold", &subjects, &ds, &config, &queries);

    // The 32nd remove crosses it: the posting methods purge for the first
    // time. No index may grow across it, and the tries must shrink.
    let before: Vec<usize> = subjects.iter().map(|index| index.size_bytes()).collect();
    remove_all(&mut subjects, &mut ds, 62);
    dead.mark(62);
    assert!(dead.should_compact(ds.len()));
    for (index, before) in subjects.iter_mut().zip(before) {
        let (name, after) = (index.kind().name(), index.size_bytes());
        assert!(after <= before, "{name}: {before} → {after}");
        if matches!(index.kind(), MethodKind::Grapes | MethodKind::Ggsx) {
            assert!(after < before, "{name}: purge reclaimed nothing");
        }
        let universe = index.universe();
        assert!(!index.remove(universe), "{name}: out of range");
        assert!(!index.remove(usize::MAX), "{name}: out of range");
    }
    checkpoint("at the threshold", &subjects, &ds, &config, &queries);

    // Past the threshold every remove purges again; inserts interleave, and
    // a graph inserted after the first purge is removed too.
    for (step, (_, graph)) in pool.iter().skip(4).enumerate() {
        insert_all(&mut subjects, &mut ds, graph);
        for id in [1 + 10 * step, 3 + 10 * step, 5 + 10 * step, 7 + 10 * step] {
            remove_all(&mut subjects, &mut ds, id);
            dead.mark(id);
        }
    }
    let newest = ds.len() - 1;
    remove_all(&mut subjects, &mut ds, newest);
    remove_all(&mut subjects, &mut ds, 64);
    dead.mark(newest);
    dead.mark(64);
    assert!(dead.len() >= 40 && dead.should_compact(ds.len()));
    assert_eq!(dead.ids(), ds.dead_ids());
    checkpoint("past the threshold", &subjects, &ds, &config, &queries);
}
