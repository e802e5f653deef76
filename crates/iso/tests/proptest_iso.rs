//! Property-based tests for the VF2 matcher, the one verifier every method
//! and `exhaustive_answers` rest on.
//!
//! The key oracle: VF2 agrees on every small input with a brute-force
//! enumeration of all injective maps from query to target vertices, queries
//! extracted as subgraphs of a target must always be found, and any
//! embedding returned must actually be a valid label- and edge-preserving
//! injective mapping.

use proptest::prelude::*;
use sqbench_graph::Graph;
use sqbench_iso::{vf2, MatchState, Vf2Matcher};
use std::cell::RefCell;

std::thread_local! {
    /// One VF2 scratch shared by every case of the brute-force property, as
    /// a verify worker shares one across candidates and queries.
    static STATE: RefCell<MatchState> = RefCell::new(MatchState::new());
}

/// The graph with vertices labelled `labels` whose `k`-th vertex pair (in
/// `(0, 1), (0, 2), …, (1, 2), …` order) is an edge iff `edges[k]`.
fn build_graph(labels: &[u32], edges: &[bool]) -> Graph {
    let mut g = Graph::new("target");
    for &l in labels {
        g.add_vertex(l);
    }
    let n = labels.len();
    let mut k = 0;
    for u in 0..n {
        for v in (u + 1)..n {
            if edges[k] {
                g.add_edge(u, v).unwrap();
            }
            k += 1;
        }
    }
    g
}

/// Random labeled graph strategy.
fn arb_graph(max_n: usize, max_labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..max_labels, n);
        let edge_flags = proptest::collection::vec(any::<bool>(), n * (n - 1) / 2);
        (labels, edge_flags).prop_map(|(labels, flags)| build_graph(&labels, &flags))
    })
}

/// Labels of the shared-bucket regime. VF2's look-ahead counts neighbours
/// per `label & 63`, so 0 and 64 share a bucket, as do 1 and 65, and
/// `u32::MAX` is the largest label id there is.
const BUCKET_LABELS: [u32; 5] = [0, 1, 64, 65, u32::MAX];

/// Random graph over [`BUCKET_LABELS`] whose vertex pairs are each joined
/// with probability `quarters / 4`.
fn arb_bucket_graph(max_n: usize, quarters: u8) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..BUCKET_LABELS.len(), n);
        let edge_draws = proptest::collection::vec(0..4u8, n * (n - 1) / 2);
        (labels, edge_draws).prop_map(move |(labels, draws)| {
            let labels: Vec<u32> = labels.iter().map(|&i| BUCKET_LABELS[i]).collect();
            let edges: Vec<bool> = draws.iter().map(|&d| d < quarters).collect();
            build_graph(&labels, &edges)
        })
    })
}

/// A graph together with a randomly chosen induced subgraph of it.
fn graph_and_subgraph(max_n: usize, max_labels: u32) -> impl Strategy<Value = (Graph, Graph)> {
    arb_graph(max_n, max_labels).prop_flat_map(|g| {
        let n = g.vertex_count();
        proptest::collection::vec(any::<bool>(), n).prop_map(move |keep| {
            let vertices: Vec<usize> = (0..n).filter(|&v| keep[v]).collect();
            let sub = g.induced_subgraph(&vertices);
            (g.clone(), sub)
        })
    })
}

/// `true` iff `map` (query vertex → target vertex) preserves labels and
/// query edges.
fn preserves_labels_and_edges(query: &Graph, target: &Graph, map: &[usize]) -> bool {
    query
        .vertices()
        .all(|v| query.label(v) == target.label(map[v]))
        && query.edges().all(|(u, v)| target.has_edge(map[u], map[v]))
}

/// Brute force: tries every injective map of query vertices to target
/// vertices and tests each whole map with [`preserves_labels_and_edges`];
/// no label, degree or adjacency pruning, no order.
fn brute_force_embeds(query: &Graph, target: &Graph) -> bool {
    fn extend(query: &Graph, target: &Graph, map: &mut Vec<usize>) -> bool {
        if map.len() == query.vertex_count() {
            return preserves_labels_and_edges(query, target, map);
        }
        for t in target.vertices() {
            if map.contains(&t) {
                continue;
            }
            map.push(t);
            let found = extend(query, target, map);
            map.pop();
            if found {
                return true;
            }
        }
        false
    }
    extend(query, target, &mut Vec::new())
}

fn validate_embedding(query: &Graph, target: &Graph, emb: &[usize]) {
    assert_eq!(emb.len(), query.vertex_count());
    let mut sorted = emb.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), emb.len(), "embedding not injective");
    for v in query.vertices() {
        assert_eq!(query.label(v), target.label(emb[v]), "label mismatch");
    }
    for (u, v) in query.edges() {
        assert!(target.has_edge(emb[u], emb[v]), "edge not preserved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// VF2 agrees with the brute-force enumerator on arbitrary (query,
    /// target) pairs, through `matches_with` on one reused scratch state,
    /// and every embedding it returns is valid.
    #[test]
    fn vf2_agrees_with_brute_force(query in arb_graph(5, 3), target in arb_graph(7, 3)) {
        let matcher = Vf2Matcher::new(&query);
        let found = STATE.with(|state| matcher.matches_with(&mut state.borrow_mut(), &target));
        prop_assert_eq!(found, brute_force_embeds(&query, &target));
        let emb = matcher.find_first(&target);
        prop_assert_eq!(emb.is_some(), found);
        if let Some(emb) = emb {
            validate_embedding(&query, &target, &emb);
        }
    }

    /// The same agreement where the label-aware look-ahead decides: dense
    /// targets of up to 8 vertices, labels that share buckets, and label
    /// ids up to `u32::MAX`.
    #[test]
    fn vf2_agrees_with_brute_force_on_shared_buckets(
        query in arb_bucket_graph(5, 2),
        target in arb_bucket_graph(8, 3),
    ) {
        let matcher = Vf2Matcher::new(&query);
        let found = STATE.with(|state| matcher.matches_with(&mut state.borrow_mut(), &target));
        prop_assert_eq!(found, brute_force_embeds(&query, &target));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An induced subgraph of a graph is always contained in it, and the
    /// returned embedding is valid.
    #[test]
    fn extracted_subgraphs_are_always_found((target, query) in graph_and_subgraph(8, 3)) {
        let matcher = Vf2Matcher::new(&query);
        let emb = matcher.find_first(&target);
        prop_assert!(emb.is_some(), "query extracted from target not found");
        validate_embedding(&query, &target, &emb.unwrap());
    }

    /// Containment is reflexive and monotone under edge removal from the
    /// query.
    #[test]
    fn containment_monotone_under_query_edge_removal(target in arb_graph(7, 3)) {
        prop_assert!(vf2::has_subgraph_embedding(&target, &target));
        // Remove one edge from a copy of the target; it must still embed.
        if let Some((u, v)) = target.edges().next() {
            let mut q = Graph::new("q");
            for w in target.vertices() {
                q.add_vertex(target.label(w));
            }
            for (a, b) in target.edges() {
                if (a, b) != (u, v) {
                    q.add_edge(a, b).unwrap();
                }
            }
            prop_assert!(vf2::has_subgraph_embedding(&q, &target));
        }
    }

    /// Adding a vertex with a label absent from the target makes the query
    /// unmatchable.
    #[test]
    fn foreign_label_blocks_matching(target in arb_graph(6, 3)) {
        let mut q = target.clone();
        q.add_vertex(999);
        prop_assert!(!vf2::has_subgraph_embedding(&q, &target));
    }
}
