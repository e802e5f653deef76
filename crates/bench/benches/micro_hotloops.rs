//! Raw-speed A/B micro-benchmarks of the four filter/verify hot-loop
//! optimisations, each timed against the implementation it replaced:
//!
//! * `hotloop_intersect` — the 4×u64 wide intersection/mask kernels of
//!   [`CandidateSet`] vs the one-word-at-a-time scalar loops they replaced
//!   (kept as `*_scalar` for exactly this comparison);
//! * `hotloop_posting_order` — a multi-feature posting fold through the
//!   served [`ArenaFold`], applied rarest-feature-first (what the shared
//!   fold behind every posting method's `filter_into` does) vs in arrival
//!   order;
//! * `hotloop_routing` — sharded waves under fingerprint-sharpened routing
//!   ([`RoutingMode::SynopsisFingerprint`]) vs the bound checks alone
//!   ([`RoutingMode::Synopsis`]), on a workload whose decoy shards
//!   the bounds admit but the path-fingerprint content refutes;
//! * `hotloop_query_paths` — the path methods' query side on AIDS-like
//!   queries: the query's DFS walking the trie with a node cursor
//!   (`PathTrie::walk`, what GGSX and Grapes filter through) vs every
//!   traversal's label sequence collected into an ordered map and looked up
//!   once per distinct sequence.
//!
//! Every axis asserts its correctness gate **before** timing: both sides of
//! each A/B pair must produce identical results. The committed
//! `BENCH_micro_hotloops.json` baseline feeds the CI regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_generator::{QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphBuilder, GraphId};
use sqbench_harness::service::{RoutingMode, ServiceOptions, ShardedService};
use sqbench_index::ggsx::GgsxIndex;
use sqbench_index::{ArenaFold, CandidateSet, MethodConfig, MethodKind, Tombstones};

// ---------------------------------------------------------------- intersect

const INTERSECT_UNIVERSE: usize = 100_000;

/// Candidate sets shaped like a multi-feature filter fold: densities from
/// ~1/2 down to ~1/9, plus a ~1% tombstone mask.
fn intersect_fixture() -> (CandidateSet, Vec<CandidateSet>, Tombstones) {
    let sets: Vec<CandidateSet> = (0..8)
        .map(|i| {
            let stride = i + 2;
            let ids: Vec<GraphId> = (0..INTERSECT_UNIVERSE)
                .filter(|id| id % stride == i % stride)
                .collect();
            CandidateSet::from_sorted_ids(INTERSECT_UNIVERSE, &ids)
        })
        .collect();
    let dead_ids: Vec<GraphId> = (0..INTERSECT_UNIVERSE).step_by(101).collect();
    let dead = Tombstones::from_sorted(&dead_ids);
    (CandidateSet::full(INTERSECT_UNIVERSE), sets, dead)
}

fn fold_intersect_wide(base: &CandidateSet, sets: &[CandidateSet], dead: &Tombstones) -> usize {
    let mut acc = base.clone();
    for s in sets {
        acc.intersect_with(s);
    }
    dead.apply(&mut acc);
    acc.len()
}

fn fold_intersect_scalar(base: &CandidateSet, sets: &[CandidateSet], dead: &Tombstones) -> usize {
    let mut acc = base.clone();
    for s in sets {
        acc.intersect_with_scalar(s);
    }
    dead.apply_scalar(&mut acc);
    acc.len()
}

// ------------------------------------------------------------ posting order

const POSTING_UNIVERSE: usize = 100_000;

/// Posting lists in *arrival* order: dense features first, the rarest last
/// — the worst case the frequency-ordered fold exists to avoid.
fn posting_fixture() -> Vec<Vec<GraphId>> {
    [2usize, 3, 4, 6, 50, 400]
        .iter()
        .map(|&stride| (0..POSTING_UNIVERSE).step_by(stride).collect())
        .collect()
}

/// One filter fold the way a worker runs it: its arena reset, the lists
/// streamed in the order given, short-circuit on empty.
fn fold_postings(arena: &mut CandidateSet, lists: &[&Vec<GraphId>]) -> usize {
    let mut fold = ArenaFold::new(arena, POSTING_UNIVERSE);
    for list in lists {
        if !fold.apply_sorted(list.iter().copied()) {
            return 0;
        }
    }
    fold.finish();
    arena.len()
}

// ------------------------------------------------------------------ routing

const ROUTE_SHARDS: usize = 4;
const ROUTE_FAMILY_GRAPHS: usize = 300;

/// A connected chain over `palette`, cycling to `len` vertices.
fn chain_graph(name: String, palette: &[u32], len: usize) -> Graph {
    let labels: Vec<u32> = (0..len).map(|i| palette[i % palette.len()]).collect();
    let edges: Vec<(usize, usize)> = (1..len).map(|i| (i - 1, i)).collect();
    GraphBuilder::new(name)
        .vertices(&labels)
        .edges(&edges)
        .build()
        .unwrap()
}

/// A decoy with the *same* label counts and edge label pairs as the chain —
/// every chain edge becomes a disconnected two-vertex edge — plus two
/// degree-3 hubs so the cumulative degree histogram dominates small chain
/// queries too. Bound synopses admit chain queries against it; no path of
/// two or more edges from the chain exists in it, so the shard's path
/// fingerprint refutes them.
fn decoy_graph(name: String, palette: &[u32], len: usize) -> Graph {
    let chain_labels: Vec<u32> = (0..len).map(|i| palette[i % palette.len()]).collect();
    let mut labels: Vec<u32> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for w in chain_labels.windows(2) {
        let base = labels.len();
        labels.extend([w[0], w[1]]);
        edges.push((base, base + 1));
    }
    // Two hubs: hub label deliberately outside the palette (label 100+),
    // so the hub's own edges add no chain-relevant label pairs.
    for hub in 0..2 {
        let base = labels.len();
        labels.extend([100 + hub, 100 + hub, 100 + hub, 100 + hub]);
        edges.extend([(base, base + 1), (base, base + 2), (base, base + 3)]);
    }
    GraphBuilder::new(name)
        .vertices(&labels)
        .edges(&edges)
        .build()
        .unwrap()
}

/// Four interleaved families over two label palettes: shard 0 hosts
/// palette-A chains, shard 1 palette-A decoys, shards 2/3 the same for
/// palette B (round-robin placement keeps each family on its own shard).
/// Chain queries are bounds-admitted by both their palette's shards but
/// fingerprint-admitted only by the chain shard.
fn routing_dataset() -> Dataset {
    const PALETTE_A: [u32; 5] = [0, 1, 2, 3, 4];
    const PALETTE_B: [u32; 5] = [5, 6, 7, 8, 9];
    let mut graphs = Vec::new();
    for i in 0..ROUTE_FAMILY_GRAPHS {
        let len = 4 + i % 4;
        graphs.push(chain_graph(format!("a-chain-{i}"), &PALETTE_A, len));
        graphs.push(decoy_graph(format!("a-decoy-{i}"), &PALETTE_A, len));
        graphs.push(chain_graph(format!("b-chain-{i}"), &PALETTE_B, len));
        graphs.push(decoy_graph(format!("b-decoy-{i}"), &PALETTE_B, len));
    }
    Dataset::from_graphs("hotloop-routing", graphs)
}

fn routing_queries() -> Vec<Graph> {
    let mut queries = Vec::new();
    for palette in [[0u32, 1, 2, 3, 4], [5, 6, 7, 8, 9]] {
        for start in 0..3 {
            let labels: Vec<u32> = palette[start..start + 3].to_vec();
            let edges = [(0usize, 1usize), (1, 2)];
            queries.push(
                GraphBuilder::new(format!("q-{}-{start}", palette[0]))
                    .vertices(&labels)
                    .edges(&edges)
                    .build()
                    .unwrap(),
            );
        }
    }
    queries
}

fn wave_answers(service: &mut ShardedService, queries: &[&Graph]) -> (Vec<Vec<GraphId>>, u64) {
    let report = service.run_wave(queries, None);
    let answers = report.records.iter().map(|r| r.answers.clone()).collect();
    (answers, report.shards_probed())
}

// -------------------------------------------------------------- query paths

const PATH_GRAPHS: usize = 700;

/// A GGSX store over AIDS-like molecules (the `sparse_screen` regime, at
/// the paper's path length) and queries extracted from them: 32 each of 4,
/// 8 and 16 edges.
fn query_path_fixture() -> (GgsxIndex, Vec<Graph>) {
    let ds = RealDataset::Aids.generate_with(PATH_GRAPHS as f64 / 40_000.0, 1.0, 7);
    let store = GgsxIndex::build(&ds, MethodConfig::default().ggsx);
    let queries = [4, 8, 16]
        .into_iter()
        .flat_map(|edges| {
            QueryGen::new(11)
                .generate(&ds, 32, edges)
                .iter()
                .map(|(q, _)| q.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    (store, queries)
}

/// A query's resolved postings: `(trie node, traversal count)` pairs, or
/// `None` when some query path is absent from the trie.
type Postings = Option<Vec<(usize, u32)>>;

/// The query side GGSX and Grapes ran before the walk: every traversal's
/// label sequence into an ordered map, then one trie lookup per distinct
/// sequence; `None` at the first sequence the trie lacks.
fn label_map_postings(store: &GgsxIndex, query: &Graph) -> Postings {
    store
        .query_path_counts(query)
        .iter()
        .map(|(labels, &count)| Some((store.trie().lookup(labels)?, count)))
        .collect()
}

fn trie_walk_postings(store: &GgsxIndex, query: &Graph) -> Postings {
    store.trie().walk(query, store.config().max_path_edges)
}

/// Postings resolved over the whole query set (the fold's input, summed so
/// nothing is optimised away).
fn resolve_all(
    store: &GgsxIndex,
    queries: &[Graph],
    postings: fn(&GgsxIndex, &Graph) -> Postings,
) -> usize {
    queries
        .iter()
        .map(|q| postings(store, q).map_or(0, |p| p.len()))
        .sum()
}

// --------------------------------------------------------------------- main

fn bench_hotloops(c: &mut Criterion) {
    // ---- Axis 1: wide vs scalar intersection kernels.
    let (base, sets, dead) = intersect_fixture();
    {
        let mut wide = base.clone();
        let mut scalar = base.clone();
        for s in &sets {
            wide.intersect_with(s);
            scalar.intersect_with_scalar(s);
        }
        dead.apply(&mut wide);
        dead.apply_scalar(&mut scalar);
        assert_eq!(
            wide.to_sorted_vec(),
            scalar.to_sorted_vec(),
            "wide kernels diverged from the scalar reference"
        );
    }
    let mut group = c.benchmark_group("hotloop_intersect");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_with_input(
        BenchmarkId::new("scalar", INTERSECT_UNIVERSE),
        &(&base, &sets, &dead),
        |b, (base, sets, dead)| b.iter(|| fold_intersect_scalar(base, sets, dead)),
    );
    group.bench_with_input(
        BenchmarkId::new("wide", INTERSECT_UNIVERSE),
        &(&base, &sets, &dead),
        |b, (base, sets, dead)| b.iter(|| fold_intersect_wide(base, sets, dead)),
    );
    group.finish();

    // ---- Axis 2: arrival-order vs rarest-first posting folds.
    let lists = posting_fixture();
    let arrival: Vec<&Vec<GraphId>> = lists.iter().collect();
    let mut rarest_first = arrival.clone();
    rarest_first.sort_by_key(|l| l.len());
    let mut arena = CandidateSet::empty(POSTING_UNIVERSE);
    let arrival_bits = {
        fold_postings(&mut arena, &arrival);
        arena.clone()
    };
    fold_postings(&mut arena, &rarest_first);
    assert_eq!(arena, arrival_bits, "posting order changed the fold result");
    let mut group = c.benchmark_group("hotloop_posting_order");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_with_input(
        BenchmarkId::new("arrival", POSTING_UNIVERSE),
        &arrival,
        |b, lists| b.iter(|| fold_postings(&mut arena, lists)),
    );
    group.bench_with_input(
        BenchmarkId::new("rarest_first", POSTING_UNIVERSE),
        &rarest_first,
        |b, lists| b.iter(|| fold_postings(&mut arena, lists)),
    );
    group.finish();

    // ---- Axis 3: bounds-only vs fingerprint-sharpened routing.
    let route_ds = routing_dataset();
    let route_queries = routing_queries();
    let route_refs: Vec<&Graph> = route_queries.iter().collect();
    // Scan is the method here on purpose: its per-shard probe cost is the
    // full verification sweep, so the bench measures what a wasted probe of
    // a bounds-admitted decoy shard actually costs when the index cannot
    // refute it cheaply (an indexed method's trie miss would mask the
    // routing win on this adversarial workload).
    let route_config = MethodConfig::fast();
    let mut bounds_svc = ShardedService::new(
        MethodKind::Scan,
        &route_config,
        &route_ds,
        ServiceOptions::new()
            .shards(ROUTE_SHARDS)
            .routing(RoutingMode::Synopsis),
    );
    let mut fp_svc = ShardedService::new(
        MethodKind::Scan,
        &route_config,
        &route_ds,
        ServiceOptions::new()
            .shards(ROUTE_SHARDS)
            .routing(RoutingMode::SynopsisFingerprint),
    );
    let mut fanout_svc = ShardedService::new(
        MethodKind::Scan,
        &route_config,
        &route_ds,
        ServiceOptions::new().shards(ROUTE_SHARDS),
    );
    let (fanout_answers, _) = wave_answers(&mut fanout_svc, &route_refs);
    let (bounds_answers, bounds_probes) = wave_answers(&mut bounds_svc, &route_refs);
    let (fp_answers, fp_probes) = wave_answers(&mut fp_svc, &route_refs);
    assert_eq!(
        fanout_answers, bounds_answers,
        "bounds routing changed a match set"
    );
    assert_eq!(
        fanout_answers, fp_answers,
        "fingerprint routing changed a match set"
    );
    assert!(
        fp_probes < bounds_probes,
        "fingerprints probed {fp_probes} of bounds' {bounds_probes} — decoys not refuted"
    );
    let mut group = c.benchmark_group("hotloop_routing");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::new("bounds_only", route_ds.len()),
        &route_refs,
        |b, refs| b.iter(|| bounds_svc.run_wave(refs, None).records.len()),
    );
    group.bench_with_input(
        BenchmarkId::new("fingerprint", route_ds.len()),
        &route_refs,
        |b, refs| b.iter(|| fp_svc.run_wave(refs, None).records.len()),
    );
    group.finish();

    // ---- Axis 4: label-map extraction vs the trie walk.
    let (store, path_queries) = query_path_fixture();
    for query in &path_queries {
        let mut by_label_map = label_map_postings(&store, query);
        if let Some(pairs) = &mut by_label_map {
            pairs.sort_unstable();
        }
        assert_eq!(
            trie_walk_postings(&store, query),
            by_label_map,
            "the trie walk resolved other (posting, count) pairs than the label map"
        );
    }
    let mut group = c.benchmark_group("hotloop_query_paths");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_with_input(
        BenchmarkId::new("label_map", path_queries.len()),
        &path_queries,
        |b, queries| b.iter(|| resolve_all(&store, queries, label_map_postings)),
    );
    group.bench_with_input(
        BenchmarkId::new("trie_walk", path_queries.len()),
        &path_queries,
        |b, queries| b.iter(|| resolve_all(&store, queries, trie_walk_postings)),
    );
    group.finish();

    // ---- Speedup summary straight from the recorded medians.
    let results = c.results();
    let median = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    let pairs = [
        (
            "intersect kernels",
            format!("hotloop_intersect/scalar/{INTERSECT_UNIVERSE}"),
            format!("hotloop_intersect/wide/{INTERSECT_UNIVERSE}"),
        ),
        (
            "posting order",
            format!("hotloop_posting_order/arrival/{POSTING_UNIVERSE}"),
            format!("hotloop_posting_order/rarest_first/{POSTING_UNIVERSE}"),
        ),
        (
            "routing",
            format!("hotloop_routing/bounds_only/{}", route_ds.len()),
            format!("hotloop_routing/fingerprint/{}", route_ds.len()),
        ),
        (
            "query paths",
            format!("hotloop_query_paths/label_map/{}", path_queries.len()),
            format!("hotloop_query_paths/trie_walk/{}", path_queries.len()),
        ),
    ];
    for (name, before, after) in &pairs {
        if let (Some(before_ns), Some(after_ns)) = (median(before), median(after)) {
            println!(
                "{name:>18}: before {before_ns:>14.1} ns, after {after_ns:>14.1} ns, \
                 speedup {:.2}x",
                before_ns / after_ns
            );
        }
    }
}

criterion_group!(benches, bench_hotloops);
criterion_main!(benches);
