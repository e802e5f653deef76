//! Dataset partitioning and shard placement: how graphs are assigned to
//! shards at build time ([`partition_dataset`]) and where a newly ingested
//! graph lands online (`place`), both by [`ShardStrategy`].

use super::executor::Shard;
use crate::service::synopsis::Router;
use sqbench_graph::{Dataset, Graph, GraphId};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;

/// How [`partition_dataset`] assigns graphs to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Graph `i` goes to shard `i % shards`. Deterministic, streaming, and
    /// even by *count*; the default.
    #[default]
    RoundRobin,
    /// Longest-processing-time greedy by graph weight (vertices + edges):
    /// graphs are placed heaviest-first onto the currently lightest shard,
    /// evening out total shard *size* when graph sizes are skewed.
    SizeBalanced,
    /// Label-affinity greedy clustering: graphs are placed heaviest-first
    /// onto the shard whose resident label set their own labels overlap
    /// most (dominant labels weigh proportionally to their multiplicity),
    /// under a per-shard weight cap that keeps the partition balanced.
    /// Label-coherent graph families end up co-located, which is what
    /// makes [`RoutingMode::Synopsis`](crate::service::RoutingMode::Synopsis)
    /// skip shards even when ingest interleaves the families — the regime
    /// where round-robin placement smears every family across every shard
    /// and routing saves nothing.
    LabelAware,
}

impl ShardStrategy {
    /// Every strategy, in documentation order — what sweeps and proptests
    /// iterate.
    pub const ALL: [ShardStrategy; 3] = [
        ShardStrategy::RoundRobin,
        ShardStrategy::SizeBalanced,
        ShardStrategy::LabelAware,
    ];

    /// Short name used in logs, CSV descriptions and bench ids.
    pub fn name(&self) -> &'static str {
        match self {
            ShardStrategy::RoundRobin => "round-robin",
            ShardStrategy::SizeBalanced => "size-balanced",
            ShardStrategy::LabelAware => "label-aware",
        }
    }
}

/// One partition of a dataset: the shard-local dataset plus the mapping
/// from shard-local [`GraphId`]s back to ids in the original dataset.
#[derive(Debug, Clone)]
pub struct ShardPart {
    /// The shard's slice of the dataset (ids re-densified to `0..len`),
    /// sharing graph storage with the source dataset.
    pub dataset: Dataset,
    /// `to_global[local_id]` is the graph's id in the unsharded dataset.
    pub to_global: Vec<GraphId>,
}

/// Splits `dataset` into `shards` parts by `strategy`. Every graph lands in
/// exactly one part; parts may be empty when the dataset has fewer graphs
/// than shards (the service handles empty shards — they simply answer
/// nothing). Deterministic for a given dataset/strategy/shard count.
///
/// Partitioning is **zero-copy**: each part holds `Arc` handles onto the
/// source dataset's graphs (`Arc::clone` per graph — O(pointers), not
/// O(bytes)), so the incremental memory of a full partition is the parts'
/// pointer spines, not a second copy of the dataset. That is what makes
/// placement experiments — re-partitioning the same dataset under several
/// strategies and shard counts — cheap enough to run side by side; the
/// `ShardPart::dataset.owned_memory_bytes()` sum is the honest overhead
/// figure the harness reports as `partition_overhead_bytes`.
pub fn partition_dataset(
    dataset: &Dataset,
    shards: usize,
    strategy: ShardStrategy,
) -> Vec<ShardPart> {
    let shards = shards.max(1);
    let mut assignment: Vec<Vec<GraphId>> = vec![Vec::new(); shards];
    match strategy {
        ShardStrategy::RoundRobin => {
            for id in dataset.ids() {
                assignment[id % shards].push(id);
            }
        }
        ShardStrategy::SizeBalanced => {
            // LPT greedy: heaviest graph first onto the lightest shard.
            // Ties break on the lower id / lower shard index, keeping the
            // partition deterministic.
            let mut by_weight: Vec<(usize, GraphId)> = dataset
                .iter()
                .map(|(id, g)| (g.vertex_count() + g.edge_count(), id))
                .collect();
            by_weight.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut loads = vec![0usize; shards];
            for (weight, id) in by_weight {
                let lightest = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(shard, &load)| (load, shard))
                    .map(|(shard, _)| shard)
                    .expect("at least one shard");
                loads[lightest] += weight;
                assignment[lightest].push(id);
            }
        }
        ShardStrategy::LabelAware => {
            assignment = label_aware_assignment(dataset, shards);
        }
    }
    // Keep shard-local id order aligned with global id order so a shard's
    // answers come out sorted after mapping (round-robin emits ids in
    // order already; the greedy strategies do not).
    for ids in &mut assignment {
        ids.sort_unstable();
    }
    assignment
        .into_iter()
        .enumerate()
        .map(|(shard, ids)| {
            let graphs: Vec<Arc<Graph>> = ids
                .iter()
                .map(|&id| Arc::clone(dataset.shared_unchecked(id)))
                .collect();
            ShardPart {
                dataset: Dataset::from_shared(
                    format!("{}[shard {shard}/{shards}]", dataset.name()),
                    graphs,
                ),
                to_global: ids,
            }
        })
        .collect()
}

/// The [`ShardStrategy::LabelAware`] placement: greedy dominant-label
/// clustering under a balance cap.
///
/// Graphs are processed heaviest-first (LPT order, ties on lower id). Each
/// graph scores every shard by **label affinity** — the number of its
/// vertices whose label the shard already hosts, so a graph's dominant
/// labels dominate its placement — and goes to the highest-affinity shard
/// whose load stays within the cap `max(ceil(total_weight / shards),
/// heaviest graph)`; ties break on lighter load, then lower shard index.
/// The cap is what keeps a uniform-label dataset from collapsing onto one
/// shard: once every shard hosts the whole alphabet, affinity ties and the
/// load tie-break takes over, degrading gracefully to size-balanced
/// placement. Deterministic for a given dataset and shard count.
fn label_aware_assignment(dataset: &Dataset, shards: usize) -> Vec<Vec<GraphId>> {
    let weight = |g: &Graph| g.vertex_count() + g.edge_count();
    let total: usize = dataset.iter().map(|(_, g)| weight(g)).sum();
    let heaviest = dataset.iter().map(|(_, g)| weight(g)).max().unwrap_or(0);
    let cap = total.div_ceil(shards).max(heaviest);
    let mut order: Vec<GraphId> = dataset.ids().collect();
    order.sort_by_key(|&id| (Reverse(weight(dataset.graph_unchecked(id))), id));
    let mut assignment: Vec<Vec<GraphId>> = vec![Vec::new(); shards];
    let mut loads = vec![0usize; shards];
    let mut shard_labels: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); shards];
    for id in order {
        let g = dataset.graph_unchecked(id);
        let w = weight(g);
        let affinity = |shard: usize| -> usize {
            g.labels()
                .iter()
                .filter(|label| shard_labels[shard].contains(label))
                .count()
        };
        // Highest affinity among shards with room; if every shard is at
        // the cap (possible when heavy graphs round badly), fall back to
        // the globally lightest shard so the partition always completes.
        let best = (0..shards)
            .filter(|&s| loads[s] + w <= cap)
            .max_by_key(|&s| (affinity(s), Reverse(loads[s]), Reverse(s)))
            .unwrap_or_else(|| {
                loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(shard, &load)| (load, shard))
                    .map(|(shard, _)| shard)
                    .expect("at least one shard")
            });
        loads[best] += w;
        shard_labels[best].extend(g.labels().iter().copied());
        assignment[best].push(id);
    }
    assignment
}

/// Picks the shard a newly ingested graph lands on, mirroring the
/// build-time [`partition_dataset`] strategy online:
///
/// * `RoundRobin` — `global_id % shards`, exactly the offline rule.
/// * `SizeBalanced` — the shard with the lightest total live weight
///   (vertices + edges), the streaming analogue of LPT greedy.
/// * `LabelAware` — the shard whose synopsis already hosts most of the
///   graph's vertex labels (ties to the lighter shard, then the lower
///   index), keeping label-coherent families co-located so synopsis
///   routing keeps skipping shards under interleaved ingest.
pub(super) fn place(
    strategy: ShardStrategy,
    shards: &[Shard],
    router: &Router,
    graph: &Graph,
    global_id: GraphId,
) -> usize {
    let load = |s: usize| -> usize {
        shards[s]
            .lock()
            .dataset
            .iter()
            .map(|(_, g)| g.vertex_count() + g.edge_count())
            .sum()
    };
    match strategy {
        ShardStrategy::RoundRobin => global_id % shards.len(),
        ShardStrategy::SizeBalanced => (0..shards.len())
            .min_by_key(|&s| (load(s), s))
            .expect("at least one shard"),
        ShardStrategy::LabelAware => {
            let affinity = |s: usize| -> usize {
                let hosted = &router.synopsis(s).max_label_counts;
                graph
                    .labels()
                    .iter()
                    .filter(|label| hosted.contains_key(label))
                    .count()
            };
            (0..shards.len())
                .max_by_key(|&s| (affinity(s), Reverse(load(s)), Reverse(s)))
                .expect("at least one shard")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RoutingMode, ServiceOptions, ShardedService};
    use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
    use sqbench_index::{build_index, MethodConfig, MethodKind};

    fn dataset(graphs: usize) -> Dataset {
        GraphGen::new(
            GraphGenConfig::default()
                .with_graph_count(graphs)
                .with_avg_nodes(12)
                .with_avg_density(0.15)
                .with_label_count(4)
                .with_seed(23),
        )
        .generate()
    }

    #[test]
    fn round_robin_partition_covers_every_graph_once() {
        let ds = dataset(13);
        for shards in [1, 2, 4, 7] {
            let parts = partition_dataset(&ds, shards, ShardStrategy::RoundRobin);
            assert_eq!(parts.len(), shards);
            let mut seen: Vec<GraphId> = parts.iter().flat_map(|p| p.to_global.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..ds.len()).collect::<Vec<_>>());
            for part in &parts {
                assert_eq!(part.dataset.len(), part.to_global.len());
                // Local id order tracks global id order.
                assert!(part.to_global.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn size_balanced_partition_covers_every_graph_once_and_balances() {
        let ds = dataset(12);
        let parts = partition_dataset(&ds, 3, ShardStrategy::SizeBalanced);
        let mut seen: Vec<GraphId> = parts.iter().flat_map(|p| p.to_global.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..ds.len()).collect::<Vec<_>>());
        for part in &parts {
            assert!(part.to_global.windows(2).all(|w| w[0] < w[1]));
        }
        // LPT keeps the heaviest shard within 2x of the lightest on any
        // non-degenerate dataset (loose bound; the partition is greedy).
        let weights: Vec<usize> = parts
            .iter()
            .map(|p| {
                p.dataset
                    .iter()
                    .map(|(_, g)| g.vertex_count() + g.edge_count())
                    .sum()
            })
            .collect();
        let max = *weights.iter().max().unwrap();
        let min = *weights.iter().min().unwrap();
        assert!(max <= min.max(1) * 2, "badly unbalanced: {weights:?}");
    }

    #[test]
    fn partition_shares_graph_storage_with_the_source() {
        let ds = dataset(14);
        for strategy in ShardStrategy::ALL {
            let parts = partition_dataset(&ds, 3, strategy);
            for part in &parts {
                for (local, global) in part.to_global.iter().enumerate() {
                    assert!(
                        Arc::ptr_eq(
                            part.dataset.shared_unchecked(local),
                            ds.shared_unchecked(*global)
                        ),
                        "{}: shard graph {local} is not the source allocation",
                        strategy.name()
                    );
                }
                // Each part uniquely owns only its pointer spine.
                assert_eq!(
                    part.dataset.owned_memory_bytes() + part.dataset.shared_memory_bytes(),
                    part.dataset.memory_bytes()
                );
                if !part.dataset.is_empty() {
                    assert!(part.dataset.shared_memory_bytes() > 0);
                }
            }
            let overhead: usize = parts.iter().map(|p| p.dataset.owned_memory_bytes()).sum();
            assert!(
                overhead < ds.memory_bytes() / 10,
                "{}: partition overhead {overhead} not pointer-sized vs {}",
                strategy.name(),
                ds.memory_bytes()
            );
        }
    }

    #[test]
    fn label_aware_partition_covers_every_graph_once_and_stays_balanced() {
        let ds = dataset(16);
        let parts = partition_dataset(&ds, 4, ShardStrategy::LabelAware);
        let mut seen: Vec<GraphId> = parts.iter().flat_map(|p| p.to_global.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..ds.len()).collect::<Vec<_>>());
        for part in &parts {
            assert!(part.to_global.windows(2).all(|w| w[0] < w[1]));
        }
        // The balance cap keeps any shard at roughly total/shards weight
        // even when label affinity pulls everything together (the uniform
        // generated dataset shares one label alphabet).
        let weights: Vec<usize> = parts
            .iter()
            .map(|p| {
                p.dataset
                    .iter()
                    .map(|(_, g)| g.vertex_count() + g.edge_count())
                    .sum()
            })
            .collect();
        let total: usize = weights.iter().sum();
        let cap = total.div_ceil(4);
        for (shard, &w) in weights.iter().enumerate() {
            assert!(
                w <= cap + total / ds.len().max(1),
                "shard {shard} weight {w} blew past the cap {cap} ({weights:?})"
            );
        }
    }

    #[test]
    fn more_shards_than_graphs_leaves_empty_shards() {
        let ds = dataset(3);
        let parts = partition_dataset(&ds, 5, ShardStrategy::RoundRobin);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().filter(|p| p.dataset.is_empty()).count(), 2);
    }

    #[test]
    fn label_aware_clusters_interleaved_families_and_routes_past_round_robin() {
        // Four label-disjoint families interleaved i % 4, served on 3
        // shards: round-robin smears every family across all shards (4 and
        // 3 are coprime), so routing cannot skip anything; label-aware
        // placement re-clusters the families, so each query's labels live
        // on a strict shard subset.
        let ds = sqbench_generator::label_clustered(
            &GraphGenConfig::default()
                .with_graph_count(24)
                .with_avg_nodes(10)
                .with_avg_density(0.16)
                .with_label_count(3)
                .with_seed(91),
            4,
        );
        let queries: Vec<Graph> = QueryGen::new(17)
            .generate(&ds, 8, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();
        let config = MethodConfig::fast();
        let build = |strategy| {
            ShardedService::new(
                MethodKind::Ggsx,
                &config,
                &ds,
                ServiceOptions::new()
                    .shards(3)
                    .strategy(strategy)
                    .routing(RoutingMode::Synopsis),
            )
        };
        let mut round_robin = build(ShardStrategy::RoundRobin);
        let mut label_aware = build(ShardStrategy::LabelAware);
        let rr_report = round_robin.run_wave(&refs, None);
        let la_report = label_aware.run_wave(&refs, None);
        // Placement must be invisible in the answers...
        let oracle = build_index(MethodKind::Ggsx, &config, &ds);
        for ((rr, la), query) in rr_report
            .records
            .iter()
            .zip(la_report.records.iter())
            .zip(queries.iter())
        {
            let expected = oracle.query(&ds, query).answers;
            assert_eq!(rr.answers, expected);
            assert_eq!(la.answers, expected);
        }
        // ...and label-aware placement must make routing strictly cheaper
        // than round-robin on this interleaved ingest.
        assert!(
            la_report.shards_probed() < rr_report.shards_probed(),
            "label-aware probed {} vs round-robin {} — placement bought nothing",
            la_report.shards_probed(),
            rr_report.shards_probed()
        );
    }
}
