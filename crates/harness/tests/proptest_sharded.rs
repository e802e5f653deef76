//! Property test: what label-aware placement buys routing.
//!
//! That sharding and routing are invisible in match sets — every method,
//! shard count, placement and routing tier against exhaustive VF2 — is
//! the root `config_matrix` oracle. This suite keeps the one sharding
//! property whose oracle is not answer equality: on interleaved
//! label-clustered ingest with a shard count coprime to the family count,
//! label-aware placement must let routing probe strictly fewer shards than
//! round-robin.

use proptest::prelude::*;
use sqbench_generator::{label_clustered, GraphGenConfig, QueryGen};
use sqbench_graph::Graph;
use sqbench_harness::service::{RoutingMode, ServiceOptions, ShardStrategy, ShardedService};
use sqbench_index::{exhaustive_answers, MethodConfig, MethodKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The reason [`ShardStrategy::LabelAware`] exists: on interleaved
    /// label-clustered ingest with a shard count that does not divide the
    /// family count (here 3 shards over 4 families — round-robin smears
    /// every family across every shard), label-aware placement must let
    /// synopsis routing probe strictly fewer shards than round-robin,
    /// while answering exactly.
    #[test]
    fn label_aware_placement_beats_round_robin_on_interleaved_ingest(
        seed in 0u64..200,
        graphs in 16usize..25,
    ) {
        let ds = label_clustered(
            &GraphGenConfig::default()
                .with_graph_count(graphs)
                .with_avg_nodes(10)
                .with_avg_density(0.14)
                .with_label_count(4)
                .with_seed(seed),
            4,
        );
        let queries: Vec<Graph> = QueryGen::new(seed ^ 0x91ace)
            .generate(&ds, 4, 4)
            .iter()
            .map(|(q, _)| q.clone())
            .collect();
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut reports = Vec::new();
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::LabelAware] {
            let mut service = ShardedService::new(
                MethodKind::Ggsx,
                &MethodConfig::fast(),
                &ds,
                ServiceOptions::new().shards(3)
                    .strategy(strategy)
                    .routing(RoutingMode::Synopsis),
            );
            let report = service.run_wave(&refs, None);
            for (record, query) in report.records.iter().zip(&queries) {
                prop_assert_eq!(&record.answers, &exhaustive_answers(&ds, query));
            }
            reports.push(report);
        }
        let (rr, la) = (&reports[0], &reports[1]);
        prop_assert!(
            la.shards_probed() < rr.shards_probed(),
            "label-aware probed {} of round-robin's {} — clustering bought nothing",
            la.shards_probed(),
            rr.shards_probed()
        );
    }
}
