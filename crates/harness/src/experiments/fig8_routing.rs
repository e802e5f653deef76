//! Beyond the paper: selective shard routing vs. full fan-out.
//!
//! The paper's central finding is that filtering power dominates query
//! cost; the routing tier applies the same idea one level up, pruning
//! whole *shards* instead of graphs. This experiment measures it where it
//! matters: a **label-clustered** dataset (four label-disjoint graph
//! families, interleaved so round-robin placement keeps families
//! shard-coherent) served at several shard counts, once with full fan-out
//! and once with synopsis routing. Match sets are identical by
//! construction (routing is sound); the routed runs' `shards_probed` /
//! `shards_skipped` CSV columns show how many index probes the synopses
//! saved, and query/filter times show what that buys end to end.

use crate::experiments::{measure_point, options_for, workloads_for};
use crate::report::ExperimentReport;
use crate::runner::ExperimentScale;
use crate::service::RoutingMode;
use sqbench_generator::{label_clustered, GraphGenConfig};
use sqbench_graph::Dataset;

/// Number of label-disjoint graph families in the routed sweep's dataset.
/// Four families align with the shard counts swept ({2, 4, 8} all divide
/// or are divided by 4), so every shard stays label-coherent under
/// round-robin placement and routing has real skew to exploit.
pub const FAMILIES: u32 = 4;

/// The shard counts swept at a given scale, capped so no point has more
/// shards than graphs. Starts at 2 — routing is a no-op on one shard.
pub fn sweep_for(scale: &ExperimentScale) -> Vec<usize> {
    [2usize, 4, 8]
        .into_iter()
        .filter(|&n| n <= scale.graph_count.max(1))
        .collect()
}

/// The label-clustered dataset the sweep runs on: the scale's synthetic
/// shape, split into [`FAMILIES`] label-disjoint families.
pub fn clustered_dataset(scale: &ExperimentScale) -> Dataset {
    label_clustered(
        &GraphGenConfig::default()
            .with_graph_count(scale.graph_count)
            .with_avg_nodes(scale.avg_nodes)
            .with_avg_density(scale.avg_density)
            .with_label_count(scale.label_count)
            .with_seed(scale.seed),
        FAMILIES,
    )
}

/// Runs the routing sweep: for each shard count, one fanned-out point and
/// one routed point over the same dataset and workloads.
pub fn run(scale: &ExperimentScale) -> ExperimentReport {
    let sweep = sweep_for(scale);
    let mut report = ExperimentReport::new(
        "fig8_routing",
        "Selective shard routing vs. full fan-out (beyond the paper)",
        format!(
            "shard sweep {:?} × {{fanout, routed}} over a label-clustered dataset \
             ({} families, {} graphs, {} nodes, density {}, {} labels per family)",
            sweep,
            FAMILIES,
            scale.graph_count,
            scale.avg_nodes,
            scale.avg_density,
            scale.label_count
        ),
    );
    let dataset = clustered_dataset(scale);
    let workloads = workloads_for(&dataset, scale);
    for shards in sweep {
        for routing in [RoutingMode::Fanout, RoutingMode::Synopsis] {
            let mut options = options_for(scale);
            options.service = options.service.shards(shards).routing(routing);
            report.push_point(measure_point(
                format!("{}@{shards}", routing.name()),
                shards as f64,
                &dataset,
                &workloads,
                &options,
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_multi_shard_and_ascending() {
        let sweep = sweep_for(&ExperimentScale::smoke());
        assert!(sweep[0] >= 2, "routing needs at least two shards to matter");
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clustered_dataset_is_label_disjoint_per_family() {
        let scale = ExperimentScale::smoke();
        let ds = clustered_dataset(&scale);
        assert_eq!(ds.len(), scale.graph_count);
        for (id, g) in ds.iter() {
            let family = (id % FAMILIES as usize) as u32;
            let lo = family * scale.label_count;
            let hi = lo + scale.label_count;
            assert!(g.labels().iter().all(|&l| l >= lo && l < hi));
        }
    }

    #[test]
    fn routed_points_probe_strictly_fewer_shards_than_fanout() {
        let scale = ExperimentScale::smoke();
        let report = run(&scale);
        assert_eq!(report.points.len(), 2 * sweep_for(&scale).len());
        for pair in report.points.chunks(2) {
            let (fanout, routed) = (&pair[0], &pair[1]);
            assert!(fanout.x_label.starts_with("fanout@"));
            assert!(routed.x_label.starts_with("routed@"));
            let shards = fanout.x_value as u64;
            for (f, r) in fanout.results.iter().zip(routed.results.iter()) {
                assert_eq!(f.method, r.method);
                assert!(!f.timed_out && !r.timed_out, "{} timed out", f.method);
                // Routing must not lose queries (answer equality is
                // enforced bit-for-bit by the routing proptest).
                assert_eq!(f.queries_executed, r.queries_executed);
                // Fanout probes everything; routing accounts every probe
                // and, on this label-clustered dataset, skips shards.
                assert_eq!(f.shards_probed, shards * f.queries_executed as u64);
                assert_eq!(f.shards_skipped, 0);
                assert_eq!(
                    r.shards_probed + r.shards_skipped,
                    shards * r.queries_executed as u64
                );
                assert!(
                    r.shards_probed < f.shards_probed,
                    "{} routed {} probes, fanout {} — no savings at {} shards",
                    r.method,
                    r.shards_probed,
                    f.shards_probed,
                    shards
                );
                assert!(r.shard_balance() >= 0.0 && r.shard_balance() <= 1.0);
            }
        }
    }
}
