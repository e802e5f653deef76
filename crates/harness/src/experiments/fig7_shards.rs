//! Beyond the paper: shard-count sweep of the sharded query service.
//!
//! The paper's study ends at one index over one dataset. This experiment
//! asks the next question — how the four metrics move when the dataset is
//! partitioned over N cooperating shard services (one index per shard,
//! every query fanned out to all shards and merged): indexing time falls
//! per shard but feature mining over smaller slices changes filtering
//! power, so the false positive ratio drifts while answer sets stay
//! exact. Run once per partitioning strategy to compare round-robin,
//! size-balanced and label-aware placement; the per-shard CSV columns
//! (`shards`, `max_shard_time_s`, `shard_balance`,
//! `partition_overhead_bytes`) carry the balance and memory view —
//! partitioning shares graph storage with the source dataset, so the
//! overhead column stays pointer-sized at every point.

use crate::experiments::{measure_point, options_for, synthetic_dataset, workloads_for};
use crate::report::ExperimentReport;
use crate::runner::ExperimentScale;
use crate::service::ShardStrategy;

/// The shard counts swept at a given scale: 1 (the unsharded baseline),
/// then powers of two up to 8, capped so no point has more shards than
/// graphs.
pub fn sweep_for(scale: &ExperimentScale) -> Vec<usize> {
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&n| n <= scale.graph_count.max(1))
        .collect()
}

/// Runs the shard-count sweep with the given partitioning strategy at the
/// given scale.
pub fn run_with_strategy(scale: &ExperimentScale, strategy: ShardStrategy) -> ExperimentReport {
    let sweep = sweep_for(scale);
    let mut report = ExperimentReport::new(
        format!("fig7_shards_{}", strategy.name().replace('-', "_")),
        "Scalability with the number of dataset shards (beyond the paper)",
        format!(
            "shard-count sweep {:?} ({} placement), {} graphs, {} nodes, density {}, {} labels",
            sweep,
            strategy.name(),
            scale.graph_count,
            scale.avg_nodes,
            scale.avg_density,
            scale.label_count
        ),
    );
    let dataset = synthetic_dataset(
        scale,
        scale.avg_nodes,
        scale.avg_density,
        scale.label_count,
        scale.graph_count,
    );
    let workloads = workloads_for(&dataset, scale);
    for shards in sweep {
        let mut options = options_for(scale);
        options.service = options.service.shards(shards).strategy(strategy);
        report.push_point(measure_point(
            format!("{shards}"),
            shards as f64,
            &dataset,
            &workloads,
            &options,
        ));
    }
    report
}

/// Runs the shard-count sweep with round-robin placement (the default).
pub fn run(scale: &ExperimentScale) -> ExperimentReport {
    run_with_strategy(scale, ShardStrategy::RoundRobin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_starts_unsharded_and_grows() {
        let sweep = sweep_for(&ExperimentScale::smoke());
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert!(sweep.iter().all(|&n| n <= 16));
    }

    #[test]
    fn smoke_run_reports_shard_columns_and_exact_answers() {
        let scale = ExperimentScale::smoke();
        let report = run(&scale);
        assert_eq!(report.points.len(), sweep_for(&scale).len());
        for point in &report.points {
            assert_eq!(point.results.len(), 6);
            for m in &point.results {
                assert!(
                    !m.timed_out,
                    "{} timed out at {} shards",
                    m.method, point.x_label
                );
                assert_eq!(m.shards, point.x_value as usize);
                if m.shards > 1 {
                    assert_eq!(m.shard_stages.len(), m.shards);
                }
                assert!(m.shard_balance() >= 0.0 && m.shard_balance() <= 1.0);
            }
        }
        // Every method executes the full workload at every shard count —
        // sharding must not lose queries.
        let executed: Vec<usize> = report
            .points
            .iter()
            .flat_map(|p| p.results.iter().map(|m| m.queries_executed))
            .collect();
        assert!(executed.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn size_balanced_strategy_runs_too() {
        let scale = ExperimentScale::smoke();
        let report = run_with_strategy(&scale, ShardStrategy::SizeBalanced);
        assert!(report.id.contains("size_balanced"));
        assert_eq!(report.points.len(), sweep_for(&scale).len());
    }

    #[test]
    fn label_aware_strategy_runs_and_reports_pointer_sized_overhead() {
        let scale = ExperimentScale::smoke();
        let report = run_with_strategy(&scale, ShardStrategy::LabelAware);
        assert!(report.id.contains("label_aware"));
        assert_eq!(report.points.len(), sweep_for(&scale).len());
        for point in &report.points {
            for m in &point.results {
                if m.shards > 1 {
                    // Zero-copy partition: the overhead column carries the
                    // Arc spines, roughly one pointer per graph per shard
                    // layout — never a second copy of the dataset.
                    assert!(m.partition_overhead_bytes > 0);
                    assert!(
                        m.partition_overhead_bytes
                            <= scale.graph_count * 2 * std::mem::size_of::<usize>(),
                        "{}: overhead {} is not pointer-sized",
                        m.method,
                        m.partition_overhead_bytes
                    );
                } else {
                    assert_eq!(m.partition_overhead_bytes, 0);
                }
            }
        }
    }
}
