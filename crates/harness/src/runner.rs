//! Experiment runner: builds indexes, runs query workloads and enforces the
//! per-method time budget.

use crate::metrics::{MethodMetrics, StageTotals, Stopwatch};
use crate::service::{BatchReport, QueryService, ServiceOptions, ShardedReport, ShardedService};
use serde::{Deserialize, Serialize};
use sqbench_generator::sweeps::{
    PAPER_QUERY_SIZES, SANE_DEFAULT_DENSITY, SANE_DEFAULT_GRAPHS, SANE_DEFAULT_LABELS,
    SANE_DEFAULT_NODES,
};
use sqbench_generator::QueryWorkload;
use sqbench_graph::Dataset;
use sqbench_index::{build_index, MethodConfig, MethodKind};
use std::time::Duration;

/// Scale of an experiment run. Every sweep of the experiment catalogue
/// takes the same 4–5 points anchored at the scale's defaults (half to
/// twice the default, and so on) — a scale moves the anchor, the dataset
/// size and the time budget, not the number of points:
///
/// * [`ExperimentScale::smoke`] — seconds-long runs used by unit and
///   integration tests;
/// * [`ExperimentScale::laptop`] — keeps the shape of the paper's sweeps at
///   a size a laptop can finish;
/// * [`ExperimentScale::paper`] — anchored at the paper's "sane defaults"
///   with its query sizes and 8-hour budget (needs a large machine and many
///   hours, as the original study did).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Number of graphs in synthetic datasets (paper default: 1000).
    pub graph_count: usize,
    /// Mean nodes per synthetic graph (paper default: 200).
    pub avg_nodes: usize,
    /// Mean density of synthetic graphs (paper default: 0.025).
    pub avg_density: f64,
    /// Number of distinct labels (paper default: 20).
    pub label_count: u32,
    /// Queries generated per query size.
    pub queries_per_size: usize,
    /// Query sizes (in edges) to generate.
    pub query_sizes: Vec<usize>,
    /// Scale factor applied to the real-dataset simulators (1.0 = published
    /// sizes).
    pub real_dataset_scale: f64,
    /// Per-method time budget for indexing plus query processing (the
    /// scaled-down analogue of the paper's 8-hour limit).
    pub time_budget: Duration,
    /// RNG seed shared by dataset and workload generation.
    pub seed: u64,
    /// Query-service workers each method's workload is served on (see
    /// [`ServiceOptions::workers`]). The paper's latency semantics need
    /// `1`; the smoke/laptop scales use a small pool so every figure run
    /// exercises (and benefits from) batched serving.
    pub query_threads: usize,
}

impl ExperimentScale {
    /// Tiny configuration for tests: a handful of small graphs.
    pub fn smoke() -> Self {
        ExperimentScale {
            graph_count: 16,
            avg_nodes: 12,
            avg_density: 0.15,
            label_count: 5,
            queries_per_size: 2,
            query_sizes: vec![4, 8],
            real_dataset_scale: 0.002,
            time_budget: Duration::from_secs(30),
            seed: 7,
            query_threads: 2,
        }
    }

    /// Laptop-scale configuration used by the benches.
    pub fn laptop() -> Self {
        ExperimentScale {
            graph_count: 200,
            avg_nodes: 40,
            avg_density: 0.05,
            label_count: 20,
            queries_per_size: 10,
            query_sizes: vec![4, 8, 16, 32],
            real_dataset_scale: 0.01,
            time_budget: Duration::from_secs(120),
            seed: 42,
            query_threads: 4,
        }
    }

    /// The paper's full configuration ("sane defaults", 8-hour budget).
    pub fn paper() -> Self {
        ExperimentScale {
            graph_count: SANE_DEFAULT_GRAPHS,
            avg_nodes: SANE_DEFAULT_NODES,
            avg_density: SANE_DEFAULT_DENSITY,
            label_count: SANE_DEFAULT_LABELS,
            queries_per_size: 100,
            query_sizes: PAPER_QUERY_SIZES.to_vec(),
            real_dataset_scale: 1.0,
            time_budget: Duration::from_secs(8 * 3600),
            seed: 2015,
            // The paper reports per-query latencies, which assume one
            // query in flight at a time.
            query_threads: 1,
        }
    }
}

/// Options for a single [`run_methods`] invocation: the run-level knobs
/// (method set, index configuration, time budget) layered over the unified
/// [`ServiceOptions`] service surface. Service-side behaviour — workers,
/// shards, placement strategy, routing, retry, caching — lives *only* on
/// [`RunOptions::service`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which methods to run (defaults to all six).
    pub methods: Vec<MethodKind>,
    /// Per-method index/query configuration.
    pub config: MethodConfig,
    /// Per-method time budget (indexing + queries).
    pub time_budget: Duration,
    /// How each method's query service is shaped: worker threads per pool
    /// (`workers`, an *upper bound* — [`run_methods`] additionally clamps
    /// it to the flattened workload size, since a worker without a query to
    /// claim would only spin), dataset shards (`shards`, 1 = the
    /// single-index service; answer sets are identical to the unsharded
    /// run, candidate counts may differ because each shard mines features
    /// over its own slice), placement strategy, routing mode and the
    /// cross-query cache policy. Prefer `workers = 1` and the disabled
    /// cache when comparing latency numbers against the paper.
    pub service: ServiceOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            methods: MethodKind::ALL.to_vec(),
            config: MethodConfig::default(),
            time_budget: Duration::from_secs(120),
            service: ServiceOptions::new(),
        }
    }
}

impl RunOptions {
    /// Options sized for fast tests (small fingerprints, short paths).
    pub fn fast() -> Self {
        RunOptions {
            config: MethodConfig::fast(),
            time_budget: Duration::from_secs(30),
            ..Default::default()
        }
    }

    /// Restricts the run to a subset of methods.
    pub fn with_methods(mut self, methods: &[MethodKind]) -> Self {
        self.methods = methods.to_vec();
        self
    }

    /// Replaces the whole service surface in one move.
    pub fn with_service(mut self, service: ServiceOptions) -> Self {
        self.service = service;
        self
    }
}

/// Builds each requested method over `dataset` and serves every query of
/// every workload against it through the batch [`QueryService`], returning
/// one [`MethodMetrics`] per method (including the per-stage breakdown the
/// service records).
///
/// The time budget is enforced at two points: after index construction (a
/// method whose build alone exceeds the budget is marked `timed_out` and
/// processes no queries — the analogue of the paper's DNF entries) and
/// before each query enters the service pipeline. With one worker
/// (`query_threads == 1`) queries are claimed in workload order, so the
/// skipped queries are exactly the workload suffix and `queries_executed`
/// records how far the method got; with a multi-worker pool the claim
/// order is still the workload order but completions interleave, so a
/// timed-out method's executed set is a scheduler-dependent subset (the
/// metrics of runs that finish within budget are unaffected — pooled and
/// single-worker runs execute the same queries).
pub fn run_methods(
    dataset: &Dataset,
    workloads: &[QueryWorkload],
    options: &RunOptions,
) -> Vec<MethodMetrics> {
    options
        .methods
        .iter()
        .map(|&kind| run_single_method(kind, dataset, workloads, options))
        .collect()
}

/// What one served workload contributes to [`MethodMetrics`] — the part
/// that differs by serving path, produced from either service's report.
#[derive(Default)]
struct Served {
    executed: usize,
    failed: usize,
    degraded: usize,
    retries: u64,
    timed_out: bool,
    shards_probed: u64,
    shards_skipped: u64,
    false_positive_ratio: f64,
    totals: StageTotals,
    per_shard: Vec<StageTotals>,
}

impl From<BatchReport> for Served {
    fn from(report: BatchReport) -> Self {
        let executed = report.executed();
        Served {
            executed,
            failed: report.failed(),
            timed_out: report.timed_out(),
            // The single index is probed once per executed query; it can
            // neither answer partially nor retry.
            shards_probed: executed as u64,
            false_positive_ratio: report.false_positive_ratio(),
            totals: report.totals,
            ..Served::default()
        }
    }
}

impl From<ShardedReport> for Served {
    fn from(report: ShardedReport) -> Self {
        Served {
            executed: report.executed(),
            failed: report.failed(),
            degraded: report.degraded(),
            retries: report.retries(),
            timed_out: report.expired() > 0,
            shards_probed: report.shards_probed(),
            shards_skipped: report.shards_skipped(),
            false_positive_ratio: report.false_positive_ratio(),
            totals: report.totals,
            per_shard: report.per_shard,
        }
    }
}

/// Builds `kind` over `dataset` — one index, or one per shard when
/// `options.service.shards > 1` (indexing time then covers all shard
/// builds) — and serves the flattened workloads as a single batch or wave.
/// The unified service surface flows through verbatim; runs keep the
/// default bounded-retry policy and inject no faults, so fault-free metrics
/// stay comparable across PRs.
fn run_single_method(
    kind: MethodKind,
    dataset: &Dataset,
    workloads: &[QueryWorkload],
    options: &RunOptions,
) -> MethodMetrics {
    let opts = &options.service;
    let queries: Vec<&sqbench_graph::Graph> = workloads
        .iter()
        .flat_map(|w| w.iter().map(|(query, _)| query))
        .collect();
    let build_watch = Stopwatch::start();
    // `None` when the build alone exhausted the budget: the method is
    // marked timed out and serves nothing.
    let deadline = || {
        (build_watch.elapsed() <= options.time_budget)
            .then(|| build_watch.deadline_after(options.time_budget))
    };
    let unserved = |shards: usize| Served {
        timed_out: true,
        per_shard: vec![StageTotals::default(); shards],
        ..Served::default()
    };
    let (indexing_time_s, stats, served, cache, shards, partition_overhead_bytes);
    if opts.shards > 1 {
        let mut service = ShardedService::new(kind, &options.config, dataset, opts.clone());
        indexing_time_s = build_watch.elapsed_secs();
        stats = service.stats();
        shards = service.shard_count();
        partition_overhead_bytes = service.partition_overhead_bytes();
        served = match deadline() {
            Some(deadline) => service.run_wave(&queries, Some(deadline)).into(),
            None => unserved(shards),
        };
        cache = service.cache_counters();
    } else {
        let index = build_index(kind, &options.config, dataset);
        indexing_time_s = build_watch.elapsed_secs();
        stats = index.stats();
        shards = 1;
        partition_overhead_bytes = 0;
        // The worker bound is clamped to the batch size (see
        // RunOptions::service).
        let workers = opts.workers.max(1).min(queries.len().max(1));
        let mut service = QueryService::new(&*index, dataset, opts.clone().workers(workers));
        served = match deadline() {
            Some(deadline) => service.run_batch(&queries, Some(deadline)).into(),
            None => unserved(0),
        };
        cache = service.cache_counters();
    }
    let stages = served.totals;
    MethodMetrics {
        method: kind.name().to_string(),
        indexing_time_s,
        index_size_bytes: stats.size_bytes,
        distinct_features: stats.distinct_features,
        avg_query_time_s: if stages.queries == 0 {
            0.0
        } else {
            (stages.filter_s + stages.verify_s) / stages.queries as f64
        },
        false_positive_ratio: served.false_positive_ratio,
        queries_executed: served.executed,
        timed_out: served.timed_out,
        queries_degraded: served.degraded,
        queries_failed: served.failed,
        retries: served.retries,
        stages,
        shards,
        shards_probed: served.shards_probed,
        shards_skipped: served.shards_skipped,
        shard_stages: served.per_shard,
        partition_overhead_bytes,
        cache,
        // Batch runs bypass admission (nothing is shed) and serve a frozen
        // snapshot (no inserts or removes) — the online ingest path is
        // `ShardedService::drain`.
        ..MethodMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};

    fn small_setup() -> (Dataset, Vec<QueryWorkload>) {
        let ds = GraphGen::new(
            GraphGenConfig::default()
                .with_graph_count(15)
                .with_avg_nodes(12)
                .with_avg_density(0.15)
                .with_label_count(4)
                .with_seed(3),
        )
        .generate();
        let workloads = QueryGen::new(5).generate_all_sizes(&ds, 2, &[4, 8]);
        (ds, workloads)
    }

    #[test]
    fn runs_all_methods_and_reports_metrics() {
        let (ds, workloads) = small_setup();
        let results = run_methods(&ds, &workloads, &RunOptions::fast());
        assert_eq!(results.len(), 6);
        for m in &results {
            assert!(!m.timed_out, "method {} unexpectedly timed out", m.method);
            assert_eq!(m.queries_executed, 4);
            assert!(m.indexing_time_s >= 0.0);
            assert!(m.index_size_bytes > 0);
            assert!(m.false_positive_ratio >= 0.0 && m.false_positive_ratio <= 1.0);
            // Per-stage metrics cover exactly the executed queries, and the
            // mean query time is the filter + verify split.
            assert_eq!(m.stages.queries as usize, m.queries_executed);
            let split = m.stages.avg_filter_s() + m.stages.avg_verify_s();
            assert!((m.avg_query_time_s - split).abs() < 1e-12);
            assert!(m.stages.queue_wait_s >= 0.0);
        }
        // All methods returned, in the requested order.
        let names: Vec<&str> = results.iter().map(|m| m.method.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Grapes",
                "GGSX",
                "CT-Index",
                "gIndex",
                "Tree+Delta",
                "gCode"
            ]
        );
    }

    #[test]
    fn method_subset_is_respected() {
        let (ds, workloads) = small_setup();
        let options = RunOptions::fast().with_methods(&[MethodKind::Ggsx, MethodKind::CtIndex]);
        let results = run_methods(&ds, &workloads, &options);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].method, "GGSX");
        assert_eq!(results[1].method, "CT-Index");
    }

    #[test]
    fn batched_execution_agrees_with_sequential() {
        let (ds, workloads) = small_setup();
        // Deterministic methods only: Tree+Δ mutates its index during query
        // processing, so its learned-feature trajectory is order-dependent.
        let kinds = [
            MethodKind::Grapes,
            MethodKind::Ggsx,
            MethodKind::CtIndex,
            MethodKind::GIndex,
            MethodKind::GCode,
        ];
        let sequential = run_methods(&ds, &workloads, &RunOptions::fast().with_methods(&kinds));
        let batched = run_methods(
            &ds,
            &workloads,
            &RunOptions::fast()
                .with_methods(&kinds)
                .with_service(ServiceOptions::new().workers(3)),
        );
        assert_eq!(sequential.len(), batched.len());
        for (s, b) in sequential.iter().zip(batched.iter()) {
            assert_eq!(s.method, b.method);
            assert_eq!(s.queries_executed, b.queries_executed);
            assert!(!b.timed_out);
            assert!(
                (s.false_positive_ratio - b.false_positive_ratio).abs() < 1e-12,
                "{}: fp ratio diverged",
                s.method
            );
        }
    }

    #[test]
    fn service_defaults_to_one_worker_unsharded() {
        assert_eq!(RunOptions::default().service.workers, 1);
        assert_eq!(RunOptions::default().service.shards, 1);
    }

    #[test]
    fn sharded_run_reports_per_shard_stages_and_same_answers() {
        let (ds, workloads) = small_setup();
        let kinds = [MethodKind::Ggsx, MethodKind::GCode];
        let unsharded = run_methods(&ds, &workloads, &RunOptions::fast().with_methods(&kinds));
        let sharded = run_methods(
            &ds,
            &workloads,
            &RunOptions::fast()
                .with_methods(&kinds)
                .with_service(ServiceOptions::new().shards(3)),
        );
        for (u, s) in unsharded.iter().zip(sharded.iter()) {
            assert_eq!(u.method, s.method);
            assert!(!s.timed_out);
            assert_eq!(s.shards, 3);
            assert_eq!(s.shard_stages.len(), 3);
            assert_eq!(u.queries_executed, s.queries_executed);
            // Per-shard totals cover every (query, shard) execution.
            let shard_queries: u64 = s.shard_stages.iter().map(|t| t.queries).sum();
            assert_eq!(shard_queries as usize, 3 * s.queries_executed);
            assert!(s.shard_balance() >= 0.0 && s.shard_balance() <= 1.0);
            assert!(s.max_shard_time_s() <= s.stages.filter_s + s.stages.verify_s + 1e-12);
            // Sharded index stats aggregate real per-shard indexes.
            assert!(s.index_size_bytes > 0);
        }
        // Unsharded runs leave the shard columns degenerate.
        assert_eq!(unsharded[0].shards, 1);
        assert!(unsharded[0].shard_stages.is_empty());
    }

    #[test]
    fn sharded_zero_budget_marks_methods_as_timed_out() {
        let (ds, workloads) = small_setup();
        let mut options = RunOptions::fast()
            .with_methods(&[MethodKind::Ggsx])
            .with_service(ServiceOptions::new().shards(2));
        options.time_budget = Duration::from_secs(0);
        let results = run_methods(&ds, &workloads, &options);
        assert!(results[0].timed_out);
        assert_eq!(results[0].queries_executed, 0);
        assert_eq!(results[0].avg_query_time_s, 0.0);
        assert!(results[0].false_positive_ratio.is_finite());
    }

    #[test]
    fn query_threads_above_workload_size_clamp_inside_run() {
        // The builder keeps the requested bound verbatim...
        let options = RunOptions::fast()
            .with_methods(&[MethodKind::Ggsx])
            .with_service(ServiceOptions::new().workers(64));
        assert_eq!(options.service.workers, 64);
        // ...and `run_methods` clamps it to the 4-query workload: the run
        // completes on 4 workers and reports exactly the serial results.
        let (ds, workloads) = small_setup();
        let oversubscribed = run_methods(&ds, &workloads, &options);
        let serial = run_methods(
            &ds,
            &workloads,
            &RunOptions::fast().with_methods(&[MethodKind::Ggsx]),
        );
        assert_eq!(oversubscribed.len(), 1);
        assert!(!oversubscribed[0].timed_out);
        assert_eq!(
            oversubscribed[0].queries_executed,
            serial[0].queries_executed
        );
        assert!(
            (oversubscribed[0].false_positive_ratio - serial[0].false_positive_ratio).abs() < 1e-12
        );
    }

    #[test]
    fn zero_budget_marks_methods_as_timed_out() {
        let (ds, workloads) = small_setup();
        let mut options = RunOptions::fast().with_methods(&[MethodKind::Ggsx]);
        options.time_budget = Duration::from_secs(0);
        let results = run_methods(&ds, &workloads, &options);
        assert!(results[0].timed_out);
        assert_eq!(results[0].queries_executed, 0);
        assert_eq!(results[0].avg_query_time_s, 0.0);
    }

    #[test]
    fn scales_expose_paper_defaults() {
        let paper = ExperimentScale::paper();
        assert_eq!(paper.graph_count, 1000);
        assert_eq!(paper.avg_nodes, 200);
        assert!((paper.avg_density - 0.025).abs() < 1e-12);
        assert_eq!(paper.label_count, 20);
        assert_eq!(paper.query_sizes, [4, 8, 16, 32]);
        assert_eq!(paper.time_budget, Duration::from_secs(8 * 3600));
        let smoke = ExperimentScale::smoke();
        assert!(smoke.graph_count < ExperimentScale::laptop().graph_count);
        assert!(ExperimentScale::laptop().graph_count < paper.graph_count);
    }
}
