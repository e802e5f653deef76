//! Service-level integration tests: the serial batch service must agree
//! with one-shot queries candidate for candidate, and the runner's
//! service-backed batching must not change any reported correctness metric.
//! (Answers of every worker count against exhaustive VF2 are the
//! `config_matrix` oracle.)

use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph};
use sqbench_harness::service::{QueryService, ServiceOptions};
use sqbench_harness::{run_methods, RunOptions};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn setup(graphs: usize, queries: usize) -> (Dataset, Vec<Graph>) {
    let ds = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(14)
            .with_avg_density(0.12)
            .with_label_count(5)
            .with_seed(41),
    )
    .generate();
    let workload = QueryGen::new(17).generate(&ds, queries, 4);
    let qs = workload.iter().map(|(q, _)| q.clone()).collect();
    (ds, qs)
}

/// The serial service agrees with one-shot `index.query` calls — the
/// pre-service ground truth — per query, candidates included.
#[test]
fn serial_service_equals_one_shot_queries() {
    let (ds, queries) = setup(18, 8);
    let refs: Vec<&Graph> = queries.iter().collect();
    let config = MethodConfig::fast();
    for kind in MethodKind::ALL {
        let index = build_index(kind, &config, &ds);
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(1));
        let report = service.run_batch(&refs, None);
        // One-shot ground truth on a fresh index (Tree+Δ mutates while
        // querying, so the comparison index must replay the same order).
        let oracle = build_index(kind, &config, &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            let record = record.as_ref().unwrap();
            let outcome = oracle.query(&ds, query);
            assert_eq!(record.answers, outcome.answers, "{}", kind.name());
            assert_eq!(
                record.candidate_count,
                outcome.candidates.len(),
                "{}",
                kind.name()
            );
        }
    }
}

/// Routing the runner through the service keeps the workload-level metrics
/// of deterministic methods identical between 1 and 4 query threads.
#[test]
fn runner_batching_preserves_workload_metrics() {
    let ds = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(15)
            .with_avg_nodes(12)
            .with_avg_density(0.15)
            .with_label_count(4)
            .with_seed(3),
    )
    .generate();
    let workloads = QueryGen::new(5).generate_all_sizes(&ds, 3, &[4, 8]);
    let kinds = [MethodKind::Ggsx, MethodKind::GIndex, MethodKind::GCode];
    let serial = run_methods(&ds, &workloads, &RunOptions::fast().with_methods(&kinds));
    let pooled = run_methods(
        &ds,
        &workloads,
        &RunOptions::fast()
            .with_methods(&kinds)
            .with_service(ServiceOptions::new().workers(4)),
    );
    for (s, p) in serial.iter().zip(pooled.iter()) {
        assert_eq!(s.method, p.method);
        assert_eq!(s.queries_executed, p.queries_executed);
        assert!((s.false_positive_ratio - p.false_positive_ratio).abs() < 1e-12);
        assert_eq!(s.stages.candidates_pruned, p.stages.candidates_pruned);
    }
}
