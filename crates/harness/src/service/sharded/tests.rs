//! Service-level tests of the sharded serving path: drains, deadlines,
//! latency accounting and degenerate shapes. Partition, executor and merge
//! tests live beside the code they test; answers against exhaustive VF2
//! under every method, shard count, routing tier, cache level and ingest
//! script are the root `config_matrix` oracle.

use super::*;
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use std::time::Duration;

pub(super) fn setup(graphs: usize, queries: usize) -> (Dataset, Vec<Graph>) {
    let ds = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(12)
            .with_avg_density(0.15)
            .with_label_count(4)
            .with_seed(23),
    )
    .generate();
    let workload = QueryGen::new(9).generate(&ds, queries, 4);
    let qs = workload.iter().map(|(q, _)| q.clone()).collect();
    (ds, qs)
}

#[test]
fn drain_serves_admitted_queries_and_honours_expired_deadlines() {
    let (ds, queries) = setup(10, 4);
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new().shards(2),
    );
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
    let past = Instant::now() - Duration::from_secs(1);
    let live = queue.submit(queries[0].clone(), None).unwrap();
    let dead = queue.submit(queries[1].clone(), Some(past)).unwrap();
    let report = service.drain(&queue, None);
    assert_eq!(report.records.len(), 2);
    assert_eq!(report.records[0].ticket, live);
    assert!(!report.records[0].expired());
    assert_eq!(report.records[0].outcome, QueryOutcome::Complete);
    assert_eq!(report.records[1].ticket, dead);
    assert!(report.records[1].expired());
    assert_eq!(report.records[1].outcome, QueryOutcome::TimedOut);
    assert!(report.records[1].answers.is_empty());
    assert_eq!(report.executed(), 1);
    assert_eq!(report.expired(), 1);
    assert!(queue.is_empty());
}

#[test]
fn drain_accounts_time_pending_in_the_admission_queue() {
    let (ds, queries) = setup(8, 1);
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new().shards(2),
    );
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
    queue.submit(queries[0].clone(), None).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    let report = service.drain(&queue, None);
    let record = &report.records[0];
    assert!(
        record.queue_wait_s >= 0.04,
        "queue wait {} must include the ~40 ms spent pending in the \
         admission queue before the wave started",
        record.queue_wait_s
    );
    assert!((report.totals.queue_wait_s - record.queue_wait_s).abs() < 1e-12);
}

#[test]
fn empty_drain_and_empty_shards_do_not_hang() {
    let (ds, queries) = setup(2, 2); // fewer graphs than shards
    let mut service = ShardedService::new(
        MethodKind::GCode,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new().shards(4),
    );
    assert_eq!(service.shard_sizes().iter().filter(|&&n| n == 0).count(), 2);
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
    let report = service.drain(&queue, None);
    assert!(report.records.is_empty());
    assert_eq!(report.false_positive_ratio(), 0.0);
    assert_eq!(report.throughput_qps(), 0.0);
    // A real wave over the partly-empty shards still completes.
    let refs: Vec<&Graph> = queries.iter().collect();
    let wave = service.run_wave(&refs, None);
    assert_eq!(wave.executed(), 2);
    let oracle = build_index(MethodKind::GCode, &MethodConfig::fast(), &ds);
    for (record, query) in wave.records.iter().zip(queries.iter()) {
        assert_eq!(record.answers, oracle.query(&ds, query).answers);
    }
}

#[test]
fn query_admitted_by_no_shard_executes_with_empty_answers() {
    let (ds, _) = setup(9, 1);
    let mut service = ShardedService::new(
        MethodKind::Scan,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new()
            .shards(3)
            .routing(RoutingMode::Synopsis),
    );
    // A query over a label far outside the generated alphabet: every
    // shard synopsis rejects it, no index is probed, and the (correct)
    // empty answer comes back as an executed record.
    let mut impossible = Graph::new("impossible");
    let a = impossible.add_vertex(9_999);
    let b = impossible.add_vertex(9_999);
    impossible.add_edge(a, b).unwrap();
    let report = service.run_wave(&[&impossible], None);
    assert_eq!(report.executed(), 1);
    let record = &report.records[0];
    assert!(!record.expired());
    assert!(record.answers.is_empty());
    assert_eq!(record.shards_probed, 0);
    assert_eq!(record.shards_skipped, 3);
    assert_eq!(record.candidate_count, 0);
    assert_eq!(report.shards_probed(), 0);

    // Deadline parity with fan-out: had the wave fanned out, every
    // shard would have skipped this past-deadline query (expired), so
    // the zero-probe path must report expired too — not sneak the
    // free empty answer past the deadline.
    let past = Instant::now() - Duration::from_secs(1);
    let late = service.run_wave(&[&impossible], Some(past));
    assert_eq!(late.expired(), 1);
    assert!(late.records[0].expired());
    assert_eq!(late.executed(), 0);
}

#[test]
fn routed_drain_honours_deadlines_and_accounts_probes() {
    let (ds, queries) = setup(12, 4);
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new()
            .shards(2)
            .routing(RoutingMode::Synopsis),
    );
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
    let past = Instant::now() - Duration::from_secs(1);
    queue.submit(queries[0].clone(), None).unwrap();
    queue.submit(queries[1].clone(), Some(past)).unwrap();
    let report = service.drain(&queue, None);
    assert_eq!(report.records.len(), 2);
    assert!(!report.records[0].expired());
    assert!(report.records[0].shards_probed <= 2);
    assert!(report.records[1].expired());
    assert!(report.records[1].answers.is_empty());
    // Expired queries are excluded from the probe totals.
    assert_eq!(
        report.shards_probed() + report.shards_skipped(),
        2 // one executed query × two shards accounted either way
    );
}

/// Every wave record carries an end-to-end latency at least as large
/// as its admission wait, and the wave totals expose percentiles.
#[test]
fn wave_records_carry_latency_and_percentiles() {
    let (ds, queries) = setup(12, 6);
    let refs: Vec<&Graph> = queries.iter().collect();
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new().shards(2),
    );
    let report = service.run_wave(&refs, None);
    assert_eq!(report.complete(), queries.len());
    for record in &report.records {
        assert!(record.latency_s >= 0.0);
        assert!(
            record.latency_s * 1.001 + 1e-9 >= record.queue_wait_s,
            "latency {} must cover the queue wait {}",
            record.latency_s,
            record.queue_wait_s
        );
    }
    let p50 = report.totals.latency_percentile(0.50);
    let p99 = report.totals.latency_percentile(0.99);
    assert!(p50 > 0.0, "p50 over a served wave must be positive");
    assert!(
        p99 >= p50,
        "percentiles must be monotone: p50 {p50} p99 {p99}"
    );
}

#[test]
fn stats_aggregate_over_shards() {
    let (ds, _) = setup(12, 1);
    let service = ShardedService::new(
        MethodKind::Ggsx,
        &MethodConfig::fast(),
        &ds,
        ServiceOptions::new().shards(3).workers(2),
    );
    let stats = service.stats();
    assert!(stats.size_bytes > 0);
    assert!(stats.distinct_features > 0);
    assert_eq!(service.shard_sizes().iter().sum::<usize>(), ds.len());
    assert_eq!(service.strategy(), ShardStrategy::RoundRobin);
}
