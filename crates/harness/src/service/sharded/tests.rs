//! Service-level tests of the sharded serving path: waves, drains, routing
//! and online ingest. Partition, executor and merge tests live beside the
//! code they test.

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
fn sharded_wave_matches_unsharded_answers() {
    let (ds, queries) = setup(17, 6);
    let refs: Vec<&Graph> = queries.iter().collect();
    let config = MethodConfig::fast();
    for strategy in [ShardStrategy::RoundRobin, ShardStrategy::SizeBalanced] {
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &config,
            &ds,
            ServiceOptions::new().shards(4).strategy(strategy),
        );
        assert_eq!(service.shard_count(), 4);
        let report = service.run_wave(&refs, None);
        assert_eq!(report.executed(), queries.len());
        assert_eq!(report.expired(), 0);
        let oracle = build_index(MethodKind::Ggsx, &config, &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            let outcome = oracle.query(&ds, query);
            assert_eq!(record.answers, outcome.answers, "{}", strategy.name());
        }
    }
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
fn routed_wave_matches_fanout_and_skips_label_disjoint_shards() {
    // Four label-disjoint families interleaved i % 4: with 4 shards,
    // round-robin sends each family to its own shard, so a routed
    // query probes exactly the shards of its family.
    let ds = sqbench_generator::label_clustered(
        &GraphGenConfig::default()
            .with_graph_count(16)
            .with_avg_nodes(10)
            .with_avg_density(0.16)
            .with_label_count(3)
            .with_seed(77),
        4,
    );
    let queries: Vec<Graph> = QueryGen::new(13)
        .generate(&ds, 6, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect();
    let refs: Vec<&Graph> = queries.iter().collect();
    let config = MethodConfig::fast();
    let mut fanout = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new().shards(4),
    );
    let mut routed = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new()
            .shards(4)
            .routing(RoutingMode::Synopsis),
    );
    assert_eq!(fanout.routing(), RoutingMode::Fanout);
    assert_eq!(routed.routing(), RoutingMode::Synopsis);
    let fanout_report = fanout.run_wave(&refs, None);
    let routed_report = routed.run_wave(&refs, None);
    for (f, r) in fanout_report
        .records
        .iter()
        .zip(routed_report.records.iter())
    {
        assert_eq!(f.answers, r.answers, "routing changed a match set");
        assert_eq!(f.shards_probed, 4);
        assert_eq!(f.shards_skipped, 0);
        assert_eq!(r.shards_probed + r.shards_skipped, 4);
        // Label-disjoint families: each query's labels live on exactly
        // one shard, so routing must skip the other three.
        assert_eq!(r.shards_probed, 1, "query leaked outside its family");
    }
    assert_eq!(fanout_report.shards_probed(), 4 * queries.len() as u64);
    assert_eq!(fanout_report.shards_skipped(), 0);
    assert_eq!(routed_report.shards_probed(), queries.len() as u64);
    assert_eq!(routed_report.shards_skipped(), 3 * queries.len() as u64);
    assert!(routed.router().memory_bytes() > 0);
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

/// Satellite 1 — the stale-cache regression. A warm answer memo must
/// never replay a pre-mutation answer: before mutations invalidated
/// the caches automatically, this test's post-removal wave would be
/// served the removed graph straight from the memo.
#[test]
fn mutations_invalidate_the_answer_memo() {
    use crate::service::CachePolicy;
    let (ds, queries) = setup(12, 3);
    let config = MethodConfig::fast();
    let query = &queries[0];
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new()
            .shards(2)
            .cache(CachePolicy::enabled()),
    );
    // Warm the memo: cold wave populates, second wave hits.
    let before = service.run_wave(&[query], None).records[0].answers.clone();
    assert!(
        !before.is_empty(),
        "the generated query must match something"
    );
    let warm = service.run_wave(&[query], None);
    assert_eq!(warm.records[0].answers, before);
    assert!(
        service.cache_counters().answer_hits >= 1,
        "second wave must be memo-served"
    );

    // Remove one of the answers; a stale memo would keep replaying it.
    let victim = before[0];
    assert!(service.remove_graph(victim));
    let mut live = ds.clone();
    assert!(live.remove(victim));
    let oracle = build_index(MethodKind::Ggsx, &config, &live);
    let expected = oracle.query(&live, query).answers;
    assert!(!expected.contains(&victim));
    let after_remove = service.run_wave(&[query], None);
    assert_eq!(
        after_remove.records[0].answers, expected,
        "answer memo replayed a pre-removal answer"
    );

    // Warm the memo again, then insert a twin of the removed graph:
    // the answer must grow by the twin's new id.
    let _ = service.run_wave(&[query], None);
    let twin = ds.graph_unchecked(victim).clone();
    let twin_id = service.insert_graph(twin.clone());
    assert_eq!(twin_id, ds.len());
    let pushed = live.push(twin);
    assert_eq!(pushed, twin_id);
    let oracle = build_index(MethodKind::Ggsx, &config, &live);
    let expected = oracle.query(&live, query).answers;
    assert!(expected.contains(&twin_id));
    let after_insert = service.run_wave(&[query], None);
    assert_eq!(
        after_insert.records[0].answers, expected,
        "answer memo replayed a pre-insert answer"
    );
}

/// Tentpole behaviour end to end: reads and typed mutations drain from
/// one admission queue in ticket order, every ticket gets a record,
/// and each read observes exactly the dataset state of its admission
/// point — with both cache levels enabled throughout.
#[test]
fn drained_mutations_interleave_with_reads_in_ticket_order() {
    use crate::service::CachePolicy;
    let (ds, queries) = setup(10, 2);
    let config = MethodConfig::fast();
    let query = &queries[0];
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new()
            .shards(2)
            .cache(CachePolicy::enabled()),
    );
    let before = build_index(MethodKind::Ggsx, &config, &ds)
        .query(&ds, query)
        .answers;
    assert!(!before.is_empty());
    let victim = before[0];
    let twin = ds.graph_unchecked(victim).clone();

    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(16));
    queue.submit(query.clone(), None).unwrap(); // t0: sees ds
    queue.submit_insert(twin.clone()).unwrap(); // t1
    queue.submit(query.clone(), None).unwrap(); // t2: sees ds + twin
    queue.submit_remove(victim).unwrap(); // t3
    queue.submit(query.clone(), None).unwrap(); // t4: sees ds + twin − victim
    let report = service.drain(&queue, None);

    assert_eq!(report.records.len(), 5, "no ticket may be lost");
    let tickets: Vec<Ticket> = report.records.iter().map(|r| r.ticket).collect();
    assert_eq!(tickets, vec![0, 1, 2, 3, 4]);
    assert_eq!(report.inserts_applied, 1);
    assert_eq!(report.removes_applied, 1);
    for mutation in [&report.records[1], &report.records[3]] {
        assert_eq!(mutation.outcome, QueryOutcome::Complete);
        assert!(mutation.answers.is_empty());
    }

    let mut with_twin = ds.clone();
    let twin_id = with_twin.push(twin);
    let mid = build_index(MethodKind::Ggsx, &config, &with_twin)
        .query(&with_twin, query)
        .answers;
    assert!(mid.contains(&twin_id), "the twin must join the answers");
    let mut end_state = with_twin.clone();
    assert!(end_state.remove(victim));
    let end = build_index(MethodKind::Ggsx, &config, &end_state)
        .query(&end_state, query)
        .answers;
    assert_eq!(report.records[0].answers, before);
    assert_eq!(
        report.records[2].answers, mid,
        "t2 replayed the pre-insert state"
    );
    assert_eq!(
        report.records[4].answers, end,
        "t4 replayed the pre-removal state"
    );
}

/// Satellite 3 — synopsis soundness across removals: online removals
/// retract the victims from their shards' synopses, which may tighten,
/// but routed answers must stay bit-identical to the rebuilt-from-scratch
/// oracle over the live dataset (no live graph is ever routed past).
#[test]
fn routing_stays_sound_after_removals() {
    let (ds, queries) = setup(18, 5);
    let config = MethodConfig::fast();
    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new()
            .shards(3)
            .routing(RoutingMode::Synopsis),
    );
    let mut live = ds.clone();
    for id in [0, 3, 5] {
        assert!(service.remove_graph(id));
        assert!(live.remove(id));
    }
    assert!(!service.remove_graph(0), "double removal must be a no-op");
    assert!(
        !service.remove_graph(ds.len() + 7),
        "unknown ids are refused"
    );
    // Every live graph is still admitted somewhere (a graph contains
    // itself, so the shard hosting it must admit it).
    for (id, g) in live.iter_live() {
        assert!(
            service.router().route(g).iter().any(|&admitted| admitted),
            "live graph {id} routed past every shard"
        );
    }
    // And routed answers match the rebuilt oracle over the live set.
    let refs: Vec<&Graph> = queries.iter().collect();
    let report = service.run_wave(&refs, None);
    let oracle = build_index(MethodKind::Ggsx, &config, &live);
    for (record, query) in report.records.iter().zip(queries.iter()) {
        assert_eq!(record.answers, oracle.query(&live, query).answers);
    }
}
