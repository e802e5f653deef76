//! End-to-end correctness harness of the sharded, continuously-admitting
//! query service.
//!
//! Two layers of assurance (bit-identical answers across every method,
//! shard count, placement and routing tier are the `config_matrix`
//! oracle):
//!
//! 1. **Open-admission soak** — hundreds of queries submitted from several
//!    producer threads through a small (backpressuring) admission queue
//!    while the consumer drains concurrently: no query record is lost or
//!    duplicated, every record carries the right answers, per-query
//!    deadlines are honored under load.
//! 2. **Degenerate shapes** — zero-query drains, more shards than graphs,
//!    and a fully empty dataset must terminate (and answer nothing)
//!    rather than hang.

use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::service::{
    AdmissionQueue, RoutingMode, ServiceOptions, ShardedService, SubmitError,
};
use sqbench_index::{build_index, MethodConfig, MethodKind};
use std::time::{Duration, Instant};

fn setup(graphs: usize, queries: usize, seed: u64) -> (Dataset, Vec<Graph>) {
    let ds = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(12)
            .with_avg_density(0.14)
            .with_label_count(5)
            .with_seed(seed),
    )
    .generate();
    let workload = QueryGen::new(seed ^ 0xd1ce).generate(&ds, queries, 4);
    let qs = workload.iter().map(|(q, _)| q.clone()).collect();
    (ds, qs)
}

/// Soak: 240 queries from 4 producer threads through a capacity-16 queue
/// (so producers block on backpressure), drained concurrently. Every
/// ticket must come back exactly once with the right answers.
#[test]
fn soak_multi_producer_admission_loses_and_duplicates_nothing() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 60;
    const TOTAL: usize = PRODUCERS * PER_PRODUCER;

    let (ds, queries) = setup(18, 8, 5);
    let config = MethodConfig::fast();
    let oracle = build_index(MethodKind::Ggsx, &config, &ds);
    let expected: Vec<Vec<GraphId>> = queries
        .iter()
        .map(|q| oracle.query(&ds, q).answers)
        .collect();

    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new().shards(3).workers(2),
    );
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(16));

    // (ticket, query index) pairs per producer, merged after the scope.
    let mut submissions: Vec<(u64, usize)> = Vec::with_capacity(TOTAL);
    let mut collected: Vec<(u64, Vec<GraphId>, bool)> = Vec::with_capacity(TOTAL);
    std::thread::scope(|scope| {
        let producer_handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = &queue;
                let queries = &queries;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(PER_PRODUCER);
                    for i in 0..PER_PRODUCER {
                        let qi = (p + i * PRODUCERS) % queries.len();
                        let ticket = queue
                            .submit(queries[qi].clone(), None)
                            .expect("queue open while producers run");
                        mine.push((ticket, qi));
                    }
                    mine
                })
            })
            .collect();

        // Consumer: drain concurrently with the producers until every
        // submitted query has come back. Backpressure means producers are
        // blocked whenever the queue holds 16 queries, so progress here
        // is what unblocks them — a lost record would hang this loop, and
        // the harness would flag the test as stuck.
        while collected.len() < TOTAL {
            let report = service.drain(&queue, None);
            for record in report.records {
                let expired = record.expired();
                collected.push((record.ticket, record.answers, expired));
            }
            std::thread::yield_now();
        }
        for handle in producer_handles {
            submissions.extend(handle.join().expect("producer panicked"));
        }
    });

    // No lost or duplicated records: tickets are exactly 0..TOTAL, each once.
    assert_eq!(collected.len(), TOTAL);
    let mut tickets: Vec<u64> = collected.iter().map(|(t, _, _)| *t).collect();
    tickets.sort_unstable();
    assert_eq!(tickets, (0..TOTAL as u64).collect::<Vec<_>>());
    assert_eq!(queue.admitted(), TOTAL as u64);
    assert!(queue.is_empty());

    // Every record carries the exact answers of the query its producer
    // submitted under that ticket.
    let mut by_ticket: Vec<Option<usize>> = vec![None; TOTAL];
    for (ticket, qi) in submissions {
        assert!(by_ticket[ticket as usize].replace(qi).is_none());
    }
    for (ticket, answers, expired) in &collected {
        let qi = by_ticket[*ticket as usize].expect("ticket was submitted");
        assert!(!expired, "no deadline was set, nothing may expire");
        assert_eq!(answers, &expected[qi], "ticket {ticket} got wrong answers");
    }
}

/// The routed twin of the admission soak: 240 queries from 4 producers
/// through the same capacity-16 queue, drained by a service that consults
/// the shard synopses before every wave. Routing must change *nothing*
/// about the admission contract — no ticket lost or duplicated, every
/// answer exact — while every record's probe accounting stays within the
/// shard count.
#[test]
fn soak_with_routing_enabled_loses_nothing_and_bounds_probes() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 60;
    const TOTAL: usize = PRODUCERS * PER_PRODUCER;
    const SHARDS: usize = 3;

    let (ds, queries) = setup(18, 8, 5);
    let config = MethodConfig::fast();
    let oracle = build_index(MethodKind::Ggsx, &config, &ds);
    let expected: Vec<Vec<GraphId>> = queries
        .iter()
        .map(|q| oracle.query(&ds, q).answers)
        .collect();

    let mut service = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &ds,
        ServiceOptions::new()
            .shards(SHARDS)
            .workers(2)
            .routing(RoutingMode::Synopsis),
    );
    assert_eq!(service.routing(), RoutingMode::Synopsis);
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(16));

    let mut submissions: Vec<(u64, usize)> = Vec::with_capacity(TOTAL);
    let mut collected: Vec<(u64, Vec<GraphId>, bool, usize, usize)> = Vec::with_capacity(TOTAL);
    std::thread::scope(|scope| {
        let producer_handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = &queue;
                let queries = &queries;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(PER_PRODUCER);
                    for i in 0..PER_PRODUCER {
                        let qi = (p + i * PRODUCERS) % queries.len();
                        let ticket = queue
                            .submit(queries[qi].clone(), None)
                            .expect("queue open while producers run");
                        mine.push((ticket, qi));
                    }
                    mine
                })
            })
            .collect();

        while collected.len() < TOTAL {
            let report = service.drain(&queue, None);
            for record in report.records {
                let expired = record.expired();
                collected.push((
                    record.ticket,
                    record.answers,
                    expired,
                    record.shards_probed,
                    record.shards_skipped,
                ));
            }
            std::thread::yield_now();
        }
        for handle in producer_handles {
            submissions.extend(handle.join().expect("producer panicked"));
        }
    });

    // No lost or duplicated records, exactly as in the fanned-out soak.
    assert_eq!(collected.len(), TOTAL);
    let mut tickets: Vec<u64> = collected.iter().map(|(t, ..)| *t).collect();
    tickets.sort_unstable();
    assert_eq!(tickets, (0..TOTAL as u64).collect::<Vec<_>>());
    assert!(queue.is_empty());

    let mut by_ticket: Vec<Option<usize>> = vec![None; TOTAL];
    for (ticket, qi) in submissions {
        assert!(by_ticket[ticket as usize].replace(qi).is_none());
    }
    for (ticket, answers, expired, probed, skipped) in &collected {
        let qi = by_ticket[*ticket as usize].expect("ticket was submitted");
        assert!(!expired, "no deadline was set, nothing may expire");
        assert_eq!(answers, &expected[qi], "ticket {ticket} got wrong answers");
        // Probe accounting: within the shard count on every record, and
        // the two sides always partition the shards.
        assert!(
            *probed <= SHARDS,
            "ticket {ticket} probed {probed} of {SHARDS} shards"
        );
        assert_eq!(probed + skipped, SHARDS);
        // Every query is a subgraph of some dataset graph, so a sound
        // router must probe at least that graph's shard.
        assert!(*probed >= 1, "ticket {ticket} was routed to no shard");
    }
}

/// Per-query deadlines under load: expired queries are recorded (not
/// dropped) but never executed; live ones execute exactly.
#[test]
fn soak_per_query_deadlines_are_honored() {
    let (ds, queries) = setup(14, 6, 29);
    let config = MethodConfig::fast();
    let oracle = build_index(MethodKind::CtIndex, &config, &ds);
    let mut service = ShardedService::new(
        MethodKind::CtIndex,
        &config,
        &ds,
        ServiceOptions::new().shards(2),
    );
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(64));
    let past = Instant::now() - Duration::from_secs(1);
    let future = Instant::now() + Duration::from_secs(3600);
    let mut expected_expired = Vec::new();
    let mut expected_live = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let deadline = if i % 3 == 0 { Some(past) } else { Some(future) };
        let ticket = queue.submit(q.clone(), deadline).unwrap();
        if i % 3 == 0 {
            expected_expired.push(ticket);
        } else {
            expected_live.push((ticket, i));
        }
    }
    let report = service.drain(&queue, None);
    assert_eq!(report.records.len(), queries.len());
    assert_eq!(report.expired(), expected_expired.len());
    for record in &report.records {
        if expected_expired.contains(&record.ticket) {
            assert!(record.expired(), "ticket {} must expire", record.ticket);
            assert!(record.answers.is_empty());
            assert_eq!(record.candidate_count, 0);
        } else {
            let (_, qi) = expected_live
                .iter()
                .find(|(t, _)| *t == record.ticket)
                .expect("live ticket");
            assert!(!record.expired());
            assert_eq!(record.answers, oracle.query(&ds, &queries[*qi]).answers);
        }
    }
    // The report's ratios stay finite even with expiries in the mix.
    assert!(report.false_positive_ratio().is_finite());
    assert!(report.throughput_qps().is_finite());
}

/// Degenerate shapes terminate: empty drains, more shards than graphs,
/// and an entirely empty dataset.
#[test]
fn zero_query_and_empty_shard_edge_cases_do_not_hang() {
    // Empty drains on a partly-empty 5-shard service over 3 graphs.
    let (ds, queries) = setup(3, 2, 83);
    let config = MethodConfig::fast();
    let mut service = ShardedService::new(
        MethodKind::GIndex,
        &config,
        &ds,
        ServiceOptions::new().shards(5),
    );
    assert!(service.shard_sizes().contains(&0));
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
    for _ in 0..3 {
        let report = service.drain(&queue, None);
        assert!(report.records.is_empty());
        assert_eq!(report.executed(), 0);
        assert_eq!(report.false_positive_ratio(), 0.0);
        assert_eq!(report.throughput_qps(), 0.0);
    }
    // Queries still answer exactly over the ragged partition.
    let oracle = build_index(MethodKind::GIndex, &config, &ds);
    let refs: Vec<&Graph> = queries.iter().collect();
    let wave = service.run_wave(&refs, None);
    for (record, query) in wave.records.iter().zip(queries.iter()) {
        assert_eq!(record.answers, oracle.query(&ds, query).answers);
    }

    // An entirely empty dataset: every shard is empty, waves still finish.
    let empty = Dataset::new("empty");
    let mut empty_service = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &empty,
        ServiceOptions::new().shards(3),
    );
    let wave = empty_service.run_wave(&refs, None);
    assert_eq!(wave.executed(), refs.len());
    assert!(wave.records.iter().all(|r| r.answers.is_empty()));

    // A closed queue sheds load instead of hanging producers.
    queue.close();
    assert_eq!(
        queue.submit(queries[0].clone(), None),
        Err(SubmitError::Closed)
    );
    let report = service.drain(&queue, None);
    assert!(report.records.is_empty());
}
