//! Throughput micro-benchmark of the sharded query service over a
//! 10k-graph synthetic dataset.
//!
//! Four execution modes serve the same 24-query workload:
//!
//! * `unsharded`    — the single-index batch service (1 worker), the PR 2
//!   baseline;
//! * `shards4_rr`   — 4 shards, round-robin placement, each shard a
//!   1-worker pool, waves fanned out to all shards concurrently;
//! * `shards4_lpt`  — 4 shards, size-balanced (LPT) placement;
//! * `admission4`   — the open path: 24 queries submitted to the bounded
//!   admission queue, then drained through the 4-shard service (measures
//!   the submit + drain overhead on top of the wave itself).
//!
//! Before timing, the bench asserts every mode returns the oneshot
//! `index.query()` answers — sharding must be invisible in match sets. On
//! a single-core container all modes land within noise of each other
//! (shard pools cannot overlap); the ≥1.5× shard-parallel gain only shows
//! on multi-core runners. The committed `BENCH_micro_sharded.json`
//! baseline records this machine's numbers for the CI regression gate.
//!
//! A second group, `ingest_remove`, A/Bs what one online remove costs the
//! routing tier, both arms in this process over the same AIDS-like shard
//! at 80 and 700 live graphs:
//!
//! * `retract` — what `ShardedService::remove_graph` does: the victim's
//!   `GraphSynopsis::of` + `Router::retract`, timed with the `Router`
//!   clone that keeps the iterations independent;
//! * `clone`   — that `Router` clone alone, so the bench can subtract it;
//! * `rescan`  — what it did before the tier could subtract:
//!   `ShardSynopsis::of` over the shard with the victim tombstoned — the
//!   oracle the equality property tests `retract` against.
//!
//! The number to read is the in-run ratio the bench prints, rescan over
//! retract − clone, not any median: the clone dominates `retract` and grows
//! with the router, while a retract itself grows far slower than the
//! linear `rescan`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphSynopsis, ShardSynopsis};
use sqbench_harness::service::{
    AdmissionQueue, QueryService, Router, ServiceOptions, ShardStrategy, ShardedService,
};
use sqbench_index::{build_index, MethodConfig, MethodKind};

const UNIVERSE: usize = 10_000;
const BATCH: usize = 24;
const SHARDS: usize = 4;

fn sharded_dataset() -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(UNIVERSE)
            .with_avg_nodes(10)
            .with_avg_density(0.2)
            .with_label_count(6)
            .with_seed(20150831),
    )
    .generate()
}

fn sharded_queries(dataset: &Dataset) -> Vec<Graph> {
    QueryGen::new(0x005e_aded)
        .generate(dataset, BATCH, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect()
}

/// One closed wave through a sharded service; per-query answer counts.
fn run_wave(service: &mut ShardedService, queries: &[&Graph]) -> Vec<usize> {
    service
        .run_wave(queries, None)
        .records
        .iter()
        .map(|r| r.answer_count())
        .collect()
}

/// The open path: submit the whole workload, then drain it as one wave.
fn run_admission(service: &mut ShardedService, queries: &[Graph]) -> Vec<usize> {
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(queries.len()));
    for q in queries {
        queue
            .submit(q.clone(), None)
            .expect("queue sized for the workload");
    }
    service
        .drain(&queue, None)
        .records
        .iter()
        .map(|r| r.answer_count())
        .collect()
}

fn bench_sharded(c: &mut Criterion) {
    let dataset = sharded_dataset();
    let config = MethodConfig::default();
    let queries = sharded_queries(&dataset);
    let refs: Vec<&Graph> = queries.iter().collect();

    let index = build_index(MethodKind::Ggsx, &config, &dataset);
    let mut unsharded = QueryService::new(&*index, &dataset, ServiceOptions::new().workers(1));
    let mut rr = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &dataset,
        ServiceOptions::new().shards(SHARDS),
    );
    let mut lpt = ShardedService::new(
        MethodKind::Ggsx,
        &config,
        &dataset,
        ServiceOptions::new()
            .shards(SHARDS)
            .strategy(ShardStrategy::SizeBalanced),
    );

    // Correctness gate before any timing: sharding must be invisible in
    // the match sets — every mode equals the oneshot per-query answers.
    let oneshot: Vec<usize> = refs
        .iter()
        .map(|q| index.query(&dataset, q).answers.len())
        .collect();
    let unsharded_counts: Vec<usize> = unsharded
        .run_batch(&refs, None)
        .records
        .iter()
        .map(|r| r.as_ref().expect("no deadline").answer_count())
        .collect();
    assert_eq!(oneshot, unsharded_counts);
    assert_eq!(oneshot, run_wave(&mut rr, &refs));
    assert_eq!(oneshot, run_wave(&mut lpt, &refs));
    assert_eq!(oneshot, run_admission(&mut rr, &queries));

    let mut group = c.benchmark_group("micro_sharded_wave");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_with_input(BenchmarkId::new("unsharded", UNIVERSE), &refs, |b, refs| {
        b.iter(|| {
            unsharded
                .run_batch(refs, None)
                .records
                .iter()
                .flatten()
                .map(|r| r.answer_count())
                .sum::<usize>()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("shards4_rr", UNIVERSE),
        &refs,
        |b, refs| b.iter(|| run_wave(&mut rr, refs)),
    );
    group.bench_with_input(
        BenchmarkId::new("shards4_lpt", UNIVERSE),
        &refs,
        |b, refs| b.iter(|| run_wave(&mut lpt, refs)),
    );
    group.bench_with_input(
        BenchmarkId::new("admission4", UNIVERSE),
        &queries,
        |b, queries| b.iter(|| run_admission(&mut rr, queries)),
    );
    group.finish();

    // Throughput summary straight from the recorded medians.
    let results = c.results();
    let median = |name: &str| {
        results
            .iter()
            .find(|r| r.id == format!("micro_sharded_wave/{name}/{UNIVERSE}"))
            .map(|r| r.median_ns)
    };
    if let (Some(base), Some(rr_ns), Some(lpt_ns), Some(adm)) = (
        median("unsharded"),
        median("shards4_rr"),
        median("shards4_lpt"),
        median("admission4"),
    ) {
        let qps = |ns: f64| BATCH as f64 / (ns / 1e9);
        println!(
            "sharded throughput @ {UNIVERSE} graphs / {BATCH}-query wave: \
             unsharded {:.1} q/s, shards4_rr {:.1} q/s, shards4_lpt {:.1} q/s, \
             admission4 {:.1} q/s (rr vs unsharded {:.2}x; admission overhead {:.2}x; cores: {})",
            qps(base),
            qps(rr_ns),
            qps(lpt_ns),
            qps(adm),
            base / rr_ns,
            adm / rr_ns,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );
    }
}

/// Live graphs per shard the remove A/B runs at: `zipf_churn`'s shard and
/// `sparse_screen`'s whole dataset.
const REMOVE_SHARD_SIZES: [usize; 2] = [80, 700];

fn bench_ingest_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_remove");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for graphs in REMOVE_SHARD_SIZES {
        let aids = RealDataset::Aids.spec().graph_count as f64;
        let shard = RealDataset::Aids.generate_with(graphs as f64 / aids, 1.0, 20150831);
        assert_eq!(shard.len(), graphs);
        let router = Router::build([&shard]);
        let mut tombstoned = shard.clone();
        assert!(tombstoned.remove(graphs / 2));

        // Correctness gate before any timing: both arms leave the same
        // routing state.
        let victim = shard.graph_unchecked(graphs / 2);
        let mut retracted = router.clone();
        retracted.retract(0, &GraphSynopsis::of(victim));
        assert_eq!(retracted.synopsis(0), &ShardSynopsis::of(&tombstoned));

        // Every member takes its turn as the victim, so the arm reads the
        // shard's average graph rather than one molecule's size.
        let mut turn = 0usize;
        group.bench_with_input(BenchmarkId::new("retract", graphs), &router, |b, router| {
            b.iter(|| {
                let victim = shard.graph_unchecked(turn % graphs);
                turn += 1;
                let mut router = router.clone();
                router.retract(0, &GraphSynopsis::of(victim));
                router
            })
        });
        group.bench_with_input(BenchmarkId::new("clone", graphs), &router, |b, router| {
            b.iter(|| router.clone())
        });
        group.bench_with_input(
            BenchmarkId::new("rescan", graphs),
            &tombstoned,
            |b, shard| b.iter(|| ShardSynopsis::of(shard)),
        );
    }
    group.finish();

    let results = c.results();
    let median = |arm: &str, graphs: usize| {
        results
            .iter()
            .find(|r| r.id == format!("ingest_remove/{arm}/{graphs}"))
            .map(|r| r.median_ns)
    };
    for graphs in REMOVE_SHARD_SIZES {
        if let (Some(retract), Some(clone), Some(rescan)) = (
            median("retract", graphs),
            median("clone", graphs),
            median("rescan", graphs),
        ) {
            // The retract arm pays the clone too; what a remove costs the
            // tier is the difference.
            let net = retract - clone;
            let ratio = if net > 0.0 {
                format!("{:.0}x", rescan / net)
            } else {
                "n/a: retract within the clone's noise".to_string()
            };
            println!(
                "routing-tier cost of one remove @ {graphs} live graphs/shard: \
                 retract {:.1} us (clone {:.1} us, net {:.1} us), rescan {:.1} us \
                 (rescan / (retract - clone) {ratio})",
                retract / 1e3,
                clone / 1e3,
                net / 1e3,
                rescan / 1e3,
            );
        }
    }
}

criterion_group!(benches, bench_sharded, bench_ingest_remove);
criterion_main!(benches);
