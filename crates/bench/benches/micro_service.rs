//! Throughput micro-benchmark of the batch query service over a 10k-graph
//! synthetic dataset.
//!
//! Three execution modes serve the same workload against the same GGSX
//! index:
//!
//! * `oneshot`  — the pre-service loop: one `index.query()` per query,
//!   fresh candidate allocations each time;
//! * `workers1` — the service's single-worker pool (one reused candidate
//!   set, no per-query candidate `Vec`);
//! * `workers4` — the 4-worker claim-to-completion pool (each worker claims
//!   the next query from one atomic cursor and filters and verifies it
//!   before claiming again).
//!
//! Before timing, the bench asserts all three modes return identical
//! per-query results. The speedup summary printed at the end (and recorded
//! in `BENCH_micro_service.json`) is what the CI bench-regression job
//! compares run over run; the 4-worker row only shows its ≥1.5× gain on a
//! machine with cores to spare — on a single-core runner it degrades
//! gracefully to roughly the single-worker rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph};
use sqbench_harness::service::{QueryService, ServiceOptions};
use sqbench_index::{build_index, GraphIndex, MethodConfig, MethodKind};

const UNIVERSE: usize = 10_000;
const BATCH: usize = 24;

fn service_dataset() -> Dataset {
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

fn service_queries(dataset: &Dataset) -> Vec<Graph> {
    QueryGen::new(0x5e7_1ce)
        .generate(dataset, BATCH, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect()
}

/// The pre-service execution: one one-shot query at a time.
fn run_oneshot(index: &dyn GraphIndex, dataset: &Dataset, queries: &[&Graph]) -> Vec<usize> {
    queries
        .iter()
        .map(|q| index.query(dataset, q).answers.len())
        .collect()
}

/// One service batch; returns per-query answer counts.
fn run_service(service: &mut QueryService<'_>, queries: &[&Graph]) -> Vec<usize> {
    service
        .run_batch(queries, None)
        .records
        .iter()
        .map(|r| r.as_ref().expect("no deadline set").answer_count())
        .collect()
}

fn bench_service(c: &mut Criterion) {
    let dataset = service_dataset();
    let index = build_index(MethodKind::Ggsx, &MethodConfig::default(), &dataset);
    let queries = service_queries(&dataset);
    let refs: Vec<&Graph> = queries.iter().collect();

    // Correctness gate before any timing: all three modes must return the
    // same per-query match counts ("matches the serial runner exactly").
    let oneshot_counts = run_oneshot(&*index, &dataset, &refs);
    let mut serial_service = QueryService::new(&*index, &dataset, ServiceOptions::new().workers(1));
    let mut pooled_service = QueryService::new(&*index, &dataset, ServiceOptions::new().workers(4));
    assert_eq!(oneshot_counts, run_service(&mut serial_service, &refs));
    assert_eq!(oneshot_counts, run_service(&mut pooled_service, &refs));

    let mut group = c.benchmark_group("micro_service_batch");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_with_input(BenchmarkId::new("oneshot", UNIVERSE), &refs, |b, refs| {
        b.iter(|| run_oneshot(&*index, &dataset, refs))
    });
    group.bench_with_input(BenchmarkId::new("workers1", UNIVERSE), &refs, |b, refs| {
        b.iter(|| run_service(&mut serial_service, refs))
    });
    group.bench_with_input(BenchmarkId::new("workers4", UNIVERSE), &refs, |b, refs| {
        b.iter(|| run_service(&mut pooled_service, refs))
    });
    group.finish();

    // Throughput summary straight from the recorded medians: queries/sec
    // per mode plus the speedups the acceptance criteria track.
    let results = c.results();
    let median = |name: &str| {
        results
            .iter()
            .find(|r| r.id == format!("micro_service_batch/{name}/{UNIVERSE}"))
            .map(|r| r.median_ns)
    };
    if let (Some(oneshot), Some(w1), Some(w4)) =
        (median("oneshot"), median("workers1"), median("workers4"))
    {
        let qps = |ns: f64| BATCH as f64 / (ns / 1e9);
        println!(
            "service throughput @ {UNIVERSE} graphs / {BATCH}-query batch: \
             oneshot {:.1} q/s, workers1 {:.1} q/s, workers4 {:.1} q/s \
             (workers4 vs oneshot {:.2}x, vs workers1 {:.2}x; cores: {})",
            qps(oneshot),
            qps(w1),
            qps(w4),
            oneshot / w4,
            w1 / w4,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        );
    }
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
