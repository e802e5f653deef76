//! Figure 2: scalability with the number of nodes per graph.
//!
//! Prints the four panels of the node-count sweep and benchmarks query
//! processing per method on the sweep's default ("sane defaults") point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::{bench_scale, default_dataset, default_workloads};
use sqbench_harness::{experiments, report};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn bench_fig2(c: &mut Criterion) {
    let scale = bench_scale();

    // Regenerate the Figure 2 series.
    let figure = &experiments::run("fig2_nodes", &scale)[0];
    println!("{}", report::render_text(figure));

    // Criterion micro-benchmark: query processing per method at the default
    // point (the candidate-set/verification cost the paper's panel (c) plots).
    let dataset = default_dataset();
    let workloads = default_workloads(&dataset);
    let queries: Vec<_> = workloads
        .iter()
        .flat_map(|w| w.queries.iter().cloned())
        .collect();
    let config = MethodConfig::default();
    let mut group = c.benchmark_group("fig2_query_processing");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in MethodKind::ALL {
        let index = build_index(kind, &config, &dataset);
        group.bench_with_input(BenchmarkId::new("query", kind.name()), &kind, |b, _| {
            b.iter(|| {
                for q in &queries {
                    criterion::black_box(index.query(&dataset, q));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
