//! Figure 4: query processing time vs. density, per query size.
//!
//! Prints one report per query size (the paper's panels (a)–(d)) and
//! benchmarks query processing per query size for the two path-based
//! methods, which the paper finds largely insensitive to query size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::{bench_scale, default_dataset};
use sqbench_generator::QueryGen;
use sqbench_harness::{experiments, report};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn bench_fig4(c: &mut Criterion) {
    let scale = bench_scale();

    for figure in experiments::run("fig4", &scale) {
        println!("{}", report::render_text(&figure));
    }

    let dataset = default_dataset();
    let config = MethodConfig::default();
    let mut group = c.benchmark_group("fig4_query_size_sensitivity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in [MethodKind::Grapes, MethodKind::Ggsx] {
        let index = build_index(kind, &config, &dataset);
        for size in [4usize, 8, 16, 32] {
            let workload = QueryGen::new(scale.seed).generate(&dataset, 5, size);
            group.bench_with_input(
                BenchmarkId::new(kind.name(), size),
                &workload,
                |b, workload| {
                    b.iter(|| {
                        for (q, _) in workload.iter() {
                            criterion::black_box(index.query(&dataset, q));
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
