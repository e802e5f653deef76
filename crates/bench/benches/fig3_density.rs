//! Figure 3: scalability with graph density.
//!
//! Prints the four panels of the density sweep and benchmarks index
//! construction per method at the densest sweep point (where the paper's
//! separation between exhaustive and mining methods is widest).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::bench_scale;
use sqbench_generator::{GraphGen, GraphGenConfig};
use sqbench_harness::{experiments, report};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn bench_fig3(c: &mut Criterion) {
    let scale = bench_scale();

    let figure = &experiments::run("fig3_density", &scale)[0];
    println!("{}", report::render_text(figure));

    // Densest point of the sweep.
    let densest = figure.points.last().expect("sweep is non-empty").x_value;
    let dataset = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(scale.graph_count)
            .with_avg_nodes(scale.avg_nodes)
            .with_avg_density(densest)
            .with_label_count(scale.label_count)
            .with_seed(scale.seed),
    )
    .generate();
    let config = MethodConfig::default();
    let mut group = c.benchmark_group("fig3_index_build_densest_point");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for kind in MethodKind::ALL {
        group.bench_with_input(BenchmarkId::new("build", kind.name()), &kind, |b, &kind| {
            b.iter(|| build_index(kind, &config, &dataset))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
