//! Figure 6: scalability with the number of graphs in the dataset.
//!
//! Prints the four panels of the dataset-size sweep and benchmarks index
//! construction at the largest sweep point for every method (the regime
//! where the paper's breaking points appear).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::bench_scale;
use sqbench_generator::{GraphGen, GraphGenConfig};
use sqbench_harness::{experiments, report};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn bench_fig6(c: &mut Criterion) {
    let scale = bench_scale();

    let figure = &experiments::run("fig6_numgraphs", &scale)[0];
    println!("{}", report::render_text(figure));

    let largest = figure.points.last().expect("sweep is non-empty").x_value as usize;
    let dataset = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(largest)
            .with_avg_nodes(scale.avg_nodes)
            .with_avg_density(scale.avg_density)
            .with_label_count(scale.label_count)
            .with_seed(scale.seed),
    )
    .generate();
    let config = MethodConfig::default();
    let mut group = c.benchmark_group("fig6_index_build_largest_dataset");
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

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
