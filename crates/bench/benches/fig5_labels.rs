//! Figure 5: sensitivity to the number of distinct labels.
//!
//! Prints the four panels of the label sweep and benchmarks index
//! construction for the frequent-mining methods at the low- and high-label
//! extremes (the regime where the paper observes their opposite behaviour).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::bench_scale;
use sqbench_generator::{GraphGen, GraphGenConfig};
use sqbench_harness::{experiments, report};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn bench_fig5(c: &mut Criterion) {
    let scale = bench_scale();

    let figure = &experiments::run("fig5_labels", &scale)[0];
    println!("{}", report::render_text(figure));

    let config = MethodConfig::default();
    let mut group = c.benchmark_group("fig5_label_alphabet_extremes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let extremes = [
        figure.points.first().unwrap(),
        figure.points.last().unwrap(),
    ];
    for labels in extremes.map(|point| point.x_value as u32) {
        let dataset = GraphGen::new(
            GraphGenConfig::default()
                .with_graph_count(scale.graph_count)
                .with_avg_nodes(scale.avg_nodes)
                .with_avg_density(scale.avg_density)
                .with_label_count(labels)
                .with_seed(scale.seed),
        )
        .generate();
        for kind in [MethodKind::GIndex, MethodKind::TreeDelta, MethodKind::Ggsx] {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), format!("labels{labels}")),
                &kind,
                |b, &kind| b.iter(|| build_index(kind, &config, &dataset)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
