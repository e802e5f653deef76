//! Figure 1: indexing and query processing over the four real-like datasets.
//!
//! Prints all four panels (indexing time, index size, query time, false
//! positive ratio) for AIDS/PDBS/PCM/PPI-like data and benchmarks index
//! construction per method on the AIDS-like dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::bench_scale;
use sqbench_generator::RealDataset;
use sqbench_harness::{experiments, report};
use sqbench_index::{build_index, MethodConfig, MethodKind};

fn bench_fig1(c: &mut Criterion) {
    let scale = bench_scale();

    // Regenerate the Figure 1 series.
    let figure = &experiments::run("fig1_real", &scale)[0];
    println!("{}", report::render_text(figure));

    // Criterion micro-benchmark: index construction per method over the
    // AIDS-like dataset (the regime every method can handle).
    let dataset = RealDataset::Aids.generate(scale.real_dataset_scale, scale.seed);
    let config = MethodConfig::default();
    let mut group = c.benchmark_group("fig1_index_build_aids_like");
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

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
