//! Ablation: the two design choices DESIGN.md singles out for Grapes.
//!
//! 1. **Location information** — Grapes and GraphGrepSX share the same path
//!    enumeration, the same count-based pruning rule and the same VF2
//!    verifier; the only difference is Grapes' per-path start-vertex lists,
//!    which are stored but read by no query. Benchmarking the two side by
//!    side isolates that choice: the space cost shows up in the printed
//!    index sizes, and the query benchmark times the same filter and
//!    verifier, Grapes' with its verification threads.
//! 2. **Parallel index construction** — Grapes' build with 1 worker thread
//!    vs. the paper's 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqbench_bench::{default_dataset, default_workloads};
use sqbench_index::ggsx::GgsxIndex;
use sqbench_index::grapes::GrapesIndex;
use sqbench_index::{GgsxConfig, GrapesConfig, GraphIndex};

fn bench_location_info(c: &mut Criterion) {
    let dataset = default_dataset();
    let workloads = default_workloads(&dataset);
    let queries: Vec<_> = workloads
        .iter()
        .flat_map(|w| w.queries.iter().cloned())
        .collect();

    let grapes = GrapesIndex::build(&dataset, GrapesConfig::default());
    let ggsx = GgsxIndex::build(&dataset, GgsxConfig::default());
    println!(
        "index size: Grapes {:.3} MB (location info) vs GGSX {:.3} MB (counts only)",
        grapes.stats().size_bytes as f64 / (1024.0 * 1024.0),
        ggsx.stats().size_bytes as f64 / (1024.0 * 1024.0)
    );

    let mut group = c.benchmark_group("ablation_location_info_query");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("grapes_with_locations", |b| {
        b.iter(|| {
            for q in &queries {
                criterion::black_box(grapes.query(&dataset, q));
            }
        })
    });
    group.bench_function("ggsx_counts_only", |b| {
        b.iter(|| {
            for q in &queries {
                criterion::black_box(ggsx.query(&dataset, q));
            }
        })
    });
    group.finish();

    let mut build_group = c.benchmark_group("ablation_grapes_parallel_build");
    build_group.sample_size(10);
    build_group.warm_up_time(std::time::Duration::from_secs(1));
    build_group.measurement_time(std::time::Duration::from_secs(2));
    for threads in [1usize, 2, 6] {
        build_group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    GrapesIndex::build(
                        &dataset,
                        GrapesConfig {
                            max_path_edges: 4,
                            threads,
                        },
                    )
                })
            },
        );
    }
    build_group.finish();
}

criterion_group!(benches, bench_location_info);
criterion_main!(benches);
