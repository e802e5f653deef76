//! The catalogue rows: what each figure and ablation sweeps, as data.

use super::{options_for, DatasetSpec, Sweep, SweepPoint, FAMILIES};
use crate::runner::{ExperimentScale, RunOptions};
use crate::service::{RoutingMode, ShardStrategy};
use sqbench_generator::{GraphGenConfig, RealDataset};
use sqbench_index::{MethodConfig, MethodKind};

/// Every figure and ablation at the given scale, in paper order. Building
/// the catalogue generates nothing — rows only *describe* their datasets.
pub fn catalogue(scale: &ExperimentScale) -> Vec<Sweep> {
    let mut rows = vec![fig1_real(scale), fig2_nodes(scale), fig3_density(scale)];
    rows.extend(fig4_query_size(scale));
    rows.extend([fig5_labels(scale), fig6_numgraphs(scale)]);
    rows.extend(fig7_shards(scale));
    rows.push(fig8_routing(scale));
    rows.extend(ablations(scale));
    rows
}

/// The synthetic dataset shape at the scale's defaults — the "sane
/// defaults" every row holds fixed except for the parameter it sweeps.
pub(super) fn default_shape(scale: &ExperimentScale) -> GraphGenConfig {
    GraphGenConfig::default()
        .with_graph_count(scale.graph_count)
        .with_avg_nodes(scale.avg_nodes)
        .with_avg_density(scale.avg_density)
        .with_label_count(scale.label_count)
        .with_seed(scale.seed)
}

fn sweep(
    id: impl Into<String>,
    title: impl Into<String>,
    description: String,
    scale: &ExperimentScale,
    points: impl IntoIterator<Item = SweepPoint>,
) -> Sweep {
    Sweep {
        id: id.into(),
        title: title.into(),
        description,
        query_sizes: scale.query_sizes.clone(),
        points: points.into_iter().collect(),
    }
}

fn point(
    x_label: impl Into<String>,
    x_value: f64,
    dataset: DatasetSpec,
    options: RunOptions,
) -> SweepPoint {
    SweepPoint {
        x_label: x_label.into(),
        x_value,
        dataset,
        options,
    }
}

fn fig1_real(scale: &ExperimentScale) -> Sweep {
    sweep(
        "fig1_real",
        "Indexing and query processing over the real datasets (Figure 1)",
        format!(
            "AIDS/PDBS/PCM/PPI-like datasets at scale {}, query sizes {:?}, {} queries per size",
            scale.real_dataset_scale, scale.query_sizes, scale.queries_per_size
        ),
        scale,
        RealDataset::ALL.iter().enumerate().map(|(position, kind)| {
            point(
                kind.name(),
                position as f64,
                DatasetSpec::Real(*kind),
                options_for(scale),
            )
        }),
    )
}

/// The paper sweeps 50–2000 nodes; here half to twice the scale's default.
fn fig2_nodes(scale: &ExperimentScale) -> Sweep {
    let base = scale.avg_nodes.max(10);
    let axis = [base / 2, (3 * base) / 4, base, (3 * base) / 2, 2 * base];
    sweep(
        "fig2_nodes",
        "Scalability with the number of nodes per graph (Figure 2)",
        format!(
            "node sweep {:?}, density {}, {} labels, {} graphs",
            axis, scale.avg_density, scale.label_count, scale.graph_count
        ),
        scale,
        axis.map(|nodes| {
            point(
                nodes.to_string(),
                nodes as f64,
                DatasetSpec::Synthetic(default_shape(scale).with_avg_nodes(nodes)),
                options_for(scale),
            )
        }),
    )
}

/// The paper sweeps density 0.005–0.3; here a 20× range around the scale's
/// default, shared by Figures 3 and 4.
fn density_axis(scale: &ExperimentScale) -> [f64; 5] {
    let base = scale.avg_density.max(1e-4);
    [base / 5.0, base / 2.0, base, base * 2.0, base * 4.0]
}

fn density_points(scale: &ExperimentScale) -> impl Iterator<Item = SweepPoint> + '_ {
    density_axis(scale).into_iter().map(|density| {
        point(
            format!("{density:.4}"),
            density,
            DatasetSpec::Synthetic(default_shape(scale).with_avg_density(density)),
            options_for(scale),
        )
    })
}

fn fig3_density(scale: &ExperimentScale) -> Sweep {
    sweep(
        "fig3_density",
        "Scalability with graph density (Figure 3)",
        format!(
            "density sweep {:?}, {} nodes, {} labels, {} graphs",
            density_axis(scale),
            scale.avg_nodes,
            scale.label_count,
            scale.graph_count
        ),
        scale,
        density_points(scale),
    )
}

/// Figure 4 breaks the density sweep of Figure 3 out by query size: one row
/// per size in `scale.query_sizes`, each over the same datasets.
fn fig4_query_size(scale: &ExperimentScale) -> Vec<Sweep> {
    scale
        .query_sizes
        .iter()
        .map(|&query_size| Sweep {
            query_sizes: vec![query_size],
            ..sweep(
                format!("fig4_qsize{query_size}"),
                format!("Query processing vs. density for {query_size}-edge queries (Figure 4)"),
                format!(
                    "density sweep {:?}, {} nodes, {} labels, {} graphs, query size {}",
                    density_axis(scale),
                    scale.avg_nodes,
                    scale.label_count,
                    scale.graph_count,
                    query_size
                ),
                scale,
                density_points(scale),
            )
        })
        .collect()
}

/// The paper sweeps 10–80 labels; here half to four times the default.
fn fig5_labels(scale: &ExperimentScale) -> Sweep {
    let base = scale.label_count.max(2);
    let axis = [base / 2, base, base * 2, base * 4];
    sweep(
        "fig5_labels",
        "Sensitivity to the number of distinct labels (Figure 5)",
        format!(
            "label sweep {:?}, {} nodes, density {}, {} graphs",
            axis, scale.avg_nodes, scale.avg_density, scale.graph_count
        ),
        scale,
        axis.map(|labels| {
            point(
                labels.to_string(),
                labels as f64,
                DatasetSpec::Synthetic(default_shape(scale).with_label_count(labels)),
                options_for(scale),
            )
        }),
    )
}

/// The paper sweeps 1 000–500 000 graphs; here a quarter to twice the
/// default, every point a prefix of the largest dataset.
fn fig6_numgraphs(scale: &ExperimentScale) -> Sweep {
    let base = scale.graph_count.max(4);
    let axis = [base / 4, base / 2, base, base * 2];
    let largest = default_shape(scale).with_graph_count(base * 2);
    sweep(
        "fig6_numgraphs",
        "Scalability with the number of graphs in the dataset (Figure 6)",
        format!(
            "graph-count sweep {:?}, {} nodes, density {}, {} labels",
            axis, scale.avg_nodes, scale.avg_density, scale.label_count
        ),
        scale,
        axis.map(|count| {
            point(
                count.to_string(),
                count as f64,
                DatasetSpec::Prefix(largest.clone(), count),
                options_for(scale),
            )
        }),
    )
}

/// The given shard counts, capped so no point has more shards than graphs.
fn shard_axis(scale: &ExperimentScale, counts: &[usize]) -> Vec<usize> {
    let cap = scale.graph_count.max(1);
    counts.iter().copied().filter(|&n| n <= cap).collect()
}

/// One row per placement strategy, each from 1 shard (the unsharded
/// baseline) up over the same default dataset.
fn fig7_shards(scale: &ExperimentScale) -> Vec<Sweep> {
    let axis = shard_axis(scale, &[1, 2, 4, 8]);
    ShardStrategy::ALL
        .iter()
        .map(|&strategy| {
            sweep(
                format!("fig7_shards_{}", strategy.name().replace('-', "_")),
                "Scalability with the number of dataset shards (beyond the paper)",
                format!(
                    "shard-count sweep {:?} ({} placement), {} graphs, {} nodes, density {}, {} labels",
                    axis,
                    strategy.name(),
                    scale.graph_count,
                    scale.avg_nodes,
                    scale.avg_density,
                    scale.label_count
                ),
                scale,
                axis.iter().map(|&shards| {
                    let mut options = options_for(scale);
                    options.service = options.service.shards(shards).strategy(strategy);
                    point(
                        shards.to_string(),
                        shards as f64,
                        DatasetSpec::Synthetic(default_shape(scale)),
                        options,
                    )
                }),
            )
        })
        .collect()
}

/// Per shard count one fanned-out and one routed point over the same
/// label-clustered dataset. Starts at 2 — routing is a no-op on one shard.
fn fig8_routing(scale: &ExperimentScale) -> Sweep {
    let axis = shard_axis(scale, &[2, 4, 8]);
    sweep(
        "fig8_routing",
        "Selective shard routing vs. full fan-out (beyond the paper)",
        format!(
            "shard sweep {:?} × {{fanout, routed}} over a label-clustered dataset \
             ({} families, {} graphs, {} nodes, density {}, {} labels per family)",
            axis,
            FAMILIES,
            scale.graph_count,
            scale.avg_nodes,
            scale.avg_density,
            scale.label_count
        ),
        scale,
        axis.iter().flat_map(|&shards| {
            [RoutingMode::Fanout, RoutingMode::Synopsis].map(|routing| {
                let mut options = options_for(scale);
                options.service = options.service.shards(shards).routing(routing);
                point(
                    format!("{}@{shards}", routing.name()),
                    shards as f64,
                    DatasetSpec::Clustered(default_shape(scale)),
                    options,
                )
            })
        }),
    )
}

/// The five ablations: each sweeps one method parameter for the methods it
/// concerns, over the default dataset.
fn ablations(scale: &ExperimentScale) -> [Sweep; 5] {
    use MethodKind::{CtIndex, GIndex, Ggsx, Grapes, Scan, TreeDelta};
    let row = |id: &str,
               title: &str,
               description: String,
               methods: &[MethodKind],
               axis: &[usize],
               label: fn(usize) -> String,
               set: fn(&mut MethodConfig, usize)| {
        sweep(
            id,
            title,
            description,
            scale,
            axis.iter().map(|&x| {
                let mut options = options_for(scale).with_methods(methods);
                set(&mut options.config, x);
                point(
                    label(x),
                    x as f64,
                    DatasetSpec::Synthetic(default_shape(scale)),
                    options,
                )
            }),
        )
    };
    [
        row(
            "ablation_location_info",
            "Effect of storing path location information (Grapes vs GGSX vs Scan)",
            format!(
                "{} graphs, {} nodes, density {}, {} labels",
                scale.graph_count, scale.avg_nodes, scale.avg_density, scale.label_count
            ),
            &[Grapes, Ggsx, Scan],
            &[0],
            |_| "sane-defaults".to_string(),
            |_, _| {},
        ),
        row(
            "ablation_path_length",
            "Effect of the maximum indexed path length (Grapes, GGSX)",
            "path length swept over {2, 3, 4, 5}; all other parameters at paper defaults".into(),
            &[Grapes, Ggsx],
            &[2, 3, 4, 5],
            |edges| format!("len={edges}"),
            |config, edges| {
                config.grapes.max_path_edges = edges;
                config.ggsx.max_path_edges = edges;
            },
        ),
        row(
            "ablation_fingerprint_width",
            "Effect of the CT-Index fingerprint width",
            "width swept over {256, 1024, 4096} bits".into(),
            &[CtIndex],
            &[256, 1024, 4096],
            |bits| format!("{bits}bit"),
            |config, bits| config.ctindex.fingerprint_bits = bits,
        ),
        row(
            "ablation_feature_size",
            "Effect of the maximum mined feature size (gIndex, Tree+Delta)",
            "maximum fragment size swept over {1, 2, 3} edges".into(),
            &[GIndex, TreeDelta],
            &[1, 2, 3],
            |edges| format!("{edges}edges"),
            |config, edges| {
                config.gindex.max_feature_edges = edges;
                config.treedelta.max_feature_edges = edges;
            },
        ),
        // Index construction is what the threads change; queries are
        // measured as well for completeness.
        row(
            "ablation_grapes_threads",
            "Effect of Grapes' parallel index construction",
            "worker threads swept over {1, 2, 4, 6}".into(),
            &[Grapes],
            &[1, 2, 4, 6],
            |threads| format!("{threads}thr"),
            |config, threads| config.grapes.threads = threads,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(report id, x labels)` of every row at smoke scale, recorded from the
    /// per-figure routines this catalogue replaced.
    const SMOKE_PIN: &[(&str, &[&str])] = &[
        ("fig1_real", &["AIDS", "PDBS", "PCM", "PPI"]),
        ("fig2_nodes", &["6", "9", "12", "18", "24"]),
        (
            "fig3_density",
            &["0.0300", "0.0750", "0.1500", "0.3000", "0.6000"],
        ),
        (
            "fig4_qsize4",
            &["0.0300", "0.0750", "0.1500", "0.3000", "0.6000"],
        ),
        (
            "fig4_qsize8",
            &["0.0300", "0.0750", "0.1500", "0.3000", "0.6000"],
        ),
        ("fig5_labels", &["2", "5", "10", "20"]),
        ("fig6_numgraphs", &["4", "8", "16", "32"]),
        ("fig7_shards_round_robin", &["1", "2", "4", "8"]),
        ("fig7_shards_size_balanced", &["1", "2", "4", "8"]),
        ("fig7_shards_label_aware", &["1", "2", "4", "8"]),
        (
            "fig8_routing",
            &[
                "fanout@2", "routed@2", "fanout@4", "routed@4", "fanout@8", "routed@8",
            ],
        ),
        ("ablation_location_info", &["sane-defaults"]),
        (
            "ablation_path_length",
            &["len=2", "len=3", "len=4", "len=5"],
        ),
        (
            "ablation_fingerprint_width",
            &["256bit", "1024bit", "4096bit"],
        ),
        ("ablation_feature_size", &["1edges", "2edges", "3edges"]),
        ("ablation_grapes_threads", &["1thr", "2thr", "4thr", "6thr"]),
    ];

    #[test]
    fn smoke_catalogue_has_the_pinned_ids_and_x_labels() {
        let rows = catalogue(&ExperimentScale::smoke());
        let got: Vec<(&str, Vec<&str>)> = rows
            .iter()
            .map(|row| {
                let labels = row.points.iter().map(|p| p.x_label.as_str()).collect();
                (row.id.as_str(), labels)
            })
            .collect();
        let want: Vec<(&str, Vec<&str>)> = SMOKE_PIN
            .iter()
            .map(|(id, labels)| (*id, labels.to_vec()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn every_point_starts_from_the_scales_options() {
        for scale in [
            ExperimentScale::smoke(),
            ExperimentScale::laptop(),
            ExperimentScale::paper(),
        ] {
            for row in catalogue(&scale) {
                for p in &row.points {
                    assert_eq!(p.options.service.workers, scale.query_threads, "{}", row.id);
                    assert_eq!(p.options.time_budget, scale.time_budget, "{}", row.id);
                    // The figures compare all six methods; only the
                    // ablations narrow the set.
                    if row.id.starts_with("fig") {
                        assert_eq!(p.options.methods, MethodKind::ALL, "{}", row.id);
                    }
                }
            }
        }
    }

    #[test]
    fn every_axis_ascends_and_is_anchored_at_the_scales_default() {
        for scale in [ExperimentScale::smoke(), ExperimentScale::paper()] {
            let rows = catalogue(&scale);
            for row in &rows {
                let xs: Vec<f64> = row.points.iter().map(|p| p.x_value).collect();
                // fig8 plots two points (fanout, routed) per shard count.
                let ascending = xs
                    .windows(2)
                    .all(|w| w[0] < w[1] || (row.id == "fig8_routing" && w[0] == w[1]));
                assert!(ascending, "{}: x values {xs:?}", row.id);
            }
            let anchored = |id: &str, default: f64| {
                let row = rows.iter().find(|row| row.id == id).unwrap();
                row.points.iter().any(|p| p.x_value == default)
            };
            assert!(anchored("fig2_nodes", scale.avg_nodes as f64));
            assert!(anchored("fig3_density", scale.avg_density));
            assert!(anchored("fig5_labels", scale.label_count as f64));
            assert!(anchored("fig6_numgraphs", scale.graph_count as f64));
        }
    }

    #[test]
    fn shard_sweeps_never_ask_for_more_shards_than_graphs() {
        let scale = ExperimentScale {
            graph_count: 3,
            ..ExperimentScale::smoke()
        };
        assert_eq!(shard_axis(&scale, &[1, 2, 4, 8]), [1, 2]);
        for row in catalogue(&scale) {
            for p in &row.points {
                assert!(p.options.service.shards <= 3, "{}", row.id);
            }
        }
    }
}
