//! Smoke-scale run of the whole experiment catalogue — every sweep exactly
//! once, shared by all tests below — checking each report's structure
//! against its catalogue row and, by row id, the paper-level trends that
//! are stable even at tiny scale.

use sqbench_harness::{experiments, report, ExperimentReport, ExperimentScale};
use std::sync::OnceLock;

fn scale() -> ExperimentScale {
    ExperimentScale::smoke()
}

/// Every catalogue row's report at smoke scale, in catalogue order.
fn reports() -> &'static [ExperimentReport] {
    static REPORTS: OnceLock<Vec<ExperimentReport>> = OnceLock::new();
    REPORTS.get_or_init(|| experiments::run("", &scale()))
}

fn report(id: &str) -> &'static ExperimentReport {
    reports()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no catalogue row {id}"))
}

/// One metric of one method at every point of a report, in x order.
fn series<T>(
    r: &ExperimentReport,
    method: &str,
    metric: fn(&sqbench_harness::MethodMetrics) -> T,
) -> Vec<T> {
    (0..r.points.len())
        .map(|i| metric(r.metrics_at(i, method).unwrap()))
        .collect()
}

#[test]
fn table1_reproduces_dataset_regimes() {
    let t1 = experiments::table1::run(&scale());
    assert_eq!(t1.rows.len(), 4);
    let text = t1.render_text();
    assert!(text.contains("AIDS") && text.contains("PPI"));
    // Regime check: AIDS-like has (scaled) the most graphs, PPI-like the
    // largest graphs.
    let aids = t1.rows.iter().find(|r| r.dataset == "AIDS").unwrap();
    let ppi = t1.rows.iter().find(|r| r.dataset == "PPI").unwrap();
    assert!(aids.measured.graph_count > ppi.measured.graph_count);
    assert!(ppi.measured.avg_nodes > aids.measured.avg_nodes);
}

#[test]
fn every_catalogue_row_produces_the_report_it_describes() {
    let scale = scale();
    let rows = experiments::catalogue(&scale);
    assert_eq!(rows.len(), reports().len());
    for (row, r) in rows.iter().zip(reports()) {
        assert_eq!(r.id, row.id);
        assert_eq!(r.points.len(), row.points.len(), "{}", r.id);
        for (planned, point) in row.points.iter().zip(&r.points) {
            assert_eq!(point.x_label, planned.x_label, "{}", r.id);
            assert_eq!(point.x_value, planned.x_value, "{}", r.id);
            // All six methods, or the row's declared subset, in order.
            let ran: Vec<&str> = point.results.iter().map(|m| m.method.as_str()).collect();
            let declared: Vec<&str> = planned.options.methods.iter().map(|k| k.name()).collect();
            assert_eq!(ran, declared, "{} at {}", r.id, point.x_label);
            for m in &point.results {
                let at = format!("{} {} at {}", r.id, m.method, point.x_label);
                assert!(!m.timed_out, "{at} timed out");
                assert!((0.0..=1.0).contains(&m.false_positive_ratio), "{at}");
                assert_eq!(
                    m.queries_executed,
                    row.query_sizes.len() * scale.queries_per_size,
                    "{at}"
                );
                assert_eq!(m.shards, planned.options.service.shards, "{at}");
            }
        }
    }
}

#[test]
fn reports_render_as_text_panels_and_csv() {
    let r = report("fig1_real");
    let text = report::render_text(r);
    assert!(text.contains("fig1_real") && text.contains("AIDS"));
    assert!(text.contains("False positive ratio"));
    let csv = report::render_csv(r);
    assert_eq!(csv.trim().lines().count(), 1 + 4 * 6);
}

#[test]
fn an_id_prefix_selects_its_rows() {
    // Checked on the cheapest row; `reports()` above is the empty prefix.
    let picked = experiments::run("ablation_location", &scale());
    assert_eq!(picked.len(), 1);
    assert_eq!(picked[0].id, "ablation_location_info");
}

#[test]
fn fig2_nodes_index_sizes_grow_with_graph_size() {
    // The paper's core observation for panel (b): the path-trie indexes
    // (Grapes, GGSX) grow with the size of the graphs, and CT-Index's
    // fixed-width fingerprints stay flat. Compare the first and last sweep
    // points.
    let r = report("fig2_nodes");
    for method in ["Grapes", "GGSX"] {
        let sizes = series(r, method, |m| m.index_size_bytes);
        assert!(sizes.last() > sizes.first(), "{method}: {sizes:?}");
    }
    // CT-Index stores one fixed-size fingerprint per graph: identical totals.
    let sizes = series(r, "CT-Index", |m| m.index_size_bytes);
    assert_eq!(sizes.last(), sizes.first());
}

#[test]
fn fig5_labels_more_labels_never_hurt_path_filtering() {
    // Panel (d) trend: with more distinct labels the false positive ratio of
    // the path-based methods does not get worse (compare the extremes).
    let r = report("fig5_labels");
    for method in ["Grapes", "GGSX"] {
        let fps = series(r, method, |m| m.false_positive_ratio);
        let (first, last) = (fps[0], fps[fps.len() - 1]);
        assert!(
            last <= first + 0.15,
            "{method}: fp ratio grew from {first} to {last} with more labels"
        );
    }
}

#[test]
fn fig6_numgraphs_index_size_scales_roughly_linearly() {
    // Index size grows monotonically with the number of graphs (panel (b)).
    let r = report("fig6_numgraphs");
    for method in ["GGSX", "CT-Index"] {
        let sizes = series(r, method, |m| m.index_size_bytes);
        assert!(
            sizes.windows(2).all(|w| w[0] <= w[1]),
            "{method} index size not monotone: {sizes:?}"
        );
    }
}

#[test]
fn fig7_shards_reports_shard_columns_and_loses_no_query() {
    for strategy in ["round_robin", "size_balanced", "label_aware"] {
        let r = report(&format!("fig7_shards_{strategy}"));
        for point in &r.points {
            for m in &point.results {
                assert_eq!(m.shards, point.x_value as usize);
                if m.shards > 1 {
                    assert_eq!(m.shard_stages.len(), m.shards);
                }
                assert!(m.shard_balance() >= 0.0 && m.shard_balance() <= 1.0);
            }
        }
    }
}

#[test]
fn fig7_label_aware_partition_overhead_is_pointer_sized() {
    for point in &report("fig7_shards_label_aware").points {
        for m in &point.results {
            if m.shards > 1 {
                // Zero-copy partition: the overhead column carries the Arc
                // spines, roughly one pointer per graph per shard layout —
                // never a second copy of the dataset.
                assert!(m.partition_overhead_bytes > 0);
                assert!(
                    m.partition_overhead_bytes
                        <= scale().graph_count * 2 * std::mem::size_of::<usize>(),
                    "{}: overhead {} is not pointer-sized",
                    m.method,
                    m.partition_overhead_bytes
                );
            } else {
                assert_eq!(m.partition_overhead_bytes, 0);
            }
        }
    }
}

#[test]
fn fig8_routed_points_probe_strictly_fewer_shards_than_fanout() {
    for pair in report("fig8_routing").points.chunks(2) {
        let (fanout, routed) = (&pair[0], &pair[1]);
        assert!(fanout.x_label.starts_with("fanout@"));
        assert!(routed.x_label.starts_with("routed@"));
        let shards = fanout.x_value as u64;
        for (f, r) in fanout.results.iter().zip(routed.results.iter()) {
            assert_eq!(f.method, r.method);
            // Routing must not lose queries (answer equality is enforced
            // bit-for-bit by the routing proptest).
            assert_eq!(f.queries_executed, r.queries_executed);
            // Fanout probes everything; routing accounts every probe and,
            // on this label-clustered dataset, skips shards.
            assert_eq!(f.shards_probed, shards * f.queries_executed as u64);
            assert_eq!(f.shards_skipped, 0);
            assert_eq!(
                r.shards_probed + r.shards_skipped,
                shards * r.queries_executed as u64
            );
            assert!(
                r.shards_probed < f.shards_probed,
                "{} routed {} probes, fanout {} — no savings at {} shards",
                r.method,
                r.shards_probed,
                f.shards_probed,
                shards
            );
            assert!(r.shard_balance() >= 0.0 && r.shard_balance() <= 1.0);
        }
    }
}

#[test]
fn ablation_location_info_costs_space_and_scan_filters_nothing() {
    let r = report("ablation_location_info");
    assert_eq!(r.method_names(), vec!["Grapes", "GGSX", "Scan"]);
    let by = |name: &str| r.metrics_at(0, name).unwrap();
    // Location info costs space.
    assert!(by("Grapes").index_size_bytes >= by("GGSX").index_size_bytes);
    // The scan has no filtering, so its FP ratio is at least as high as
    // either indexed method's.
    assert!(by("Scan").false_positive_ratio >= by("Grapes").false_positive_ratio - 1e-9);
    assert!(by("Scan").index_size_bytes < by("GGSX").index_size_bytes);
}

#[test]
fn ablation_path_length_grows_the_index() {
    // Longer paths → more trie content for GGSX (monotone within noise).
    let sizes = series(report("ablation_path_length"), "GGSX", |m| {
        m.index_size_bytes
    });
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "sizes {sizes:?}");
}

#[test]
fn ablation_fingerprint_width_controls_index_size() {
    let r = report("ablation_fingerprint_width");
    let sizes = series(r, "CT-Index", |m| m.index_size_bytes);
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    // Wider fingerprints never increase the false positive ratio (fewer
    // hash collisions), modulo the tiny workload noise.
    let fps = series(r, "CT-Index", |m| m.false_positive_ratio);
    assert!(fps[2] <= fps[0] + 1e-9, "fp ratios {fps:?}");
}

#[test]
fn ablation_feature_size_mines_at_least_as_many_features() {
    // Larger fragments → at least as many mined features for gIndex.
    let features = series(report("ablation_feature_size"), "gIndex", |m| {
        m.distinct_features
    });
    assert!(features.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn ablation_grapes_threads_produce_identical_answers() {
    // Query metrics should be identical regardless of build threads: the FP
    // ratio (a pure function of the index contents) must match.
    let fps = series(report("ablation_grapes_threads"), "Grapes", |m| {
        m.false_positive_ratio
    });
    for fp in &fps {
        assert!((fp - fps[0]).abs() < 1e-12);
    }
}
