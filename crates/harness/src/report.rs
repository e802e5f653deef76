//! Experiment report structures and rendering.
//!
//! Every experiment produces an [`ExperimentReport`]: a series of
//! x-axis points (a dataset name for Figure 1, a parameter value for the
//! scalability sweeps), each carrying one [`MethodMetrics`] record per
//! method. [`render_text`] prints the same four panels the paper plots
//! (indexing time, index size, query processing time, false positive
//! ratio); [`render_csv`] emits a flat machine-readable table.

use crate::metrics::MethodMetrics;
use serde::{Deserialize, Serialize};

/// One x-axis point of an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// Human-readable x-axis label (e.g. `"AIDS"` or `"nodes=200"`).
    pub x_label: String,
    /// Numeric x value where applicable (0 for categorical points).
    pub x_value: f64,
    /// Per-method measurements at this point.
    pub results: Vec<MethodMetrics>,
}

/// A full experiment report (one table or figure of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Short id, e.g. `"fig2_nodes"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Description of the workload/parameters used.
    pub description: String,
    /// The measured series.
    pub points: Vec<ExperimentPoint>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            description: description.into(),
            points: Vec::new(),
        }
    }

    /// Adds a point to the report.
    pub fn push_point(&mut self, point: ExperimentPoint) {
        self.points.push(point);
    }

    /// All method names appearing in the report, in first-seen order.
    pub fn method_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for point in &self.points {
            for result in &point.results {
                if !names.contains(&result.method) {
                    names.push(result.method.clone());
                }
            }
        }
        names
    }

    /// Looks up the metrics of `method` at point index `point_idx`.
    pub fn metrics_at(&self, point_idx: usize, method: &str) -> Option<&MethodMetrics> {
        self.points
            .get(point_idx)?
            .results
            .iter()
            .find(|m| m.method == method)
    }
}

/// One report column: its CSV name and how a method's measurements fill it.
pub type Column = (&'static str, fn(&MethodMetrics) -> String);

/// The columns that key a CSV row: which report, which x-axis point.
const KEY_COLUMNS: [&str; 3] = ["experiment", "x_label", "x_value"];

/// Every per-method column of a report, declared once as `(name, accessor)`:
/// [`render_csv`] derives its header and its rows from this table and
/// [`render_text`] plots four of its entries, so a new counter is one
/// [`MethodMetrics`] field plus one line here.
///
/// What the column groups mean: the per-stage breakdown recorded by the
/// query service (mean queue wait / cache probe / filter / verify seconds —
/// cache probes are already excluded from `avg_filter_time_s` — and total
/// candidates pruned); the tail-latency columns (`latency_p50_s`,
/// `latency_p95_s`, `latency_p99_s`: per-query end-to-end percentiles from
/// the run's latency histogram — the SLO view a mean cannot give, because
/// saturation shows up in the tail long before it moves the average; 0 when
/// the run recorded no latencies); the sharding columns (`shards`, the total
/// `(query, shard)` probes the routing tier dispatched and skipped, the
/// busiest shard's processing seconds, the lightest/heaviest *probed*-shard
/// balance, and the incremental `partition_overhead_bytes` the shard
/// partition cost on top of the source dataset — 1, 0 and degenerate values
/// for unsharded runs); the outcome columns (`queries_degraded`,
/// `queries_failed`, `queries_shed`, `retries`: how many queries returned a
/// sound partial answer, exhausted their retry budget, were shed at
/// admission, and how many retry probes were dispatched — all 0 on a healthy
/// fault-free run); the ingest columns (`inserts_applied`,
/// `removes_applied`: typed mutations applied while draining a mixed
/// read/write admission queue — always 0 for batch runs, which serve a
/// frozen snapshot); and the `cache_*` counters of the cross-query caching
/// layer (feature-cache and answer-memo hits/misses plus total LRU
/// evictions — all 0 when the run leaves [`crate::service::CachePolicy`]
/// disabled).
///
/// Names and order are the CSV contract figure scripts parse by; both are
/// pinned by the golden-file test in `tests/golden_report.rs`, so changes
/// here must update the golden file deliberately.
pub const COLUMNS: &[Column] = &[
    ("method", |m| m.method.clone()),
    ("indexing_time_s", |m| m.indexing_time_s.to_string()),
    ("index_size_bytes", |m| m.index_size_bytes.to_string()),
    ("distinct_features", |m| m.distinct_features.to_string()),
    ("avg_query_time_s", |m| m.avg_query_time_s.to_string()),
    ("avg_queue_wait_s", |m| {
        m.stages.avg_queue_wait_s().to_string()
    }),
    ("avg_cache_probe_s", |m| {
        m.stages.avg_cache_probe_s().to_string()
    }),
    ("avg_filter_time_s", |m| m.stages.avg_filter_s().to_string()),
    ("avg_verify_time_s", |m| m.stages.avg_verify_s().to_string()),
    ("latency_p50_s", |m| m.latency_p50_s().to_string()),
    ("latency_p95_s", |m| m.latency_p95_s().to_string()),
    ("latency_p99_s", |m| m.latency_p99_s().to_string()),
    ("candidates_pruned", |m| {
        m.stages.candidates_pruned.to_string()
    }),
    ("false_positive_ratio", |m| {
        m.false_positive_ratio.to_string()
    }),
    ("queries_executed", |m| m.queries_executed.to_string()),
    ("shards", |m| m.shards.to_string()),
    ("shards_probed", |m| m.shards_probed.to_string()),
    ("shards_skipped", |m| m.shards_skipped.to_string()),
    ("max_shard_time_s", |m| m.max_shard_time_s().to_string()),
    ("shard_balance", |m| m.shard_balance().to_string()),
    ("partition_overhead_bytes", |m| {
        m.partition_overhead_bytes.to_string()
    }),
    ("queries_degraded", |m| m.queries_degraded.to_string()),
    ("queries_failed", |m| m.queries_failed.to_string()),
    ("queries_shed", |m| m.queries_shed.to_string()),
    ("retries", |m| m.retries.to_string()),
    ("inserts_applied", |m| m.inserts_applied.to_string()),
    ("removes_applied", |m| m.removes_applied.to_string()),
    ("timed_out", |m| m.timed_out.to_string()),
    ("cache_feature_hits", |m| m.cache.feature_hits.to_string()),
    ("cache_feature_misses", |m| {
        m.cache.feature_misses.to_string()
    }),
    ("cache_answer_hits", |m| m.cache.answer_hits.to_string()),
    ("cache_answer_misses", |m| m.cache.answer_misses.to_string()),
    ("cache_evictions", |m| m.cache.evictions.to_string()),
];

/// The four metric panels of each figure in the paper: the panel title, the
/// [`COLUMNS`] entry it plots, the divisor into the title's unit and the
/// decimals shown.
const PANELS: [(&str, &str, f64, usize); 4] = [
    ("Indexing time (s)", "indexing_time_s", 1.0, 4),
    ("Index size (MB)", "index_size_bytes", 1024.0 * 1024.0, 4),
    ("Query processing time (s)", "avg_query_time_s", 1.0, 6),
    ("False positive ratio", "false_positive_ratio", 1.0, 4),
];

/// Renders the report as four plain-text panels (one per metric), each a
/// table with one row per x-axis point and one column per method — the same
/// series the corresponding paper figure plots.
pub fn render_text(report: &ExperimentReport) -> String {
    let methods = report.method_names();
    let mut out = String::new();
    out.push_str(&format!("# {} — {}\n", report.id, report.title));
    out.push_str(&format!("# {}\n", report.description));
    for (panel_title, column, divisor, decimals) in PANELS {
        let (_, get) = COLUMNS
            .iter()
            .find(|(name, _)| *name == column)
            .expect("every panel plots a declared column");
        out.push_str(&format!("\n## {panel_title}\n"));
        // Header.
        out.push_str(&format!("{:>18}", "x"));
        for m in &methods {
            out.push_str(&format!("{m:>14}"));
        }
        out.push('\n');
        for point in &report.points {
            out.push_str(&format!("{:>18}", point.x_label));
            for m in &methods {
                let cell = match point.results.iter().find(|r| &r.method == m) {
                    None => "-".to_string(),
                    Some(r) if r.timed_out => "DNF".to_string(),
                    Some(r) => {
                        let value: f64 = get(r).parse().expect("panel columns are numeric");
                        format!("{:.decimals$}", value / divisor)
                    }
                };
                out.push_str(&format!("{cell:>14}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the report as CSV with one row per (point, method) pair: the
/// three key columns, then every entry of [`COLUMNS`] in declaration order.
pub fn render_csv(report: &ExperimentReport) -> String {
    let names = COLUMNS.iter().map(|(name, _)| *name);
    let header: Vec<&str> = KEY_COLUMNS.into_iter().chain(names).collect();
    let mut out = header.join(",") + "\n";
    for point in &report.points {
        for m in &point.results {
            let keys = [
                report.id.clone(),
                point.x_label.clone(),
                point.x_value.to_string(),
            ];
            let row: Vec<String> = keys
                .into_iter()
                .chain(COLUMNS.iter().map(|(_, get)| get(m)))
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(method: &str, t: f64) -> MethodMetrics {
        let mut stages = crate::metrics::StageTotals::default();
        for _ in 0..8 {
            stages.add_query(t / 1000.0, 0.0, t / 400.0, t / 200.0, 12);
        }
        MethodMetrics {
            method: method.to_string(),
            indexing_time_s: t,
            index_size_bytes: 1024 * 1024,
            avg_query_time_s: t / 100.0,
            false_positive_ratio: 0.5,
            queries_executed: 8,
            stages,
            shards: 1,
            ..Default::default()
        }
    }

    fn sample_report() -> ExperimentReport {
        let mut report = ExperimentReport::new("fig_test", "Test figure", "two points");
        report.push_point(ExperimentPoint {
            x_label: "50".into(),
            x_value: 50.0,
            results: vec![sample_metrics("Grapes", 1.0), sample_metrics("GGSX", 2.0)],
        });
        report.push_point(ExperimentPoint {
            x_label: "100".into(),
            x_value: 100.0,
            results: vec![
                sample_metrics("Grapes", 3.0),
                MethodMetrics {
                    timed_out: true,
                    ..sample_metrics("GGSX", 4.0)
                },
            ],
        });
        report
    }

    #[test]
    fn method_names_in_first_seen_order() {
        let report = sample_report();
        assert_eq!(report.method_names(), vec!["Grapes", "GGSX"]);
    }

    #[test]
    fn metrics_lookup() {
        let report = sample_report();
        assert!((report.metrics_at(0, "GGSX").unwrap().indexing_time_s - 2.0).abs() < 1e-12);
        assert!(report.metrics_at(0, "gCode").is_none());
        assert!(report.metrics_at(5, "Grapes").is_none());
    }

    #[test]
    fn text_rendering_contains_panels_and_dnf() {
        let text = render_text(&sample_report());
        assert!(text.contains("Indexing time (s)"));
        assert!(text.contains("Index size (MB)"));
        assert!(text.contains("Query processing time (s)"));
        assert!(text.contains("False positive ratio"));
        assert!(text.contains("DNF"));
        assert!(text.contains("Grapes"));
        assert!(text.contains("fig_test"));
    }

    #[test]
    fn csv_rendering_has_one_row_per_method_point() {
        let csv = render_csv(&sample_report());
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + 4); // header + 2 points × 2 methods
        assert!(lines[0].starts_with("experiment,"));
        assert!(lines[0].contains("avg_filter_time_s"));
        assert!(lines[0].contains("candidates_pruned"));
        assert!(
            lines[0].contains("shards,shards_probed,shards_skipped,max_shard_time_s,shard_balance")
        );
        assert!(lines[0].contains(
            "queries_degraded,queries_failed,queries_shed,retries,\
             inserts_applied,removes_applied,timed_out"
        ));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[4].contains("true") || lines[3].contains("true")); // the DNF row
    }

    #[test]
    fn column_names_are_unique() {
        let mut names: Vec<&str> = KEY_COLUMNS.to_vec();
        names.extend(COLUMNS.iter().map(|(name, _)| *name));
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "a column name is declared twice");
    }
}
