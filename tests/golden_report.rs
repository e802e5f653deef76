//! Golden-file test for the CSV report format.
//!
//! The figure scripts downstream of `render_csv` parse columns by name; a
//! silent header or field-order change corrupts every plot regenerated
//! after it. This test pins the exact bytes `render_csv` produces for a
//! small deterministic report — header plus one unsharded and one sharded
//! row — against `tests/data/golden_report.csv`.
//!
//! When a format change is *intentional*, regenerate the golden file with
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test -p sqbench --test golden_report
//! ```
//!
//! and commit the diff together with the change that caused it.

use sqbench_harness::metrics::{CacheCounters, MethodMetrics, StageTotals};
use sqbench_harness::report::{render_csv, ExperimentPoint, ExperimentReport, COLUMNS};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_report.csv");

fn stage_totals(
    queries: usize,
    queue_wait_s: f64,
    cache_probe_s: f64,
    filter_s: f64,
    verify_s: f64,
) -> StageTotals {
    let mut totals = StageTotals::default();
    for _ in 0..queries {
        totals.add_query(queue_wait_s, cache_probe_s, filter_s, verify_s, 15);
        // Exercise the tail-latency columns deterministically: each
        // query's end-to-end latency is its summed stage walk.
        totals.observe_latency(queue_wait_s + cache_probe_s + filter_s + verify_s);
    }
    totals
}

/// A fully deterministic two-row report: no clocks, no RNG — every field
/// is a hand-picked value that formats exactly the same on every run.
fn golden_report() -> ExperimentReport {
    let unsharded = MethodMetrics {
        method: "GGSX".to_string(),
        indexing_time_s: 1.25,
        index_size_bytes: 2048,
        distinct_features: 10,
        avg_query_time_s: 1.5,
        false_positive_ratio: 0.125,
        queries_executed: 2,
        stages: stage_totals(2, 0.25, 0.125, 0.5, 1.0),
        shards: 1,
        shards_probed: 2,
        // Exercise the cache columns with non-zero values: a warm feature
        // cache plus an answer memo that served one of the two queries.
        cache: CacheCounters {
            feature_hits: 6,
            feature_misses: 2,
            answer_hits: 1,
            answer_misses: 1,
            evictions: 3,
        },
        // A healthy unsharded batch run: not timed out, every outcome,
        // ingest and partition column 0.
        ..Default::default()
    };
    let sharded = MethodMetrics {
        method: "Grapes".to_string(),
        indexing_time_s: 0.75,
        index_size_bytes: 4096,
        distinct_features: 24,
        avg_query_time_s: 2.5,
        false_positive_ratio: 0.25,
        queries_executed: 1,
        timed_out: true,
        // Exercise the fault-accounting columns with non-zero values: one
        // degraded partial answer, one failed query, one shed at admission
        // and three retry probes.
        queries_degraded: 1,
        queries_failed: 1,
        queries_shed: 1,
        retries: 3,
        // Exercise the ingest columns: a mixed read/write drain that
        // applied two inserts and one removal between reads.
        inserts_applied: 2,
        removes_applied: 1,
        stages: stage_totals(1, 0.5, 0.0, 0.75, 1.75),
        shards: 2,
        shards_probed: 1,
        shards_skipped: 1,
        shard_stages: vec![
            stage_totals(1, 0.0, 0.0, 0.5, 1.5),   // busy shard: 2.0 s
            stage_totals(1, 0.0, 0.0, 0.25, 0.25), // light shard: 0.5 s
        ],
        // Two shards' Arc pointer spines over a 20-graph dataset.
        partition_overhead_bytes: 160,
        // A cache-disabled run: every cache column renders as 0.
        ..Default::default()
    };
    let mut report = ExperimentReport::new(
        "golden",
        "CSV format pin",
        "deterministic two-row report guarding the CSV contract",
    );
    report.push_point(ExperimentPoint {
        x_label: "p0".to_string(),
        x_value: 1.5,
        results: vec![unsharded, sharded],
    });
    report
}

#[test]
fn csv_format_matches_the_committed_golden_file() {
    let rendered = render_csv(&golden_report());
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/data/golden_report.csv missing — run with REGENERATE_GOLDEN=1 to create it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got, want,
            "CSV line {i} diverged from the golden file; if the format change \
             is intentional, regenerate with REGENERATE_GOLDEN=1 and commit"
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "CSV row count diverged from the golden file"
    );
    // Belt and braces: the exact bytes, not just line-wise equality.
    assert_eq!(rendered, golden);
}

/// Pins the exact CSV header — the contract figure scripts parse columns
/// by. Stronger than the byte-wise golden diff alone: when the golden file
/// is regenerated, this assertion still fails loudly if a column was
/// dropped or reordered by accident rather than intent.
#[test]
fn csv_header_is_pinned_including_routing_outcome_and_cache_columns() {
    let rendered = render_csv(&golden_report());
    let header = rendered.lines().next().expect("csv has a header line");
    assert_eq!(
        header,
        "experiment,x_label,x_value,method,indexing_time_s,index_size_bytes,\
         distinct_features,avg_query_time_s,avg_queue_wait_s,avg_cache_probe_s,\
         avg_filter_time_s,avg_verify_time_s,latency_p50_s,latency_p95_s,\
         latency_p99_s,candidates_pruned,false_positive_ratio,\
         queries_executed,shards,shards_probed,shards_skipped,max_shard_time_s,\
         shard_balance,partition_overhead_bytes,queries_degraded,queries_failed,\
         queries_shed,retries,inserts_applied,removes_applied,timed_out,\
         cache_feature_hits,cache_feature_misses,\
         cache_answer_hits,cache_answer_misses,cache_evictions"
    );
    // The header is exactly the declared-once column table behind the keys.
    let declared: Vec<&str> = COLUMNS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        header,
        format!("experiment,x_label,x_value,{}", declared.join(","))
    );
    // Every data row carries exactly as many fields as the header names.
    let columns = header.split(',').count();
    for line in rendered.lines().skip(1) {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
    }
}

/// The golden fixture itself exercises the derived shard columns, so a
/// regression in their math shows up here too, with fixed numbers.
#[test]
fn golden_fixture_shard_columns_have_expected_values() {
    let report = golden_report();
    let unsharded = &report.points[0].results[0];
    assert_eq!(unsharded.shards, 1);
    assert!((unsharded.max_shard_time_s() - 3.0).abs() < 1e-12); // 2×(0.5+1.0)
    assert_eq!(unsharded.shard_balance(), 1.0);
    let sharded = &report.points[0].results[1];
    assert_eq!(sharded.shards, 2);
    assert!((sharded.max_shard_time_s() - 2.0).abs() < 1e-12);
    assert!((sharded.shard_balance() - 0.25).abs() < 1e-12);
}
