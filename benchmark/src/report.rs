//! The metric schema (what `BENCHMARK.json` lists), result rows, the
//! hand-written JSON (the vendored serde derives are empty) and the A/A
//! comparison.

use crate::workloads::{METHODS, WORKLOADS};
use std::fmt::Write as _;
use std::path::Path;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, higher: bool, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// What a user of the system sees. Every workload reports all of them.
///
/// Each bound is at least three times the widest spread (quartile distance
/// over the median, ten seeds) the metric showed on any workload here, and
/// at most the driver's cap of 0.25; `benchmark/README.md` has the table.
/// The timing metrics spread up to 0.10 on this sandbox and the host's own
/// drift comes on top, so they sit at the cap. The corpus is fixed, so
/// `index_mb` repeats exactly and `peak_rss_mb` within 1 %.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut defs = vec![
        def("setup_s", "s", false, Some(0.25)),
        def("index_mb", "MB", false, Some(0.05)),
        def("filter_precision", "ratio", true, Some(0.15)),
    ];
    for (_, method) in METHODS {
        defs.push(def(format!("qps.{method}"), "1/s", true, Some(0.25)));
    }
    defs.push(def("wave_p50_ms", "ms", false, Some(0.25)));
    defs.push(def("wave_p90_ms", "ms", false, Some(0.25)));
    defs.push(def("peak_rss_mb", "MB", false, Some(0.10)));
    defs
}

/// Single layers, named after the module they time. No bounds.
pub fn per_layer() -> Vec<MetricDef> {
    let per_method: [(&str, &str, bool); 10] = [
        ("index.build_s", "s", false),
        ("index.size_mb", "MB", false),
        ("index.filter_us", "us", false),
        ("index.candidates", "count", false),
        ("index.verify_us", "us", false),
        ("index.insert_us", "us", false),
        ("index.remove_us", "us", false),
        ("service.overhead_share", "ratio", false),
        ("service.wave_p50_ms", "ms", false),
        ("service.wave_p90_ms", "ms", false),
    ];
    let mut defs = Vec::new();
    for (name, unit, higher) in per_method {
        for (_, method) in METHODS {
            defs.push(def(format!("{name}.{method}"), unit, higher, None));
        }
    }
    let shared: [(&str, &str, bool); 24] = [
        ("sharded.partition_s", "s", false),
        ("sharded.ingest_burst_ms", "ms", false),
        ("features.paths_us", "us", false),
        ("features.trees_us", "us", false),
        ("features.cycles_us", "us", false),
        ("features.canonical_us", "us", false),
        ("features.fingerprint_us", "us", false),
        ("cache.memo_probe_us", "us", false),
        ("cache.memo_hit_share", "ratio", true),
        ("cache.feature_hit_share", "ratio", true),
        ("cache.evictions", "count", false),
        ("synopsis.plan_us", "us", false),
        ("synopsis.probed_share", "ratio", false),
        ("iso.vf2_hit_us", "us", false),
        ("iso.vf2_miss_us", "us", false),
        ("iso.tuned_hit_us", "us", false),
        ("iso.tuned_miss_us", "us", false),
        ("candidates.intersect_ns", "ns", false),
        ("candidates.count_ns", "ns", false),
        ("admission.submit_us", "us", false),
        ("admission.drain_pending_us", "us", false),
        ("generator.dataset_s", "s", false),
        ("generator.queries_s", "s", false),
        ("trace.overhead_share", "ratio", false),
    ];
    for (name, unit, higher) in shared {
        defs.push(def(name, unit, higher, None));
    }
    defs
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// One reported value.
pub struct Row {
    pub metric: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (waves, passes, set-ups, …).
    pub n: u64,
    pub bound: Option<f64>,
}

/// Orders `values` (name → value, n) by the schema and checks that exactly
/// the schema's metrics were measured, each to a finite number.
pub fn rows(schema: &[MetricDef], mut values: Vec<(String, f64, u64)>) -> Vec<Row> {
    let rows: Vec<Row> = schema
        .iter()
        .map(|d| {
            let at = values
                .iter()
                .position(|(name, _, _)| *name == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            let (metric, value, n) = values.swap_remove(at);
            assert!(value.is_finite(), "metric {metric} is not finite: {value}");
            Row {
                metric,
                unit: d.unit,
                value,
                n,
                bound: d.bound,
            }
        })
        .collect();
    assert!(
        values.is_empty(),
        "measured metrics missing from the schema: {:?}",
        values.iter().map(|v| &v.0).collect::<Vec<_>>()
    );
    rows
}

fn bound_json(bound: Option<f64>) -> String {
    bound.map_or("null".to_string(), |b| b.to_string())
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<34} {:>16} {:<6} {:>8} {:>6}",
        "metric", "value", "unit", "n", "bound"
    );
    for r in rows {
        println!(
            "{:<34} {:>16.6} {:<6} {:>8} {:>6}",
            r.metric,
            r.value,
            r.unit,
            r.n,
            r.bound.map_or("-".to_string(), |b| format!("{b}"))
        );
    }
}

/// Outcome counts of a run.
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

/// The result file: a header line, then one `{metric, unit, value, n,
/// bound}` row per line (which is what [`compare`] reads back).
pub fn result_file(
    workload: &str,
    seed: u64,
    trace: bool,
    counts: &Counts,
    rows: &[Row],
) -> String {
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"attempted\":{},\"succeeded\":{},\"failed\":{},\"failed_share\":{},\"rows\":[\n",
        u8::from(trace),
        counts.attempted,
        counts.attempted - counts.failed,
        counts.failed,
        counts.failed as f64 / counts.attempted.max(1) as f64,
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"metric\":\"{}\",\"unit\":\"{}\",\"value\":{},\"n\":{},\"bound\":{}}}",
            r.metric,
            r.unit,
            r.value,
            r.n,
            bound_json(r.bound)
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// The one-line result the driver reads from the end of standard output.
pub fn final_line(counts: &Counts, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                r.metric, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        counts.failed == 0,
        counts.attempted,
        counts.failed,
        metrics.join(",")
    )
}

/// `BENCHMARK.json`, generated from the schema above so the two cannot
/// drift apart.
pub fn benchmark_json(whys: &[(&str, &str)]) -> String {
    let metric = |d: &MetricDef| {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        match d.bound {
            Some(bound) => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {bound}}}",
                d.name, d.unit
            ),
            None => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                d.name, d.unit
            ),
        }
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why = whys
                .iter()
                .find(|(name, _)| *name == w.name)
                .map(|(_, why)| *why)
                .expect("every workload has a why");
            format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end().iter().map(metric).collect::<Vec<_>>().join(",\n"),
        per_layer().iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}

/// Reads the `"key":value` of a row line written by [`result_file`].
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn read_rows(path: &Path) -> Vec<(String, f64, Option<f64>)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .filter(|line| line.starts_with("{\"metric\""))
        .map(|line| {
            let value = field(line, "value").and_then(|v| v.parse().ok());
            (
                field(line, "metric").expect("row has a metric").to_string(),
                value.expect("row has a numeric value"),
                field(line, "bound").and_then(|b| b.parse().ok()),
            )
        })
        .collect()
}

/// A/A: prints, per metric × workload, the two sets' values, their relative
/// difference and PASS/FAIL against the metric's bound (per-layer metrics
/// have none and only show the difference). Returns `false` on any FAIL.
pub fn compare(a: &Path, b: &Path) -> bool {
    let mut pass = true;
    for w in WORKLOADS {
        for suffix in ["json", "layers.json"] {
            let file = format!("{}.{suffix}", w.name);
            if !a.join(&file).exists() {
                continue; // the sets were run for one workload only
            }
            let (rows_a, rows_b) = (read_rows(&a.join(&file)), read_rows(&b.join(&file)));
            println!("== {file}");
            for ((metric, va, bound), (_, vb, _)) in rows_a.iter().zip(&rows_b) {
                let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
                let verdict = match bound {
                    Some(bound) if diff <= *bound => "PASS",
                    Some(_) => {
                        pass = false;
                        "FAIL"
                    }
                    None => "-",
                };
                println!(
                    "{metric:<34} {va:>16.6} {vb:>16.6} {:>8.2}% {verdict}",
                    diff * 100.0
                );
            }
        }
    }
    pass
}
