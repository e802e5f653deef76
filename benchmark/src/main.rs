//! `sqbench-e2e`: the repo's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sqbench-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!             [--out DIR] [--enforce-validity]
//! sqbench-e2e --compare DIR_A DIR_B
//! sqbench-e2e --emit-benchmark-json
//! ```

mod drive;
mod report;
mod trace;
mod workloads;

use drive::{MethodRun, SETUP_REPS};
use report::{geometric_mean, median, percentile, Counts, Row};
use sqbench_harness::metrics::CacheCounters;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::{MethodTrace, Recorder, SAMPLE_OPS};
use workloads::{Inputs, Oracle, Schedule, Spec, METHODS};

const DEFAULT_SEED: u64 = 20150831;
/// Bursts the oracle's closed form is checked against a shadow dataset for.
const SHADOW_PASSES: usize = 40;
/// Inserts (and removes) timed per method on the hand-held indexes.
const PROBE_WRITES: u64 = (trace::PROBE_BURSTS * trace::PROBE_BURST_WRITES) as u64;

/// One-sentence reasons, as `BENCHMARK.json` records them with the frozen
/// sizes.
const WHYS: [(&str, &str); 4] = [
    (
        "sparse_screen",
        "700 AIDS-like sparse graphs, 768 extracted queries of 4/8/16 edges, waves of 128, caches off: filters prune nearly everything, so feature extraction and posting folds dominate and verify is small",
    ),
    (
        "dense_verify",
        "400 GraphGen graphs of 24 nodes, density 0.12, 2 labels, 192 queries of 8/10 edges, waves of 8, caches off: few labels and dense graphs leave many candidates, so VF2 verify does most of the work",
    ),
    (
        "wide_sharded",
        "2000 small graphs in 4 label-disjoint families on 2 shards, synopsis routing, 1024 queries (1 in 4 a decoy), waves of 256 via the admission queue: routing, executor hops and merge beside cheap verify",
    ),
    (
        "zipf_churn",
        "160 AIDS-like graphs on 2 shards, both caches on, Zipf(1.0) reads over up to 4096 queries, 8 inserts + 8 removes per 6 waves of 256: memo, feature cache, invalidation, ingest, compaction in one number",
    ),
];

fn share(part: u64, rest: u64) -> f64 {
    part as f64 / (part + rest).max(1) as f64
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Confines the process, and so every thread the services start, to one of
/// the CPUs it may run on (the last, which sees the fewest interrupts).
/// Returns that CPU.
///
/// With two cores free, where two executors woken together land is the
/// scheduler's call: side by side, or stacked on one core until the next
/// balancing tick. The second kind of wave runs at the one-core speed
/// (about 0.6 of the other), a run's passes fall in two clusters, and how
/// many fall in each depends on the host's other tenants — the median over
/// passes then sits in either cluster, 25–45 % apart between runs of the
/// same code. On one CPU every hop is a context switch on that CPU, and the
/// wall of a wave is the work on its whole path.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> usize {
    // std links libc already; the vendor tree has no `libc` crate.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long, as the call is told; pid 0 is this thread.
    let got = unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) };
    assert!(got == 0, "sched_getaffinity failed");
    let word = mask
        .iter()
        .rposition(|&w| w != 0)
        .expect("the process may run on some CPU");
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above; no other thread exists yet, so all inherit the mask.
    let set = unsafe { sched_setaffinity(0, bytes, one.as_ptr()) };
    assert!(set == 0, "sched_setaffinity failed");
    word * 64 + bit
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> usize {
    0
}

/// A workload-shape check: printed always, fatal under `--enforce-validity`.
struct Validity {
    what: String,
    holds: bool,
}

fn check(checks: &mut Vec<Validity>, what: String, holds: bool) {
    checks.push(Validity { what, holds });
}

fn pooled(counters: impl Iterator<Item = CacheCounters>) -> CacheCounters {
    counters.fold(CacheCounters::default(), |mut sum, c| {
        sum.merge(&c);
        sum
    })
}

struct Outcome {
    rows: Vec<Row>,
    counts: Counts,
    checks: Vec<Validity>,
    /// Extra file to write beside the rows (the span log).
    spans: Option<String>,
}

fn prepare(spec: &Spec, seed: u64) -> (Inputs, Oracle) {
    let inputs = Inputs::generate(spec, seed);
    // Determinism guard: inputs derive from the seed and nothing else.
    assert!(
        inputs.same_as(&Inputs::generate(spec, seed)),
        "two generations from seed {seed} differ"
    );
    let oracle = Oracle::build(spec, &inputs);
    if spec.churn.is_some() {
        let mut schedule = Schedule::new(spec, &inputs, seed);
        oracle.cross_check(&inputs, &mut schedule, SHADOW_PASSES);
    }
    (inputs, oracle)
}

/// End-to-end metrics: every method through the real serving path, tracing
/// off.
fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let (inputs, oracle) = prepare(spec, seed);
    let budget = Duration::from_secs_f64(seconds);
    let runs: Vec<MethodRun> = drive::measure(spec, &inputs, &oracle, seed, budget);

    let mut values: Vec<(String, f64, u64)> = vec![
        (
            "setup_s".into(),
            runs.iter().map(|r| median(&r.setup_s)).sum(),
            SETUP_REPS as u64,
        ),
        (
            "index_mb".into(),
            runs.iter().map(|r| r.index_bytes as f64).sum::<f64>() / 1e6,
            1,
        ),
        (
            // Scan has no filter; the paper's Eq. 3 is over indexed methods.
            "filter_precision".into(),
            1.0 - runs[..6].iter().map(|r| r.fp_ratio).sum::<f64>() / 6.0,
            6,
        ),
    ];
    for ((_, method), run) in METHODS.iter().zip(&runs) {
        values.push((
            format!("qps.{method}"),
            median(&run.pass_qps),
            run.pass_qps.len() as u64,
        ));
    }
    let waves: u64 = runs.iter().map(|r| r.wave_ms.len() as u64).sum();
    for (name, p) in [("wave_p50_ms", 50.0), ("wave_p90_ms", 90.0)] {
        let mean = geometric_mean(runs.iter().map(|r| percentile(&r.wave_ms, p)));
        values.push((name.into(), mean, waves));
    }
    values.push(("peak_rss_mb".into(), peak_rss_mb(), 1));

    let counts = Counts {
        attempted: runs.iter().map(|r| r.tally.attempted).sum(),
        failed: runs.iter().map(|r| r.tally.failed).sum(),
    };
    let mut checks = Vec::new();
    for ((_, method), run) in METHODS.iter().zip(&runs) {
        println!(
            "# {method}: {} timed passes (qps p10 {:.0} p90 {:.0}), {} timed waves, service-booked filter share {:.3}",
            run.pass_qps.len(),
            percentile(&run.pass_qps, 10.0),
            percentile(&run.pass_qps, 90.0),
            run.wave_ms.len(),
            run.tally.filter_s / (run.tally.filter_s + run.tally.verify_s)
        );
    }
    let reads: u64 = runs.iter().map(|r| r.tally.reads).sum();
    let probed: u64 = runs.iter().map(|r| r.tally.shards_probed).sum();
    shape_checks(
        spec,
        &mut checks,
        pooled(runs.iter().map(|r| r.counters)),
        probed as f64 / (reads * spec.shards() as u64) as f64,
        Some(runs.iter().map(|r| r.compactions).min().unwrap_or(0)),
    );
    Outcome {
        rows: report::rows(&report::end_to_end(), values),
        counts,
        checks,
        spans: None,
    }
}

/// The shape checks both kinds of run can make from service counters.
fn shape_checks(
    spec: &Spec,
    checks: &mut Vec<Validity>,
    counters: CacheCounters,
    probed_share: f64,
    min_compactions: Option<u64>,
) {
    if spec.name == "wide_sharded" {
        check(
            checks,
            format!("decoys and routing skip shards: synopsis.probed_share {probed_share:.3} < 1"),
            probed_share < 1.0,
        );
    }
    if spec.churn.is_some() {
        let hit = share(counters.answer_hits, counters.answer_misses);
        check(
            checks,
            format!("hot head hits the memo, tail does not: cache.memo_hit_share {hit:.3} in [0.4, 0.95]"),
            (0.4..=0.95).contains(&hit),
        );
        if let Some(compactions) = min_compactions {
            check(
                checks,
                format!("removes purge payloads in the timed window: {compactions} >= 3 for every method"),
                compactions >= 3,
            );
        }
    }
}

/// The sample the traced run replays: the first [`SAMPLE_OPS`] reads of
/// the op sequence in whole waves; under churn, the whole first period (the
/// cold wave after a burst and the warmer ones that follow it).
fn sample_waves(spec: &Spec, inputs: &Inputs, seed: u64) -> Vec<Vec<u32>> {
    let mut schedule = Schedule::new(spec, inputs, seed);
    if spec.churn.is_some() {
        return schedule.pass(0).waves;
    }
    let mut waves: Vec<Vec<u32>> = Vec::new();
    let mut p = 0;
    while waves.len() * spec.wave < SAMPLE_OPS {
        let room = (SAMPLE_OPS - waves.len() * spec.wave).div_ceil(spec.wave);
        waves.extend(schedule.pass(p).waves.into_iter().take(room));
        p += 1;
    }
    waves
}

/// Per-layer metrics: the hand-replayed trace.
fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let (inputs, oracle) = prepare(spec, seed);
    let waves = sample_waves(spec, &inputs, seed);
    let budget = Duration::from_secs_f64(seconds / METHODS.len() as f64);
    let mut rec = Recorder::new();
    let traces: Vec<MethodTrace> = METHODS
        .iter()
        .map(|&(kind, method)| {
            trace::trace_method(
                kind, method, spec, &inputs, &oracle, &waves, budget, &mut rec,
            )
        })
        .collect();

    let mut values: Vec<(String, f64, u64)> = Vec::new();
    for ((_, method), t) in METHODS.iter().zip(&traces) {
        let ops = t.sample_ops as u64;
        let waves = t.wave_ms.len() as u64;
        for (name, value, n) in [
            ("index.build_s", t.build_s, 1),
            ("index.size_mb", t.size_bytes as f64 / 1e6, 1),
            ("index.filter_us", t.filter_us, ops),
            ("index.candidates", t.candidates, ops),
            ("index.verify_us", t.verify_us, ops),
            ("index.insert_us", t.insert_us, PROBE_WRITES),
            ("index.remove_us", t.remove_us, PROBE_WRITES),
            ("service.overhead_share", t.overhead_share, waves),
            ("service.wave_p50_ms", percentile(&t.wave_ms, 50.0), waves),
            ("service.wave_p90_ms", percentile(&t.wave_ms, 90.0), waves),
        ] {
            values.push((format!("{name}.{method}"), value, n));
        }
    }
    let counters = pooled(traces.iter().map(|t| t.counters));
    let reads: u64 = traces.iter().map(|t| t.reads).sum();
    let probed: u64 = traces.iter().map(|t| t.shards_probed).sum();
    let probed_share = probed as f64 / (reads * spec.shards() as u64) as f64;
    let over_methods = |f: fn(&MethodTrace) -> f64| traces.iter().map(f).collect::<Vec<_>>();
    values.extend([
        (
            "sharded.partition_s".into(),
            median(&over_methods(|t| t.partition_s)),
            7,
        ),
        (
            "sharded.ingest_burst_ms".into(),
            geometric_mean(traces.iter().map(|t| t.ingest_burst_ms)),
            (METHODS.len() * trace::PROBE_BURSTS) as u64,
        ),
        (
            "cache.memo_hit_share".into(),
            share(counters.answer_hits, counters.answer_misses),
            counters.answer_hits + counters.answer_misses,
        ),
        (
            "cache.feature_hit_share".into(),
            share(counters.feature_hits, counters.feature_misses),
            counters.feature_hits + counters.feature_misses,
        ),
        ("cache.evictions".into(), counters.evictions as f64, reads),
        ("synopsis.probed_share".into(), probed_share, reads),
        ("generator.dataset_s".into(), inputs.dataset_s, 1),
        ("generator.queries_s".into(), inputs.queries_s, 1),
        (
            "trace.overhead_share".into(),
            median(&over_methods(|t| t.trace_overhead_share)),
            7,
        ),
    ]);
    for (name, value, n) in trace::layer_probes(spec, &inputs, &oracle, &waves) {
        values.push((name.into(), value, n));
    }

    let mut checks = Vec::new();
    let glue = rec.glue_share("replay.op");
    check(
        &mut checks,
        format!("replayed layer spans cover their reads: benchmark glue {glue:.4} <= 0.05 of replay.op time"),
        glue <= 0.05,
    );
    for ((_, method), t) in METHODS.iter().zip(&traces) {
        // Grapes' `verify_set` walks the query's paths again for location
        // info: filter-shaped work booked under verify, hence its lower bar.
        let floor = match *method {
            "ggsx" | "gindex" | "treedelta" => Some(0.5),
            "grapes" => Some(0.4),
            _ => None,
        };
        if let (true, Some(floor)) = (spec.name == "sparse_screen", floor) {
            check(
                &mut checks,
                format!(
                    "{method}: filter share of replayed busy time {:.3} >= {floor}",
                    t.filter_share
                ),
                t.filter_share >= floor,
            );
        }
        if spec.name == "dense_verify" {
            check(
                &mut checks,
                format!(
                    "{method}: verify share of replayed busy time {:.3} >= 0.7",
                    1.0 - t.filter_share
                ),
                1.0 - t.filter_share >= 0.7,
            );
        }
    }
    shape_checks(spec, &mut checks, counters, probed_share, None);
    Outcome {
        rows: report::rows(&report::per_layer(), values),
        counts: Counts {
            attempted: traces.iter().map(|t| t.attempted).sum(),
            failed: traces.iter().map(|t| t.failed).sum(),
        },
        checks,
        spans: Some(rec.to_json()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    enforce_validity: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        enforce_validity: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--enforce-validity" {
            parsed.enforce_validity = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if Spec::by_name(&parsed.workload).is_none() {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(parsed)
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", report::benchmark_json(&WHYS));
            return ExitCode::SUCCESS;
        }
        Some("--compare") if args.len() == 3 => {
            let same = report::compare(Path::new(&args[1]), Path::new(&args[2]));
            return if same {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sqbench-e2e: {message}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::by_name(&args.workload).expect("checked by parse_args");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# sqbench-e2e workload={} seed={} seconds={} trace={} cores={cores} pinned_to_cpu={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pin_to_one_cpu(),
    );
    let outcome = if args.trace {
        run_traced(spec, args.seed, args.seconds)
    } else {
        run_untraced(spec, args.seed, args.seconds)
    };

    report::print_rows(&outcome.rows);
    let counts = &outcome.counts;
    println!(
        "# attempted {} succeeded {} failed {} failed_share {}",
        counts.attempted,
        counts.attempted - counts.failed,
        counts.failed,
        counts.failed as f64 / counts.attempted.max(1) as f64
    );
    for c in &outcome.checks {
        println!(
            "# validity {} {}",
            if c.holds { "ok  " } else { "FAIL" },
            c.what
        );
    }
    let suffix = if args.trace { "layers.json" } else { "json" };
    write_file(
        &args.out,
        &format!("{}.{suffix}", spec.name),
        &report::result_file(spec.name, args.seed, args.trace, counts, &outcome.rows),
    );
    if let Some(spans) = &outcome.spans {
        write_file(&args.out, &format!("{}.trace.json", spec.name), spans);
    }

    let invalid = args.enforce_validity && outcome.checks.iter().any(|c| !c.holds);
    println!("{}", report::final_line(counts, &outcome.rows));
    if counts.failed > 0 || invalid {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
