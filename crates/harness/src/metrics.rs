//! Metric definitions: per-method measurements and the false positive ratio.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in seconds as `f64`.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// The instant at which `budget` expires, measured from this stopwatch's
    /// start — what the query service takes as a batch deadline.
    pub fn deadline_after(&self, budget: Duration) -> Instant {
        self.start + budget
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// The false positive ratio of a query workload, per Equation (3) of the
/// paper: the mean over queries of `(|C| - |A|) / |C|`, where `C` is the
/// candidate set and `A` the answer set, taken from `(candidates, answers)`
/// cardinality pairs — the serving paths never materialize candidate id
/// lists. Queries with an empty candidate set contribute 0 (they produced
/// no false positives).
pub fn counted_false_positive_ratio<I>(counts: I) -> f64
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut sum = 0.0f64;
    let mut queries = 0usize;
    for (candidates, answers) in counts {
        if candidates > 0 {
            sum += (candidates - answers) as f64 / candidates as f64;
        }
        queries += 1;
    }
    if queries == 0 {
        0.0
    } else {
        sum / queries as f64
    }
}

/// A mergeable log-bucketed latency histogram (seconds in, seconds out).
///
/// Samples are bucketed on their nanosecond value with HdrHistogram-style
/// log-linear buckets: exact below 64 ns, then 64 sub-buckets per octave,
/// so any reported percentile is within a **1/64 ≈ 1.6% relative error**
/// of the true sample value (plus the nearest-rank rounding inherent to
/// percentiles on discrete samples). Buckets are stored sparsely, so an
/// empty histogram costs nothing and a typical run stores a few dozen
/// `(bucket, count)` pairs regardless of sample count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Sorted `(bucket index, sample count)` pairs; only non-empty buckets
    /// are stored.
    buckets: Vec<(u32, u64)>,
    /// Total samples observed.
    count: u64,
}

/// Sub-buckets per octave: resolution/relative-error knob (1/64 ≈ 1.6%).
const HIST_SUB: u64 = 64;
/// log2 of [`HIST_SUB`].
const HIST_SUB_BITS: u32 = 6;

impl LatencyHistogram {
    /// Bucket index for a nanosecond value (log-linear, exact under 64 ns).
    fn bucket_of(nanos: u64) -> u32 {
        if nanos < HIST_SUB {
            return nanos as u32;
        }
        let exp = 63 - nanos.leading_zeros(); // 2^exp <= nanos < 2^(exp+1)
        let sub = ((nanos >> (exp - HIST_SUB_BITS)) & (HIST_SUB - 1)) as u32;
        (exp - HIST_SUB_BITS + 1) * HIST_SUB as u32 + sub
    }

    /// Lower bound (in nanoseconds) of the values mapping to `bucket` —
    /// the representative value percentiles report.
    fn bucket_value(bucket: u32) -> u64 {
        let b = bucket as u64;
        if b < HIST_SUB {
            return b;
        }
        let octave = b / HIST_SUB; // >= 1
        let sub = b % HIST_SUB;
        (HIST_SUB + sub) << (octave - 1)
    }

    /// Records one latency sample, in seconds. Non-finite and negative
    /// samples are clamped to zero; samples beyond ~584 years saturate.
    pub fn observe(&mut self, seconds: f64) {
        let nanos = if seconds.is_nan() || seconds <= 0.0 {
            0
        } else {
            (seconds * 1e9).min(u64::MAX as f64) as u64
        };
        let bucket = Self::bucket_of(nanos);
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
        self.count += 1;
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile in seconds: the smallest recorded bucket
    /// value such that at least `q` of the samples fall at or below it.
    /// `q` is a fraction in `[0, 1]`; an empty histogram reports 0.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: ceil(q * count), at least the first sample.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(bucket) as f64 / 1e9;
            }
        }
        // Unreachable when counts are consistent; report the max bucket.
        self.buckets
            .last()
            .map(|&(b, _)| Self::bucket_value(b) as f64 / 1e9)
            .unwrap_or(0.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for &(bucket, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (bucket, n)),
            }
        }
        self.count += other.count;
    }
}

/// Aggregated per-stage measurements of a batch run through the query
/// service pipeline: where each query's wall time went (waiting in the
/// request queue, filtering, verification) and how hard filtering pruned.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTotals {
    /// Queries the totals cover (executed queries only, not skipped ones).
    pub queries: u64,
    /// Total time queries spent queued before their filter stage started.
    pub queue_wait_s: f64,
    /// Total time spent probing the cross-query caches (feature-cache
    /// probes inside the filter stage plus admission-time answer-memo
    /// probes). Always 0 when caching is disabled.
    pub cache_probe_s: f64,
    /// Total time spent in the filtering stage, cache probes excluded.
    pub filter_s: f64,
    /// Total time spent in the verification stage (including any query-time
    /// index maintenance, e.g. Tree+Δ feature learning).
    pub verify_s: f64,
    /// Total graphs pruned by filtering: Σ (universe − |candidates|).
    pub candidates_pruned: u64,
    /// Per-query latency distribution over the executed queries, for tail
    /// percentiles. The unsharded pool observes batch start to the query's
    /// finish (its queue wait to the claim, then its filter and verify on
    /// the claiming worker); the sharded merge observes submission to the
    /// moment it finalized the query; a memo hit observes its probe.
    /// Populated via [`StageTotals::observe_latency`]; empty histograms
    /// report 0 for every percentile.
    pub latency: LatencyHistogram,
}

impl StageTotals {
    /// Folds one executed query's stage measurements into the totals.
    pub fn add_query(
        &mut self,
        queue_wait_s: f64,
        cache_probe_s: f64,
        filter_s: f64,
        verify_s: f64,
        pruned: usize,
    ) {
        self.queries += 1;
        self.queue_wait_s += queue_wait_s;
        self.cache_probe_s += cache_probe_s;
        self.filter_s += filter_s;
        self.verify_s += verify_s;
        self.candidates_pruned += pruned as u64;
    }

    /// Merges another totals record into this one.
    pub fn merge(&mut self, other: &StageTotals) {
        self.queries += other.queries;
        self.queue_wait_s += other.queue_wait_s;
        self.cache_probe_s += other.cache_probe_s;
        self.filter_s += other.filter_s;
        self.verify_s += other.verify_s;
        self.candidates_pruned += other.candidates_pruned;
        self.latency.merge(&other.latency);
    }

    /// Records one query's end-to-end latency (seconds) in the histogram.
    pub fn observe_latency(&mut self, seconds: f64) {
        self.latency.observe(seconds);
    }

    /// End-to-end latency percentile in seconds (`q` in `[0, 1]`); 0 when
    /// no latencies were observed. See [`LatencyHistogram::percentile`]
    /// for the resolution guarantee.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        self.latency.percentile(q)
    }

    fn per_query(&self, total: f64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            total / self.queries as f64
        }
    }

    /// Mean queue wait per executed query, seconds.
    pub fn avg_queue_wait_s(&self) -> f64 {
        self.per_query(self.queue_wait_s)
    }

    /// Mean cache-probe time per executed query, seconds.
    pub fn avg_cache_probe_s(&self) -> f64 {
        self.per_query(self.cache_probe_s)
    }

    /// Mean filtering time per executed query, seconds.
    pub fn avg_filter_s(&self) -> f64 {
        self.per_query(self.filter_s)
    }

    /// Mean verification time per executed query, seconds.
    pub fn avg_verify_s(&self) -> f64 {
        self.per_query(self.verify_s)
    }
}

/// Cumulative hit/miss/eviction counters of the cross-query caching layer
/// over one method run. All zeros when caching is disabled (the default) —
/// the runner constructs a fresh service per method run, so cumulative
/// service counters and per-run counters coincide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Feature-cache lookups that found a cached candidate bitset
    /// (summed across shards for sharded runs).
    pub feature_hits: u64,
    /// Feature-cache lookups that missed.
    pub feature_misses: u64,
    /// Answer-memo lookups that hit (memo-eligible queries only).
    pub answer_hits: u64,
    /// Answer-memo lookups that missed.
    pub answer_misses: u64,
    /// Entries evicted by capacity pressure, both levels combined.
    pub evictions: u64,
}

impl CacheCounters {
    /// Adds another run's counters into this one (used by the sharded
    /// merge, which sums per-shard feature caches).
    pub fn merge(&mut self, other: &CacheCounters) {
        self.feature_hits += other.feature_hits;
        self.feature_misses += other.feature_misses;
        self.answer_hits += other.answer_hits;
        self.answer_misses += other.answer_misses;
        self.evictions += other.evictions;
    }
}

/// All measurements collected for one method at one experiment point — the
/// quantities plotted in panels (a)–(d) of each figure in the paper, plus
/// the per-stage breakdown the query service records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MethodMetrics {
    /// Method name (as in the paper's legends).
    pub method: String,
    /// Index construction wall-clock time, seconds.
    pub indexing_time_s: f64,
    /// Index size in bytes.
    pub index_size_bytes: usize,
    /// Number of distinct features (or encoded signatures) in the index.
    pub distinct_features: usize,
    /// Mean query processing time (filter + verify), seconds per query.
    pub avg_query_time_s: f64,
    /// False positive ratio per Equation (3), averaged over the workload.
    pub false_positive_ratio: f64,
    /// Number of queries actually executed (smaller than the workload when
    /// the time budget ran out).
    pub queries_executed: usize,
    /// Whether the method exceeded the experiment's time budget (the
    /// scaled-down analogue of the paper's 8-hour DNF entries).
    pub timed_out: bool,
    /// Queries answered with a sound partial union because one or more
    /// shards missed their deadline budget (always 0 for unsharded runs,
    /// whose single index either answers in full or times out).
    pub queries_degraded: usize,
    /// Queries whose every probe failed (panicked or lost its worker) and
    /// whose retry budget was exhausted.
    pub queries_failed: usize,
    /// Queries rejected at admission by cost-aware load shedding (only the
    /// open-admission serving path sheds; batch runs report 0).
    pub queries_shed: usize,
    /// Total per-shard retry probes dispatched after transient failures.
    pub retries: u64,
    /// Graphs inserted online during the run (typed `IngestOp::Insert`
    /// mutations drained from the admission queue, or direct
    /// `insert_graph` calls). Batch runs serve a frozen snapshot: 0.
    pub inserts_applied: usize,
    /// Graphs removed online during the run. Batch runs report 0.
    pub removes_applied: usize,
    /// Per-stage totals from the service pipeline (queue wait, filter,
    /// verify, candidates pruned) over the executed queries.
    pub stages: StageTotals,
    /// Number of dataset shards the workload was served on (1 = the
    /// unsharded single-index service).
    pub shards: usize,
    /// Total `(query, shard)` index probes dispatched over the executed
    /// workload. A fanned-out sharded run probes `queries × shards`; an
    /// unsharded run probes its single index once per query; synopsis
    /// routing probes fewer.
    pub shards_probed: u64,
    /// Total `(query, shard)` probes the routing tier skipped because the
    /// shard synopsis proved no match was possible. 0 for unsharded and
    /// fanned-out runs; `shards_probed + shards_skipped` always equals
    /// `queries_executed × shards`.
    pub shards_skipped: u64,
    /// Per-shard stage totals, indexed by shard, as aggregated by the
    /// sharded service's merge stage. Empty for unsharded runs.
    pub shard_stages: Vec<StageTotals>,
    /// Incremental heap bytes the shard partition added on top of the
    /// source dataset (the shards' `Arc` pointer spines — graph storage is
    /// shared, not copied). 0 for unsharded runs.
    pub partition_overhead_bytes: usize,
    /// Hit/miss/eviction counters of the cross-query caching layer (all
    /// zeros when caching is disabled, the default).
    pub cache: CacheCounters,
}

impl MethodMetrics {
    /// Index size in megabytes (the unit the paper plots).
    pub fn index_size_mb(&self) -> f64 {
        self.index_size_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Median end-to-end query latency, seconds (0 when not recorded).
    pub fn latency_p50_s(&self) -> f64 {
        self.stages.latency_percentile(0.50)
    }

    /// 95th-percentile end-to-end query latency, seconds.
    pub fn latency_p95_s(&self) -> f64 {
        self.stages.latency_percentile(0.95)
    }

    /// 99th-percentile end-to-end query latency, seconds.
    pub fn latency_p99_s(&self) -> f64 {
        self.stages.latency_percentile(0.99)
    }

    /// Busiest-shard processing time (filter + verify seconds of the shard
    /// that worked hardest) — the critical path a sharded wave cannot beat.
    /// Falls back to the workload totals for unsharded runs.
    pub fn max_shard_time_s(&self) -> f64 {
        if self.shard_stages.is_empty() {
            self.stages.filter_s + self.stages.verify_s
        } else {
            self.shard_stages
                .iter()
                .map(|s| s.filter_s + s.verify_s)
                .fold(0.0, f64::max)
        }
    }

    /// Shard load balance: lightest-shard over heaviest-shard processing
    /// time, in `[0, 1]` with `1.0` meaning perfectly even (also reported
    /// for unsharded runs and for idle waves, where there is nothing to
    /// balance).
    ///
    /// Only *probed* shards — shards that executed at least one query —
    /// participate: when routing dispatches a wave to a shard subset, the
    /// skipped shards sit idle by design, and counting their zero seconds
    /// would misreport a perfectly routed wave as maximally unbalanced.
    pub fn shard_balance(&self) -> f64 {
        let times: Vec<f64> = self
            .shard_stages
            .iter()
            .filter(|s| s.queries > 0)
            .map(|s| s.filter_s + s.verify_s)
            .collect();
        if times.len() <= 1 {
            return 1.0; // nothing (or only one shard's load) to balance
        }
        let max = times.iter().copied().fold(0.0, f64::max);
        if max <= 0.0 {
            return 1.0;
        }
        times.iter().copied().fold(f64::INFINITY, f64::min) / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(sw.elapsed_secs() >= 0.004);
    }

    #[test]
    fn fp_ratio_of_equation_3() {
        // Query 1: 10 candidates, 5 answers -> 0.5; query 2: 4/4 -> 0.0.
        let ratio = counted_false_positive_ratio([(10, 5), (4, 4)]);
        assert!((ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fp_ratio_handles_empty_inputs() {
        assert_eq!(counted_false_positive_ratio(std::iter::empty()), 0.0);
        assert_eq!(counted_false_positive_ratio([(0, 0)]), 0.0);
    }

    #[test]
    fn fp_ratio_is_one_when_nothing_verifies() {
        assert!((counted_false_positive_ratio([(7, 0)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stage_totals_accumulate_and_average() {
        let mut totals = StageTotals::default();
        totals.add_query(0.5, 0.25, 1.0, 2.0, 90);
        totals.add_query(1.5, 0.75, 3.0, 4.0, 10);
        assert_eq!(totals.queries, 2);
        assert_eq!(totals.candidates_pruned, 100);
        assert!((totals.avg_queue_wait_s() - 1.0).abs() < 1e-12);
        assert!((totals.avg_cache_probe_s() - 0.5).abs() < 1e-12);
        assert!((totals.avg_filter_s() - 2.0).abs() < 1e-12);
        assert!((totals.avg_verify_s() - 3.0).abs() < 1e-12);
        let mut merged = StageTotals::default();
        merged.merge(&totals);
        merged.merge(&totals);
        assert_eq!(merged.queries, 4);
        assert_eq!(merged.candidates_pruned, 200);
        assert_eq!(StageTotals::default().avg_filter_s(), 0.0);
    }

    /// Relative tolerance of the log-bucketed histogram (1/64 per the
    /// bucketing contract, with a little slack for float conversion).
    const HIST_TOL: f64 = 1.0 / 64.0 + 1e-9;

    fn assert_close(got: f64, want: f64) {
        assert!(
            (got - want).abs() <= want * HIST_TOL,
            "got {got}, want {want} ± {:.2}%",
            HIST_TOL * 100.0
        );
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
        assert_eq!(StageTotals::default().latency_percentile(0.99), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = LatencyHistogram::default();
        h.observe(0.125);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_close(h.percentile(q), 0.125);
        }
    }

    #[test]
    fn percentiles_of_a_known_uniform_distribution() {
        // 100 samples: 1 ms, 2 ms, ..., 100 ms. Nearest-rank percentiles
        // are exactly the q*100-th sample.
        let mut h = LatencyHistogram::default();
        for ms in 1..=100u64 {
            h.observe(ms as f64 / 1000.0);
        }
        assert_eq!(h.count(), 100);
        assert_close(h.percentile(0.50), 0.050);
        assert_close(h.percentile(0.95), 0.095);
        assert_close(h.percentile(0.99), 0.099);
        assert_close(h.percentile(1.0), 0.100);
        // p0 is defined as the first sample (rank clamps to 1).
        assert_close(h.percentile(0.0), 0.001);
    }

    #[test]
    fn percentiles_are_monotone_in_q_and_see_outliers() {
        let mut h = LatencyHistogram::default();
        for _ in 0..98 {
            h.observe(0.001);
        }
        h.observe(1.0);
        h.observe(2.0);
        let (p50, p95, p99, p100) = (
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
            h.percentile(1.0),
        );
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p100);
        assert_close(p50, 0.001);
        assert_close(p95, 0.001);
        assert_close(p99, 1.0);
        assert_close(p100, 2.0);
    }

    #[test]
    fn histogram_merge_matches_observing_the_union() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut union = LatencyHistogram::default();
        for i in 0..50u64 {
            let s = (i + 1) as f64 * 1e-4;
            a.observe(s);
            union.observe(s);
        }
        for i in 0..50u64 {
            let s = (i + 1) as f64 * 1e-2;
            b.observe(s);
            union.observe(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), union.count());
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(a.percentile(q), union.percentile(q));
        }
    }

    #[test]
    fn degenerate_samples_are_clamped_not_panicking() {
        let mut h = LatencyHistogram::default();
        h.observe(-1.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(0.0);
        assert_eq!(h.count(), 4);
        // Negative/NaN/zero clamp to the zero bucket; infinity saturates.
        assert_eq!(h.percentile(0.5), 0.0);
        assert!(h.percentile(1.0) > 1e9); // ~584 years, the saturation cap
    }

    #[test]
    fn stage_totals_thread_latency_through_merge() {
        let mut a = StageTotals::default();
        a.observe_latency(0.010);
        a.observe_latency(0.020);
        let mut b = StageTotals::default();
        b.observe_latency(0.030);
        b.merge(&a);
        assert_eq!(b.latency.count(), 3);
        assert_close(b.latency_percentile(1.0), 0.030);
        assert_close(b.latency_percentile(0.33), 0.010);
    }

    #[test]
    fn method_metrics_percentile_accessors_read_stage_latency() {
        let mut stages = StageTotals::default();
        for ms in 1..=100u64 {
            stages.observe_latency(ms as f64 / 1000.0);
        }
        let m = MethodMetrics {
            stages,
            ..Default::default()
        };
        assert_close(m.latency_p50_s(), 0.050);
        assert_close(m.latency_p95_s(), 0.095);
        assert_close(m.latency_p99_s(), 0.099);
    }

    #[test]
    fn index_size_is_reported_in_megabytes() {
        let m = MethodMetrics {
            index_size_bytes: 2 * 1024 * 1024,
            ..Default::default()
        };
        assert!((m.index_size_mb() - 2.0).abs() < 1e-9);
    }

    fn stage(filter_s: f64, verify_s: f64) -> StageTotals {
        let mut s = StageTotals::default();
        s.add_query(0.0, 0.0, filter_s, verify_s, 0);
        s
    }

    #[test]
    fn shard_accessors_fall_back_for_unsharded_runs() {
        let mut stages = StageTotals::default();
        stages.add_query(0.1, 0.0, 2.0, 3.0, 5);
        let m = MethodMetrics {
            stages,
            ..Default::default()
        };
        assert!((m.max_shard_time_s() - 5.0).abs() < 1e-12);
        assert_eq!(m.shard_balance(), 1.0);
    }

    #[test]
    fn shard_accessors_report_critical_path_and_balance() {
        let m = MethodMetrics {
            shards: 3,
            shard_stages: vec![stage(1.0, 1.0), stage(0.5, 0.5), stage(2.0, 2.0)],
            ..Default::default()
        };
        assert!((m.max_shard_time_s() - 4.0).abs() < 1e-12);
        assert!((m.shard_balance() - 0.25).abs() < 1e-12);
        // An idle sharded wave balances trivially instead of dividing 0/0.
        let idle = MethodMetrics {
            shard_stages: vec![StageTotals::default(); 3],
            ..m
        };
        assert_eq!(idle.shard_balance(), 1.0);
        assert_eq!(idle.max_shard_time_s(), 0.0);
        assert!(idle.shard_balance().is_finite());
    }

    /// Regression: when routing probes only a shard subset, the skipped
    /// shards' zero seconds must not drag the balance to 0 — balance is
    /// computed over probed shards only.
    #[test]
    fn shard_balance_ignores_unprobed_shards() {
        let m = MethodMetrics {
            shards: 3,
            // Two probed shards (2 s and 1 s) and one the router skipped
            // for the whole wave (no queries, zero time).
            shard_stages: vec![stage(1.0, 1.0), stage(0.5, 0.5), StageTotals::default()],
            ..Default::default()
        };
        assert!(
            (m.shard_balance() - 0.5).abs() < 1e-12,
            "balance must be 1s/2s over the probed shards, got {}",
            m.shard_balance()
        );
        // A wave where only one shard was probed has nothing to balance.
        let single = MethodMetrics {
            shard_stages: vec![stage(1.0, 1.0), StageTotals::default()],
            ..m
        };
        assert_eq!(single.shard_balance(), 1.0);
        // max_shard_time_s still reports the busiest probed shard.
        assert!((single.max_shard_time_s() - 2.0).abs() < 1e-12);
    }
}
