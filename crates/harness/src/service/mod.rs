//! Long-lived batch query service: a claim-to-completion worker pool over
//! one loaded index.
//!
//! The paper measures one query at a time; a reproduction that wants to
//! expose how filtering and verification costs trade off *at scale* has to
//! serve whole workloads. This module is that serving layer — the
//! experiment runner and every figure driver route their workloads through
//! it.
//!
//! # Architecture
//!
//! ```text
//!             ┌──────────────────── QueryService ────────────────────┐
//!  batch ───► │ atomic cursor (claim the next unstarted query)       │
//!             │      │ claim                                         │
//!             │      ▼                                               │
//!             │ ┌─ worker 0 ──┐  ┌─ worker 1 ──┐ … ┌─ worker N ──┐   │
//!             │ │ deadline?   │  │ deadline?   │   │ deadline?   │   │
//!             │ │ filter_into │  │ filter_into │   │ filter_into │   │
//!             │ │  (its set)  │  │  (its set)  │   │  (its set)  │   │
//!             │ │ verify_set  │  │ verify_set  │   │ verify_set  │   │
//!             │ │ record, and │  │ record, and │   │ record, and │   │
//!             │ │ claim again │  │ claim again │   │ claim again │   │
//!             │ └─────────────┘  └─────────────┘   └─────────────┘   │
//!             │      ▼ per-query records + stage timings             │
//!             └──────┴──► BatchReport (records, StageTotals, wall) ──┘
//! ```
//!
//! * **Worker pool** (`pool.rs`) — the batch is an indexed slice; a worker
//!   claims the next unstarted query with an atomic fetch-add and runs it
//!   to completion before claiming again. Claiming is the load-balancing
//!   mechanism: whichever worker is free takes the next query, so skewed
//!   per-query costs never idle the pool. Workers are scoped threads (they
//!   borrow the index and dataset; no `Arc` plumbing), and the scoped
//!   join is the batch's only barrier.
//! * **One query's execution** ([`stages`]) — the filter narrows the
//!   worker's [`CandidateSet`] in place via [`GraphIndex::filter_into`]
//!   and never materializes a `Vec<GraphId>` of candidates; verification
//!   then runs [`GraphIndex::verify_set`] straight off the same bits.
//!
//! # Arena ownership
//!
//! Each worker owns exactly one [`CandidateSet`]. The service (or a shard's
//! core) keeps the sets between batches and lends one to each worker for
//! the batch; every query a worker claims is filtered into its set and
//! verified off it before the next claim. A batch of any size therefore
//! uses exactly one set per worker, and reuse is total after the first
//! batch (or after [`QueryService::prewarm`]). A query that panics midway
//! leaves its set half-written; the next `filter_into` re-targets it.
//!
//! # Determinism
//!
//! With one worker the service claims, filters and verifies queries in
//! batch order — bit-for-bit the sequential runner semantics, including the
//! order-dependent feature learning of Tree+Δ. With several workers each
//! query still runs start to finish on one worker and answer sets are exact
//! per query (verification is exact regardless of filtering power); only
//! the interleaving of queries across workers varies, and with it the
//! order-sensitive *candidate* trajectories of learning methods.
//!
//! # Beyond one index and one closed batch
//!
//! Four sibling modules generalize this serving layer:
//!
//! * [`sharded`] — partitions the dataset across N cooperating shard pools
//!   (each with its own index and worker sets), fans every wave out across
//!   the shards concurrently and merges the per-shard match sets back into
//!   global answers;
//! * [`synopsis`] — the selective shard-routing tier: per-shard label /
//!   degree / size synopses and the [`Router`] that lets a wave skip
//!   shards which provably hold no match, instead of fanning every query
//!   to every shard;
//! * [`admission`] — a bounded, continuously-admitting query queue
//!   (`submit`/`drain` with backpressure and per-query deadlines) that
//!   replaces the closed `run_batch`-only entry point for open traffic;
//! * [`cache`] — the cross-query caching layer: a per-(shard, method) LRU
//!   of hot per-feature candidate bitsets consulted inside the filter
//!   stage, plus an optional whole-answer memo keyed by canonical graph
//!   form and probed at admission before any shard is planned.
//!
//! # Constructor convention
//!
//! Every long-lived object of the serving stack is constructed from the
//! one [`options::ServiceOptions`] builder: `Type::new(opts)` — taking
//! `impl Into<ServiceOptions>` — is the single entry point
//! ([`QueryService::new`], [`ShardedService::new`],
//! [`AdmissionQueue::new`]). New knobs land on `ServiceOptions` only.
//!
//! # Two services, one core
//!
//! [`QueryService`] and [`ShardedService`] share everything that is policy:
//! the batch loop (`run_batch_on`, which every shard executor also
//! calls), memo admission and cache lifecycle (`cache::CacheLevels`), and
//! the deadline predicate (`past`). `QueryService` is deliberately *not*
//! a 1-shard `ShardedService`: it borrows `&dyn GraphIndex` + `&Dataset`
//! from its caller, while persistent shard executors need `'static`
//! ownership of both. A façade would also add a channel hop and a mutex per
//! wave to the unsharded path while deleting no loop that is not already
//! shared.

pub mod admission;
pub mod cache;
pub mod fault;
pub mod options;
mod pool;
pub mod sharded;
pub mod stages;
pub mod synopsis;

pub use admission::{AdmissionQueue, AdmittedQuery, CostModel, IngestOp, SubmitError, Ticket};
pub use cache::{answer_memo_key, AnswerEntry, AnswerMemo, CachePolicy, FeatureCache, Lru};
pub use fault::{silence_injected_panics, FaultPlan, FaultSpec, InjectedPanic};
pub use options::ServiceOptions;
pub use sharded::{
    partition_dataset, ShardPart, ShardStrategy, ShardedQueryRecord, ShardedReport, ShardedService,
    RETRY_ROUNDS,
};
pub use stages::{QueryOutcome, QueryRecord};
pub use synopsis::{Router, RoutingMode};

use crate::metrics::{counted_false_positive_ratio, CacheCounters, StageTotals, Stopwatch};
use cache::CacheLevels;
pub(crate) use pool::run_batch_on;
use sqbench_graph::{Dataset, Graph};
use sqbench_index::{CandidateSet, GraphIndex};
use std::time::Instant;

/// `true` when `deadline` has passed at `now`. Strict `>` — a query exactly
/// at its deadline is still in time to start. This is the serving stack's
/// one deadline predicate: memo admission, the pool's claim check and the
/// sharded merge all ask it, so no query can be "too late to probe the
/// memo" yet "in time to execute".
pub(crate) fn past(deadline: Option<Instant>, now: Instant) -> bool {
    deadline.is_some_and(|d| now > d)
}

/// The batch query service. Construct once per loaded index, then feed it
/// any number of batches; the workers' candidate sets — and, when enabled,
/// both cache levels — persist between batches.
pub struct QueryService<'a> {
    index: &'a dyn GraphIndex,
    dataset: &'a Dataset,
    /// One candidate set per worker.
    sets: Vec<CandidateSet>,
    /// The feature cache shared by the pool's workers and the whole-answer
    /// memo probed at admission (both absent by default).
    caches: CacheLevels,
}

/// Everything a batch run produced: one record per query (in batch order)
/// plus aggregate stage totals and the batch wall time.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query records, indexed like the submitted batch. `None` marks a
    /// query that produced no record — skipped on deadline or failed (see
    /// the matching [`BatchReport::outcomes`] entry for which).
    pub records: Vec<Option<QueryRecord>>,
    /// Per-query outcomes, indexed like the submitted batch. At this layer
    /// the vocabulary is `Complete` (record present), `TimedOut` (skipped
    /// on deadline) or `Failed` (the query's execution panicked, or its
    /// worker died before reporting); the sharded merge refines these
    /// across shards.
    pub outcomes: Vec<QueryOutcome>,
    /// Stage totals over the executed queries.
    pub totals: StageTotals,
    /// Wall-clock seconds the batch took end to end.
    pub wall_s: f64,
    /// Workers the batch actually ran on (after clamping to batch size).
    pub workers: usize,
}

impl BatchReport {
    /// Number of queries that executed (claimed before the deadline).
    pub fn executed(&self) -> usize {
        self.records.iter().flatten().count()
    }

    /// `true` when at least one query was skipped on deadline.
    pub fn timed_out(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, QueryOutcome::TimedOut))
    }

    /// Number of queries whose execution failed (panicked or lost).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, QueryOutcome::Failed))
            .count()
    }

    /// Workload false positive ratio (Equation 3) over executed queries.
    /// `0.0` for an empty batch (no executed queries) — never NaN, so the
    /// value is always safe to write into a CSV report.
    pub fn false_positive_ratio(&self) -> f64 {
        counted_false_positive_ratio(
            self.records
                .iter()
                .flatten()
                .map(|r| (r.candidate_count, r.answer_count())),
        )
    }

    /// Executed queries per wall-clock second — the service's throughput.
    /// `0.0` for an empty or zero-duration batch (and for a corrupted
    /// non-finite wall time) — never NaN or infinity.
    pub fn throughput_qps(&self) -> f64 {
        if self.executed() == 0 || self.wall_s <= 0.0 || !self.wall_s.is_finite() {
            0.0
        } else {
            self.executed() as f64 / self.wall_s
        }
    }
}

impl<'a> QueryService<'a> {
    /// Creates a service over a loaded index and its dataset from the
    /// unified options (`workers` and `cache` are read; the sharding knobs
    /// are ignored at this layer).
    pub fn new(
        index: &'a dyn GraphIndex,
        dataset: &'a Dataset,
        opts: impl Into<ServiceOptions>,
    ) -> Self {
        let opts = opts.into();
        QueryService {
            index,
            dataset,
            sets: (0..opts.workers.max(1))
                .map(|_| CandidateSet::empty(0))
                .collect(),
            caches: CacheLevels::new(opts.cache),
        }
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.sets.len()
    }

    /// Cumulative hit/miss/eviction counters of both cache levels (all
    /// zeros when caching is disabled).
    pub fn cache_counters(&self) -> CacheCounters {
        let mut counters = CacheCounters::default();
        self.caches.add_counters(&mut counters);
        counters
    }

    /// Drops every entry of both cache levels and bumps their epochs.
    /// `QueryService` borrows its index and dataset, so they cannot be
    /// mutated while it is alive — staleness is ruled out at compile time
    /// here. The online mutation surface is [`ShardedService`], whose
    /// `insert_graph`/`remove_graph` (and drained [`IngestOp`] mutations)
    /// call its equivalent of this hook automatically.
    pub fn invalidate_caches(&self) {
        self.caches.invalidate_all();
    }

    /// Runs one batch on the worker pool. Queries claimed after
    /// `deadline` are skipped (recorded as `None`), mirroring the
    /// experiment budget semantics; `None` means no deadline.
    ///
    /// Memo admission first (see [`cache`]): hits are answered on the spot,
    /// the misses run as one sub-batch on the pool (preserving relative
    /// batch order), and both merge back by batch index.
    pub fn run_batch(&mut self, queries: &[&Graph], deadline: Option<Instant>) -> BatchReport {
        let watch = Stopwatch::start();
        let admission = self.caches.admit(queries, |_| deadline);
        let misses: Vec<&Graph> = admission.misses.iter().map(|&i| queries[i]).collect();
        let mut sub = run_batch_on(
            self.index,
            self.dataset,
            &mut self.sets,
            &misses,
            |_| deadline,
            None,
            self.caches.feature_store(),
        );

        let mut records: Vec<Option<QueryRecord>> = Vec::new();
        records.resize_with(queries.len(), || None);
        let mut outcomes = vec![QueryOutcome::Failed; queries.len()];
        let mut totals = sub.totals;
        for (i, entry, probe_s) in &admission.hits {
            totals.add_query(0.0, *probe_s, 0.0, 0.0, entry.candidates_pruned);
            totals.observe_latency(*probe_s);
            records[*i] = Some(QueryRecord {
                candidate_count: entry.candidate_count,
                candidates_pruned: entry.candidates_pruned,
                answers: entry.answers.clone(),
                queue_wait_s: 0.0,
                cache_probe_s: *probe_s,
                filter_s: 0.0,
                verify_s: 0.0,
            });
            outcomes[*i] = QueryOutcome::Complete;
        }
        for (sub_idx, &i) in admission.misses.iter().enumerate() {
            if let Some(r) = &sub.records[sub_idx] {
                admission.settle(
                    i,
                    sub.outcomes[sub_idx],
                    &r.answers,
                    r.candidate_count,
                    r.candidates_pruned,
                );
            }
            records[i] = sub.records[sub_idx].take();
            outcomes[i] = sub.outcomes[sub_idx];
        }
        BatchReport {
            records,
            outcomes,
            totals,
            wall_s: watch.elapsed_secs(),
            workers: sub.workers,
        }
    }

    /// Warm-up helper: sizes every worker's candidate set to the index's
    /// universe, so even a batch's first queries filter into recycled
    /// memory.
    pub fn prewarm(&mut self) {
        let universe = self.index.universe();
        self.sets.fill_with(|| CandidateSet::empty(universe));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
    use sqbench_index::{build_index, MethodConfig, MethodKind};
    use std::time::Duration;

    fn setup(graphs: usize) -> (Dataset, Vec<sqbench_graph::Graph>) {
        let ds = GraphGen::new(
            GraphGenConfig::default()
                .with_graph_count(graphs)
                .with_avg_nodes(12)
                .with_avg_density(0.15)
                .with_label_count(4)
                .with_seed(11),
        )
        .generate();
        let workload = QueryGen::new(5).generate(&ds, 8, 4);
        let queries: Vec<sqbench_graph::Graph> = workload.iter().map(|(q, _)| q.clone()).collect();
        (ds, queries)
    }

    #[test]
    fn single_worker_batch_equals_one_shot_queries() {
        let (ds, queries) = setup(16);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new());
        let report = service.run_batch(&refs, None);
        assert_eq!(report.workers, 1);
        assert_eq!(report.executed(), queries.len());
        assert!(!report.timed_out());
        for (record, query) in report.records.iter().zip(queries.iter()) {
            let record = record.as_ref().expect("executed");
            let outcome = index.query(&ds, query);
            assert_eq!(record.answers, outcome.answers);
            assert_eq!(record.candidate_count, outcome.candidates.len());
        }
        assert_eq!(report.totals.queries as usize, queries.len());
        assert!(report.totals.filter_s >= 0.0);
    }

    #[test]
    fn multi_worker_batch_matches_single_worker_answers() {
        let (ds, queries) = setup(20);
        let refs: Vec<&Graph> = queries.iter().collect();
        for kind in MethodKind::ALL {
            let index = build_index(kind, &MethodConfig::fast(), &ds);
            let mut serial = QueryService::new(&*index, &ds, ServiceOptions::new().workers(1));
            let serial_report = serial.run_batch(&refs, None);
            let mut pooled = QueryService::new(&*index, &ds, ServiceOptions::new().workers(4));
            let pooled_report = pooled.run_batch(&refs, None);
            assert_eq!(pooled_report.workers, 4.min(queries.len()));
            for (i, (s, p)) in serial_report
                .records
                .iter()
                .zip(pooled_report.records.iter())
                .enumerate()
            {
                let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
                assert_eq!(
                    s.answers,
                    p.answers,
                    "{}: answers diverged on query {i}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn each_worker_keeps_one_set_across_batches() {
        let (ds, queries) = setup(16);
        let index = build_index(MethodKind::GIndex, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(2));
        service.prewarm();
        let first = service.run_batch(&refs, None);
        let second = service.run_batch(&refs, None);
        assert_eq!(service.sets.len(), 2, "one set per worker");
        for set in &service.sets {
            assert_eq!(set.universe(), index.universe());
        }
        assert_eq!(first.executed(), second.executed());
        for (a, b) in first.records.iter().zip(second.records.iter()) {
            assert_eq!(a.as_ref().unwrap().answers, b.as_ref().unwrap().answers);
        }
    }

    /// A query is skipped exactly when its `deadline_of` entry is `past`
    /// at claim time; every other query runs and answers exactly. The
    /// boundary (a claim exactly at its deadline is in time) is `past`'s
    /// own, pinned by `past_is_strict_at_the_deadline`.
    #[test]
    fn deadline_of_skips_exactly_the_expired_queries() {
        let (ds, queries) = setup(12);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let n = refs.len();
        let now = Instant::now();
        let expired = now - Duration::from_secs(1);
        let later = now + Duration::from_secs(3600);
        let mut subset = vec![None; n];
        subset[1] = Some(expired);
        subset[4] = Some(expired);
        let table = [
            ("none", vec![None; n], vec![]),
            ("all expired", vec![Some(expired); n], (0..n).collect()),
            ("a subset expired", subset, vec![1, 4]),
            ("not yet reached", vec![Some(later); n], vec![]),
        ];
        for (name, deadlines, skipped) in table {
            let mut sets: Vec<CandidateSet> = (0..2).map(|_| CandidateSet::empty(0)).collect();
            let report = run_batch_on(&*index, &ds, &mut sets, &refs, |i| deadlines[i], None, None);
            assert_eq!(report.timed_out(), !skipped.is_empty(), "{name}");
            assert_eq!(report.executed(), n - skipped.len(), "{name}");
            for (i, (record, outcome)) in report.records.iter().zip(&report.outcomes).enumerate() {
                if skipped.contains(&i) {
                    assert_eq!(*outcome, QueryOutcome::TimedOut, "{name}: query {i}");
                    assert!(record.is_none(), "{name}: query {i}");
                } else {
                    let record = record.as_ref().expect("live query executed");
                    assert_eq!(record.answers, index.query(&ds, &queries[i]).answers);
                }
            }
            if skipped.len() == n {
                assert_eq!(report.false_positive_ratio(), 0.0, "{name}");
                assert_eq!(report.throughput_qps(), 0.0, "{name}");
            }
        }
    }

    /// Unsharded latency is measured from the batch start: on one worker
    /// each query's summed stage walk ends before the next one's claim, so
    /// the sums never decrease in batch order, and none exceeds the batch
    /// wall time read from the same start.
    #[test]
    fn stage_walk_is_monotone_and_within_the_batch_wall_time() {
        let (ds, queries) = setup(16);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut sets = vec![CandidateSet::empty(0)];
        let report = run_batch_on(&*index, &ds, &mut sets, &refs, |_| None, None, None);
        let mut previous = 0.0;
        for (i, record) in report.records.iter().enumerate() {
            let r = record.as_ref().expect("executed");
            let walk = r.queue_wait_s + r.cache_probe_s + r.filter_s + r.verify_s;
            assert!(walk >= previous, "query {i}: {walk} < {previous}");
            assert!(
                walk <= report.wall_s,
                "query {i}: {walk} > {}",
                report.wall_s
            );
            previous = walk;
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (ds, _) = setup(6);
        let index = build_index(MethodKind::GCode, &MethodConfig::fast(), &ds);
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(3));
        let report = service.run_batch(&[], None);
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.executed(), 0);
        assert!(!report.timed_out());
    }

    /// Empty batches must not leak NaN (0/0) or infinity into the metrics
    /// that end up in CSV reports — every ratio degrades to exactly 0.0.
    #[test]
    fn empty_batch_divisions_are_zero_not_nan() {
        let report = BatchReport {
            records: Vec::new(),
            outcomes: Vec::new(),
            totals: StageTotals::default(),
            wall_s: 0.0, // degenerate wall time on top of zero queries
            workers: 1,
        };
        assert_eq!(report.false_positive_ratio(), 0.0);
        assert_eq!(report.throughput_qps(), 0.0);
        assert!(report.false_positive_ratio().is_finite());
        assert!(report.throughput_qps().is_finite());
        let corrupt = BatchReport {
            records: vec![None],
            outcomes: vec![QueryOutcome::TimedOut],
            totals: StageTotals::default(),
            wall_s: f64::NAN,
            workers: 1,
        };
        assert_eq!(corrupt.throughput_qps(), 0.0);
        assert_eq!(corrupt.false_positive_ratio(), 0.0);
    }

    /// Tentpole: a query whose verify stage panics is recorded as `Failed`
    /// while every other query of the batch still completes — on the
    /// single-worker fast path and on a multi-worker pool (where the
    /// panicking worker must keep claiming with the same set).
    #[test]
    fn injected_verify_panic_is_isolated_to_its_query() {
        fault::silence_injected_panics();
        let (ds, queries) = setup(14);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let tickets: Vec<Ticket> = (0..refs.len() as u64).collect();
        for workers in [1usize, 4] {
            let plan = FaultPlan::new().panic_in_verify(2, 1).panic_in_verify(5, 1);
            let mut sets: Vec<CandidateSet> =
                (0..workers).map(|_| CandidateSet::empty(0)).collect();
            let report = run_batch_on(
                &*index,
                &ds,
                &mut sets,
                &refs,
                |_| None,
                Some(pool::WaveFaults {
                    plan: &plan,
                    tickets: &tickets,
                }),
                None,
            );
            assert_eq!(plan.injected_panics(), 2, "{workers} workers");
            assert_eq!(report.failed(), 2);
            assert_eq!(report.executed(), refs.len() - 2);
            assert!(!report.timed_out());
            for (i, (record, outcome)) in report
                .records
                .iter()
                .zip(report.outcomes.iter())
                .enumerate()
            {
                if i == 2 || i == 5 {
                    assert_eq!(*outcome, QueryOutcome::Failed);
                    assert!(record.is_none());
                } else {
                    assert_eq!(*outcome, QueryOutcome::Complete);
                    let record = record.as_ref().expect("healthy query completed");
                    assert_eq!(record.answers, index.query(&ds, &queries[i]).answers);
                }
            }
        }
    }

    /// The fault hook really is zero-cost-off: a fault-free batch reports
    /// all-complete outcomes and bit-identical answers with `faults: None`.
    #[test]
    fn fault_free_batch_reports_all_complete() {
        let (ds, queries) = setup(10);
        let index = build_index(MethodKind::Grapes, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(3));
        let report = service.run_batch(&refs, None);
        assert_eq!(report.failed(), 0);
        assert!(report.outcomes.iter().all(|o| *o == QueryOutcome::Complete));
    }

    /// Tentpole: with the feature cache enabled, answers stay bit-identical
    /// to the uncached service for every participating method, and the
    /// caching methods actually hit on a repeated batch.
    #[test]
    fn feature_cache_keeps_answers_identical() {
        let (ds, queries) = setup(18);
        let refs: Vec<&Graph> = queries.iter().collect();
        for kind in MethodKind::ALL {
            let index = build_index(kind, &MethodConfig::fast(), &ds);
            let mut cold = QueryService::new(&*index, &ds, ServiceOptions::new());
            let cold_report = cold.run_batch(&refs, None);
            let mut warm = QueryService::new(
                &*index,
                &ds,
                ServiceOptions::new().cache(CachePolicy {
                    feature_capacity: 512,
                    answer_capacity: 0,
                }),
            );
            // Two batches: the first populates, the second probes hot.
            warm.run_batch(&refs, None);
            let warm_report = warm.run_batch(&refs, None);
            for (i, (c, w)) in cold_report
                .records
                .iter()
                .zip(warm_report.records.iter())
                .enumerate()
            {
                assert_eq!(
                    c.as_ref().unwrap().answers,
                    w.as_ref().unwrap().answers,
                    "{}: cached answers diverged on query {i}",
                    kind.name()
                );
            }
            let counters = warm.cache_counters();
            match kind {
                MethodKind::Ggsx | MethodKind::Grapes | MethodKind::GIndex => {
                    assert!(
                        counters.feature_hits > 0,
                        "{} participates and must hit on a repeat batch",
                        kind.name()
                    );
                }
                MethodKind::CtIndex | MethodKind::GCode | MethodKind::Scan => {
                    assert_eq!(
                        (counters.feature_hits, counters.feature_misses),
                        (0, 0),
                        "{} opts out and must never probe",
                        kind.name()
                    );
                }
                // Tree+Δ probes (tree features hit; Δ probes depend on the
                // learned set) — participation is covered above.
                MethodKind::TreeDelta => {}
            }
        }
    }

    /// The deadline predicate is strict: exactly at the deadline a query is
    /// still in time, for the memo probe and for the pool's claim alike.
    #[test]
    fn past_is_strict_at_the_deadline() {
        let d = Instant::now();
        let tick = Duration::from_nanos(1);
        assert!(!past(None, d));
        assert!(!past(Some(d), d), "exactly at the deadline is in time");
        assert!(!past(Some(d + tick), d));
        assert!(past(Some(d), d + tick));
    }

    /// One admission core under both services: the same warm wave through
    /// `QueryService` and a 1-shard fan-out `ShardedService` gives the same
    /// answers and the same memo traffic; a hit does no filter or verify
    /// work and reaches no shard; invalidation makes the next wave miss.
    #[test]
    fn warm_wave_is_identical_through_both_services() {
        let (ds, queries) = setup(16);
        let refs: Vec<&Graph> = queries.iter().collect();
        let config = MethodConfig::fast();
        let opts = ServiceOptions::new().cache(CachePolicy::enabled());
        let index = build_index(MethodKind::Ggsx, &config, &ds);
        let mut single = QueryService::new(&*index, &ds, opts.clone());
        let mut sharded = ShardedService::new(MethodKind::Ggsx, &config, &ds, opts);
        assert_eq!(sharded.shard_count(), 1);
        single.run_batch(&refs, None);
        sharded.run_wave(&refs, None);
        let warm_single = single.run_batch(&refs, None);
        let warm_sharded = sharded.run_wave(&refs, None);
        let mut eligible = 0u64;
        for (i, query) in queries.iter().enumerate() {
            let a = warm_single.records[i].as_ref().expect("executed");
            let b = &warm_sharded.records[i];
            assert_eq!(a.answers, b.answers, "query {i}");
            assert_eq!(a.answers, index.query(&ds, query).answers, "query {i}");
            let memo_served = answer_memo_key(query).is_some();
            eligible += memo_served as u64;
            assert_eq!(a.filter_s + a.verify_s == 0.0, memo_served, "query {i}");
            assert_eq!(b.shards_probed, usize::from(!memo_served), "query {i}");
        }
        assert!(eligible > 0, "workload must contain memo-eligible queries");
        let (s, w) = (single.cache_counters(), sharded.cache_counters());
        assert_eq!(s.answer_hits, eligible);
        assert_eq!(
            (s.answer_hits, s.answer_misses),
            (w.answer_hits, w.answer_misses)
        );
        single.invalidate_caches();
        assert_eq!(single.run_batch(&refs, None).executed(), refs.len());
        assert_eq!(single.cache_counters().answer_hits, eligible);
    }

    #[test]
    fn more_workers_than_queries_clamps() {
        let (ds, queries) = setup(8);
        let index = build_index(MethodKind::CtIndex, &MethodConfig::fast(), &ds);
        let two: Vec<&Graph> = queries.iter().take(2).collect();
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(16));
        assert_eq!(service.worker_count(), 16);
        let report = service.run_batch(&two, None);
        assert_eq!(report.workers, 2, "batch must not spawn idle workers");
        assert_eq!(report.executed(), 2);
    }
}
