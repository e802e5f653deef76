//! Long-lived batch query service: a pipelined filter → verify worker pool
//! over one loaded index.
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
//!             ┌────────────────────── QueryService ─────────────────────┐
//!  batch ───► │ BatchQueue (injector, atomic claim = work stealing)     │
//!             │      │ claim                                            │
//!             │      ▼                                                  │
//!             │ ┌─ worker 0 ─┐  ┌─ worker 1 ─┐ … ┌─ worker N ─┐         │
//!             │ │ filter_into│  │ filter_into│   │ filter_into│  stage 1│
//!             │ │  (arena)   │  │  (arena)   │   │  (arena)   │         │
//!             │ │     ▼      │  │     ▼      │   │     ▼      │         │
//!             │ │ VerifyJob ─┼─► StealDeque per worker ◄──────┼─ steal  │
//!             │ │     ▼      │  │     ▼      │   │     ▼      │         │
//!             │ │ verify_set │  │ verify_set │   │ verify_set │  stage 2│
//!             │ └────────────┘  └────────────┘   └────────────┘         │
//!             │      ▼ per-query records + stage timings                │
//!             └──────┴──► BatchReport (records, StageTotals, wall time) │
//!             └─────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Request queue** ([`queue`]) — the batch is an indexed slice; workers
//!   claim the next unstarted query with an atomic fetch-add. Claiming is
//!   the load-balancing mechanism: whichever worker is free takes the next
//!   query, so skewed per-query costs never idle the pool.
//! * **Worker pool** ([`pool`]) — workers are scoped threads (they borrow
//!   the index and dataset; no `Arc` plumbing), but each worker's
//!   [`pool::WorkerArena`] is owned by the service and **persists across
//!   batches**: the filter stage narrows a recycled [`CandidateSet`] in
//!   place via [`GraphIndex::filter_into`] and never materializes a
//!   `Vec<GraphId>` of candidates.
//! * **Pipeline stages** ([`stages`]) — filtering produces a
//!   [`stages::VerifyJob`] carrying the arena; verification runs
//!   [`GraphIndex::verify_set`] straight off the bits and recycles the
//!   arena. In a multi-worker pool each worker *filters ahead* by up to two
//!   queries before verifying, parking the filtered jobs in its
//!   [`queue::StealDeque`] — while it filters (or grinds through a long
//!   verification) those parked jobs are stealable by idle workers, which
//!   is what lets the filter of one query overlap the verification of
//!   another across the pool.
//!
//! # Arena ownership
//!
//! A [`CandidateSet`] arena is owned by exactly one [`pool::WorkerArena`]
//! at rest and by exactly one [`stages::VerifyJob`] in flight. The verify
//! stage returns the set to the pool of whichever worker ran it (stealing
//! migrates sets between workers); the filter-ahead bound caps in-flight
//! jobs at two per worker, so the fleet-wide set count stays a small
//! multiple of the pool size and reuse is total after warm-up.
//!
//! # Determinism
//!
//! With one worker the service claims, filters and verifies queries in
//! batch order — bit-for-bit the sequential runner semantics, including the
//! order-dependent feature learning of Tree+Δ. With several workers answer
//! sets are still exact per query (verification is exact regardless of
//! filtering power); only order-sensitive *candidate* trajectories of
//! learning methods may differ.
//!
//! # Beyond one index and one closed batch
//!
//! Four sibling modules generalize this serving layer:
//!
//! * [`sharded`] — partitions the dataset across N cooperating shard pools
//!   (each with its own index and arenas), fans every wave out across the
//!   shards concurrently and merges the per-shard match sets back into
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
pub mod pool;
pub mod queue;
pub mod sharded;
pub mod stages;
pub mod synopsis;

pub use admission::{AdmissionQueue, AdmittedQuery, CostModel, IngestOp, SubmitError, Ticket};
pub use cache::{answer_memo_key, AnswerEntry, AnswerMemo, CachePolicy, FeatureCache, Lru};
pub use fault::{silence_injected_panics, FaultPlan, FaultSpec, InjectedPanic};
pub use options::ServiceOptions;
pub use sharded::{
    partition_dataset, RetryPolicy, ShardPart, ShardStrategy, ShardedQueryRecord, ShardedReport,
    ShardedService,
};
pub use stages::{QueryOutcome, QueryRecord};
pub use synopsis::{Router, RoutingMode};

use crate::metrics::{counted_false_positive_ratio, CacheCounters, StageTotals, Stopwatch};
use cache::CacheLevels;
use pool::{worker_loop, BatchShared, WaveFaults, WorkerArena};
use sqbench_graph::{Dataset, Graph};
use sqbench_index::{CandidateSet, FeatureCacheStore, GraphIndex};
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
/// any number of batches; worker arenas — and, when enabled, both cache
/// levels — persist between batches.
pub struct QueryService<'a> {
    index: &'a dyn GraphIndex,
    dataset: &'a Dataset,
    arenas: Vec<WorkerArena>,
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
            arenas: (0..opts.workers.max(1))
                .map(|_| WorkerArena::default())
                .collect(),
            caches: CacheLevels::new(opts.cache),
        }
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.arenas.len()
    }

    /// Candidate sets currently pooled across all worker arenas
    /// (diagnostics: after a batch this is the in-flight high-water mark).
    pub fn pooled_sets(&self) -> usize {
        self.arenas.iter().map(WorkerArena::pooled_sets).sum()
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

    /// Runs one batch through the pipeline. Queries claimed after
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
            &mut self.arenas,
            &misses,
            deadline,
            None,
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

    /// Warm-up helper: pre-sizes every worker's arena pool with one set for
    /// the index's universe, so even a batch's first queries filter into
    /// recycled memory.
    pub fn prewarm(&mut self) {
        let universe = self.index.universe();
        for arena in &mut self.arenas {
            if arena.pooled_sets() == 0 {
                arena.recycle(CandidateSet::empty(universe));
            }
        }
    }
}

/// Runs one batch of queries through the pipelined worker pool, drawing the
/// per-worker candidate arenas from `arenas` (which persist across calls —
/// this is the body of [`QueryService::run_batch`], factored out so callers
/// that *own* their index and dataset, like the sharded service's per-shard
/// pools, can reuse it without the service's borrowed-lifetime plumbing).
///
/// `deadline` is the batch-wide cutoff; `per_query` optionally attaches an
/// individual deadline to each query (indexed like `queries`); `faults`
/// optionally arms the fault-injection hooks (tickets indexed like
/// `queries`); `cache` optionally shares a cross-query feature-bitset
/// store with every worker's filter stage (see
/// [`sqbench_index::GraphIndex::filter_into_cached`]). Workers spawn up to
/// `arenas.len()` strong, clamped to the batch size.
#[allow(clippy::too_many_arguments)] // internal fan-in point: every shard caller threads the same set
pub(crate) fn run_batch_on(
    index: &dyn GraphIndex,
    dataset: &Dataset,
    arenas: &mut [WorkerArena],
    queries: &[&Graph],
    deadline: Option<Instant>,
    per_query: Option<&[Option<Instant>]>,
    faults: Option<WaveFaults<'_>>,
    cache: Option<&dyn FeatureCacheStore>,
) -> BatchReport {
    let workers = arenas.len().min(queries.len()).max(1);
    let shared = BatchShared::with_deadlines(queries, workers, deadline, per_query, faults, cache);
    let watch = Stopwatch::start();
    let completed: Vec<Vec<(usize, QueryOutcome, Option<QueryRecord>)>> = if workers == 1 {
        // In-place fast path: no thread spawn, strict batch order.
        vec![worker_loop(0, &shared, index, dataset, &mut arenas[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = arenas
                .iter_mut()
                .take(workers)
                .enumerate()
                .map(|(w, arena)| {
                    let shared = &shared;
                    scope.spawn(move || worker_loop(w, shared, index, dataset, arena))
                })
                .collect();
            // Per-query panics are caught inside `worker_loop`, so a join
            // error means the worker died in pool infrastructure. Don't
            // take the whole batch down with it: the queries that worker
            // claimed but never reported keep their `Failed` default
            // below, and the sharded layer's retry can still recover them.
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        })
    };
    let wall_s = watch.elapsed_secs();

    let mut records: Vec<Option<QueryRecord>> = Vec::new();
    records.resize_with(queries.len(), || None);
    // Failed-by-default: a query nobody reported (its worker died) must
    // still carry an explicit outcome.
    let mut outcomes = vec![QueryOutcome::Failed; queries.len()];
    let mut totals = StageTotals::default();
    for (idx, outcome, record) in completed.into_iter().flatten() {
        if let Some(r) = &record {
            totals.add_query(
                r.queue_wait_s,
                r.cache_probe_s,
                r.filter_s,
                r.verify_s,
                r.candidates_pruned,
            );
            // Unsharded latency = the query's summed stage walk (it runs
            // on one worker start to finish; the sharded merge overrides
            // this with true submission-to-finalize time).
            totals.observe_latency(r.queue_wait_s + r.cache_probe_s + r.filter_s + r.verify_s);
        }
        records[idx] = record;
        outcomes[idx] = outcome;
    }
    BatchReport {
        records,
        outcomes,
        totals,
        wall_s,
        workers,
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
    fn arenas_persist_and_are_recycled_across_batches() {
        let (ds, queries) = setup(16);
        let index = build_index(MethodKind::GIndex, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(2));
        service.prewarm();
        let prewarmed = service.pooled_sets();
        assert_eq!(prewarmed, 2);
        let first = service.run_batch(&refs, None);
        // Every arena returned to a pool; no set leaked into jobs.
        assert!(service.pooled_sets() >= prewarmed);
        let second = service.run_batch(&refs, None);
        assert_eq!(first.executed(), second.executed());
        for (a, b) in first.records.iter().zip(second.records.iter()) {
            assert_eq!(a.as_ref().unwrap().answers, b.as_ref().unwrap().answers);
        }
    }

    #[test]
    fn expired_deadline_skips_all_queries() {
        let (ds, queries) = setup(10);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut service = QueryService::new(&*index, &ds, ServiceOptions::new().workers(2));
        let past = Instant::now() - Duration::from_secs(1);
        let report = service.run_batch(&refs, Some(past));
        assert!(report.timed_out());
        assert_eq!(report.executed(), 0);
        assert_eq!(report.false_positive_ratio(), 0.0);
        assert_eq!(report.throughput_qps(), 0.0);
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

    #[test]
    fn per_query_deadlines_skip_only_expired_queries() {
        let (ds, queries) = setup(12);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut arenas: Vec<WorkerArena> = (0..2).map(|_| WorkerArena::default()).collect();
        let past = Instant::now() - Duration::from_secs(1);
        let mut per_query: Vec<Option<Instant>> = vec![None; refs.len()];
        per_query[1] = Some(past);
        per_query[4] = Some(past);
        let report = run_batch_on(
            &*index,
            &ds,
            &mut arenas,
            &refs,
            None,
            Some(&per_query),
            None,
            None,
        );
        assert!(report.timed_out());
        assert_eq!(report.executed(), refs.len() - 2);
        for (i, record) in report.records.iter().enumerate() {
            if i == 1 || i == 4 {
                assert!(record.is_none(), "expired query {i} must be skipped");
            } else {
                let record = record.as_ref().expect("live query executed");
                assert_eq!(record.answers, index.query(&ds, &queries[i]).answers);
            }
        }
    }

    /// Tentpole: a query whose verify stage panics is recorded as `Failed`
    /// while every other query of the batch still completes — on the
    /// single-worker fast path and on a multi-worker pool (where the
    /// panicking claim must not deadlock the other workers' drain).
    #[test]
    fn injected_verify_panic_is_isolated_to_its_query() {
        fault::silence_injected_panics();
        let (ds, queries) = setup(14);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let refs: Vec<&Graph> = queries.iter().collect();
        let tickets: Vec<Ticket> = (0..refs.len() as u64).collect();
        for workers in [1usize, 4] {
            let plan = FaultPlan::new().panic_in_verify(2, 1).panic_in_verify(5, 1);
            let mut arenas: Vec<WorkerArena> =
                (0..workers).map(|_| WorkerArena::default()).collect();
            let report = run_batch_on(
                &*index,
                &ds,
                &mut arenas,
                &refs,
                None,
                None,
                Some(WaveFaults {
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
