//! Sharded query service: partition the dataset, build one index per
//! shard, fan every query wave out to all shard pools concurrently, and
//! merge the per-shard match sets back into global answers.
//!
//! The paper's study (and the batch [`QueryService`](super::QueryService))
//! serves one index over one dataset. That stops scaling when the dataset
//! outgrows a single index build — the regime the billion-node
//! partition-then-match line of work targets. This module generalizes the
//! serving path to N shards:
//!
//! ```text
//!              ┌────────────────────── ShardedService ──────────────────────┐
//!  submit ───► │ AdmissionQueue (bounded, multi-producer, per-query         │
//!  submit ───► │                 deadlines)                                 │
//!              │      │ drain → wave (admission order)                      │
//!              │      ▼                                                     │
//!              │ ┌─ shard 0 ──────┐ ┌─ shard 1 ──────┐ … ┌─ shard N ──────┐ │
//!              │ │ Dataset slice  │ │ Dataset slice  │   │ Dataset slice  │ │
//!              │ │ own GraphIndex │ │ own GraphIndex │   │ own GraphIndex │ │
//!              │ │ worker pool +  │ │ worker pool +  │   │ worker pool +  │ │
//!              │ │ arenas         │ │ arenas         │   │ arenas         │ │
//!              │ └───────┬────────┘ └───────┬────────┘   └───────┬────────┘ │
//!              │         ▼ local ids        ▼                    ▼          │
//!              │      merge: map → global ids, union answers, aggregate     │
//!              │             per-shard StageTotals                          │
//!              └──────────► ShardedReport (records in wave order) ──────────┘
//! ```
//!
//! * **Partitioner** (`partition`) — [`partition_dataset`] splits the
//!   dataset by [`ShardStrategy`]: `RoundRobin` (graph *i* → shard
//!   *i mod N*; keeps id-adjacent graphs apart, good when sizes are
//!   i.i.d.), `SizeBalanced` (longest-processing-time greedy on
//!   vertex+edge weight; good when graph sizes are skewed) or `LabelAware` (greedy dominant-label
//!   clustering under a balance cap; co-locates label-coherent graphs so
//!   synopsis routing skips shards even on interleaved ingest). Each shard
//!   remembers its local→global id mapping, and its dataset slice
//!   **shares** graph storage with the source dataset (`Arc` handles, no
//!   deep copies), so partitioning costs pointers, not bytes.
//! * **Per-shard pools** (`executor`) — each shard owns its dataset slice,
//!   its index and its worker arenas behind a persistent executor thread
//!   that runs the shared `run_batch_on` loop per probe job, so shards
//!   progress concurrently and arenas persist across waves exactly like
//!   the single-index service.
//! * **Router** — before fan-out, the wave consults the per-shard
//!   [`Router`] synopses (under [`RoutingMode::Synopsis`]) and dispatches
//!   each query only to shards that can possibly hold a match; skipped
//!   shards are proven matchless, so routed answers stay bit-identical.
//!   Per-query [`ShardedQueryRecord::shards_probed`] /
//!   [`ShardedQueryRecord::shards_skipped`] account for the savings.
//! * **Merge** (`merge`) — per query, shard-local answer ids are mapped
//!   through the shard's id table and unioned. Shards partition the
//!   dataset, so the union is disjoint and the merged answer set is
//!   *bit-identical* to the unsharded service's (verification is exact on
//!   every shard); only filtering power — and therefore candidate counts —
//!   may differ, because each shard mines/encodes features over its own slice.
//!
//! A query expires if *any* shard had to skip it on deadline — a partially
//! executed query would otherwise report a silently incomplete answer set.

mod executor;
mod merge;
mod partition;
#[cfg(test)]
mod tests;

pub use merge::RetryPolicy;
pub use partition::{partition_dataset, ShardPart, ShardStrategy};

use super::admission::{AdmissionQueue, AdmittedQuery, IngestOp, Ticket};
use super::cache::{CacheLevels, CachePolicy};
use super::options::ServiceOptions;
use super::stages::QueryOutcome;
use super::synopsis::{Router, RoutingMode};
use crate::metrics::{counted_false_positive_ratio, CacheCounters, StageTotals, Stopwatch};
use executor::Shard;
use merge::WaveMerge;
use sqbench_graph::{Dataset, Graph, GraphId, GraphSynopsis};
use sqbench_index::{build_index, IndexStats, MethodConfig, MethodKind};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What the sharded service records for one query of a wave.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryRecord {
    /// The query's admission ticket (for open waves) or its position in the
    /// submitted slice (for closed waves).
    pub ticket: Ticket,
    /// Merged verified answers as *global* graph ids, sorted ascending.
    pub answers: Vec<GraphId>,
    /// Candidates surviving filtering, summed across shards.
    pub candidate_count: usize,
    /// Graphs pruned by filtering, summed across shards.
    pub candidates_pruned: usize,
    /// Longest queue wait across shards (the query is not done before its
    /// slowest shard picks it up), plus — for open waves served through
    /// [`ShardedService::drain`] — the time the query spent pending in the
    /// [`AdmissionQueue`] before the wave started.
    pub queue_wait_s: f64,
    /// Seconds spent probing the cross-query caches: per-shard feature
    /// cache probes summed across shards, or the single admission-time
    /// answer-memo probe for a memo-served query. `0.0` when caching is
    /// disabled.
    pub cache_probe_s: f64,
    /// Filter work summed across shards (total work, not critical path).
    pub filter_s: f64,
    /// Verify work summed across shards (total work, not critical path).
    pub verify_s: f64,
    /// End-to-end seconds from the query's submission (its admission
    /// point, for open waves; the wave start for closed waves) to the
    /// moment the merge finalized its outcome — the latency a caller
    /// observes, as opposed to the summed per-stage *work* above. This is
    /// what the wave's latency percentiles are built from. Mutations
    /// report their queue wait; memo hits their wait plus the probe.
    pub latency_s: f64,
    /// How the query's execution ended across its probed shards:
    ///
    /// * [`QueryOutcome::Complete`] — every probed shard verified it; the
    ///   answer set is exact.
    /// * [`QueryOutcome::Degraded`] — some probed shards finished, others
    ///   failed or ran out of deadline budget; the answers are the partial
    ///   union of the finished shards (sound — every id is a verified
    ///   match — but possibly incomplete).
    /// * [`QueryOutcome::TimedOut`] — the deadline expired before the
    ///   query could start on any shard; answers are dropped.
    /// * [`QueryOutcome::Failed`] — execution failed on every shard that
    ///   could have answered and retries did not recover it.
    pub outcome: QueryOutcome,
    /// Per-shard retry attempts spent on this query (0 on the happy path).
    pub retries: u32,
    /// Shards this query was actually dispatched to. Equals the shard
    /// count under [`RoutingMode::Fanout`]; under [`RoutingMode::Synopsis`]
    /// it can be as low as 0 (no shard can possibly match — the query is
    /// answered empty without touching any index).
    pub shards_probed: usize,
    /// Shards the router proved could hold no match and skipped.
    /// `shards_probed + shards_skipped` always equals the shard count.
    pub shards_skipped: usize,
}

impl ShardedQueryRecord {
    /// Number of verified answers (0 for expired/failed queries).
    pub fn answer_count(&self) -> usize {
        self.answers.len()
    }

    /// `true` when the query's deadline expired before it could start —
    /// the pre-outcome `expired` flag, kept as the deadline-accounting
    /// vocabulary of the soak tests and sweeps.
    pub fn expired(&self) -> bool {
        matches!(self.outcome, QueryOutcome::TimedOut)
    }
}

/// Everything one wave (closed batch or admission drain) produced.
#[derive(Debug)]
pub struct ShardedReport {
    /// Per-query records, in wave order.
    pub records: Vec<ShardedQueryRecord>,
    /// Stage totals per shard, indexed by shard — the balance view the
    /// shard-count experiments plot.
    pub per_shard: Vec<StageTotals>,
    /// Merged stage totals over executed (non-expired) queries: queue wait
    /// is the per-query max across shards, filter/verify are total work.
    pub totals: StageTotals,
    /// Wall-clock seconds the wave took end to end across all shards.
    pub wall_s: f64,
    /// Number of shards the wave ran on.
    pub shards: usize,
    /// Dataset inserts applied while serving this wave (open
    /// [`ShardedService::drain`] waves only; always 0 for closed waves).
    pub inserts_applied: usize,
    /// Dataset removals applied while serving this wave. Removals of
    /// already-dead or unknown ids are not counted.
    pub removes_applied: usize,
}

impl ShardedReport {
    /// The report of a wave that served nothing on `shards` shards.
    fn empty(shards: usize) -> Self {
        ShardedReport {
            records: Vec::new(),
            per_shard: vec![StageTotals::default(); shards],
            totals: StageTotals::default(),
            wall_s: 0.0,
            shards,
            inserts_applied: 0,
            removes_applied: 0,
        }
    }

    /// Queries that produced an answer set: [`QueryOutcome::Complete`]
    /// plus [`QueryOutcome::Degraded`].
    pub fn executed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_executed())
            .count()
    }

    /// Queries dropped because a deadline expired before execution.
    pub fn expired(&self) -> usize {
        self.records.iter().filter(|r| r.expired()).count()
    }

    /// Queries whose every probed shard completed (exact answers).
    pub fn complete(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Complete)
            .count()
    }

    /// Queries answered partially within the deadline budget.
    pub fn degraded(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, QueryOutcome::Degraded { .. }))
            .count()
    }

    /// Queries whose execution failed beyond retry on every shard.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == QueryOutcome::Failed)
            .count()
    }

    /// Total per-shard retry attempts the wave spent recovering failures.
    pub fn retries(&self) -> u64 {
        self.records.iter().map(|r| r.retries as u64).sum()
    }

    /// Workload false positive ratio (Equation 3) over executed queries,
    /// with the sharded candidate sets. `0.0` for an empty wave — never
    /// NaN, so CSV reports stay well-formed.
    pub fn false_positive_ratio(&self) -> f64 {
        counted_false_positive_ratio(
            self.records
                .iter()
                .filter(|r| r.outcome.is_executed())
                .map(|r| (r.candidate_count, r.answer_count())),
        )
    }

    /// Executed queries per wall-clock second. `0.0` for an empty or
    /// zero-duration wave — never NaN or infinity.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_s > 0.0 && self.wall_s.is_finite() {
            self.executed() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Total `(query, shard)` probes the wave dispatched, over executed
    /// queries. A fanned-out wave probes `executed × shards`; the routed
    /// wave's savings show up as [`ShardedReport::shards_skipped`].
    pub fn shards_probed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome.is_executed())
            .map(|r| r.shards_probed as u64)
            .sum()
    }

    /// Total `(query, shard)` probes the router skipped, over executed
    /// queries. Always 0 under [`RoutingMode::Fanout`].
    pub fn shards_skipped(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.outcome.is_executed())
            .map(|r| r.shards_skipped as u64)
            .sum()
    }
}

/// The sharded query service: N shard pools behind one admission front.
/// Construct with [`ShardedService::new`] from a [`ServiceOptions`], then
/// either serve closed waves ([`ShardedService::run_wave`]) or drain an
/// open [`AdmissionQueue`] ([`ShardedService::drain`]).
pub struct ShardedService {
    shards: Vec<Shard>,
    strategy: ShardStrategy,
    routing: RoutingMode,
    router: Router,
    retry: RetryPolicy,
    /// The whole-answer memo (no feature level — those are per shard),
    /// probed at admission before any shard is touched. Service-level
    /// because its entries are *merged global* answers.
    caches: CacheLevels,
    partition_overhead_bytes: usize,
    /// The next global graph id [`ShardedService::insert_graph`] hands
    /// out. Global ids are append-only and never reused (removal
    /// tombstones), so this only grows.
    next_global_id: GraphId,
}

impl ShardedService {
    /// Partitions `dataset`, builds one `kind` index per shard, computes
    /// each shard's routing synopsis and sets up the per-shard worker
    /// pools (plus the cross-query caches when [`super::CachePolicy`] enables
    /// them). Building is sequential per shard; the returned service
    /// serves waves across all shards concurrently.
    ///
    /// `opts.workers` is the pool size *per shard*.
    pub fn new(
        kind: MethodKind,
        method_config: &MethodConfig,
        dataset: &Dataset,
        opts: impl Into<ServiceOptions>,
    ) -> Self {
        let opts: ServiceOptions = opts.into();
        let parts = partition_dataset(dataset, opts.shards, opts.strategy);
        // The partition shares graph storage with `dataset`, so each
        // part's uniquely-owned bytes are its pointer spine — summed here
        // while the source dataset is provably still alive, this is the
        // honest incremental memory the sharded layout costs on top of it.
        let partition_overhead_bytes = parts
            .iter()
            .map(|part| part.dataset.owned_memory_bytes())
            .sum();
        // The router is always built (one cheap pass per shard slice) so a
        // service can serve both modes and diagnostics can inspect the
        // synopses; `routing` only decides whether waves consult it.
        let router = Router::build(parts.iter().map(|p| &p.dataset));
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                let index = build_index(kind, method_config, &part.dataset);
                Shard::spawn(s, part, index, &opts)
            })
            .collect();
        ShardedService {
            shards,
            strategy: opts.strategy,
            routing: opts.routing,
            router,
            retry: opts.retry,
            caches: CacheLevels::new(CachePolicy {
                feature_capacity: 0,
                ..opts.cache
            }),
            partition_overhead_bytes,
            next_global_id: dataset.len(),
        }
    }

    /// Incremental heap bytes the shard partition added on top of the
    /// source dataset at build time: the shards' `Arc` pointer spines.
    /// Before the shared-storage data model this was a full second copy of
    /// the dataset (~100% of `Dataset::memory_bytes`); now it is
    /// O(pointers).
    pub fn partition_overhead_bytes(&self) -> usize {
        self.partition_overhead_bytes
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning strategy the service was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The routing mode waves run under.
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// The routing planner (one synopsis per shard), consultable even when
    /// the service was built in [`RoutingMode::Fanout`].
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Graphs per shard, indexed by shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().dataset.len()).collect()
    }

    /// Largest worker pool each shard's executor ever scaled to, indexed
    /// by shard — the dynamic-scaling high-water mark. Equals the
    /// configured floor everywhere while scaling is disabled
    /// (`workers_max <= workers`).
    pub fn worker_high_water(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.worker_high_water.load(Ordering::Relaxed))
            .collect()
    }

    /// Aggregated index statistics: feature counts and sizes summed over
    /// all shard indexes.
    pub fn stats(&self) -> IndexStats {
        let mut total = IndexStats {
            distinct_features: 0,
            size_bytes: 0,
        };
        for shard in &self.shards {
            let stats = shard.lock().index.stats();
            total.distinct_features += stats.distinct_features;
            total.size_bytes += stats.size_bytes;
        }
        total
    }

    /// Aggregated cross-query cache counters: feature-cache hits/misses
    /// summed over the shards plus the service-level answer-memo counters.
    /// All zeros when caching is disabled.
    pub fn cache_counters(&self) -> CacheCounters {
        let mut counters = CacheCounters::default();
        for shard in &self.shards {
            shard.lock().caches.add_counters(&mut counters);
        }
        self.caches.add_counters(&mut counters);
        counters
    }

    /// Drops every cached entry (all per-shard feature caches and the
    /// answer memo) and bumps their epochs. Every mutation entry point
    /// ([`ShardedService::insert_graph`], [`ShardedService::remove_graph`],
    /// and therefore the drained [`IngestOp`] mutations) calls this
    /// automatically, so a warm answer memo can never replay a
    /// pre-mutation answer — the caches stay *enabled* on mutable
    /// workloads instead of being turned off defensively.
    /// Hit/miss/eviction counters survive the flush.
    pub fn invalidate_caches(&self) {
        for shard in &self.shards {
            shard.lock().caches.invalidate_all();
        }
        self.caches.invalidate_all();
    }

    /// Appends `graph` to the service online: places it on a shard by the
    /// build-time strategy, pushes it into that shard's dataset, extends
    /// the shard's index incrementally (no rebuild), widens the shard's
    /// routing synopsis in place, and **invalidates every cache** so no
    /// stale answer survives the mutation. Returns the graph's new global
    /// id — dense, append-only, never reused.
    pub fn insert_graph(&mut self, graph: Graph) -> GraphId {
        let global = self.next_global_id;
        self.next_global_id += 1;
        let shard_idx = partition::place(self.strategy, &self.shards, &self.router, &graph, global);
        let synopsis = GraphSynopsis::of(&graph);
        // Widen the routing tier before the graph moves into the shard:
        // `insert_graph` holds `&mut self`, so no wave can observe the
        // widened router ahead of the actual insert.
        self.router.absorb(shard_idx, &graph, &synopsis);
        {
            let mut core = self.shards[shard_idx].lock();
            // The index assigns the same local id the dataset push does:
            // both are defined as the current dense universe size.
            let local = core.index.insert(&graph);
            let pushed = core.dataset.push(graph);
            debug_assert_eq!(local, pushed);
            // New global ids exceed every id already in the table, so the
            // push keeps `to_global` sorted — the invariant that makes
            // merged answers come out in global id order.
            core.to_global.push(global);
        }
        self.invalidate_caches();
        global
    }

    /// Removes the graph with global id `global_id` online: tombstones it
    /// in its shard's dataset and index (ids stay dense; payload
    /// compaction is lazy), takes it back out of that shard's routing
    /// synopsis and fingerprint, and **invalidates every cache**. Returns
    /// `false` when the id is unknown or already removed.
    ///
    /// The routing tier pays for the one graph being removed — its
    /// synopsis and short paths, through [`Router::retract`] — never for a
    /// pass over the shard, and what it leaves is exactly what rebuilding
    /// the router over the shard's live graphs would compute (see
    /// [`Router`]): bounds and bits the victim alone witnessed are gone,
    /// everything a live graph needs is still there.
    pub fn remove_graph(&mut self, global_id: GraphId) -> bool {
        for s in 0..self.shards.len() {
            let mut core = self.shards[s].lock();
            let Ok(local) = core.to_global.binary_search(&global_id) else {
                continue;
            };
            let Ok(victim) = core.dataset.shared(local).cloned() else {
                // Already tombstoned: report idempotently, touch nothing.
                return false;
            };
            let dataset_removed = core.dataset.remove(local);
            let index_removed = core.index.remove(local);
            debug_assert!(
                dataset_removed && index_removed,
                "dataset and index tombstones diverged"
            );
            drop(core);
            self.router.retract(s, &victim, &GraphSynopsis::of(&victim));
            self.invalidate_caches();
            return true;
        }
        false
    }

    /// Serves one closed wave of queries against every shard concurrently
    /// and merges the results. Records come back in wave order with the
    /// query's position as its ticket. `deadline` is wave-wide; see
    /// [`ShardedService::drain`] for per-query deadlines.
    pub fn run_wave(&mut self, queries: &[&Graph], deadline: Option<Instant>) -> ShardedReport {
        let tickets: Vec<Ticket> = (0..queries.len() as u64).collect();
        self.run_wave_inner(Wave {
            queries,
            tickets: &tickets,
            deadline,
            per_query: None,
            admission_wait_s: None,
        })
    }

    /// Drains every operation currently admitted to `queue` and serves
    /// them as one wave, honouring each query's own admission deadline.
    /// Returns immediately with an empty report when nothing is pending —
    /// the caller's consumer loop paces itself. The queue is deliberately
    /// external to the service so any number of producer threads can
    /// `submit` against it while the consumer drains.
    ///
    /// Mutations ([`IngestOp::Insert`] / [`IngestOp::Remove`]) interleave
    /// with reads in **ticket order**: consecutive reads are batched and
    /// fanned out together, each mutation flushes the batch first and is
    /// then applied (through [`ShardedService::insert_graph`] /
    /// [`ShardedService::remove_graph`], so caches are invalidated and
    /// synopses widened automatically). A query therefore always observes
    /// exactly the dataset state of its admission point — never answers
    /// computed against a snapshot a later (or earlier) write belongs to.
    /// Mutations produce their own (empty-answer, `Complete`) records so
    /// the report stays wave-shaped; no ticket is ever lost.
    pub fn drain(&mut self, queue: &AdmissionQueue, deadline: Option<Instant>) -> ShardedReport {
        let wave: Vec<AdmittedQuery> = queue.drain_pending();
        let mut report = ShardedReport::empty(self.shards.len());
        if wave.is_empty() {
            return report;
        }
        let watch = Stopwatch::start();
        // Queue-wait accounting starts at submission, not at wave start: a
        // query that sat in a backed-up admission queue carries that wait
        // into its record on top of the in-wave shard queue wait.
        let drained_at = Instant::now();
        let mut reads: Vec<AdmittedQuery> = Vec::new();
        for admitted in wave {
            if !admitted.op.is_mutation() {
                reads.push(admitted);
                continue;
            }
            self.flush_reads(&mut reads, queue, deadline, drained_at, &mut report);
            let wait_s = drained_at
                .saturating_duration_since(admitted.submitted_at)
                .as_secs_f64();
            match admitted.op {
                IngestOp::Insert(graph) => {
                    self.insert_graph(graph);
                    report.inserts_applied += 1;
                }
                IngestOp::Remove(id) => {
                    if self.remove_graph(id) {
                        report.removes_applied += 1;
                    }
                }
                IngestOp::Query(_) => unreachable!("filtered above"),
            }
            report.records.push(ShardedQueryRecord {
                ticket: admitted.ticket,
                answers: Vec::new(),
                candidate_count: 0,
                candidates_pruned: 0,
                queue_wait_s: wait_s,
                cache_probe_s: 0.0,
                filter_s: 0.0,
                verify_s: 0.0,
                outcome: QueryOutcome::Complete,
                retries: 0,
                shards_probed: 0,
                shards_skipped: 0,
                latency_s: wait_s,
            });
        }
        self.flush_reads(&mut reads, queue, deadline, drained_at, &mut report);
        report.wall_s = watch.elapsed_secs();
        report
    }

    /// Serves the pending run of consecutive drained reads as a sub-wave,
    /// folds its results into `report` and empties `reads`.
    ///
    /// Every executed record that actually reached a shard feeds the
    /// queue's measured cost model, so future [`AdmissionQueue::submit_or_shed`]
    /// decisions are earned from observed filter/verify cost rather than
    /// asserted by callers. Memo hits (zero shards probed) are excluded:
    /// they carry candidate counts from the run that populated the memo
    /// but near-zero serve cost, and would drag the estimate toward zero.
    fn flush_reads(
        &mut self,
        reads: &mut Vec<AdmittedQuery>,
        queue: &AdmissionQueue,
        deadline: Option<Instant>,
        drained_at: Instant,
        report: &mut ShardedReport,
    ) {
        if reads.is_empty() {
            return;
        }
        let queries: Vec<&Graph> = reads
            .iter()
            .map(|a| a.query().expect("read batch holds only queries"))
            .collect();
        let per_query: Vec<Option<Instant>> = reads.iter().map(|a| a.deadline).collect();
        let tickets: Vec<Ticket> = reads.iter().map(|a| a.ticket).collect();
        let admission_wait_s: Vec<f64> = reads
            .iter()
            .map(|a| {
                drained_at
                    .saturating_duration_since(a.submitted_at)
                    .as_secs_f64()
            })
            .collect();
        let served = self.run_wave_inner(Wave {
            queries: &queries,
            tickets: &tickets,
            deadline,
            per_query: Some(&per_query),
            admission_wait_s: Some(&admission_wait_s),
        });
        for record in &served.records {
            if record.outcome.is_executed() && record.shards_probed > 0 {
                queue.cost_model().observe(
                    record.candidate_count,
                    record.filter_s,
                    record.verify_s,
                );
            }
        }
        report.records.extend(served.records);
        for (s, shard_totals) in served.per_shard.iter().enumerate() {
            report.per_shard[s].merge(shard_totals);
        }
        report.totals.merge(&served.totals);
        reads.clear();
    }

    /// The wave driver: admit → route and run only the memo misses → settle.
    /// Every state transition of the event-driven merge is a [`WaveMerge`]
    /// method; this loop only sequences them.
    fn run_wave_inner(&mut self, wave: Wave<'_>) -> ShardedReport {
        let watch = Stopwatch::start();
        // Memo admission (see `cache`): a hit is served straight from the
        // memo and reaches no shard, so a repeated hot query costs one
        // canonical-key probe instead of up to `shard_count` index probes.
        let admission = self.caches.admit(wave.queries, |qi| wave.deadline_of(qi));
        // Routing stage, over the misses only: per shard, the ascending
        // wave indices of the queries it must serve. Synopsis routing
        // skips shards the summary proves empty of matches — soundly, so
        // the merge stays bit-identical to fan-out.
        let misses: Vec<&Graph> = admission
            .misses
            .iter()
            .map(|&qi| wave.queries[qi])
            .collect();
        let mut plan = self.router.plan(&misses, self.routing);
        for slot in plan.iter_mut().flatten() {
            *slot = admission.misses[*slot];
        }
        let mut merge = WaveMerge::new(&self.shards, self.retry, &wave, &plan);
        for (qi, entry, probe_s) in &admission.hits {
            merge.serve_from_memo(*qi, entry, *probe_s);
        }
        // Dispatch stage: probes ship to the persistent shard executors and
        // the merge folds each `(query, shard)` result the moment it lands —
        // per-query completion, so a slow or stalled shard only gates the
        // queries it actually serves, and retries are heap-scheduled
        // alongside live probes instead of running as barrier rounds.
        merge.launch(&plan);
        while merge.remaining() > 0 {
            merge.drain_ready();
            merge.fire_due_retries();
            merge.sweep_deadlines();
            if merge.remaining() > 0 {
                merge.wait();
            }
        }
        let (records, per_shard, totals) = merge.finish();
        for &qi in &admission.misses {
            let r = &records[qi];
            admission.settle(
                qi,
                r.outcome,
                &r.answers,
                r.candidate_count,
                r.candidates_pruned,
            );
        }
        ShardedReport {
            records,
            per_shard,
            totals,
            wall_s: watch.elapsed_secs(),
            shards: self.shards.len(),
            inserts_applied: 0,
            removes_applied: 0,
        }
    }
}

/// One wave's inputs; every slice is indexed like `queries`.
struct Wave<'w> {
    queries: &'w [&'w Graph],
    /// Admission tickets (open waves) or wave positions (closed waves).
    tickets: &'w [Ticket],
    /// The wave-wide deadline.
    deadline: Option<Instant>,
    /// Each query's own admission deadline (open waves only).
    per_query: Option<&'w [Option<Instant>]>,
    /// Seconds each query spent pending in the admission queue before the
    /// wave started (open waves only).
    admission_wait_s: Option<&'w [f64]>,
}

impl Wave<'_> {
    /// Query `qi`'s effective deadline: min(wave-wide, its own).
    fn deadline_of(&self, qi: usize) -> Option<Instant> {
        match (self.deadline, self.per_query.and_then(|p| p[qi])) {
            (Some(wave), Some(own)) => Some(wave.min(own)),
            (wave, own) => wave.or(own),
        }
    }
}
