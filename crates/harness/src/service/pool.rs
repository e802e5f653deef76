//! The worker pool: per-worker candidate arenas and the worker loop that
//! drives both pipeline stages.
//!
//! Workers are *scoped to a batch* (spawned with `std::thread::scope` so
//! they can borrow the index and dataset), but their arenas belong to the
//! [`crate::service::QueryService`] and persist across batches — after the
//! first batch a worker's filter stage runs entirely in recycled memory.

use super::admission::Ticket;
use super::fault::FaultPlan;
use super::past;
use super::queue::{BatchQueue, StealDeque};
use super::stages::{filter_stage, verify_stage, QueryOutcome, QueryRecord, VerifyJob};
use sqbench_graph::{Dataset, Graph};
use sqbench_index::{CandidateSet, FeatureCacheStore, GraphIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One worker's reusable filtering memory: a pool of [`CandidateSet`]s the
/// filter stage draws arenas from and the verify stage returns them to.
/// Steady-state, a worker whose verify jobs are not stolen cycles a single
/// set; stealing moves a set to the thief's pool, so the fleet-wide set
/// count stays bounded by the number of in-flight queries.
#[derive(Debug, Default)]
pub struct WorkerArena {
    free_sets: Vec<CandidateSet>,
}

impl WorkerArena {
    /// Takes a set from the pool (or allocates an empty one on first use —
    /// `filter_into` re-targets it at the index's universe either way).
    pub fn take_set(&mut self) -> CandidateSet {
        self.free_sets
            .pop()
            .unwrap_or_else(|| CandidateSet::empty(0))
    }

    /// Returns a set to the pool for reuse.
    pub fn recycle(&mut self, set: CandidateSet) {
        self.free_sets.push(set);
    }

    /// Number of sets currently pooled (diagnostics/tests).
    pub fn pooled_sets(&self) -> usize {
        self.free_sets.len()
    }
}

/// The fault-injection view of one (sub-)batch: the shared plan plus the
/// admission tickets of the batch's queries (indexed like the batch), so
/// the worker loop can fire ticket-keyed faults at the right query even on
/// routed subsets and retry sub-batches.
#[derive(Clone, Copy)]
pub(crate) struct WaveFaults<'q> {
    pub plan: &'q FaultPlan,
    pub tickets: &'q [Ticket],
}

/// Everything a batch's workers share by reference.
pub(super) struct BatchShared<'q> {
    pub queue: BatchQueue<'q>,
    pub verify_queues: Vec<StealDeque<VerifyJob<'q>>>,
    pub deadline: Option<Instant>,
    /// Fault-injection hook; `None` on the (zero-cost) production path.
    pub faults: Option<WaveFaults<'q>>,
    /// Cross-query feature-bitset cache shared by every worker's filter
    /// stage; `None` (the default) is the byte-identical uncached path.
    pub cache: Option<&'q dyn FeatureCacheStore>,
}

impl<'q> BatchShared<'q> {
    /// Wraps a batch for a pool of `workers`, with an optional batch-wide
    /// deadline, an optional per-query deadline slice (indexed like
    /// `queries`), an optional fault-injection plan and an optional shared
    /// feature cache.
    pub fn with_deadlines(
        queries: &'q [&'q Graph],
        workers: usize,
        deadline: Option<Instant>,
        per_query: Option<&'q [Option<Instant>]>,
        faults: Option<WaveFaults<'q>>,
        cache: Option<&'q dyn FeatureCacheStore>,
    ) -> Self {
        BatchShared {
            queue: BatchQueue::with_deadlines(queries, per_query),
            verify_queues: (0..workers).map(|_| StealDeque::default()).collect(),
            deadline,
            faults,
            cache,
        }
    }

    /// Pops a verify job: the worker's own deque first (LIFO, cache-hot),
    /// then round-robin stealing from the other workers' deques.
    fn pop_verify(&self, worker: usize) -> Option<VerifyJob<'q>> {
        if let Some(job) = self.verify_queues[worker].pop() {
            return Some(job);
        }
        let n = self.verify_queues.len();
        (1..n)
            .map(|offset| &self.verify_queues[(worker + offset) % n])
            .find_map(StealDeque::steal)
    }

    /// `true` when query `idx` may no longer start: either the batch-wide
    /// deadline or the query's own admission deadline has passed.
    fn past_deadline(&self, idx: usize) -> bool {
        let now = Instant::now();
        past(self.deadline, now) || past(self.queue.deadline_of(idx), now)
    }
}

/// The worker loop, with a bounded *filter-ahead* window: in a multi-worker
/// pool a worker keeps up to two filtered jobs parked before it starts
/// verifying, so while it filters query *i+1* its parked verify job for
/// query *i* is genuinely stealable by an idle worker — that window is what
/// makes the filter of one query overlap the verification of another. With
/// one worker the window shrinks to a single job (there is nobody to steal
/// it), which degenerates to strict claim → filter → verify batch order —
/// the sequential-runner semantics, order-dependent Tree+Δ learning
/// included. When no work is claimable or stealable the worker polls with
/// exponential backoff until the batch drains. Returns every query this
/// worker completed, tagged with its batch position and outcome.
///
/// # Panic isolation
///
/// Both pipeline stages run under `catch_unwind`: a query whose filter or
/// verification panics is recorded as [`QueryOutcome::Failed`] (losing at
/// most its in-flight arena set) and the worker keeps serving. Crucially
/// the poisoned query is still marked complete on the batch queue, so the
/// other workers' drain condition cannot deadlock on a claim that will
/// never finish. The loop itself therefore never unwinds across a claimed
/// query.
pub(super) fn worker_loop<'q>(
    worker: usize,
    shared: &BatchShared<'q>,
    index: &dyn GraphIndex,
    dataset: &Dataset,
    arena: &mut WorkerArena,
) -> Vec<(usize, QueryOutcome, Option<QueryRecord>)> {
    let filter_ahead = if shared.verify_queues.len() > 1 { 2 } else { 1 };
    let mut completed = Vec::new();
    let mut idle_rounds: u32 = 0;
    loop {
        // Stage 1: claim and filter while the local park is below the
        // filter-ahead bound (this also bounds in-flight arenas per worker).
        if shared.verify_queues[worker].len() < filter_ahead {
            if let Some((idx, query, queue_wait_s)) = shared.queue.claim() {
                idle_rounds = 0;
                if shared.past_deadline(idx) {
                    // Budget exhausted (or the query's own admission
                    // deadline expired) before this query started: skip it,
                    // like the sequential runner's "remaining queries are
                    // skipped" semantics.
                    completed.push((idx, QueryOutcome::TimedOut, None));
                    shared.queue.complete_one();
                    continue;
                }
                let mut set = arena.take_set();
                // `set` is only borrowed by the closure, so it survives an
                // unwind (possibly half-filtered — `filter_into` re-targets
                // it on next use, so recycling stays safe).
                let filtered = catch_unwind(AssertUnwindSafe(|| {
                    filter_stage(index, query, &mut set, shared.cache)
                }));
                match filtered {
                    Ok((filter_s, cache_probe_s)) => {
                        shared.verify_queues[worker].push(VerifyJob {
                            query_index: idx,
                            query,
                            candidates: set,
                            queue_wait_s,
                            cache_probe_s,
                            filter_s,
                        });
                    }
                    Err(_) => {
                        arena.recycle(set);
                        completed.push((idx, QueryOutcome::Failed, None));
                        shared.queue.complete_one();
                    }
                }
                continue;
            }
        }
        // Stage 2: verify parked work (own first, then stolen).
        if let Some(job) = shared.pop_verify(worker) {
            let idx = job.query_index;
            // The job (and its arena set) moves into the guarded closure:
            // on a panic mid-verification the set is dropped with the
            // unwind — the arena reallocates on next take — but the query
            // is still accounted for and the pool keeps serving.
            let verified = catch_unwind(AssertUnwindSafe(|| {
                if let Some(faults) = &shared.faults {
                    faults.plan.fire_verify_panic(faults.tickets[idx]);
                }
                verify_stage(index, dataset, job)
            }));
            match verified {
                Ok((idx, record, set)) => {
                    arena.recycle(set);
                    completed.push((idx, QueryOutcome::Complete, Some(record)));
                }
                Err(_) => completed.push((idx, QueryOutcome::Failed, None)),
            }
            shared.queue.complete_one();
            idle_rounds = 0;
            continue;
        }
        if shared.queue.drained() {
            break;
        }
        // Another worker still owns in-flight jobs we might steal. Back
        // off exponentially (yield, then sleep up to ~1 ms) so a long
        // batch tail does not busy-burn a core per idle worker hammering
        // the cursor and every deque mutex.
        idle_rounds = (idle_rounds + 1).min(10);
        if idle_rounds <= 3 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(1 << idle_rounds));
        }
    }
    completed
}
