//! The worker pool: claim-to-completion workers over one batch.
//!
//! A worker claims the next unstarted query with one atomic fetch-add on
//! the batch cursor and runs it to completion — deadline check, filter,
//! verify, record — before it claims again. Claiming is the whole
//! load-balancing mechanism: whichever worker is free takes the next query,
//! so skewed per-query costs never idle the pool, and a query's wall time
//! is spent on one thread from claim to finish.
//!
//! Workers are *scoped to a batch* (spawned with `std::thread::scope` so
//! they can borrow the index and dataset), but each worker's one
//! [`CandidateSet`] belongs to the caller and persists across batches —
//! after the first batch a worker filters entirely in recycled memory.

use super::admission::Ticket;
use super::fault::FaultPlan;
use super::past;
use super::stages::{run_query, QueryOutcome, QueryRecord};
use super::BatchReport;
use crate::metrics::StageTotals;
use sqbench_graph::{Dataset, Graph};
use sqbench_index::{CandidateSet, FeatureCacheStore, GraphIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The fault-injection view of one (sub-)batch: the shared plan plus the
/// admission tickets of the batch's queries (indexed like the batch), so
/// the worker loop can fire ticket-keyed faults at the right query even on
/// routed subsets and retry sub-batches.
#[derive(Clone, Copy)]
pub(crate) struct WaveFaults<'q> {
    pub plan: &'q FaultPlan,
    pub tickets: &'q [Ticket],
}

/// Runs one batch of queries on the claim-to-completion pool, one worker
/// per set in `sets` (clamped to the batch size). The sets persist across
/// calls — this is the body of [`super::QueryService::run_batch`],
/// factored out so callers that *own* their index and dataset, like the
/// sharded service's per-shard pools, can reuse it without the service's
/// borrowed-lifetime plumbing.
///
/// `deadline_of(i)` is query `i`'s effective deadline: a query already
/// [`past`] it when claimed is skipped as [`QueryOutcome::TimedOut`].
/// `faults` optionally arms the fault-injection hooks (tickets indexed like
/// `queries`); `cache` optionally shares a cross-query feature-bitset store
/// with every worker's filter (see
/// [`sqbench_index::GraphIndex::filter_into_cached`]).
///
/// With one worker the batch runs in place, in strict batch order — the
/// sequential-runner semantics, order-dependent Tree+Δ learning included.
///
/// # Panic isolation
///
/// Each query runs under its own `catch_unwind`: a query whose filter or
/// verification panics is recorded as [`QueryOutcome::Failed`] and the
/// worker keeps serving with the same set (`filter_into` re-targets a
/// half-written set on its next use).
pub(crate) fn run_batch_on(
    index: &dyn GraphIndex,
    dataset: &Dataset,
    sets: &mut [CandidateSet],
    queries: &[&Graph],
    deadline_of: impl Fn(usize) -> Option<Instant> + Sync,
    faults: Option<WaveFaults<'_>>,
    cache: Option<&dyn FeatureCacheStore>,
) -> BatchReport {
    let workers = sets.len().min(queries.len()).max(1);
    let next = AtomicUsize::new(0);
    // One clock read is the origin of every queue wait and of the batch
    // wall time, so no query's stage walk can exceed `wall_s`.
    let started = Instant::now();
    let worker = |slot: &mut CandidateSet| {
        // The set works on this worker's own stack for the batch: the
        // headers of sets side by side in `sets` share a cache line, and
        // every fold step writes one (its cached length).
        let mut set = std::mem::replace(slot, CandidateSet::empty(0));
        let mut completed = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data (the queries are
            // read-only; the scoped join orders every result).
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(query) = queries.get(idx) else {
                *slot = set;
                return completed;
            };
            let claimed = Instant::now();
            if past(deadline_of(idx), claimed) {
                completed.push((idx, QueryOutcome::TimedOut, None));
                continue;
            }
            let queue_wait_s = (claimed - started).as_secs_f64();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                run_query(index, dataset, query, &mut set, cache, queue_wait_s, || {
                    if let Some(faults) = &faults {
                        faults.plan.fire_verify_panic(faults.tickets[idx]);
                    }
                })
            }));
            completed.push(match ran {
                Ok(record) => (idx, QueryOutcome::Complete, Some(record)),
                Err(_) => (idx, QueryOutcome::Failed, None),
            });
        }
    };
    let completed: Vec<Vec<(usize, QueryOutcome, Option<QueryRecord>)>> = if workers == 1 {
        // In-place fast path: no thread spawn, strict batch order.
        vec![worker(&mut sets[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = sets[..workers]
                .iter_mut()
                .map(|set| {
                    let worker = &worker;
                    scope.spawn(move || worker(set))
                })
                .collect();
            // Per-query panics are caught inside the worker, so a join
            // error means the worker died in pool infrastructure. Don't
            // take the whole batch down with it: the queries that worker
            // claimed but never reported keep their `Failed` default
            // below, and the sharded layer's retry can still recover them.
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        })
    };
    let wall_s = started.elapsed().as_secs_f64();

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
            // Unsharded latency = batch start to the query's finish: its
            // queue wait up to the claim, then its filter and verify run
            // back to back on the claiming worker (the sharded merge
            // overrides this with true submission-to-finalize time).
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
